"""Per-layer tracing of the package, installed from outside it.

``Tracer.install`` replaces package functions by timing wrappers at the
module attributes their callers look up (for example
``masbound.exact.is_redundant`` or ``masbound.geometry.linprog``), so
``src/`` stays untouched.  Each call records one span in memory: name,
the benchmark item it belongs to, the enclosing span, start, end and a
small result summary.  ``layer_metrics`` folds the spans into the
per-layer metrics once the traced pass is over.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.special


@dataclass(frozen=True)
class Span:
    name: str
    item: object
    parent: int  # index of the enclosing span, -1 at the top
    t0: float
    t1: float
    info: object = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _linprog_retry(args, kwargs, result):
    # lp_maximize re-solves without presolve when the first call fails.
    return kwargs.get("options", {}).get("presolve") is False


def _vertex_count(args, kwargs, result):
    return 0 if result is None or result.vertices is None else len(result.vertices)


def _mas_summary(args, kwargs, result):
    return None if result is None else (result.t_star, result.polytope.nrows)


def _iterations(args, kwargs, result):
    return None if result is None else result.iterations


def _truth(args, kwargs, result):
    return bool(result)


# (defining module, attribute, span name, result summary).  Every
# masbound module that imported the attribute by name is patched too.
TRACE_POINTS = (
    ("masbound.geometry", "linprog", "geometry.linprog", _linprog_retry),
    ("masbound.geometry", "HalfspaceIntersection", "geometry.qhull", None),
    ("masbound.geometry", "_brute_force_vertices", "geometry.qhull_fallback", None),
    ("masbound.geometry", "bounding_box", "geometry.bounding_box", None),
    ("masbound.geometry", "enumerate_vertices", "geometry.enumerate_vertices", _vertex_count),
    ("masbound.geometry", "is_redundant", "geometry.is_redundant", _truth),
    ("masbound.exact", "_prune", "exact.prune", None),
    ("masbound.exact", "exact_t_star_unforced", "exact.t_star", _mas_summary),
    ("masbound.exact", "exact_t_star_forced", "exact.t_star", _mas_summary),
    ("masbound.powerseries", "bound_m1_unforced", "powerseries.m1", _iterations),
    ("masbound.powerseries", "bound_m1_forced", "powerseries.m1", _iterations),
    ("masbound.lyapunov", "bound_m2_unforced", "lyapunov.m2", None),
    ("masbound.lyapunov", "bound_m2_forced", "lyapunov.m2", None),
    ("masbound.linalg", "solve_discrete_lyapunov", "linalg.dlyap", None),
    ("masbound.linalg", "spectral_radius", "linalg.spectral_radius", None),
    ("masbound.model", "validate", "model.validate", None),
    ("masbound.montecarlo", "compute_study_row", "montecarlo.row", None),
)

STAGE_SPANS = ("exact.t_star", "powerseries.m1", "lyapunov.m2")

# Counts and times are per completed system; shares are plain fractions.
UNITS = {
    "geometry.linprog.calls": "count/sys",
    "geometry.linprog.s": "s/sys",
    "geometry.linprog.retries": "count/sys",
    "geometry.is_redundant.calls": "count/sys",
    "geometry.is_redundant.redundant_frac": "frac",
    "geometry.enumerate_vertices.calls": "count/sys",
    "geometry.enumerate_vertices.s": "s/sys",
    "geometry.enumerate_vertices.self_s": "s/sys",
    "geometry.vertices.out": "count/sys",
    "geometry.qhull.s": "s/sys",
    "geometry.qhull.fallbacks": "count/sys",
    "geometry.bounding_box.lps": "count/sys",
    "exact.steps": "count/sys",
    "exact.iterate_lps": "count/sys",
    "exact.prune_lps": "count/sys",
    "exact.prune.s": "s/sys",
    "exact.rows_out": "count/sys",
    "exact.t_star_ms.p50": "ms",
    "exact.t_star_ms.p75": "ms",
    "powerseries.calls": "count/sys",
    "powerseries.s": "s/sys",
    "powerseries.beta_steps": "count/sys",
    "lyapunov.s": "s/sys",
    "lyapunov.enum_share": "frac",
    "linalg.dlyap.calls": "count/sys",
    "linalg.dlyap.s": "s/sys",
    "linalg.spectral_radius.calls": "count/sys",
    "linalg.spectral_radius.s": "s/sys",
    "model.validate.calls": "count/sys",
    "montecarlo.row.self_s": "s/sys",
    "trace.untraced_systems_per_s": "1/s",
    "trace.traced_systems_per_s": "1/s",
    "trace.overhead": "frac",
}


class Tracer:
    """Span recorder; ``item`` tags the spans of the current benchmark item."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, summary=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                info = summary(args, kwargs, result) if summary else None
                self.spans[idx] = Span(name, self.item, parent, t0, t1, info)

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "masbound" or k.startswith("masbound.")]
        for owner, attr, name, summary in TRACE_POINTS:
            original = getattr(sys.modules[owner], attr)
            wrapper = self.wrap(name, original, summary)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, centred on rank q*n.  On a
    shared 2-core VM the CPU speed was seen to drift by 20-30 % within
    seconds, so the plain sample quantile of a few dozen distinct calls
    inherits the noise of the one call at that rank; averaging the
    neighbouring ranks, which ran at other times, damps it.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = scipy.special.betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def _nearest(spans: list[Span], idx: int, names) -> int:
    """Index of the closest enclosing span whose name is in ``names``, or -1."""
    p = spans[idx].parent
    while p >= 0 and spans[p].name not in names:
        p = spans[p].parent
    return p


def layer_metrics(spans: list[Span], systems: int, generated: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass, per completed system.

    Spans tagged ``"generate"`` come from input generation and only feed
    ``model.validate.calls`` (per generated system); all others come
    from the measured items.
    """
    gen = [s for s in spans if s.item == "generate"]
    work_idx = [i for i, s in enumerate(spans) if s.item != "generate"]

    def named(name):
        return [i for i in work_idx if spans[i].name == name]

    def total(idxs):
        return float(sum(spans[i].dur for i in idxs))

    lp = named("geometry.linprog")
    qhull = named("geometry.qhull")
    enum = named("geometry.enumerate_vertices")
    redundant = named("geometry.is_redundant")
    exact = named("exact.t_star")
    m1 = named("powerseries.m1")
    m2 = named("lyapunov.m2")
    rows = named("montecarlo.row")

    enum_nested = 0.0
    for i in lp + qhull:
        if _nearest(spans, i, ("geometry.enumerate_vertices",)) >= 0:
            enum_nested += spans[i].dur
    box_lps = sum(1 for i in lp if _nearest(spans, i, ("geometry.bounding_box",)) >= 0)
    prune_lps = iterate_lps = 0
    for i in lp:
        owner = _nearest(spans, i, ("exact.prune", "exact.t_star"))
        if owner >= 0:
            if spans[owner].name == "exact.prune":
                prune_lps += 1
            else:
                iterate_lps += 1
    enum_in_m2 = sum(spans[i].dur for i in enum if _nearest(spans, i, ("lyapunov.m2",)) >= 0)
    stage_in_rows = sum(
        spans[i].dur for i in work_idx
        if spans[i].name in STAGE_SPANS and _nearest(spans, i, ("montecarlo.row",)) >= 0
    )
    exact_ms = [spans[i].dur * 1e3 for i in exact]
    summaries = [spans[i].info for i in exact if spans[i].info is not None]
    m2_s = total(m2)
    per = 1.0 / max(systems, 1)
    return {
        "geometry.linprog.calls": len(lp) * per,
        "geometry.linprog.s": total(lp) * per,
        "geometry.linprog.retries": sum(1 for i in lp if spans[i].info) * per,
        "geometry.is_redundant.calls": len(redundant) * per,
        "geometry.is_redundant.redundant_frac": (
            sum(1 for i in redundant if spans[i].info) / len(redundant) if redundant else 0.0
        ),
        "geometry.enumerate_vertices.calls": len(enum) * per,
        "geometry.enumerate_vertices.s": total(enum) * per,
        "geometry.enumerate_vertices.self_s": (total(enum) - enum_nested) * per,
        "geometry.vertices.out": sum(spans[i].info or 0 for i in enum) * per,
        "geometry.qhull.s": total(qhull) * per,
        "geometry.qhull.fallbacks": len(named("geometry.qhull_fallback")) * per,
        "geometry.bounding_box.lps": box_lps * per,
        "exact.steps": sum(t + 1 for t, _ in summaries) * per,
        "exact.iterate_lps": iterate_lps * per,
        "exact.prune_lps": prune_lps * per,
        "exact.prune.s": total(named("exact.prune")) * per,
        "exact.rows_out": sum(r for _, r in summaries) * per,
        "exact.t_star_ms.p50": quantile(exact_ms, 0.50) if exact_ms else 0.0,
        "exact.t_star_ms.p75": quantile(exact_ms, 0.75) if exact_ms else 0.0,
        "powerseries.calls": len(m1) * per,
        "powerseries.s": total(m1) * per,
        "powerseries.beta_steps": sum(spans[i].info or 0 for i in m1) * per,
        "lyapunov.s": m2_s * per,
        "lyapunov.enum_share": enum_in_m2 / m2_s if m2_s > 0 else 0.0,
        "linalg.dlyap.calls": len(named("linalg.dlyap")) * per,
        "linalg.dlyap.s": total(named("linalg.dlyap")) * per,
        "linalg.spectral_radius.calls": len(named("linalg.spectral_radius")) * per,
        "linalg.spectral_radius.s": total(named("linalg.spectral_radius")) * per,
        "model.validate.calls": sum(1 for s in gen if s.name == "model.validate") / max(generated, 1),
        "montecarlo.row.self_s": (total(rows) - stage_in_rows) * per,
    }
