"""Random-system study harness and the package's method table.

Generates random stable single-output systems (with the documented
rejection rules), computes the exact admissibility index and both upper
bounds in the unforced and constant-input regimes for each through
`STAGES`, which the CLI and the sweep run as well, and aggregates
tightness statistics.  Each row also carries `m2_paper*`, which the `m2`
reports give beside `m`: the same levels with the paper's decay factor
rho(A)^2, not a bound for non-normal A, which `run_study` logs where it
falls below `t*`.  Also provides the constraint-asymmetry sweep on a
built-in oscillatory third-order demo system.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .config import OBSERVABILITY_THRESHOLD, STABILITY_THRESHOLD
from .errors import IterationCapError, MasboundError
from .exact import exact_t_star_forced, exact_t_star_unforced
from .lyapunov import bound_m2_forced, bound_m2_unforced
from .model import LtiSystem, OutputBox, validate
from .powerseries import bound_m1_forced, bound_m1_unforced

logger = logging.getLogger(__name__)

CSV_HEADER = "system_id,seed,n,rho,t_star,m1,m2,t_star_forced,m1_forced,m2_forced,epsilon,status"
# Consecutive rejected draws after which the generator gives up.
MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class StudyConfig:
    count: int = 300
    seed: int = 0
    epsilon: float = 0.01
    order_min: int = 1
    order_max: int = 8
    stability_threshold: float = STABILITY_THRESHOLD
    observability_threshold: float = OBSERVABILITY_THRESHOLD

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 1 <= self.order_min <= self.order_max:
            raise ValueError("order range must satisfy 1 <= order_min <= order_max")
        if not (0.0 < self.stability_threshold < 1.0):
            raise ValueError("stability threshold must lie in (0, 1)")


@dataclass
class StudyRow:
    system_id: int
    seed: int
    n: int
    rho: float
    t_star: int | None = None
    m1: int | None = None
    m2: int | None = None
    t_star_forced: int | None = None
    m1_forced: int | None = None
    m2_forced: int | None = None
    epsilon: float | None = None
    status: str = "ok"
    # Not in the CSV: the m2 reports' "m2_paper" (sigma = rho(A)^2), and
    # each stage's seconds, keyed by its CSV column.
    m2_paper: int | None = None
    m2_paper_forced: int | None = None
    times: dict = field(default_factory=dict)


def system_seed(master_seed: int, system_id: int) -> int:
    """Counter-derived per-system seed; independent of execution order."""
    return int(np.random.SeedSequence((master_seed, system_id)).generate_state(1)[0])


def random_stable_system(seed: int, config: StudyConfig = StudyConfig()) -> tuple[LtiSystem, OutputBox]:
    """Draw one random stable observable single-output system.

    Order is uniform over the configured range.  Eigenvalues are a
    random mix of reals, uniform in (-0.99, 0.99), and conjugate pairs
    with modulus uniform in (0, 0.99) and uniform angle, assembled in
    real block-diagonal form and conjugated by a well-conditioned random
    similarity.  C is one random row, B one random column, D = 0, and
    the box is the symmetric unit box.  Draws failing the stability or
    observability thresholds are rejected and resampled.
    """
    rng = np.random.default_rng(seed)
    box = OutputBox(np.array([1.0]), np.array([1.0]))
    # The order is drawn once so that rejection resampling (which hits
    # high orders harder through the observability rule) cannot skew the
    # order distribution away from uniform.
    n = int(rng.integers(config.order_min, config.order_max + 1))
    for _ in range(MAX_ATTEMPTS):
        blocks = []
        rem = n
        while rem > 0:
            if rem == 1 or rng.random() < 0.5:
                blocks.append(np.array([[rng.uniform(-0.99, 0.99)]]))
                rem -= 1
            else:
                r = rng.uniform(0.0, 0.99)
                th = rng.uniform(0.0, math.pi)
                a, b = r * math.cos(th), r * math.sin(th)
                blocks.append(np.array([[a, b], [-b, a]]))
                rem -= 2
        core = block_diag(*blocks)
        T = rng.standard_normal((n, n))
        while np.linalg.cond(T) > 1e3:
            T = rng.standard_normal((n, n))
        A = T @ core @ np.linalg.inv(T)
        sys = LtiSystem(
            A=A,
            B=rng.standard_normal((n, 1)),
            C=rng.standard_normal((1, n)),
        )
        report = validate(
            sys,
            box,
            stability_threshold=config.stability_threshold,
            observability_threshold=config.observability_threshold,
        )
        if report.ok:
            return sys, box
    raise MasboundError(
        f"system generation rejected {MAX_ATTEMPTS} consecutive draws (seed {seed})"
    )


# The method table: each study CSV column, in column order, and its call
# (sys, box, epsilon), which forwards only the arguments its entry point
# takes.  Each call looks its entry point up here when it runs, so a
# patched `montecarlo.<entry point>` takes effect.  A "_forced" column is
# the constant-input regime of the column without the suffix, and needs
# an input.
STAGES = {
    "t_star": lambda sys, box, eps: exact_t_star_unforced(sys, box),
    "m1": lambda sys, box, eps: bound_m1_unforced(sys, box),
    "m2": lambda sys, box, eps: bound_m2_unforced(sys, box),
    "t_star_forced": lambda sys, box, eps: exact_t_star_forced(sys, box, eps),
    "m1_forced": lambda sys, box, eps: bound_m1_forced(sys, box, eps),
    "m2_forced": lambda sys, box, eps: bound_m2_forced(sys, box, eps),
}


def _value(column: str, result) -> int:
    """The number a stage reports: `t_star` for the exact index, `m` for a bound."""
    return result.t_star if column.startswith("t_star") else result.m


def compute_study_row(
    system_id: int,
    config: StudyConfig,
    system: tuple[LtiSystem, OutputBox] | None = None,
) -> StudyRow:
    """All six indices for one system; failures are tagged, never raised."""
    seed = system_seed(config.seed, system_id)
    if system is None:
        sys, box = random_stable_system(seed, config)
    else:
        sys, box = system
    row = StudyRow(
        system_id=system_id,
        seed=seed,
        n=sys.n,
        rho=sys.rho,
        epsilon=config.epsilon,
    )
    tags: list[str] = []
    for column, call in STAGES.items():
        if column.endswith("_forced") and not sys.has_input:
            continue
        # The previous stage's result is freed before this stage's clock starts.
        res = None
        t0 = time.perf_counter()
        try:
            res = call(sys, box, config.epsilon)
        except IterationCapError:
            tags.append(f"capped:{column}")
            continue
        except MasboundError as exc:
            tags.append(f"error:{column}:{type(exc).__name__}")
            continue
        except ValueError:
            tags.append(f"unavailable:{column}")
            continue
        finally:
            row.times[column] = time.perf_counter() - t0
        setattr(row, column, _value(column, res))
        if column.startswith("m2"):
            setattr(row, "m2_paper" + column[2:], res.diagnostics["m2_paper"])
    if tags:
        row.status = ";".join(tags)
    return row


def run_study(
    config: StudyConfig,
    jobs: int = 1,
    systems: list[tuple[LtiSystem, OutputBox]] | None = None,
) -> tuple[list[StudyRow], dict]:
    """Compute rows for `count` systems and the summary statistics.

    Deterministic for a fixed config, independent of the worker count:
    each row depends only on (seed, system_id).  The pool forks its
    workers up front, so at most min(jobs, count, usable CPUs) start.
    Pass `systems` to bypass generation (length must equal count); that
    path runs inline.  Rows come back in system-id order on every path.
    """
    if systems is not None:
        if len(systems) != config.count:
            raise ValueError(f"got {len(systems)} systems for count={config.count}")
        rows = [
            compute_study_row(i, config, system=pair) for i, pair in enumerate(systems)
        ]
    elif jobs <= 1:
        rows = [compute_study_row(i, config) for i in range(config.count)]
    else:
        workers = min(jobs, config.count, _usable_cpus())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(
                    functools.partial(compute_study_row, config=config),
                    range(config.count),
                    chunksize=max(1, config.count // (4 * workers)),
                )
            )
    for row in rows:
        for label, bound_val in (("unforced", row.m2_paper), ("forced", row.m2_paper_forced)):
            t_ref = row.t_star if label == "unforced" else row.t_star_forced
            if bound_val is not None and t_ref is not None and bound_val < t_ref:
                logger.warning(
                    "m2_paper (sigma = rho(A)^2) falls below t* on system %d (%s): m2_paper=%d < t*=%d",
                    row.system_id,
                    label,
                    bound_val,
                    t_ref,
                )
    return rows, summarize(rows)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pairs(rows: list[StudyRow], a: str, b: str) -> list[tuple]:
    """(row.a, row.b) for each row that has both."""
    return [
        (getattr(r, a), getattr(r, b))
        for r in rows
        if getattr(r, a) is not None and getattr(r, b) is not None
    ]


def summarize(rows: list[StudyRow]) -> dict:
    """Tightness statistics over the rows with complete data.

    Gap statistics (m_i - t*) cover the unforced regime; the
    forced-versus-unforced fraction compares the exact indices.
    """
    out = {}
    for method in ("m1", "m2"):
        gaps = np.asarray([m - t for m, t in _pairs(rows, method, "t_star")], dtype=float)
        stats = (gaps.mean(), gaps.std(), np.median(gaps)) if gaps.size else (math.nan,) * 3
        for name, value in zip(("mean", "std", "median"), stats):
            out[f"{name}_{method}_gap"] = float(value)
    both = _pairs(rows, "m1", "m2")
    forced = _pairs(rows, "t_star_forced", "t_star")
    out["frac_m1_le_m2"] = sum(a <= b for a, b in both) / len(both) if both else math.nan
    out["frac_forced_ge_unforced"] = sum(f >= u for f, u in forced) / len(forced) if forced else math.nan
    out["count_capped"] = sum("capped" in r.status for r in rows)
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv_text(rows: list[StudyRow]) -> str:
    """The study CSV: one line per row, the columns of `CSV_HEADER`."""
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_cell(getattr(r, c)) for c in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Constraint-asymmetry sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    y_lower: float
    t_star: int
    m1: int
    m2: int
    m2_paper: int


def demo_system() -> LtiSystem:
    """Built-in third-order demo: an oscillatory pair plus a fast sign-flipping mode."""
    return LtiSystem(
        A=np.array([[0.9, -0.25, 1.0], [0.25, 0.9, 0.0], [0.0, 0.0, -0.98]]),
        C=np.array([[-1.0, 1.0, 0.5]]),
    )


def asymmetry_sweep(sys: LtiSystem, y_upper: float, y_lower_grid) -> list[SweepRow]:
    """Exact index, both bounds and `m2_paper` while the lower limit sweeps a grid.

    Single-output systems only; the upper limit stays fixed so the grid
    controls the asymmetry ratio.
    """
    if sys.q != 1:
        raise ValueError(f"asymmetry sweep needs a single-output system, got q={sys.q}")
    out = []
    for y_l in y_lower_grid:
        box = OutputBox(np.array([float(y_l)]), np.array([float(y_upper)]))
        t_star, m1, m2 = (STAGES[c](sys, box, None) for c in ("t_star", "m1", "m2"))
        out.append(SweepRow(float(y_l), t_star.t_star, m1.m, m2.m, m2.diagnostics["m2_paper"]))
    return out


def sweep_to_csv_text(rows: list[SweepRow]) -> str:
    lines = ["y_l,t_star,m1,m2,m2_paper"]
    for r in rows:
        lines.append(f"{_cell(r.y_lower)},{r.t_star},{r.m1},{r.m2},{r.m2_paper}")
    return "\n".join(lines) + "\n"
