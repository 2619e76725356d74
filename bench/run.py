"""Benchmark of the masbound package: one workload, one seed, one run.

Usage:
    python3 bench/run.py --workload study|bounds|mimo --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from the
checkout's ``src/`` with BLAS pinned to one thread.  Workloads:

- ``study``  the paper's Monte Carlo study (SISO, orders 1-8, unit box),
  all six stages per system through ``montecarlo.compute_study_row``;
  dominated by the redundancy LPs of the exact index.
- ``bounds`` ``m1`` and ``m2`` in both regimes on SISO systems of order
  1-9, no exact index; dominated by vertex enumeration.
- ``mimo``   two outputs, one or two inputs, asymmetric boxes, orders
  2-5, all six stages; runs the general qhull and dedupe path.

With ``--trace 0`` the run warms up on one system, makes whole passes
over the workload's panel (see ``workloads.py``) in the seeded order
for about ``--seconds``, times set-up in fresh interpreters, and prints
the end-to-end metrics.  Between every two timed items it times a chunk
of the reference kernel of ``reference.py`` and reports each item's
times at the reference speed (see ``speed``).  With ``--trace 1`` it
runs each system of one pass untraced and then with the per-layer
wrappers of ``tracing.py``, and prints the per-layer metrics and the
tracing overhead.  Every run
checks its results against ``golden/<workload>.json``.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import env

env.pin()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import masbound  # noqa: E402
import masbound.lyapunov  # noqa: E402
import masbound.montecarlo  # noqa: E402
import masbound.powerseries  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from masbound.errors import MasboundError  # noqa: E402

STAGES = ("t_star", "m1", "m2", "t_star_forced", "m1_forced", "m2_forced")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# The tail is p75: the smallest panels (bounds, mimo) make 54 and 48
# calls of each bound per pass, twelve or more above the 75th
# percentile; p90 would rest on five.
UNITS = {
    "setup_s": "s",
    "systems_per_s": "1/s",
    "m1_ms.p50": "ms",
    "m1_ms.p75": "ms",
    "m2_ms.p50": "ms",
    "m2_ms.p75": "ms",
    "peak_rss_mb": "MB",
    "m1_gap.mean": "steps",
    "m2_gap.mean": "steps",
}


@dataclass
class ItemResult:
    pool_id: int
    values: dict  # stage -> index or bound, None when the call failed
    ms: dict  # stage -> wall time of the call
    row: str | None = None  # study CSV row
    wall_s: float = 0.0  # wall time of the whole item
    speed: float = 1.0  # factor to the reference speed, see speed()


def load_golden(workload: str) -> dict[int, dict]:
    path = env.BENCH_DIR / "golden" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return {entry["id"]: entry for entry in json.load(fh)["panel"]}


def run_item(workload: str, pool_id: int, pair) -> ItemResult:
    if workload == "bounds":
        sys_, box = pair
        eps = workloads.EPSILON
        calls = {
            "m1": lambda: masbound.powerseries.bound_m1_unforced(sys_, box),
            "m2": lambda: masbound.lyapunov.bound_m2_unforced(sys_, box),
            "m1_forced": lambda: masbound.powerseries.bound_m1_forced(sys_, box, eps),
            "m2_forced": lambda: masbound.lyapunov.bound_m2_forced(sys_, box, eps),
        }
        values, ms = {}, {}
        for key, call in calls.items():
            t0 = time.perf_counter()
            try:
                values[key] = call().m
            except (MasboundError, ValueError):
                values[key] = None
            ms[key] = (time.perf_counter() - t0) * 1e3
        return ItemResult(pool_id, values, ms)
    row = masbound.montecarlo.compute_study_row(pool_id, workloads.STUDY_CONFIG, system=pair)
    result = ItemResult(
        pool_id,
        {k: getattr(row, k) for k in STAGES},
        {k: v * 1e3 for k, v in row.times.items()},
    )
    if workload == "study":
        result.row = masbound.montecarlo.rows_to_csv_text([row]).splitlines()[1]
    return result


def check(workload: str, result: ItemResult, golden: dict) -> list[str]:
    """Differences from the golden file and violations of t* <= m1, m2."""
    ref = golden[result.pool_id]
    errors = []
    for suffix in ("", "_forced"):
        t_ref = ref["t_star" + suffix]
        t_got = result.values.get("t_star" + suffix, t_ref)
        if t_got != t_ref:
            errors.append(f"system {result.pool_id}: t_star{suffix}={t_got}, golden {t_ref}")
        for m in ("m1", "m2"):
            bound = result.values[m + suffix]
            if bound is not None and bound < t_ref:
                errors.append(f"system {result.pool_id}: {m}{suffix}={bound} < t*={t_ref}")
    if workload == "study" and result.row != ref["row"]:
        errors.append(f"system {result.pool_id}: study row {result.row!r}, golden {ref['row']!r}")
    return errors


def speed(before: float, after: float) -> float:
    """Factor that takes a wall time to the reference speed.

    ``before`` and ``after`` are the reference chunks timed around the
    measured work.  The machine's speed swings within seconds, so each
    item gets the factor of the two chunks that bracket it, not a run
    average.
    """
    return reference.NOMINAL_S / (0.5 * (before + after))


def measure(workload, order, inputs, seconds, ref):
    """Whole passes over the panel while the next one should end within ``seconds``.

    At least one pass always runs.  A reference chunk is timed before
    the first item and after every item.  Returns the results, the wall
    time of all passes and the pass count.
    """
    results = []
    passes = 0
    t0 = time.perf_counter()
    before = ref.chunk()
    while True:
        start = time.perf_counter()
        for pid in order:
            t_item = time.perf_counter()
            result = run_item(workload, pid, inputs[pid])
            result.wall_s = time.perf_counter() - t_item
            after = ref.chunk()
            result.speed = speed(before, after)
            before = after
            results.append(result)
        passes += 1
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return results, now - t0, passes


def warm_up(workload, order, inputs, golden, ref) -> ItemResult:
    """One untimed item of the smallest stratum with n >= 2, so qhull runs too.

    The reference kernel runs a few untimed chunks as well.
    """
    for _ in range(3):
        ref.chunk()
    pid = min((p for p in order if golden[p]["stratum"][0] >= 2), key=lambda p: golden[p]["stratum"])
    return run_item(workload, pid, inputs[pid])


def time_setup(workload: str, seed: int, ref) -> float:
    """Median time, at the reference speed, of a fresh interpreter that imports masbound and builds the inputs."""
    cmd = [sys.executable, str(env.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = ref.chunk()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        times.append(wall * speed(before, ref.chunk()))
    return statistics.median(times)


def failures(results) -> tuple[int, int]:
    attempted = sum(len(r.values) for r in results)
    failed = sum(1 for r in results for v in r.values.values() if v is None)
    return attempted, failed


def end_to_end(results, golden, panel_size, setup_s) -> dict[str, float]:
    """End-to-end metrics; every time is at the reference speed."""
    m1 = [r.ms[k] * r.speed for r in results for k in ("m1", "m1_forced")]
    m2 = [r.ms[k] * r.speed for r in results for k in ("m2", "m2_forced")]
    # Gaps over one pass: every pass repeats the same systems.
    gaps = {"m1": [], "m2": []}
    for r in results[:panel_size]:
        for suffix in ("", "_forced"):
            for m in gaps:
                if r.values[m + suffix] is not None:
                    gaps[m].append(r.values[m + suffix] - golden[r.pool_id]["t_star" + suffix])
    return {
        "setup_s": setup_s,
        "systems_per_s": len(results) / sum(r.wall_s * r.speed for r in results),
        "m1_ms.p50": tracing.quantile(m1, 0.50),
        "m1_ms.p75": tracing.quantile(m1, 0.75),
        "m2_ms.p50": tracing.quantile(m2, 0.50),
        "m2_ms.p75": tracing.quantile(m2, 0.75),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "m1_gap.mean": float(np.mean(gaps["m1"])),
        "m2_gap.mean": float(np.mean(gaps["m2"])),
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "masbound": masbound.__version__,
        "thread_vars": env.THREAD_VARS,
    }


def untraced_run(args, golden, order, inputs):
    ref = reference.Reference()
    warm = warm_up(args.workload, order, inputs, golden, ref)
    results, elapsed, passes = measure(args.workload, order, inputs, args.seconds, ref)
    setup_s = time_setup(args.workload, args.seed, ref)
    metrics = end_to_end(results, golden, len(order), setup_s)
    attempted, failed = failures(results)
    wall = sum(r.wall_s for r in results)
    info = {
        "passes": passes,
        "systems": len(results),
        "elapsed_s": elapsed,
        "failed_frac": failed / attempted,
        "wall_systems_per_s": len(results) / wall,
        "mean_speed": sum(r.wall_s * r.speed for r in results) / wall,
    }
    t_ms = [r.ms[k] * r.speed for r in results for k in ("t_star", "t_star_forced") if k in r.ms]
    if t_ms:
        info["t_star_ms.p50"] = tracing.quantile(t_ms, 0.50)
        info["t_star_ms.p75"] = tracing.quantile(t_ms, 0.75)
    return [warm] + results, metrics, UNITS, info


def traced_run(args, golden, order, inputs):
    """Each system of one pass twice: untraced, then with the layer wrappers.

    Alternating per system puts both timings in the same state of the
    machine, so their ratio is the tracing overhead and not drift.
    """
    warm_up(args.workload, order, inputs, golden, reference.Reference())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.item = "generate"
        regenerated = workloads.panel(args.workload)
    finally:
        tracer.uninstall()
    plain, traced = [], []
    plain_s = traced_s = 0.0
    for pid in order:
        t0 = time.perf_counter()
        plain.append(run_item(args.workload, pid, inputs[pid]))
        t1 = time.perf_counter()
        tracer.install()
        try:
            tracer.item = pid
            traced.append(run_item(args.workload, pid, regenerated[pid]))
        finally:
            tracer.uninstall()
        plain_s += t1 - t0
        traced_s += time.perf_counter() - t1
    # The panel takes consecutive pool ids up to its largest one, so
    # that many systems were generated.
    metrics = tracing.layer_metrics(tracer.spans, len(traced), max(regenerated) + 1)
    metrics["trace.untraced_systems_per_s"] = len(plain) / plain_s
    metrics["trace.traced_systems_per_s"] = len(traced) / traced_s
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    info = {"systems": len(traced), "spans": len(tracer.spans)}
    return plain + traced, metrics, tracing.UNITS, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    inputs = workloads.panel(args.workload)
    if args.setup_only:
        return 0
    golden = load_golden(args.workload)
    if set(golden) != set(inputs):
        print(f"error: golden/{args.workload}.json does not describe the current panel", file=sys.stderr)
        return 1
    order = workloads.visiting_order(inputs, args.seed)

    run = traced_run if args.trace else untraced_run
    results, metrics, units, info = run(args, golden, order, inputs)
    errors = [e for r in results for e in check(args.workload, r, golden)]
    attempted, failed = failures(results)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(environment()))
    print("info " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    for err in errors[:20]:
        print("check failed: " + err)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
