"""Record the correctness reference of one workload's panel.

Usage: python3 bench/record_golden.py --workload study|bounds|mimo

Writes ``bench/golden/<workload>.json``: for every panel system its
stratum and the exact index ``t*`` in both regimes, and for ``study``
also the CSV row of ``montecarlo.rows_to_csv_text``.  Prints one JSON
line per system with the stage results and call times in ms.  Run it only at a commit whose results are the reference:
a run fails when its results differ from these files.
"""

from __future__ import annotations

import argparse
import json
import time

import env

env.pin()

import masbound.exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

GOLDEN_DIR = env.BENCH_DIR / "golden"


def record_entry(workload: str, pool_id: int, pair) -> tuple[dict, dict]:
    """The golden entry of one system, and its profile line."""
    result = run.run_item(workload, pool_id, pair)
    values, ms = dict(result.values), dict(result.ms)
    if workload == "bounds":
        # The bounds workload never computes t*; the reference does, untimed there.
        sys_, box = pair
        exact = {
            "t_star": lambda: masbound.exact.exact_t_star_unforced(sys_, box),
            "t_star_forced": lambda: masbound.exact.exact_t_star_forced(sys_, box, workloads.EPSILON),
        }
        for key, call in exact.items():
            t0 = time.perf_counter()
            values[key] = call().t_star
            ms[key] = (time.perf_counter() - t0) * 1e3
    failed = [k for k, v in values.items() if v is None]
    if failed:
        raise RuntimeError(f"{workload} system {pool_id} failed in {failed}")
    entry = {
        "id": pool_id,
        "stratum": list(workloads.stratum(pair[0])),
        "t_star": values["t_star"],
        "t_star_forced": values["t_star_forced"],
    }
    if result.row is not None:
        entry["row"] = result.row
    return entry, {"id": pool_id, "stratum": entry["stratum"], "values": values, "ms": ms}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    args = parser.parse_args()
    entries = []
    for pool_id, pair in workloads.panel(args.workload).items():
        entry, profile = record_entry(args.workload, pool_id, pair)
        entries.append(entry)
        print(json.dumps(profile), flush=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{args.workload}.json"
    path.write_text(json.dumps({"workload": args.workload, "panel": entries}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
