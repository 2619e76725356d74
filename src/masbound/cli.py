"""Command-line interface.

Subcommands: bound (upper bounds on the admissibility index), exact
(ground-truth index plus the pruned halfspace description), montecarlo
(the random-system comparison study), sweep-asymmetry (constraint
asymmetry sweep).  Machine-readable reports go to stdout as JSON; bulk
results are written as CSV.  Exit codes: 0 success, 1 usage/validation
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .errors import MasboundError
from .model import load_system
from .montecarlo import (
    STAGES,
    StudyConfig,
    asymmetry_sweep,
    demo_system,
    rows_to_csv_text,
    run_study,
    sweep_to_csv_text,
)

# The unforced `STAGES` columns of each `--method`; "_forced" names the other regime.
_METHOD_STAGES = {"power-series": ("m1",), "lyapunov": ("m2",), "both": ("m1", "m2")}
METHODS = tuple(_METHOD_STAGES)
# The diagnostics a `bound` report carries, in JSON order, where its method gives them.
_REPORTED = ("m2_paper", "sigma", "sigma_paper", "r1", "r2")
# The most points `--grid` may give; each runs the exact index and both bounds.
MAX_GRID_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this package reserves 2
    # for numerical failures, so remap usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # Python 3.11's argparse reads `--option=--` as an empty list, and
        # no option here takes a list.
        for name, value in vars(parsed).items():
            if isinstance(value, list):
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_input(args):
    """System, box and epsilon: `--epsilon`, else the file's, and one is required under `--forced`."""
    sys_, box, file_eps = load_system(args.input)
    epsilon = args.epsilon if args.epsilon is not None else file_eps
    if args.forced and epsilon is None:
        raise ValueError("--forced requires --epsilon (or an 'epsilon' key in the input file)")
    return sys_, box, epsilon


def _cmd_bound(args) -> int:
    sys_, box, epsilon = _load_input(args)
    report: dict = {"regime": "forced" if args.forced else "unforced"}
    if args.forced:
        report["epsilon"] = epsilon
    suffix = "_forced" if args.forced else ""
    for name in _METHOD_STAGES[args.method]:
        t0 = time.perf_counter()
        res = STAGES[name + suffix](sys_, box, epsilon)
        report[name] = res.m
        report[f"{name}_wall_time_s"] = time.perf_counter() - t0
        report.update((key, res.diagnostics[key]) for key in _REPORTED if key in res.diagnostics)
    print(json.dumps(report))
    return 0


def _polytope_csv(poly) -> str:
    lines = []
    for row, rhs in zip(poly.G, poly.h):
        lines.append(",".join(repr(float(v)) for v in row) + f",{repr(float(rhs))}")
    return "\n".join(lines) + "\n"


def _cmd_exact(args) -> int:
    sys_, box, epsilon = _load_input(args)
    t0 = time.perf_counter()
    result = STAGES["t_star_forced" if args.forced else "t_star"](sys_, box, epsilon)
    wall = time.perf_counter() - t0
    if args.emit_polytope:
        _atomic_write(args.emit_polytope, _polytope_csv(result.polytope))
    report = {
        "t_star": result.t_star,
        "regime": result.regime,
        "rows": int(result.polytope.nrows),
        "wall_time_s": wall,
    }
    if result.epsilon is not None:
        report["epsilon"] = result.epsilon
    print(json.dumps(report))
    return 0


def _cmd_montecarlo(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = StudyConfig(count=args.count, seed=args.seed, epsilon=args.epsilon)
    rows, summary = run_study(config, jobs=args.jobs)
    _atomic_write(args.out, rows_to_csv_text(rows))
    print(json.dumps(summary))
    return 0


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--grid must contain numbers, got {spec!r}") from None
    if step <= 0 or stop < start:
        raise ValueError(f"--grid needs step > 0 and stop >= start, got {spec!r}")
    # NaN passes the comparisons above; it and inf end up here.
    points = (stop - start) / step + 1e-9
    if not all(map(math.isfinite, (start, stop, step, points))):
        raise ValueError(f"--grid needs a finite start, stop, step and point count, got {spec!r}")
    if start <= 0:
        raise ValueError(f"--grid start is the swept lower limit and must be > 0, got {spec!r}")
    count = math.floor(points) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"--grid gives {count} points, above the limit of {MAX_GRID_POINTS}, got {spec!r}")
    return [start + i * step for i in range(count)]


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    if args.input is not None:
        sys_, box, _ = load_system(args.input)
        y_upper = float(box.y_upper[0])
    else:
        sys_ = demo_system()
        y_upper = 1.0
    rows = asymmetry_sweep(sys_, y_upper, grid)
    _atomic_write(args.out, sweep_to_csv_text(rows))
    print(json.dumps({"points": len(rows), "out": args.out}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="masbound", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="upper bounds on the admissibility index")
    p_bound.add_argument("input", help="JSON system description")
    p_bound.add_argument("--method", choices=METHODS, default="both")
    p_bound.add_argument("--forced", action="store_true", help="constant-input regime")
    p_bound.add_argument("--epsilon", type=float, default=None, help="steady-state margin in (0, 1]")
    p_bound.set_defaults(func=_cmd_bound)

    p_exact = sub.add_parser("exact", help="exact admissibility index and halfspace description")
    p_exact.add_argument("input", help="JSON system description")
    p_exact.add_argument("--forced", action="store_true")
    p_exact.add_argument("--epsilon", type=float, default=None)
    p_exact.add_argument("--emit-polytope", default=None, metavar="PATH", help="write the pruned H-rep as CSV")
    p_exact.set_defaults(func=_cmd_exact)

    p_mc = sub.add_parser("montecarlo", help="random-system comparison study")
    p_mc.add_argument("--count", type=int, default=300)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--epsilon", type=float, default=0.01)
    p_mc.add_argument("--out", default="study.csv")
    p_mc.add_argument("--jobs", type=int, default=1)
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_sweep = sub.add_parser("sweep-asymmetry", help="constraint-asymmetry sweep")
    p_sweep.add_argument("--input", default=None, help="JSON system description (default: built-in demo)")
    p_sweep.add_argument("--grid", default="0.1:2.0:0.1", help="lower-limit grid start:stop:step")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MasboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
