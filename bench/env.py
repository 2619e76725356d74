"""Process set-up shared by the benchmark's entry points.

``pin()`` must run before numpy is imported, because the BLAS library
reads its thread count when it loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread: the measured work is single-process and the machines
# it runs on have few cores, where BLAS threads only add contention.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin() -> None:
    """Pin BLAS to one thread, the process to one CPU, and put the checkout's ``src`` first on the path.

    One CPU, inherited by the set-up children, keeps every timed item
    and the reference chunks around it (see ``reference.py``) on the
    same core: the cores of a shared host slow down independently.
    Exits with status 1 when the checkout has no ``src/masbound``: the
    benchmark measures the source tree it sits in, never an installed copy.
    """
    os.environ.update(THREAD_VARS)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "masbound" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'masbound'}", file=sys.stderr)
        raise SystemExit(1)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
