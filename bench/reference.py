"""Reference kernel: a fixed piece of work that reads the machine's speed.

The benchmark runs on shared hosts whose speed swings by up to 1.8x
within seconds and between minutes, for reasons outside the program
(CPU time tracks wall time, so this is not descheduling; see NOTES.md).
The kernel does the three kinds of work the package spends its time on
-- small HiGHS LPs, tiny numpy operations in a Python loop, and plain
Python -- on fixed inputs, and never calls the package.  ``run.py``
times one chunk of it between every two benchmark items and scales each
item's wall time by ``NOMINAL_S`` over the chunk times around it, so
the reported times read as if the machine ran at the reference speed
throughout.  A change to the package cannot move the kernel.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

# Time of one chunk at the reference speed, a little under the fastest
# chunk seen (23 ms) on a 2-core x86-64 VM (Intel Xeon, 2.1 GHz).  It
# only fixes the scale of the reported times; changing it rescales every
# reported time and breaks comparison with earlier runs.
NOMINAL_S = 0.020


class Reference:
    """Fixed LPs and points; ``chunk()`` times one pass over them."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.lps = []
        for n in range(2, 10):
            A = rng.standard_normal((4 * n, n))
            b = 1.0 + rng.random(4 * n)
            self.lps.append((-rng.standard_normal(n), A, b))
        self.points = rng.standard_normal((100, 4))

    def _work(self) -> float:
        acc = 0.0
        for c, A, b in self.lps:
            acc += linprog(c, A_ub=A, b_ub=b, bounds=(None, None), method="highs").fun
        kept: list[np.ndarray] = []
        for p in self.points:
            if all(np.linalg.norm(p - k) > 0.1 for k in kept):
                kept.append(p)
        table: dict[int, int] = {}
        s = 0
        for i in range(20000):
            table[i & 255] = s
            s += i * 3 % 7
        return acc + len(kept) + s

    def chunk(self) -> float:
        """Wall time of one chunk, in seconds."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0
