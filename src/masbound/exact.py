"""Exact admissibility index and maximal admissible set.

Implements the classical iterative construction (Gilbert and Tan, 1991):
add the output constraints one time step at a time and stop as soon as
every newly generated inequality is redundant with respect to the set
built so far.  The step at which that first happens is the admissibility
index t*; the accumulated non-redundant inequalities describe the set.

For the constant-input case the computation runs in the shifted
coordinates (z0, u) where z0 = x0 - (I - A)^{-1} B u, the output rows
read C A^t z0 + H0 u, and the steady-state output H0 u is tightened to
(1 - epsilon) times the box to restore finite determination.

On a symmetric box (lower == upper) every band, and so every set built,
is symmetric about the origin: max(-r.x) = max(r.x), so one LP decides a
row and its mirror.  The accepted rows are the same rows in the same
order as with one LP per row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import EXACT_STEP_CAP, LP_TOL
from .errors import IterationCapError
from .geometry import Polytope, WarmLp
from .linalg import spectral_radius
from .model import LtiSystem, OutputBox, band_rows, dc_gain, output_bands


@dataclass(frozen=True)
class MasResult:
    """Admissibility index plus the halfspace description of the set.

    `rows` holds every inequality the construction accepted; `polytope`
    prunes them to the non-redundant ones on first access, with the LP
    tolerance `lp_tol` the construction used.  For the
    forced regime both live in (z0, u) coordinates; add (I - A)^{-1} B u
    to the first n components to recover x0.
    """

    t_star: int
    rows: Polytope
    regime: str
    epsilon: float | None = None
    lp_tol: float = LP_TOL

    @cached_property
    def polytope(self) -> Polytope:
        return _prune(self.rows, self.lp_tol)


def _prune(poly: Polytope, lp_tol: float) -> Polytope:
    """Drop rows that are implied by the remaining ones, one at a time."""
    lp = WarmLp(poly, lp_tol)
    for i in range(poly.nrows):
        if lp.active.sum() == 1:
            break
        lp.relax(i)
        if not lp.is_redundant(poly.G[i], poly.h[i]):
            lp.restore(i)
    return lp.polytope


def _iterate(bands, first: int, step_cap: int, lp_tol: float):
    """Shared constraint-addition loop.

    The first `first` bands (time step 0 included) make up the starting
    set; each later band is one time step.  When the starting bands are
    symmetric (lower == upper) so is every band and every set built, and
    a "-" row takes the verdict of its "+" row.  Returns (t_star,
    accepted rows).
    """
    start = list(itertools.islice(bands, first))
    # Every later band has the limits of the starting set's last band.
    symmetric = all(np.array_equal(lower, upper) for _, lower, upper in start)
    q = len(start[-1][1])
    lp = WarmLp(Polytope(*band_rows(start)), lp_tol)
    for t in range(step_cap + 1):
        rows, rhs = band_rows([next(bands)])
        fresh = [k for k in range(q if symmetric else 2 * q) if not lp.is_redundant(rows[k], rhs[k])]
        if symmetric:
            fresh += [k + q for k in fresh]
        if not fresh:
            return t, lp.polytope
        lp.add_rows(rows[fresh], rhs[fresh])
    raise IterationCapError(
        f"admissibility index not determined within {step_cap} steps",
        cap=step_cap,
    )


def exact_t_star_unforced(
    sys: LtiSystem,
    box: OutputBox,
    step_cap: int = EXACT_STEP_CAP,
    lp_tol: float = LP_TOL,
) -> MasResult:
    """Exact admissibility index of the autonomous system.

    Requires a strictly stable A; with an observable pair the iteration
    is guaranteed to terminate.
    """
    rho = spectral_radius(sys.A)
    if rho >= 1.0:
        raise ValueError(f"exact computation requires spectral radius < 1, got {rho:.6g}")
    if box.q != sys.q:
        raise ValueError(f"box has {box.q} outputs but system has {sys.q}")
    t_star, rows = _iterate(output_bands(sys, box), 1, step_cap, lp_tol)
    return MasResult(t_star=t_star, rows=rows, regime="unforced", lp_tol=lp_tol)


def exact_t_star_forced(
    sys: LtiSystem,
    box: OutputBox,
    epsilon: float,
    step_cap: int = EXACT_STEP_CAP,
    lp_tol: float = LP_TOL,
) -> MasResult:
    """Exact admissibility index of the epsilon-tightened constant-input set.

    Decision variables are (z0, u).  epsilon = 1 is accepted; the
    steady-state rows then force H0 u = 0 and the index matches the
    unforced one.
    """
    if not sys.has_input:
        raise ValueError("forced computation requires a system with an input channel (B)")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    rho = spectral_radius(sys.A)
    if rho >= 1.0:
        raise ValueError(f"exact computation requires spectral radius < 1, got {rho:.6g}")
    if box.q != sys.q:
        raise ValueError(f"box has {box.q} outputs but system has {sys.q}")
    bands = output_bands(sys, box, dc_gain(sys), epsilon)
    t_star, rows = _iterate(bands, 2, step_cap, lp_tol)
    return MasResult(t_star=t_star, rows=rows, regime="forced", epsilon=epsilon, lp_tol=lp_tol)
