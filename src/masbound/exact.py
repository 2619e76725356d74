"""Exact admissibility index and maximal admissible set.

Implements the classical iterative construction (Gilbert and Tan, 1991):
add the output constraints one time step at a time and stop as soon as
every newly generated inequality is redundant with respect to the set
built so far.  The step at which that first happens is the admissibility
index t*; the accumulated non-redundant inequalities describe the set.

For the constant-input case the computation runs in the shifted
coordinates (z0, u) where z0 = x0 - (I - A)^{-1} B u, the output rows
read C A^t z0 + H0 u, and the steady-state output H0 u is tightened to
(1 - epsilon) times the box to restore finite determination.  The
unforced regime is the same construction with no input: both entry
points pass `model.check_problem` and run one loop, `_iterate`, whose
starting set is the t = 0 band, or the steady-state band and the t = 0
band.

A row once redundant stays redundant (Gilbert and Tan's shift argument,
one row at a time).  Let T = A unforced, or blockdiag(A, I) in (z0, u):
under T every row becomes the row of the same output one step later,
with the same bound, and the steady band maps to itself.  If row (t, k)
is redundant with respect to the set O_{t-1} built before step t, LP
duality gives lambda >= 0 on rows of steps <= t - 1 with lambda' G = r
and lambda' h <= b, so r T = sum lambda_i (g_i T).  Each g_i T is a row
of a step <= t and holds on O_t (it was accepted, or found redundant for
a larger set), so row (t + 1, k) is redundant with respect to O_t.  Each
step therefore decides only its live rows, those whose last verdict was
"cut"; a row whose maximum lies below rhs + lp_tol - _TIE * rhs is
retired for the rest of the call.  A redundant verdict inside that band,
which the LP's tolerance could have flipped, keeps its row live, as does
a row below ZERO_ROW, which is redundant by tolerance and costs no LP.
The loop still stops at the first step with no cut, as it did when it
decided every row.

On a symmetric box (lower == upper) every band, and so every set built,
is symmetric about the origin: max(-r.x) = max(r.x), so one decision
settles a row and its mirror, and retiring a "+" row retires both.  A
decision is made in one of three ways:

- span: while the accepted rows have rank below the dimension d, a row
  whose component outside their span exceeds _SPAN times its norm and
  _FLOOR times lp_tol cuts.  The set contains the origin (box limits are
  positive) and so every multiple of that component, and the row's LP is
  unbounded.  The span is held as an orthonormal basis that must cover
  every accepted row: a row that lies off it by more than _ROUNDOFF but
  at most _SPAN times its norm stops the screen for the rest of the call.
- closed form: when the accepted rows are d mirrored pairs
  {-lower <= M x <= upper} with M square of rank d, the row's maximum is
  `geometry.parallelotope_maximum`.  A maximum within _TIE * rhs of
  rhs + lp_tol goes to the LP.
- LP: every other row, over the persistent model of `geometry.WarmLp`,
  which the call borrows from the process's free list at its first LP.

A screened or closed-form verdict is the one the LP reaches in exact
arithmetic, taken only where it is clear of the LP's tolerance, so the
accepted rows are those of one LP per decision, in the same order.  A
closed-form "redundant" is clear of the tie band and always retires its
row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import EXACT_STEP_CAP, LP_TOL, ZERO_ROW
from .errors import IterationCapError
from .geometry import Polytope, WarmLp, _certify_redundant, parallelotope_maximum
from .model import LtiSystem, OutputBox, band_rows, check_problem, output_bands, stable_dc_gain

# A row whose component outside the accepted rows' span exceeds _SPAN
# times its norm and _FLOOR times lp_tol cuts without an LP.  HiGHS
# reports such LPs unbounded once that component is well above its dual
# tolerance lp_tol; on the benchmark panels the smallest screened
# component is 1.9e-5 of its row and 1.6e-4 in absolute terms.
_SPAN = 1e-6
_FLOOR = 1e3
# An accepted row off the basis's span by more than _ROUNDOFF times its
# norm, but not by enough to join the basis, widens the set's span
# without a reliable basis vector; span screening then stops.
_ROUNDOFF = 1e-12
# A closed-form maximum within _TIE * rhs of rhs + lp_tol goes to the LP,
# and a row is retired only when its maximum lies below that band.
_TIE = 1e-6


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


def _norm(v) -> float:
    """`np.linalg.norm` of a vector, bitwise, without its call overhead."""
    return math.sqrt(v @ v)


def _residual(row, basis):
    """The component of `row` outside the span of the orthonormal rows of `basis`, projected out twice."""
    res = row - (basis @ row) @ basis
    return res - (basis @ res) @ basis


def _extend(basis, rows):
    """`basis` plus the normalised residual of every row off its span by more than _SPAN times its norm.

    None when a row off the span by more than _ROUNDOFF times its norm
    does not join (it is too near the span, or its norm is below
    ZERO_ROW): the basis would no longer cover the rows' span.
    """
    for row in rows:
        res = _residual(row, basis)
        norm = _norm(row)
        if norm >= ZERO_ROW and _norm(res) > _SPAN * norm:
            basis = np.vstack([basis, res / _norm(res)])
        elif _norm(res) > _ROUNDOFF * norm:
            return None
    return basis


def _iterate(bands, first: int, step_cap: int, lp_tol: float):
    """Shared constraint-addition loop.

    The first `first` bands (time step 0 included) make up the starting
    set; each later band is one time step.  When the starting bands are
    symmetric (lower == upper) so is every band and every set built, and
    a "-" row takes the verdict of its "+" row.  Each step decides only
    the live rows: a row leaves them for good once its slack, rhs +
    lp_tol less its maximum over the accepted rows, exceeds _TIE * rhs,
    since by the shift argument of the module docstring the same output's
    row stays redundant at every later step.  A row is decided by the
    span screen while the accepted rows have rank below the dimension and
    `basis` (None once `_extend` gives up) covers their span, by the
    parallelotope closed form while they are d mirrored pairs of rank d,
    and by an LP otherwise.  Returns (t_star, accepted rows).
    """
    start = list(itertools.islice(bands, first))
    # Every later band has the limits of the starting set's last band.
    symmetric = all(np.array_equal(lower, upper) for _, lower, upper in start)
    q = len(start[-1][1])
    lp = WarmLp(Polytope(*band_rows(start)), lp_tol)
    # The accepted rows as {-lower <= M x <= upper} while they come in
    # mirrored pairs, at most d of them.
    pairs = tuple(np.concatenate(part) for part in zip(*start))
    d = pairs[0].shape[1]
    basis = _extend(np.empty((0, d)), pairs[0])

    def slack(row, rhs, closed):
        """rhs + lp_tol less the row's maximum over the accepted rows; the row cuts where it is negative."""
        norm = _norm(row)
        if norm < ZERO_ROW:
            # Redundant by tolerance, not by a maximum: slack 0 keeps it live.
            return min(_certify_redundant(row, rhs, lp.maximize, lp_tol), 0.0)
        if screen and _norm(_residual(row, basis)) > max(_SPAN * norm, _FLOOR * lp_tol):
            return -math.inf
        if closed:
            gap = rhs + lp_tol - parallelotope_maximum(row, *pairs)
            if abs(gap) > _TIE * rhs:
                return gap
        return _certify_redundant(row, rhs, lp.maximize, lp_tol)

    # Row k of a band is output k % q, "+" below q and "-" from q on.
    live = list(range(q if symmetric else 2 * q))
    for t in range(step_cap + 1):
        M, lower, upper = next(bands)
        rows = np.concatenate([M, -M])
        rhs = np.concatenate([upper, lower])
        screen = basis is not None and len(basis) < d
        closed = pairs is not None and basis is not None and len(pairs[0]) == len(basis) == d
        slacks = [slack(rows[k], rhs[k], closed) for k in live]
        fresh = [k for k, gap in zip(live, slacks) if gap < 0]
        live = [k for k, gap in zip(live, slacks) if gap <= _TIE * rhs[k]]
        if symmetric:
            fresh += [k + q for k in fresh]
        if not fresh:
            return t, lp.polytope
        lp.add_rows(rows[fresh], rhs[fresh])
        # The outputs with a row accepted; each has both when the rows are mirrored.
        outputs = sorted({k % q for k in fresh})
        if screen:
            basis = _extend(basis, M[outputs])
        if pairs is not None and len(fresh) == 2 * len(outputs) and len(pairs[0]) + len(outputs) <= d:
            pairs = tuple(np.concatenate([old, new[outputs]]) for old, new in zip(pairs, (M, lower, upper)))
        else:
            pairs = None
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
    check_problem(sys, box)
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
    check_problem(sys, box, epsilon)
    t_star, rows = _iterate(output_bands(sys, box, stable_dc_gain(sys), epsilon), 2, step_cap, lp_tol)
    return MasResult(t_star=t_star, rows=rows, regime="forced", epsilon=epsilon, lp_tol=lp_tol)
