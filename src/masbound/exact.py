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
"cut"; a row whose maximum lies below rhs + LP_TOL - _TIE * rhs is
retired for the rest of the call.  A redundant verdict inside that band,
which the LP's tolerance could have flipped, keeps its row live, as does
a row below ZERO_ROW, which is redundant by tolerance and costs no LP.
The loop still stops at the first step with no cut, as it did when it
decided every row.

On a symmetric box (lower == upper) every band, and so every set built,
is symmetric about the origin: max(-r.x) = max(r.x), so one decision
settles a row and its mirror, and retiring a "+" row retires both.  A
decision is made in one of four ways:

- span: while the accepted rows have rank below the dimension d, a row
  whose component outside their span exceeds _SPAN times its norm and
  _FLOOR times LP_TOL cuts.  The set contains the origin (box limits are
  positive) and so every multiple of that component, and the row's LP is
  unbounded.  The span is held as an orthonormal basis that must cover
  every accepted row: a row that lies off it by more than _ROUNDOFF but
  at most _SPAN times its norm stops the screen for the rest of the call.
- closed form: when the accepted rows are d or d + 1 two-sided rows
  {-lower <= M x <= upper} of rank d whose first d rows each joined the
  span basis (`_leads`), the row's maximum is `geometry.pairs_maximum`,
  the least value of the LP's dual: one sum for d pairs, the least over
  a one-parameter line for d + 1.  The basis test keeps M's leading
  d x d block well conditioned, since `pairs_maximum` catches only an
  exactly singular one; with d pairs it always holds.  A value that is
  not finite goes to the LP.
- witness: the optimal points of the call's last _POOL LPs are held, and
  a row cuts when some held point p has r.p above rhs + LP_TOL by more
  than _TIE * rhs (|r.p| on a symmetric box, where -p is in the set
  too).  Every held point lies in the accepted set: a point joins right
  after its LP, and every row of a step is decided against the same
  set; when a step adds a band, each point is divided by
  max(1, m.p / upper, -m.p / lower) over the band's present sides.  The
  set is convex and holds the origin, so p shrunk towards the origin
  stays in it and now meets the new band.  The upkeep is one product of
  the held points with the new band's rows per step.
- LP: every other row, over the persistent model of `geometry.WarmLp`,
  which the call borrows from the process's free list at its first LP.
  The accepted rows are held there once, as bands: the starting bands,
  then per step one band of the outputs that cut, each side present
  only where it cut.  Each band row is one ranged HiGHS row
  -lower <= m.x <= upper, so on a symmetric box the LPs run on half as
  many rows as one-sided inequalities.

A closed-form maximum within _TIE * rhs of rhs + LP_TOL goes to the LP,
as does a row that no held point shows to cut clear of that band.  A
screened, closed-form or witnessed verdict is the one the LP reaches in
exact arithmetic (the LP's maximum is at least r.p), taken only where it
is clear of the LP's tolerance, so the accepted rows are those of one LP
per decision, in the same order.  A closed-form "redundant" is clear of
the tie band and always retires its row; a witnessed row cuts and stays
live.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import EXACT_STEP_CAP, LP_TOL, ZERO_ROW
from .errors import IterationCapError
from .geometry import Bands, Polytope, WarmLp, _certify_redundant, pairs_maximum
from .model import LtiSystem, OutputBox, check_problem, output_bands, stable_dc_gain

# A row whose component outside the accepted rows' span exceeds _SPAN
# times its norm and _FLOOR times LP_TOL cuts without an LP.  HiGHS
# reports such LPs unbounded once that component is well above its dual
# tolerance LP_TOL; on the benchmark panels the smallest screened
# component is 1.9e-5 of its row and 1.6e-4 in absolute terms.
_SPAN = 1e-6
_FLOOR = 1e3
# An accepted row off the basis's span by more than _ROUNDOFF times its
# norm, but not by enough to join the basis, widens the set's span
# without a reliable basis vector; span screening then stops.
_ROUNDOFF = 1e-12
# A closed-form maximum within _TIE * rhs of rhs + LP_TOL goes to the LP,
# and a row is retired only when its maximum lies below that band.
_TIE = 1e-6
# The optimal points of a call's last _POOL LPs are held as witnesses.
# On the mimo benchmark panel pools of 1, 2, 4, 8 and 16 points leave
# 586, 543, 485, 426 and 424 of its 625 LPs.
_POOL = 8


@dataclass(frozen=True)
class MasResult:
    """Admissibility index plus the halfspace description of the set.

    `bands` holds every band the construction accepted: its starting
    bands, then one band per step that cut, of the outputs that cut, each
    side present only where it cut.  `rows` lists them as
    one-sided inequalities (`Bands.polytope`: each band's upper sides,
    then its lower sides); `polytope` prunes them to the non-redundant
    ones on first access.  Both the construction and the prune run every
    LP at `LP_TOL`.  For the forced regime all live in (z0, u)
    coordinates; add (I - A)^{-1} B u to the first n components to
    recover x0.
    """

    t_star: int
    bands: Bands
    regime: str
    epsilon: float | None = None

    @cached_property
    def rows(self) -> Polytope:
        return self.bands.polytope

    @cached_property
    def polytope(self) -> Polytope:
        return _prune(self.bands)


def _prune(bands: Bands) -> Polytope:
    """Drop the one-sided rows of `bands` that the remaining ones imply, one at a time in `Bands.polytope` order.

    Each side is relaxed (bound inf, an absent side) while its row is
    decided, and restored with its own bound if it cuts; the LPs run on
    ranged rows throughout.  Returns the sides left, `Bands.polytope` of
    the `WarmLp`'s bands.
    """
    lp = WarmLp(bands)
    rows = bands.polytope
    left = rows.nrows
    for i, (row, side) in enumerate(zip(*bands.sides())):
        if left == 1:
            break
        lp.set_bound(row, side, math.inf)
        if lp.is_redundant(rows.G[i], rows.h[i]):
            left -= 1
        else:
            lp.set_bound(row, side, rows.h[i])
    return lp.bands.polytope


def _norm(v) -> float:
    """`np.linalg.norm` of a vector, bitwise, without its call overhead."""
    return math.sqrt(v @ v)


def _residual(row, basis):
    """The component of `row` outside the span of the orthonormal rows of `basis`, projected out twice."""
    res = row - (basis @ row) @ basis
    return res - (basis @ res) @ basis


def _extend(span, rank: int, rows, first=None) -> int | None:
    """Grow the orthonormal basis span[:rank] in place by every row off its span by more than _SPAN times its norm.

    Each such row's normalised residual is written to span[rank] and
    rank goes up by one; returns the new rank.  None when a row off the
    span by more than _ROUNDOFF times its norm does not join (it is too
    near the span, or its norm is below ZERO_ROW): the basis would no
    longer cover the rows' span.  `first`, when given, is
    `_residual(rows[0], span[:rank])`, already computed.
    """
    for i, row in enumerate(rows):
        res = first if i == 0 and first is not None else _residual(row, span[:rank])
        norm = _norm(row)
        if norm >= ZERO_ROW and _norm(res) > _SPAN * norm:
            span[rank] = res / _norm(res)
            rank += 1
        elif _norm(res) > _ROUNDOFF * norm:
            return None
    return rank


def _leads(M, basis) -> bool:
    """Whether each of the first d of the d or d + 1 rows of M joined `basis`, the rank-d basis `_extend` built from them in turn.

    With d rows every row joined, and M[d - 1] passes the very test that
    admitted it.  With d + 1 exactly one row did not join.  When it is the
    last, basis[:d - 1] came from the first d - 1 rows and M[d - 1] lies
    off its span by more than _SPAN times its norm, as `_extend` found;
    otherwise M[d - 1] lies in that span, or it is the row that failed
    this very test.
    """
    d = len(basis)
    row = M[d - 1]
    return _norm(_residual(row, basis[:-1])) > _SPAN * _norm(row)


def _witnessed(row, bound: float, points, symmetric: bool) -> float | None:
    """rhs + LP_TOL less row.p for the held point p with the largest row.p, when that exceeds rhs + LP_TOL by more than _TIE * rhs; else None.

    `points` lie in the accepted set, so a value above the bound proves
    that the row cuts.  On a symmetric set -p lies in it too, and |row.p|
    is taken.
    """
    values = (points @ row).tolist()
    if not values:
        return None
    top = max(map(abs, values)) if symmetric else max(values)
    if top - (bound + LP_TOL) > _TIE * bound:
        return bound + LP_TOL - top
    return None


def _iterate(bands, first: int, step_cap: int):
    """Shared constraint-addition loop.

    The first `first` bands (time step 0 included) make up the starting
    set; each later band is one time step.  When the starting bands are
    symmetric (lower == upper) so is every band and every set built, and
    a "-" row takes the verdict of its "+" row.  Each step decides only
    the live rows: a row leaves them for good once its slack, rhs +
    LP_TOL less its maximum over the accepted rows, exceeds _TIE * rhs,
    since by the shift argument of the module docstring the same output's
    row stays redundant at every later step.  A row is decided by the
    span screen while the accepted rows have rank below the dimension d
    and the basis span[:rank] (rank None once `_extend` gives up) covers
    their span, by the closed form while they are d or d + 1 two-sided
    rows of rank d whose first d each joined the basis (`_leads`), as a
    cut by a held LP optimum (`_witnessed`), and by an LP otherwise.  The
    accepted rows are held once, as the bands of the call's `WarmLp`: the
    starting bands, then per step the outputs that cut, each side present
    only where it cut.  The basis, the held points and the step's rows
    live in arrays allocated once per call; after each band the held
    points are shrunk into it.  Returns (t_star, accepted bands).
    """
    start = list(itertools.islice(bands, first))
    # Every later band has the limits of the starting set's last band.
    symmetric = all(np.array_equal(lower, upper) for _, lower, upper in start)
    _, lower, upper = start[-1]
    q = len(lower)
    bounds = np.concatenate([upper, lower])
    rhs = bounds.tolist()
    # The accepted rows, held once: the closed form reads them from here.
    lp = WarmLp(start)
    accepted = lp.bands
    d = accepted.M.shape[1]
    span = np.empty((d, d))
    rank = _extend(span, 0, accepted.M)
    # Whether every accepted row is two-sided and there are at most d + 1.
    paired = len(accepted.M) <= d + 1
    # The optimal points of the last _POOL LPs, slot `solved % _POOL` next.
    points = np.empty((_POOL, d))
    solved = 0

    def solve(c):
        """`lp.maximize(c)`, its optimal point kept in `points`."""
        nonlocal solved
        out = lp.maximize(c)
        if out.argmax is not None:
            points[solved % _POOL] = out.argmax
            solved += 1
        return out

    def slack(k):
        """rhs + LP_TOL less row k's maximum over the accepted rows; the row cuts where it is negative."""
        row, bound = rows[k], rhs[k]
        norm = _norm(row)
        if norm < ZERO_ROW:
            # Redundant by tolerance, not by a maximum: slack 0 keeps it live.
            return min(_certify_redundant(row, bound, lp.maximize), 0.0)
        if screen:
            res = residuals[k] = _residual(row, span[:rank])
            if _norm(res) > max(_SPAN * norm, _FLOOR * LP_TOL):
                return -math.inf
        if closed:
            top = pairs_maximum(row, accepted.M, accepted.lower, accepted.upper)
            if top is not None and abs(bound + LP_TOL - top) > _TIE * bound:
                return bound + LP_TOL - top
        gap = _witnessed(row, bound, points[:solved], symmetric)
        if gap is not None:
            return gap
        return _certify_redundant(row, bound, solve)

    # Row k of a band is output k % q, "+" below q and "-" from q on.
    live = list(range(q if symmetric else 2 * q))
    rows = np.empty((2 * q, d))
    for t in range(step_cap + 1):
        M = next(bands)[0]
        rows[:q] = M
        np.negative(M, out=rows[q:])
        screen = rank is not None and rank < d
        accepted = lp.bands if paired and rank == d else None
        closed = accepted is not None and _leads(accepted.M, span)
        # The screen's residual of each row it saw, by row.
        residuals = {}
        slacks = [slack(k) for k in live]
        fresh = [k for k, gap in zip(live, slacks) if gap < 0]
        live = [k for k, gap in zip(live, slacks) if gap <= _TIE * rhs[k]]
        if symmetric:
            fresh += [k + q for k in fresh]
        if not fresh:
            return t, lp.bands
        # The outputs that cut, each side bounded only where it cut.
        outputs = sorted({k % q for k in fresh})
        cut = np.full(2 * q, np.inf)
        cut[fresh] = bounds[fresh]
        lp.add_band(M[outputs], cut[q:][outputs], cut[:q][outputs])
        if solved:
            # Shrink each held point towards the origin into the new band.
            held = points[:solved]
            level = held @ M[outputs].T
            scale = np.maximum(level / cut[:q][outputs], -level / cut[q:][outputs]).max(axis=1)
            held /= np.maximum(scale, 1.0)[:, None]
        if screen:
            # Negating the mirror's residual could flip the sign of a zero entry, so only the row's own is reused.
            rank = _extend(span, rank, M[outputs], residuals.get(outputs[0]))
        paired = paired and len(fresh) == 2 * len(outputs) and len(lp.bands.M) <= d + 1
    raise IterationCapError(
        f"admissibility index not determined within {step_cap} steps",
        cap=step_cap,
    )


def exact_t_star_unforced(
    sys: LtiSystem,
    box: OutputBox,
    step_cap: int = EXACT_STEP_CAP,
) -> MasResult:
    """Exact admissibility index of the autonomous system.

    Requires a strictly stable A; with an observable pair the iteration
    is guaranteed to terminate.
    """
    check_problem(sys, box)
    t_star, bands = _iterate(output_bands(sys, box), 1, step_cap)
    return MasResult(t_star=t_star, bands=bands, regime="unforced")


def exact_t_star_forced(
    sys: LtiSystem,
    box: OutputBox,
    epsilon: float,
    step_cap: int = EXACT_STEP_CAP,
) -> MasResult:
    """Exact admissibility index of the epsilon-tightened constant-input set.

    Decision variables are (z0, u).  epsilon = 1 is accepted; the
    steady-state rows then force H0 u = 0 and the index matches the
    unforced one.
    """
    check_problem(sys, box, epsilon)
    t_star, bands = _iterate(output_bands(sys, box, stable_dc_gain(sys), epsilon), 2, step_cap)
    return MasResult(t_star=t_star, bands=bands, regime="forced", epsilon=epsilon)
