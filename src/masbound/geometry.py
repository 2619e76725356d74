"""Polytopes in halfspace form, LP redundancy checks, vertex enumeration.

The LP backend is scipy's HiGHS interface: `linprog` for one-off LPs,
and `WarmLp`, one persistent HiGHS model re-solved from its previous
basis, for the long runs of redundancy checks of the exact index.  Every
LP runs at the one tolerance `config.LP_TOL`, which no caller sets.
Rows cross module boundaries in one format, `Bands`: the bands
{x : -lower <= M x <= upper}, a side whose bound is inf absent, listed
as one-sided rows only by `Bands.polytope`.  A `WarmLp` holds the bands
its caller gives it, one HiGHS row per band row, and relaxes a side by
making it absent.  It borrows its model on its first solve from a
per-process free list of cleared models and gives it back when it is
collected, so a process builds about one model however many `WarmLp`s
it makes.
Vertex enumeration goes through qhull's halfspace intersection, seeded
at the origin when it lies well inside and at the Chebyshev center
(one LP) otherwise.  Boundedness is certified without LPs: the origin
must lie strictly inside qhull's dual hull, which also proves that the
rows have full rank, so the rank is tested (one SVD) only when the
origin-seeded qhull gives no answer.  Duplicate vertices are ruled out
by one sorted projection when no two lie close, and removed with a
KD-tree pair query otherwise.  A `Polytope` checks its arrays when it
is built; the polytopes vertex enumeration derives from a checked one
reuse its arrays unchecked.
A combinatorial active-set sweep, behind an LP bounding box, serves as
a fallback when qhull rejects a degenerate instance.
Parallelotopes {x : -lower <= M x <= upper} with a square nonsingular M
have their vertices in closed form and need neither LPs nor qhull.  So
do the linear maxima over d such slabs or d + 1 of them, when their
leading d x d block is nonsingular (`pairs_maximum`).
Both vertex paths refuse dimensions above `VERTEX_DIM_CAP`.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, QhullError, cKDTree

from .config import LP_TOL, VERTEX_DEDUP, VERTEX_DIM_CAP, VERTEX_FEASIBILITY, ZERO_ROW
from .errors import LpError, UnboundedPolytopeError

_HIGHS_METHODS = (
    "addRows", "addVars", "changeColsCost", "changeObjectiveSense", "changeRowBounds",
    "clearModel", "clearSolver", "getModelStatus", "getObjectiveValue", "run", "setOptionValue",
)


def _probe_highs():
    """scipy's private persistent HiGHS class and the enums WarmLp needs, or None if absent."""
    try:
        from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, ObjSense, _Highs
    except ImportError:
        return None
    if not all(hasattr(_Highs, name) for name in _HIGHS_METHODS):
        return None
    definitive = {
        HighsModelStatus.kOptimal: "optimal",
        HighsModelStatus.kUnbounded: "unbounded",
        HighsModelStatus.kInfeasible: "infeasible",
    }
    return _Highs, ObjSense.kMaximize, definitive, HighsStatus.kOk


# (class, maximize sense, {model status: LpOutcome status}, ok status) or None.
_HIGHS = _probe_highs()
# Cleared HiGHS models that no WarmLp holds, keyed by class: a model
# goes back to the list of its own class only.
_FREE_MODELS: dict[type, list] = {}

# An interior point whose inscribed radius is below _FLAT times
# max(1, extent of the set) does not make the set full-dimensional.
_FLAT = 1e-10
# The origin seeds qhull only when it lies farther than _CENTRED times
# the set's extent from every facet.
_CENTRED = 1e-6
# A vertex more than _FAR inscribed radii from the qhull seed is taken
# to lie at infinity.
_FAR = 1e12
# HiGHS's `simplex_strategy` value for primal simplex.
_PRIMAL_SIMPLEX = 4
# The feasibility tolerances of every LP, one-off or warm.
_TOLERANCES = {"primal_feasibility_tolerance": LP_TOL, "dual_feasibility_tolerance": LP_TOL}
# The options a HiGHS model gets when it is built; `clearModel` keeps them.
_MODEL_OPTIONS = {"output_flag": False, "presolve": "off", "simplex_strategy": _PRIMAL_SIMPLEX, **_TOLERANCES}
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Polytope:
    """{x : G x <= h} with an optional vertex list."""

    G: np.ndarray
    h: np.ndarray
    vertices: np.ndarray | None = None

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if G.ndim != 2 or h.ndim != 1 or G.shape[0] != h.shape[0]:
            raise ValueError(f"inconsistent halfspace data: G {G.shape}, h {h.shape}")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
            raise ValueError("halfspace data must be finite")
        vertices = None if self.vertices is None else np.atleast_2d(np.asarray(self.vertices, dtype=float))
        self._set(G, h, vertices)

    def _set(self, G, h, vertices) -> None:
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "vertices", vertices)

    @classmethod
    def _trusted(cls, G: np.ndarray, h: np.ndarray, vertices: np.ndarray | None = None) -> Polytope:
        """The polytope of arrays as `__post_init__` leaves them (`vertices` 2-D float or None), not checked again."""
        poly = object.__new__(cls)
        poly._set(G, h, vertices)
        return poly

    @property
    def dim(self) -> int:
        return self.G.shape[1]

    @property
    def nrows(self) -> int:
        return self.G.shape[0]

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(self.G @ x <= self.h + tol))


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "unbounded" | "infeasible"
    optimum: float | None = None
    argmax: np.ndarray | None = None
    dual: np.ndarray | None = None


def _linprog(c, A_ub, b_ub, bounds):
    """HiGHS on min c.x subject to A_ub x <= b_ub at `LP_TOL`, re-solved without presolve on failure.

    HiGHS presolve can report "infeasible" for unbounded instances; the
    simplex classification without presolve is trustworthy.
    """
    kwargs = dict(A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    res = linprog(c, **kwargs, options=_TOLERANCES)
    if res.status != 0:
        res = linprog(c, **kwargs, options={**_TOLERANCES, "presolve": False})
    return res


def lp_maximize(c, poly: Polytope) -> LpOutcome:
    """Maximize c.x over the polytope, classifying the outcome."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (poly.dim,):
        raise ValueError(f"objective has length {c.size}, polytope dimension is {poly.dim}")
    if poly.nrows == 0:
        raise ValueError("polytope has no inequalities")
    res = _linprog(-c, poly.G, poly.h, (None, None))
    if res.status == 0:
        return LpOutcome(
            status="optimal",
            optimum=float(-res.fun),
            argmax=np.asarray(res.x, dtype=float),
            dual=-np.asarray(res.ineqlin.marginals, dtype=float),
        )
    if res.status == 2:
        return LpOutcome(status="infeasible")
    if res.status == 3:
        return LpOutcome(status="unbounded")
    raise LpError(f"LP solver failed (status {res.status}): {res.message}")


def _certify_redundant(row, rhs: float, maximize) -> float:
    """The slack rhs + LP_TOL - max(row . x) of {row . x <= rhs}, with `maximize(row)` solving the LP.

    The row is redundant when the slack is >= 0; an unbounded maximum
    gives -inf.  A row below ZERO_ROW has maximum 0.
    """
    row = np.atleast_1d(np.asarray(row, dtype=float))
    if math.sqrt(row @ row) < ZERO_ROW:
        if rhs >= -LP_TOL:
            return rhs + LP_TOL
        raise LpError("all-zero row with negative bound: polytope is empty")
    out = maximize(row)
    if out.status == "unbounded":
        return -np.inf
    if out.status == "infeasible":
        raise LpError("redundancy check against an empty polytope")
    return rhs + LP_TOL - out.optimum


def is_redundant(row, rhs: float, poly: Polytope) -> bool:
    """True when adding {row . x <= rhs} would not cut the polytope.

    Certified by maximizing the row over the current polytope; an
    unbounded maximum means the row does cut, an infeasible polytope is
    reported as an error.
    """
    return _certify_redundant(row, rhs, lambda c: lp_maximize(c, poly)) >= 0


def _borrow_model(highs_cls, ok):
    """(free list of `highs_cls`, a cleared model taken from it or a new one given `_MODEL_OPTIONS`).

    `ok` is HiGHS's OK status.
    """
    pool = _FREE_MODELS.setdefault(highs_cls, [])
    if pool:
        return pool, pool.pop()
    model = highs_cls()
    _set_options(model, ok)
    return pool, model


def _set_options(model, ok) -> None:
    """Give a new model `_MODEL_OPTIONS`, raising ValueError where HiGHS does not answer `ok`."""
    for name, value in _MODEL_OPTIONS.items():
        if model.setOptionValue(name, value) != ok:
            raise ValueError(f"HiGHS refused option {name} = {value!r}")


def _give_back(pool, model) -> None:
    """Clear `model` and put it back on `pool`: run when its `WarmLp` is collected."""
    model.clearModel()
    pool.append(model)


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """`a` copied into the leading rows of an uninitialised array of `rows` rows."""
    out = np.empty((rows, *a.shape[1:]), dtype=a.dtype)
    out[: len(a)] = a
    return out


@lru_cache(maxsize=64)
def _dense_layout(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (row starts, column indices) of k dense rows of length d."""
    layout = (np.arange(0, k * d, d, dtype=np.int32), np.tile(np.arange(d, dtype=np.int32), k))
    for part in layout:
        part.flags.writeable = False
    return layout


@dataclass(frozen=True)
class Bands:
    """Bands {x : -lower <= M x <= upper} stacked row by row; band b is rows ends[b - 1]:ends[b], from row 0.

    The one row format that crosses a module boundary: the exact
    construction, its prune and the prefix sets all hold their rows as
    `Bands`.  A side whose bound is inf is absent.  Iterating gives each
    band's (M, lower, upper).  `polytope` lists the present sides as
    one-sided rows G x <= h: each band's upper sides, then its lower
    sides, the order `sides` gives.
    """

    M: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ends: tuple[int, ...]

    def __iter__(self):
        for a, b in zip((0, *self.ends), self.ends):
            yield self.M[a:b], self.lower[a:b], self.upper[a:b]

    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """(band row, side) of each row of `polytope`, side 0 the upper side and 1 the lower."""
        # ndarray methods: for the few rows of a prefix set numpy's
        # function wrappers cost more than the work.
        side, row = np.isfinite((self.upper, self.lower)).nonzero()
        # Stable: within a band and side the rows keep their order.
        order = (2 * np.asarray(self.ends).searchsorted(row, "right") + side).argsort(kind="stable")
        return row[order], side[order]

    @property
    def polytope(self) -> Polytope:
        row, side = self.sides()
        M = self.M[row]
        upper = side == 0
        return Polytope(np.where(upper[:, None], M, -M), np.where(upper, self.upper[row], self.lower[row]))


class WarmLp:
    """Bands {x : -lower <= M x <= upper} held as one persistent HiGHS model for repeated LPs.

    HiGHS row i is band row i, a two-sided (ranged) row where both sides
    are present: HiGHS stores such rows natively, so a band of mirrored
    pairs solves with one row per pair.  A side whose bound is inf is
    absent, and a relaxed side is an absent side.  Bands are appended
    with `add_band`, and `set_bound` moves one side of one band row, inf
    relaxing it; `bands` shows the rows held, so `bands.polytope` lists
    exactly the active sides.  Between solves only the objective
    changes, so each solve starts from the previous basis.  The model
    runs primal simplex: most solves of the exact index only change the
    objective, which leaves the last basis primal feasible, and primal
    simplex carries on from it where HiGHS's default, dual simplex,
    starts from a basis the new objective makes dual infeasible.  A band
    appended after a cut, or a side restored while pruning, is as a rule
    violated by the last optimum, so the next solve first regains
    feasibility.  Dual simplex on ranged rows was at most a few percent
    faster, and far slower on ill-conditioned forced instances.

    The model is borrowed on the first `maximize` from the per-process
    free list of its class, and every band held so far is passed in one
    batch, so a `WarmLp` that never solves holds none.  A model is built
    only when the list is empty, and its options are set then, once:
    presolve off, primal simplex, and primal and dual tolerances
    `LP_TOL`.  HiGHS keeps them when the model is cleared, and a refused
    option raises ValueError instead of solving at HiGHS's default.
    When the `WarmLp` is collected the model is cleared and goes back to
    the list; two live `WarmLp`s never share one.  The rows are kept in
    arrays that double when full.  A solve that ends without a
    definitive status is re-run cold, and then answered by
    `lp_maximize`.  Without scipy's private HiGHS class every answer
    comes from `lp_maximize` on `bands.polytope`.
    """

    def __init__(self, bands):
        """Hold `bands`, at least one, each (M, lower, upper), as `add_band` would one by one; a `Bands` gives its own."""
        bands = list(bands)
        if not bands:
            raise ValueError("WarmLp needs at least one band, which fixes the dimension")
        self._backend = _HIGHS
        self._model = None
        # Each row's matrix row and its (upper, lower) bounds.
        self._M = np.empty((16, np.shape(bands[0][0])[1]))
        self._bound = np.empty((16, 2))
        self._n = 0
        self._ends = []
        for band in bands:
            self.add_band(*band)

    @property
    def bands(self) -> Bands:
        """The bands held, a relaxed side absent; views of the `WarmLp`'s own arrays, so `set_bound` shows in them."""
        n = self._n
        return Bands(self._M[:n], self._bound[:n, 1], self._bound[:n, 0], tuple(self._ends))

    def add_band(self, M, lower, upper) -> None:
        """Append the band {x : -lower <= M x <= upper}; a side whose bound is inf is absent."""
        M = np.atleast_2d(np.asarray(M, dtype=float))
        n, k = self._n, len(M)
        if n + k > len(self._M):
            cap = max(2 * len(self._M), n + k)
            self._M, self._bound = _grown(self._M, cap), _grown(self._bound, cap)
        bound = self._bound[n : n + k]
        self._M[n : n + k] = M
        bound[:, 0] = upper
        bound[:, 1] = lower
        self._n = n + k
        self._ends.append(self._n)
        if self._model is not None:
            self._pass_rows(M, -bound[:, 1], bound[:, 0])

    def _pass_rows(self, M, lower, upper) -> None:
        """Give HiGHS the rows lower <= M x <= upper."""
        # Dense rows: HiGHS drops the zero entries itself.
        k, d = M.shape
        starts, index = _dense_layout(k, d)
        self._model.addRows(k, lower, upper, k * d, starts, index, M.ravel())

    @property
    def _highs(self):
        """The HiGHS model, borrowed on first use and given every band held so far."""
        if self._model is None:
            highs_cls, maximize, _, ok = self._backend
            pool, model = _borrow_model(highs_cls, ok)
            weakref.finalize(self, _give_back, pool, model).atexit = False
            self._model = model
            model.changeObjectiveSense(maximize)
            n, d = self._n, self._M.shape[1]
            model.addVars(d, np.full(d, -np.inf), np.full(d, np.inf))
            self._cols = np.arange(d, dtype=np.int32)
            self._pass_rows(self._M[:n], -self._bound[:n, 1], self._bound[:n, 0])
        return self._model

    def set_bound(self, row: int, side: int, bound: float) -> None:
        """Set the upper (side 0) or lower (side 1) bound of band row `row`; inf relaxes that side."""
        self._bound[row, side] = bound
        if self._model is not None:
            self._model.changeRowBounds(row, -self._bound[row, 1], self._bound[row, 0])

    def maximize(self, c) -> LpOutcome:
        """Maximize c.x over the bands held: status and optimum as in `lp_maximize`."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if self._backend is None:
            return lp_maximize(c, self.bands.polytope)
        d = self._M.shape[1]
        if c.shape != (d,):
            raise ValueError(f"objective has length {c.size}, polytope dimension is {d}")
        _, _, definitive, _ = self._backend
        highs = self._highs
        highs.changeColsCost(len(c), self._cols, c)
        highs.run()
        status = definitive.get(highs.getModelStatus())
        if status is None:
            # Not definitive from the warm basis: solve once more without it.
            highs.clearSolver()
            highs.run()
            status = definitive.get(highs.getModelStatus())
            if status is None:
                return lp_maximize(c, self.bands.polytope)
        if status != "optimal":
            return LpOutcome(status=status)
        return LpOutcome(status="optimal", optimum=float(highs.getObjectiveValue()))

    def is_redundant(self, row, rhs: float) -> bool:
        """`is_redundant` against the bands held."""
        return _certify_redundant(row, rhs, self.maximize) >= 0


def chebyshev_center(poly: Polytope) -> tuple[np.ndarray, float]:
    """Center and radius of the largest inscribed ball."""
    norms = np.linalg.norm(poly.G, axis=1)
    d = poly.dim
    c = np.zeros(d + 1)
    c[-1] = -1.0  # maximize the radius
    res = _linprog(c, np.hstack([poly.G, norms[:, None]]), poly.h, [(None, None)] * d + [(0, None)])
    if res.status == 2:
        raise UnboundedPolytopeError("polytope is empty")
    if res.status == 3:
        raise UnboundedPolytopeError("polytope has unbounded inscribed balls")
    if res.status != 0:
        raise LpError(f"Chebyshev-center LP failed (status {res.status}): {res.message}")
    return np.asarray(res.x[:d], dtype=float), float(res.x[-1])


def bounding_box(poly: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise (lower, upper) bounds; raises if any direction is unbounded."""
    d = poly.dim
    lo = np.empty(d)
    hi = np.empty(d)
    e = np.zeros(d)
    for i in range(d):
        e[:] = 0.0
        e[i] = 1.0
        up = lp_maximize(e, poly)
        down = lp_maximize(-e, poly)
        if up.status == "infeasible" or down.status == "infeasible":
            raise UnboundedPolytopeError("polytope is empty")
        if up.status == "unbounded" or down.status == "unbounded":
            raise UnboundedPolytopeError(f"polytope is unbounded along coordinate {i}")
        hi[i] = up.optimum
        lo[i] = -down.optimum
    return lo, hi


@lru_cache(maxsize=VERTEX_DIM_CAP)
def _probe_direction(d: int) -> np.ndarray:
    """Read-only unit vector of R^d, fixed and generic: no coordinate axis, so tied coordinates do not tie on it."""
    u = np.random.default_rng(d).standard_normal(d)
    u /= np.linalg.norm(u)
    u.flags.writeable = False
    return u


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    """Keep each point unless it lies within tol of an earlier kept point.

    First a certificate that no two points are that close: since
    |u.(p - q)| <= |p - q| for the unit `_probe_direction` u, every
    point is kept, in a copy, when each two neighbouring sorted
    projections u.p lie farther apart than the slightly widened radius
    of the KD-tree query below plus a margin for the rounding of the
    projections.  Otherwise candidate pairs come from that KD-tree
    query; each is then confirmed with the same distance test as a
    plain first-occurrence sweep, so the kept points and their order do
    not depend on the tree's rounding.
    """
    if len(points) == 0:
        return np.array([])
    d = points.shape[1]
    radius = tol * (1.0 + 1e-6)
    # A gap takes two projections, each off by at most about d eps |p|,
    # and |p| <= sqrt(d) max|p_i|.
    margin = 2 * (d + 2) * _EPS * math.sqrt(d) * np.abs(points).max()
    probe = points @ _probe_direction(d)
    probe.sort()
    if (probe[1:] - probe[:-1] > radius + margin).all():
        return points.copy()
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    dropped = np.zeros(len(points), dtype=bool)
    # Sorted by the later index, every earlier point's fate is settled
    # before it is compared with a later one.
    for i, j in pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]:
        if not dropped[i] and not dropped[j] and np.linalg.norm(points[j] - points[i]) <= tol:
            dropped[j] = True
    return points[~dropped]


def _drop_zero_rows(poly: Polytope) -> tuple[Polytope, np.ndarray]:
    """(`poly` without its rows of norm below ZERO_ROW, the norms of the rows kept)."""
    norms = np.linalg.norm(poly.G, axis=1)
    zero = norms < ZERO_ROW
    if not zero.any():
        return poly, norms
    if np.any(poly.h[zero] < -LP_TOL):
        raise UnboundedPolytopeError("zero row with negative bound: polytope is empty")
    work = Polytope._trusted(poly.G[~zero], poly.h[~zero])
    # Norms of the new, C-ordered rows: numpy may sum a strided G's rows in another order.
    return work, np.linalg.norm(work.G, axis=1)


def _brute_force_vertices(poly: Polytope) -> np.ndarray:
    """Enumerate basic feasible points over all d-subsets of active rows.

    Exponential in the row count; used as a fallback for small systems
    that qhull rejects (degenerate geometry, near-parallel planes).
    """
    G, h, d = poly.G, poly.h, poly.dim
    k = G.shape[0]
    n_combos = 1
    for idx in range(d):
        n_combos = n_combos * (k - idx) // (idx + 1)
    if n_combos > 2_000_000:
        raise UnboundedPolytopeError(
            f"vertex enumeration fallback would need {n_combos} subsets; instance too degenerate"
        )
    combos = np.array(list(itertools.combinations(range(k), d)), dtype=int)
    sub_G = G[combos]  # (n_combos, d, d)
    dets = np.abs(np.linalg.det(sub_G))
    ok = dets > 1e-12 * np.maximum(1.0, np.abs(sub_G).max(axis=(1, 2)) ** d)
    points = []
    if ok.any():
        sols = np.linalg.solve(sub_G[ok], h[combos[ok]][..., None])[..., 0]
        feas = np.all(G @ sols.T <= h[:, None] + VERTEX_FEASIBILITY, axis=0)
        points = sols[feas]
    if len(points) == 0:
        return np.empty((0, d))
    return _dedupe(np.asarray(points), VERTEX_DEDUP)


@lru_cache(maxsize=2 * VERTEX_DIM_CAP)
def _corner_mask(d: int, symmetric: bool) -> np.ndarray:
    """Read-only mask of the corners `parallelotope_vertices` solves: entry (k, j) is bit j of k.

    The rows are k < 2^(d-1) when `symmetric`, k < 2^d otherwise.
    """
    mask = ((np.arange(2 ** (d - 1) if symmetric else 2**d)[:, None] >> np.arange(d)) & 1) == 1
    mask.flags.writeable = False
    return mask


def parallelotope_vertices(M, lower, upper) -> np.ndarray | None:
    """Vertices of {x : -lower <= M x <= upper} for a square nonsingular M.

    They are M^{-1} s over the 2^d corners s of the box [-lower, upper],
    corner k taking -lower_j where bit j of k is set and upper_j where it
    is clear.  On a symmetric box (lower == upper) only the 2^(d-1)
    corners with bit d - 1 clear are solved; the rest are their mirror
    images, returned in the same order and bitwise equal to solving them.
    The corner masks are built once per dimension (`_corner_mask`).
    Returns None, so that the caller can fall back to
    `enumerate_vertices`, when M is not square or is singular, when a
    width lower + upper is not positive, when two corners could map to
    points within `VERTEX_DEDUP` of each other, when d exceeds
    `VERTEX_DIM_CAP`, or when a vertex fails the feasibility guard.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    d = M.shape[1]
    if M.shape[0] != d or d > VERTEX_DIM_CAP:
        return None
    width = lower + upper
    if not np.min(width) > 0.0:
        return None
    # Distinct corners are at least min(width) apart, so their images are
    # at least min(width) / ||M||_2 apart and none would be deduplicated.
    # The Frobenius norm bounds ||M||_2 from above without an SVD.
    if np.min(width) <= VERTEX_DEDUP * np.linalg.norm(M):
        return None
    # On a symmetric box corner 2^d - 1 - k is minus corner k, and an LU
    # solve commutes exactly with negation.
    symmetric = np.array_equal(lower, upper)
    corners = np.where(_corner_mask(d, symmetric), -lower, upper)
    try:
        verts = np.linalg.solve(M, corners.T).T
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(verts)):
        return None
    # With lower == upper a mirrored vertex passes the guard exactly when its original does.
    Mv = verts @ M.T
    if np.max(Mv - upper) > VERTEX_FEASIBILITY or np.max(-Mv - lower) > VERTEX_FEASIBILITY:
        return None
    return np.concatenate([verts, -verts[::-1]]) if symmetric else verts


def pairs_maximum(c, M, lower, upper) -> float | None:
    """max c.x over {x : -lower <= M x <= upper} for M of d or d + 1 rows whose leading d x d block M_d has rank d.

    The set must hold the origin (lower, upper >= 0).  By LP duality the
    maximum is the least sum of max(w_i upper_i, -w_i lower_i) over the
    w with M^T w = c.  With d rows that w is M^{-T} c alone: each M_i x
    ranges over [-lower_i, upper_i] on its own.  With d + 1 rows the w
    form the line w0 + tau nu, with w0 = (M_d^{-T} c, 0) and
    nu = (M_d^{-T} m, -1) for the last row m.  The sum is convex and
    piecewise linear in tau, so its least value lies at a breakpoint
    tau_i = -w0_i / nu_i; the last row's breakpoint tau = 0 is always
    among them.  None, so that the caller can solve the LP, when M_d is
    singular or the value is not finite.  Only an exactly singular M_d is
    caught; a nearly singular one gives a finite value swamped by
    rounding, so the caller must know M_d to be well conditioned.
    """
    d = M.shape[1]
    with np.errstate(all="ignore"):
        try:
            if len(M) == d:
                w = np.linalg.solve(M.T, c)
            else:
                sol = np.linalg.solve(M[:d].T, np.column_stack((c, M[d])))
                w0 = np.append(sol[:, 0], 0.0)
                nu = np.append(sol[:, 1], -1.0)
                moving = nu != 0.0
                w = w0 + (-w0[moving] / nu[moving])[:, None] * nu
        except np.linalg.LinAlgError:
            return None
        value = float(np.min(np.sum(np.maximum(w * upper, -w * lower), axis=-1)))
    return value if np.isfinite(value) else None


def _interval_vertices(poly: Polytope) -> np.ndarray:
    """End points of the one-dimensional {x : g x <= h}, rows nonzero."""
    g, h = poly.G[:, 0], poly.h
    if not (np.any(g < 0.0) and np.any(g > 0.0)):
        raise UnboundedPolytopeError("interval is unbounded on one side")
    lo = np.max(h[g < 0.0] / g[g < 0.0])
    hi = np.min(h[g > 0.0] / g[g > 0.0])
    if lo > hi:
        raise UnboundedPolytopeError("polytope is empty")
    return _dedupe(np.array([[lo], [hi]]), VERTEX_DEDUP)


def _require_full_dimension(radius: float, extent: float) -> None:
    if radius <= _FLAT * max(1.0, extent):
        raise UnboundedPolytopeError(
            "polytope is not full-dimensional within tolerance; no interior point found"
        )


def _qhull_vertices(Gn, hn, center, radius: float) -> np.ndarray | None:
    """qhull's vertices seen from `center`, or None when its dual hull leaves the set unbounded.

    Each dual facet has offset -1 / |v - center| for a vertex v; the set
    is bounded iff every offset is negative, that is iff the origin is
    strictly inside the dual hull.  Raises QhullError as qhull does.
    """
    # Unbounded input divides by zero offsets in scipy's intersections.
    with np.errstate(divide="ignore", invalid="ignore"):
        inter = HalfspaceIntersection(np.concatenate((Gn, -hn[:, None]), axis=1), center)
    if not (inter.dual_equations[:, -1] < -1.0 / (_FAR * radius)).all():
        return None
    return np.asarray(inter.intersections, dtype=float)


def _origin_seeded_vertices(Gn, hn) -> np.ndarray | None:
    """qhull's vertices seen from the origin, which lies inside at distance min(hn).

    None, so that the caller seeds at the Chebyshev center instead, when
    qhull fails, when the set looks unbounded, or when the origin sits
    closer than `_CENTRED` times the set's extent to a facet.
    """
    radius = float(hn.min())
    try:
        verts = _qhull_vertices(Gn, hn, np.zeros(Gn.shape[1]), radius)
    except QhullError:
        return None
    if verts is None or radius <= _CENTRED * np.linalg.norm(verts, axis=1).max():
        return None
    return verts


def enumerate_vertices(poly: Polytope) -> Polytope:
    """Convert a bounded halfspace description to its vertex set.

    Returns a copy of the polytope with `vertices` filled in
    (deduplicated, each verified feasible), sharing the arrays of `poly`.
    Raises UnboundedPolytopeError for unbounded or empty input and
    ValueError above `VERTEX_DIM_CAP`.  No LP runs when the origin lies
    strictly inside: boundedness comes from qhull's dual hull, and the
    rank of G is tested only when that does not answer.
    """
    d = poly.dim
    if d > VERTEX_DIM_CAP:
        raise ValueError(f"dimension {d} exceeds the vertex-enumeration cap {VERTEX_DIM_CAP}")
    work, norms = _drop_zero_rows(poly)
    if d == 1:
        return Polytope._trusted(poly.G, poly.h, _interval_vertices(work))

    # Normalize rows for qhull conditioning; the feasible set is unchanged.
    Gn = work.G / norms[:, None]
    hn = work.h / norms
    verts = None
    # A bounded set needs d + 1 rows.  An accepted answer puts the origin
    # at least 1e-6 / min(hn) inside the dual hull of the points Gn_i /
    # hn_i (`_CENTRED`), so the smallest singular value of Gn is at
    # least 1e-6, far above the sqrt(k) max(k, d) eps below which
    # `matrix_rank` counts a rank deficit in k rows.
    if len(hn) > d and hn.min() > _FLAT:
        verts = _origin_seeded_vertices(Gn, hn)
    if verts is None:
        if np.linalg.matrix_rank(Gn) < d:
            # The null space of G lies in the recession cone.
            raise UnboundedPolytopeError(f"constraint rows have rank below the dimension {d}")
        center, radius = chebyshev_center(Polytope(Gn, hn))
        _require_full_dimension(radius, 0.0)
        try:
            verts = _qhull_vertices(Gn, hn, center, radius)
        except QhullError:
            lo, hi = bounding_box(work)  # brute force cannot see unboundedness
            _require_full_dimension(radius, np.max(hi - lo))
            verts = _brute_force_vertices(work)
        else:
            if verts is None:
                raise UnboundedPolytopeError("polytope is unbounded: qhull's dual hull misses the origin")
            _require_full_dimension(radius, np.max(np.linalg.norm(verts - center, axis=1)))
    if verts.size == 0:
        raise UnboundedPolytopeError("vertex enumeration produced no finite vertices")
    verts = _dedupe(verts, VERTEX_DEDUP)
    # Guard against qhull round-off escaping the feasible set.
    slack = work.G @ verts.T - work.h[:, None]
    if slack.max() > VERTEX_FEASIBILITY:
        verts = _brute_force_vertices(work)
        if verts.size == 0:
            raise UnboundedPolytopeError("vertex enumeration failed feasibility screening")
    return Polytope._trusted(poly.G, poly.h, verts)
