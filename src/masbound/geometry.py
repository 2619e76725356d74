"""Polytopes in halfspace form, LP redundancy checks, vertex enumeration.

The LP backend is scipy's HiGHS interface: `linprog` for one-off LPs,
and `WarmLp`, one persistent HiGHS model re-solved from its previous
basis, for the long runs of redundancy checks of the exact index.
Vertex enumeration goes through qhull's halfspace intersection seeded
with a Chebyshev-center interior point; a combinatorial active-set
sweep serves as a fallback when qhull rejects a degenerate instance.
Parallelotopes {x : -lower <= M x <= upper} with a square nonsingular M
have their vertices in closed form and need neither LPs nor qhull.
Both vertex paths refuse dimensions above `VERTEX_DIM_CAP`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, QhullError, cKDTree

from .config import DEFAULT_TOLS, VERTEX_DIM_CAP, Tolerances
from .errors import LpError, UnboundedPolytopeError

_HIGHS_METHODS = (
    "addRows", "addVars", "changeColsCost", "changeObjectiveSense", "changeRowBounds",
    "clearSolver", "getModelStatus", "getObjectiveValue", "run", "setOptionValue",
)


def _probe_highs():
    """scipy's private persistent HiGHS class and the enums WarmLp needs, or None if absent."""
    try:
        from scipy.optimize._highspy._core import HighsModelStatus, ObjSense, _Highs
    except ImportError:
        return None
    if not all(hasattr(_Highs, name) for name in _HIGHS_METHODS):
        return None
    definitive = {
        HighsModelStatus.kOptimal: "optimal",
        HighsModelStatus.kUnbounded: "unbounded",
        HighsModelStatus.kInfeasible: "infeasible",
    }
    return _Highs, ObjSense.kMaximize, definitive


# (class, maximize sense, {model status: LpOutcome status}) or None.
_HIGHS = _probe_highs()


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
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        if self.vertices is not None:
            V = np.atleast_2d(np.asarray(self.vertices, dtype=float))
            object.__setattr__(self, "vertices", V)

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


def _highs_options(tols: Tolerances) -> dict:
    return {
        "primal_feasibility_tolerance": tols.lp_feasibility,
        "dual_feasibility_tolerance": tols.lp_feasibility,
    }


def lp_maximize(c, poly: Polytope, tols: Tolerances = DEFAULT_TOLS) -> LpOutcome:
    """Maximize c.x over the polytope, classifying the outcome."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (poly.dim,):
        raise ValueError(f"objective has length {c.size}, polytope dimension is {poly.dim}")
    if poly.nrows == 0:
        raise ValueError("polytope has no inequalities")
    res = linprog(
        -c,
        A_ub=poly.G,
        b_ub=poly.h,
        bounds=(None, None),
        method="highs",
        options=_highs_options(tols),
    )
    if res.status != 0:
        # HiGHS presolve can report "infeasible" for unbounded instances;
        # the simplex classification without presolve is trustworthy.
        res = linprog(
            -c,
            A_ub=poly.G,
            b_ub=poly.h,
            bounds=(None, None),
            method="highs",
            options={**_highs_options(tols), "presolve": False},
        )
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


def _certify_redundant(row, rhs: float, maximize, tols: Tolerances) -> bool:
    """The redundancy verdict of {row . x <= rhs}, with `maximize(row)` solving the LP."""
    row = np.atleast_1d(np.asarray(row, dtype=float))
    if np.linalg.norm(row) < tols.zero_row:
        if rhs >= -tols.redundancy:
            return True
        raise LpError("all-zero row with negative bound: polytope is empty")
    out = maximize(row)
    if out.status == "unbounded":
        return False
    if out.status == "infeasible":
        raise LpError("redundancy check against an empty polytope")
    return out.optimum <= rhs + tols.redundancy


def is_redundant(row, rhs: float, poly: Polytope, tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True when adding {row . x <= rhs} would not cut the polytope.

    Certified by maximizing the row over the current polytope; an
    unbounded maximum means the row does cut, an infeasible polytope is
    reported as an error.
    """
    return _certify_redundant(row, rhs, lambda c: lp_maximize(c, poly, tols=tols), tols)


class WarmLp:
    """{x : G x <= h} held as one persistent HiGHS model for repeated LPs.

    Rows are appended with `add_rows` and switched off and on with
    `relax` and `restore`; between solves only the objective changes, so
    each solve starts from the previous basis.  Presolve is off and the
    primal and dual tolerances are `tols.lp_feasibility`.  A solve that
    ends without a definitive status is re-run cold, and then answered by
    `lp_maximize`.  Without scipy's private HiGHS class every answer
    comes from `lp_maximize` and `is_redundant` on the active rows.
    """

    def __init__(self, poly: Polytope, tols: Tolerances = DEFAULT_TOLS):
        self.tols = tols
        self.G = np.empty((0, poly.dim))
        self.h = np.empty(0)
        self.active = np.empty(0, dtype=bool)
        self._highs = None
        if _HIGHS is not None:
            highs_cls, maximize, _ = _HIGHS
            self._highs = highs_cls()
            for name, value in (
                ("output_flag", False),
                ("presolve", "off"),
                ("primal_feasibility_tolerance", tols.lp_feasibility),
                ("dual_feasibility_tolerance", tols.lp_feasibility),
            ):
                self._highs.setOptionValue(name, value)
            self._highs.changeObjectiveSense(maximize)
            self._highs.addVars(poly.dim, np.full(poly.dim, -np.inf), np.full(poly.dim, np.inf))
            self._cols = np.arange(poly.dim, dtype=np.int32)
        self.add_rows(poly.G, poly.h)

    @property
    def polytope(self) -> Polytope:
        """The active rows, in the order they were added."""
        return Polytope(self.G[self.active], self.h[self.active])

    def add_rows(self, G, h) -> None:
        G = np.atleast_2d(np.asarray(G, dtype=float))
        h = np.atleast_1d(np.asarray(h, dtype=float))
        self.G = np.vstack([self.G, G])
        self.h = np.concatenate([self.h, h])
        self.active = np.concatenate([self.active, np.ones(len(h), dtype=bool)])
        if self._highs is not None:
            # Only nonzero entries, as linprog's sparse conversion passes them.
            rows, cols = np.nonzero(G)
            starts = np.searchsorted(rows, np.arange(len(h))).astype(np.int32)
            self._highs.addRows(
                len(h), np.full(len(h), -np.inf), h, len(rows), starts, cols.astype(np.int32), G[rows, cols]
            )

    def relax(self, i: int) -> None:
        """Drop row i from the set; its index stays reserved."""
        self.active[i] = False
        if self._highs is not None:
            self._highs.changeRowBounds(int(i), -np.inf, np.inf)

    def restore(self, i: int) -> None:
        self.active[i] = True
        if self._highs is not None:
            self._highs.changeRowBounds(int(i), -np.inf, float(self.h[i]))

    def maximize(self, c) -> LpOutcome:
        """Maximize c.x over the active rows: status and optimum as in `lp_maximize`."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if self._highs is None:
            return lp_maximize(c, self.polytope, tols=self.tols)
        if c.shape != (self.G.shape[1],):
            raise ValueError(f"objective has length {c.size}, polytope dimension is {self.G.shape[1]}")
        _, _, definitive = _HIGHS
        self._highs.changeColsCost(len(c), self._cols, c)
        self._highs.run()
        status = definitive.get(self._highs.getModelStatus())
        if status is None:
            # Not definitive from the warm basis: solve once more without it.
            self._highs.clearSolver()
            self._highs.run()
            status = definitive.get(self._highs.getModelStatus())
            if status is None:
                return lp_maximize(c, self.polytope, tols=self.tols)
        if status != "optimal":
            return LpOutcome(status=status)
        return LpOutcome(status="optimal", optimum=float(self._highs.getObjectiveValue()))

    def is_redundant(self, row, rhs: float) -> bool:
        """`is_redundant` against the active rows."""
        if self._highs is None:
            return is_redundant(row, rhs, self.polytope, tols=self.tols)
        return _certify_redundant(row, rhs, self.maximize, self.tols)


def chebyshev_center(poly: Polytope, tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, float]:
    """Center and radius of the largest inscribed ball."""
    norms = np.linalg.norm(poly.G, axis=1)
    d = poly.dim
    A_ub = np.hstack([poly.G, norms[:, None]])
    c = np.zeros(d + 1)
    c[-1] = -1.0  # maximize the radius
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=poly.h,
        bounds=[(None, None)] * d + [(0, None)],
        method="highs",
        options=_highs_options(tols),
    )
    if res.status == 3:
        raise UnboundedPolytopeError("polytope has unbounded inscribed balls")
    if res.status != 0:
        raise LpError(f"Chebyshev-center LP failed (status {res.status}): {res.message}")
    return np.asarray(res.x[:d], dtype=float), float(res.x[-1])


def bounding_box(poly: Polytope, tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise (lower, upper) bounds; raises if any direction is unbounded."""
    d = poly.dim
    lo = np.empty(d)
    hi = np.empty(d)
    e = np.zeros(d)
    for i in range(d):
        e[:] = 0.0
        e[i] = 1.0
        up = lp_maximize(e, poly, tols=tols)
        down = lp_maximize(-e, poly, tols=tols)
        if up.status == "infeasible" or down.status == "infeasible":
            raise UnboundedPolytopeError("polytope is empty")
        if up.status == "unbounded" or down.status == "unbounded":
            raise UnboundedPolytopeError(f"polytope is unbounded along coordinate {i}")
        hi[i] = up.optimum
        lo[i] = -down.optimum
    return lo, hi


def _dedupe(points: np.ndarray, tol: float) -> np.ndarray:
    """Keep each point unless it lies within tol of an earlier kept point.

    Candidate pairs come from a KD-tree query with a slightly widened
    radius; each is then confirmed with the same distance test as a
    plain first-occurrence sweep, so the kept points and their order do
    not depend on the tree's rounding.
    """
    if len(points) == 0:
        return np.array([])
    pairs = cKDTree(points).query_pairs(tol * (1.0 + 1e-6), output_type="ndarray")
    dropped = np.zeros(len(points), dtype=bool)
    # Sorted by the later index, every earlier point's fate is settled
    # before it is compared with a later one.
    for i, j in pairs[np.lexsort((pairs[:, 0], pairs[:, 1]))]:
        if not dropped[i] and not dropped[j] and np.linalg.norm(points[j] - points[i]) <= tol:
            dropped[j] = True
    return points[~dropped]


def _drop_zero_rows(poly: Polytope, tols: Tolerances) -> Polytope:
    norms = np.linalg.norm(poly.G, axis=1)
    zero = norms < tols.zero_row
    if not zero.any():
        return poly
    if np.any(poly.h[zero] < -tols.redundancy):
        raise UnboundedPolytopeError("zero row with negative bound: polytope is empty")
    return Polytope(poly.G[~zero], poly.h[~zero])


def _brute_force_vertices(poly: Polytope, tols: Tolerances) -> np.ndarray:
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
        feas = np.all(G @ sols.T <= h[:, None] + tols.vertex_feasibility, axis=0)
        points = sols[feas]
    if len(points) == 0:
        return np.empty((0, d))
    return _dedupe(np.asarray(points), tols.vertex_dedup)


def parallelotope_vertices(M, lower, upper, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray | None:
    """Vertices of {x : -lower <= M x <= upper} for a square nonsingular M.

    They are M^{-1} s over the 2^d corners s of the box [-lower, upper].
    Returns None, so that the caller can fall back to
    `enumerate_vertices`, when M is not square or is singular, when a
    width lower + upper is not positive, when two corners could map to
    points within `tols.vertex_dedup` of each other, when d exceeds
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
    if np.min(width) <= tols.vertex_dedup * np.linalg.norm(M, 2):
        return None
    bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    corners = np.where(bits == 1, -lower, upper)
    try:
        verts = np.linalg.solve(M, corners.T).T
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(verts)):
        return None
    Mv = verts @ M.T
    if np.max(Mv - upper) > tols.vertex_feasibility or np.max(-Mv - lower) > tols.vertex_feasibility:
        return None
    return verts


def enumerate_vertices(poly: Polytope, tols: Tolerances = DEFAULT_TOLS) -> Polytope:
    """Convert a bounded halfspace description to its vertex set.

    Returns a copy of the polytope with `vertices` filled in
    (deduplicated, each verified feasible).  Raises
    UnboundedPolytopeError for unbounded or empty input and ValueError
    above `VERTEX_DIM_CAP`.
    """
    d = poly.dim
    if d > VERTEX_DIM_CAP:
        raise ValueError(f"dimension {d} exceeds the vertex-enumeration cap {VERTEX_DIM_CAP}")
    work = _drop_zero_rows(poly, tols)
    lo, hi = bounding_box(work, tols=tols)  # also certifies boundedness
    if d == 1:
        verts = np.array([[lo[0]], [hi[0]]])
        verts = _dedupe(verts, tols.vertex_dedup)
        return Polytope(poly.G, poly.h, vertices=verts)

    # Normalize rows for qhull conditioning; the feasible set is unchanged.
    norms = np.linalg.norm(work.G, axis=1)
    Gn = work.G / norms[:, None]
    hn = work.h / norms
    center, radius = chebyshev_center(Polytope(Gn, hn), tols=tols)
    if radius <= 1e-10 * max(1.0, np.max(np.abs(hi - lo))):
        raise UnboundedPolytopeError(
            "polytope is not full-dimensional within tolerance; no interior point found"
        )
    halfspaces = np.hstack([Gn, -hn[:, None]])
    try:
        inter = HalfspaceIntersection(halfspaces, center)
        verts = np.asarray(inter.intersections, dtype=float)
    except QhullError:
        verts = _brute_force_vertices(work, tols)
    verts = verts[np.all(np.isfinite(verts), axis=1)]
    if verts.size == 0:
        raise UnboundedPolytopeError("vertex enumeration produced no finite vertices")
    verts = _dedupe(verts, tols.vertex_dedup)
    # Guard against qhull round-off escaping the feasible set.
    slack = work.G @ verts.T - work.h[:, None]
    if np.max(slack) > tols.vertex_feasibility:
        verts = _brute_force_vertices(work, tols)
        if verts.size == 0:
            raise UnboundedPolytopeError("vertex enumeration failed feasibility screening")
    return Polytope(poly.G, poly.h, vertices=verts)
