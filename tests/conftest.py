"""Shared test helpers: independent oracles and random-instance factories."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.spatial import HalfspaceIntersection

from masbound import LtiSystem, OutputBox, config, exact_t_star_forced, exact_t_star_unforced, geometry
from masbound.linalg import char_poly_coeffs, spectral_radius
from masbound.model import gamma
from masbound.montecarlo import StudyConfig, random_stable_system, system_seed
from masbound.powerseries import beta_init, beta_step, condition_forced, condition_unforced


def random_stable_matrix(rng, n, rho_max=0.95):
    """Dense matrix with spectral radius scaled below rho_max."""
    A = rng.standard_normal((n, n))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    target = rng.uniform(0.2, rho_max)
    return A * (target / rho)


def random_spd_matrix(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def scalar_interval_t_star(a, c, y_l, y_u, tol=1e-9, cap=10_000):
    """Interval-intersection oracle for the scalar admissibility index.

    Tracks O_t = intersection of {x : c a^t x in [-y_l, y_u]} and stops at
    the first t whose step-(t+1) interval already contains O_t, using the
    same redundancy slack as the LP-based implementation.
    """

    def interval(w):
        if w > 0:
            return (-y_l / w, y_u / w)
        if w < 0:
            return (y_u / w, -y_l / w)
        return (-np.inf, np.inf)

    def redundant(w, lo, hi):
        # max(w x) over [lo, hi] <= bound, for both signed rows
        return max(w * lo, w * hi) <= y_u + tol and max(-w * lo, -w * hi) <= y_l + tol

    w = float(c)
    lo, hi = interval(w)
    for t in range(cap):
        w_next = w * a
        if redundant(w_next, lo, hi):
            return t
        lo2, hi2 = interval(w_next)
        lo, hi = max(lo, lo2), min(hi, hi2)
        w = w_next
    raise AssertionError("oracle did not terminate")


def brute_force_vertices(G, h, feas_tol=1e-6, dedup_tol=1e-6):
    """Solve every d-subset of rows; keep feasible, deduplicated solutions."""
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    k, d = G.shape
    points = []
    for combo in itertools.combinations(range(k), d):
        sub = G[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, h[list(combo)])
        if np.all(G @ x <= h + feas_tol):
            points.append(x)
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q) > dedup_tol for q in kept):
            kept.append(p)
    return np.array(kept) if kept else np.empty((0, d))


def lp_seeded_vertices(G, h):
    """Vertices the LP way: a bounding box proves boundedness, qhull runs
    from the Chebyshev center, and the result is deduplicated."""
    poly = geometry.Polytope(G, h)
    geometry.bounding_box(poly)
    norms = np.linalg.norm(poly.G, axis=1)
    Gn, hn = poly.G / norms[:, None], poly.h / norms
    center, _ = geometry.chebyshev_center(geometry.Polytope(Gn, hn))
    inter = HalfspaceIntersection(np.hstack([Gn, -hn[:, None]]), center)
    return geometry._dedupe(np.asarray(inter.intersections), config.VERTEX_DEDUP)


def refuse_lps(monkeypatch):
    """Make every one-off LP of the geometry module fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(geometry, "linprog", refuse)


def match_point_sets(P1, P2, tol):
    """True when the two point sets coincide up to tol (as sets)."""
    if len(P1) != len(P2):
        return False
    for p in P1:
        if np.min(np.linalg.norm(P2 - p, axis=1)) > tol:
            return False
    for p in P2:
        if np.min(np.linalg.norm(P1 - p, axis=1)) > tol:
            return False
    return True


def random_bounded_polytope(rng, d, k):
    """Random halfspaces around a box, guaranteed bounded with the origin inside."""
    G = [np.eye(d), -np.eye(d)]
    h = [np.full(d, rng.uniform(0.5, 2.0)), np.full(d, rng.uniform(0.5, 2.0))]
    extra = max(0, k - 2 * d)
    if extra:
        rows = rng.standard_normal((extra, d))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        G.append(rows)
        h.append(rng.uniform(0.3, 2.0, size=extra))
    return np.vstack(G), np.concatenate(h)


def two_output_systems(rng):
    """Two outputs, asymmetric boxes, orders 2-5, one and two inputs."""
    for n in range(2, 6):
        for m_in in (1, 2):
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, m_in)),
                C=rng.standard_normal((2, n)),
            )
            yield sys, OutputBox(rng.uniform(0.3, 2.0, size=2), rng.uniform(0.3, 2.0, size=2))


def golden_systems():
    """(name, system, box, epsilon) of the m2 and exact-index golden fixtures.

    The first 40 systems of the seed-2026 study with its epsilon, then
    six two-output systems with asymmetric boxes from a fixed rng.
    """
    config = StudyConfig(seed=2026)
    for i in range(40):
        sys, box = random_stable_system(system_seed(config.seed, i), config)
        yield f"study-{i}", sys, box, config.epsilon
    for i, (sys, box) in enumerate(itertools.islice(two_output_systems(np.random.default_rng(2026)), 6)):
        yield f"mimo-{i}", sys, box, 0.01


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_siso(a, b=None, c=1.0, d=None):
    """Scalar state helper used across modules."""
    return LtiSystem(
        A=[[float(a)]],
        B=None if b is None else [[float(b)]],
        C=[[float(c)]],
        D=None if d is None else [[float(d)]],
    )


def unit_box(q=1):
    return OutputBox(np.ones(q), np.ones(q))


def force_unknown(monkeypatch, cold_resolves: bool) -> list[int]:
    """Make every warm-started HiGHS solve report a non-definitive status.

    With `cold_resolves` a solve right after `clearSolver` reports its
    true status; without it every solve stays non-definitive.  Returns a
    list that gains one entry per cold restart.
    """
    if geometry._HIGHS is None:
        pytest.skip("this scipy has no persistent HiGHS class")
    from scipy.optimize._highspy._core import HighsModelStatus

    highs_cls, *rest = geometry._HIGHS
    restarts = []

    class Unsure(highs_cls):
        cleared = False
        cold = False

        def clearSolver(self):
            restarts.append(1)
            self.cleared = True
            return super().clearSolver()

        def run(self):
            self.cold, self.cleared = self.cleared, False
            return super().run()

        def getModelStatus(self):
            if cold_resolves and self.cold:
                return super().getModelStatus()
            return HighsModelStatus.kUnknown

    monkeypatch.setattr(geometry, "_HIGHS", (Unsure, *rest))
    return restarts


def bitwise(a, b) -> bool:
    """Whether two arrays have the same shape, dtype and bytes."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_rows(bands) -> tuple[np.ndarray, np.ndarray]:
    """The one-sided rows (G, h) of two-sided bands: per band +M then -M, with rhs upper then lower."""
    G = [part for M, _, _ in bands for part in (M, -M)]
    h = [part for _, lower, upper in bands for part in (upper, lower)]
    return np.vstack(G), np.concatenate(h)


def upper_sides(poly) -> list[tuple]:
    """The rows of a polytope as one band whose lower sides are all absent, in a list of bands for `WarmLp`."""
    return [(poly.G, np.full(poly.nrows, np.inf), poly.h)]


def count_models(monkeypatch) -> list[int]:
    """A list that gains one entry per HiGHS model constructed."""
    if geometry._HIGHS is None:
        pytest.skip("this scipy has no persistent HiGHS class")
    highs_cls, *rest = geometry._HIGHS
    built = []

    class Counted(highs_cls):
        def __init__(self):
            built.append(1)
            super().__init__()

    monkeypatch.setattr(geometry, "_HIGHS", (Counted, *rest))
    return built


def run_exact(sys, box, epsilon=None):
    if epsilon is None:
        return exact_t_star_unforced(sys, box)
    return exact_t_star_forced(sys, box, epsilon)


@st.composite
def exact_cases(draw):
    """(system, box, epsilon) with n <= 4, q <= 2, m_in <= 3; epsilon is None for the unforced regime."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    q = draw(st.integers(1, 2))
    m_in = draw(st.integers(0, 3))
    sys = LtiSystem(
        A=random_stable_matrix(rng, n, rho_max=0.9),
        B=rng.standard_normal((n, m_in)) if m_in else None,
        C=rng.standard_normal((q, n)),
    )
    lower = rng.uniform(0.2, 2.0, size=q)
    epsilon = draw(st.sampled_from([None, 0.05, 0.3, 1.0])) if m_in else None
    symmetric = draw(st.booleans())
    box = OutputBox(lower, lower if symmetric else rng.uniform(0.2, 2.0, size=q))
    return sys, box, epsilon


@st.composite
def m1_cases(draw):
    """(system, box, epsilon) with n <= 9, q <= 2 and one input; epsilon is None for the unforced regime."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    q = draw(st.integers(1, 2))
    sys = LtiSystem(
        A=random_stable_matrix(rng, n, rho_max=0.98),
        B=rng.standard_normal((n, 1)),
        C=rng.standard_normal((q, n)),
    )
    box = OutputBox(rng.uniform(0.2, 2.0, size=q), rng.uniform(0.2, 2.0, size=q))
    return sys, box, draw(st.sampled_from([None, 0.01, 0.3, 1.0]))


def reference_m1(sys, box, epsilon):
    """(m, iterations, diagnostics) from `beta_step` and `condition_*` at every t.

    The stop slack is epsilon (1 unforced) less the rule's left side at
    the stop step, over the sums of beta's positive and of its negative
    entries taken in order.
    """
    g = gamma(box)
    c = char_poly_coeffs(sys.A)
    state = beta_init(c)
    while not (
        condition_unforced(state.beta, g) if epsilon is None else condition_forced(state.beta, g, epsilon)
    ):
        state = beta_step(state, c)
    eps = 1.0 if epsilon is None else epsilon
    pos = neg = 0.0
    for b in state.beta.tolist():
        if b > 0.0:
            pos += b
        elif b < 0.0:
            neg += b
    lhs = (1.0 + g * (1.0 - eps)) * pos - (g + (1.0 - eps)) * neg
    diagnostics = {"stop_t": state.t, "stop_slack": eps - lhs, "gamma": g, "rho": spectral_radius(sys.A)}
    if epsilon is not None:
        diagnostics["epsilon"] = epsilon
    return state.t - 1, state.t - sys.n, diagnostics


BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="session")
def bench_workloads():
    """`bench/workloads.py`, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("bench_workloads_digest", BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
