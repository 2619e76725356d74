import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masbound import (
    IterationCapError,
    LtiSystem,
    OutputBox,
    Polytope,
    bound_m1_forced,
    bound_m1_unforced,
    bound_m2_forced,
    bound_m2_unforced,
    demo_system,
    exact_t_star_forced,
    exact_t_star_unforced,
)
from masbound import exact, geometry, linalg
from masbound.geometry import is_redundant
from masbound.lyapunov import build_O_prefix
from masbound.model import band_rows, output_bands, stable_dc_gain
from conftest import (
    count_models,
    exact_cases,
    force_unknown,
    golden_systems,
    make_siso,
    random_stable_matrix,
    run_exact,
    scalar_interval_t_star,
    unit_box,
)


def redundant_at_horizon(sys, box, result, t):
    """All signed output rows of time step t are implied by the returned set."""
    M = sys.C @ np.linalg.matrix_power(sys.A, t)
    if result.regime == "forced":
        H0 = stable_dc_gain(sys)
        M = np.hstack([M, H0])
    for j in range(sys.q):
        if not is_redundant(M[j], box.y_upper[j], result.polytope):
            return False
        if not is_redundant(-M[j], box.y_lower[j], result.polytope):
            return False
    return True


class TestUnforced:
    def test_scalar_contraction(self):
        res = exact_t_star_unforced(make_siso(0.5), unit_box())
        assert res.t_star == 0
        assert res.regime == "unforced" and res.epsilon is None

    def test_negative_scalar_asymmetric(self):
        res = exact_t_star_unforced(make_siso(-0.9), OutputBox([0.1], [1.0]))
        assert res.t_star == 1

    def test_double_contraction(self):
        sys = LtiSystem(A=np.diag([0.5, 0.5]), C=np.eye(2))
        assert exact_t_star_unforced(sys, unit_box(q=2)).t_star == 0

    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="spectral radius"):
            exact_t_star_unforced(make_siso(1.0), unit_box())

    def test_cap(self):
        rho, th = 0.995, 0.7
        A = rho * np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        sys = LtiSystem(A=A, C=[[1.0, 0.0]])
        with pytest.raises(IterationCapError):
            exact_t_star_unforced(sys, unit_box(), step_cap=2)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(50):
            a = float(rng.uniform(-0.98, 0.98))
            c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
            if rng.random() < 0.5:
                y_l = y_u = 1.0
            else:
                y_l, y_u = 0.1, 1.0  # strong asymmetry
            res = exact_t_star_unforced(make_siso(a, c=c), OutputBox([y_l], [y_u]))
            assert res.t_star == scalar_interval_t_star(a, c, y_l, y_u)

    def test_certificate_two_extra_horizons(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            sys = LtiSystem(A=random_stable_matrix(rng, n, rho_max=0.9),
                            C=rng.standard_normal((1, n)))
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            res = exact_t_star_unforced(sys, box)
            assert redundant_at_horizon(sys, box, res, res.t_star + 1)
            assert redundant_at_horizon(sys, box, res, res.t_star + 2)

    def test_returned_rows_are_non_redundant(self, rng):
        sys = LtiSystem(A=random_stable_matrix(rng, 3, rho_max=0.9),
                        C=rng.standard_normal((1, 3)))
        res = exact_t_star_unforced(sys, unit_box())
        G, h = res.polytope.G, res.polytope.h
        for i in range(G.shape[0]):
            others = [j for j in range(G.shape[0]) if j != i]
            rest = Polytope(G[others], h[others])
            assert not is_redundant(G[i], h[i], rest)

    def test_polytope_contains_origin(self, rng):
        sys = LtiSystem(A=random_stable_matrix(rng, 2), C=rng.standard_normal((1, 2)))
        res = exact_t_star_unforced(sys, unit_box())
        assert res.polytope.contains(np.zeros(2))

    def test_radial_scaling_invariance(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 4))
            sys = LtiSystem(A=random_stable_matrix(rng, n, rho_max=0.9),
                            C=rng.standard_normal((1, n)))
            lo = rng.uniform(0.3, 2.0, size=1)
            hi = rng.uniform(0.3, 2.0, size=1)
            t_ref = exact_t_star_unforced(sys, OutputBox(lo, hi)).t_star
            for k in (0.1, 10.0):
                assert exact_t_star_unforced(sys, OutputBox(k * lo, k * hi)).t_star == t_ref

    def test_bound_dominance(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            sys = LtiSystem(A=random_stable_matrix(rng, n, rho_max=0.9),
                            C=rng.standard_normal((1, n)))
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            t_star = exact_t_star_unforced(sys, box).t_star
            assert bound_m1_unforced(sys, box).m >= t_star
            assert bound_m2_unforced(sys, box).m >= t_star

    def test_sandwich_inclusions(self, rng):
        # inscribed level set inside the admissible set inside the n-step prefix
        for _ in range(6):
            n = int(rng.integers(2, 5))
            sys = LtiSystem(A=random_stable_matrix(rng, n, rho_max=0.9),
                            C=rng.standard_normal((1, n)))
            box = unit_box()
            res = exact_t_star_unforced(sys, box)
            rep = bound_m2_unforced(sys, box)
            P = rep.diagnostics["P"]
            r1 = rep.diagnostics["r1"]
            prefix = build_O_prefix(sys, box, horizon=sys.n - 1)
            for _ in range(50):
                direction = rng.standard_normal(n)
                x = direction * np.sqrt(r1 / (direction @ P @ direction))
                x *= rng.uniform(0.0, 1.0)
                assert res.polytope.contains(x, tol=1e-8)
                assert prefix.contains(x, tol=1e-8)


class TestForced:
    def test_epsilon_one_matches_unforced(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 4))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n, rho_max=0.9),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            assert (
                exact_t_star_forced(sys, box, 1.0).t_star
                == exact_t_star_unforced(sys, box).t_star
            )

    def test_forced_at_least_unforced(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 4))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n, rho_max=0.9),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            box = unit_box()
            t_forced = exact_t_star_forced(sys, box, 0.1).t_star
            t_unforced = exact_t_star_unforced(sys, box).t_star
            assert t_forced >= t_unforced

    def test_scalar_example(self):
        sys = make_siso(0.5, b=1.0)
        res = exact_t_star_forced(sys, unit_box(), 0.1)
        assert res.regime == "forced" and res.epsilon == 0.1
        assert res.t_star >= exact_t_star_unforced(sys, unit_box()).t_star

    def test_certificate(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 3))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n, rho_max=0.9),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            box = unit_box()
            res = exact_t_star_forced(sys, box, 0.05)
            assert redundant_at_horizon(sys, box, res, res.t_star + 1)
            assert redundant_at_horizon(sys, box, res, res.t_star + 2)

    def test_one_eigen_decomposition(self, monkeypatch):
        calls = []
        original = linalg.eigenvalues
        monkeypatch.setattr(linalg, "eigenvalues", lambda M: calls.append(1) or original(M))
        exact_t_star_forced(make_siso(0.5, b=1.0), unit_box(), 0.1)
        assert calls == [1]

    def test_requires_input(self):
        with pytest.raises(ValueError, match="input"):
            exact_t_star_forced(make_siso(0.5), unit_box(), 0.1)

    def test_epsilon_validated(self):
        sys = make_siso(0.5, b=1.0)
        for bad in (0.0, -0.5, 1.0001):
            with pytest.raises(ValueError):
                exact_t_star_forced(sys, unit_box(), bad)

    def test_steady_state_rows_present(self):
        sys = make_siso(0.5, b=1.0)
        res = exact_t_star_forced(sys, unit_box(), 0.25)
        # (z0, u) polytope must cap |H0 u| at (1 - eps): max 2u = 0.75
        from masbound.geometry import lp_maximize

        out = lp_maximize(np.array([0.0, 2.0]), res.polytope)
        assert out.status == "optimal"
        assert out.optimum <= 0.75 + 1e-8


class TestAsymmetryTrend:
    def test_demo_system_sweep_shape(self):
        from masbound import demo_system

        sys = demo_system()
        t_mid = exact_t_star_unforced(sys, OutputBox([1.0], [1.0])).t_star
        t_low = exact_t_star_unforced(sys, OutputBox([0.1], [1.0])).t_star
        t_high = exact_t_star_unforced(sys, OutputBox([2.0], [1.0])).t_star
        assert t_low >= t_mid
        assert t_high >= t_mid


def reference_exact(sys, box, epsilon=None, step_cap=200):
    """Gilbert-Tan loop with one cold `is_redundant` LP per row, then a cold prune."""
    feed = np.zeros((sys.q, 0)) if epsilon is None else stable_dc_gain(sys)

    def signed_rows(M, scale=1.0):
        block = np.hstack([M, feed])
        return np.vstack([block, -block]), scale * np.concatenate([box.y_upper, box.y_lower])

    G, h = signed_rows(sys.C)
    if epsilon is not None:
        steady, steady_rhs = signed_rows(np.zeros((sys.q, sys.n)), 1.0 - epsilon)
        G, h = np.vstack([steady, G]), np.concatenate([steady_rhs, h])
    M = sys.C
    for t in range(step_cap + 1):
        M = M @ sys.A
        rows, rhs = signed_rows(M)
        poly = Polytope(G, h)
        fresh = [k for k in range(len(rhs)) if not is_redundant(rows[k], rhs[k], poly)]
        if fresh:
            G, h = np.vstack([G, rows[fresh]]), np.concatenate([h, rhs[fresh]])
            continue
        keep = list(range(len(h)))
        i = 0
        while i < len(keep) and len(keep) > 1:
            others = keep[:i] + keep[i + 1:]
            if is_redundant(G[keep[i]], h[keep[i]], Polytope(G[others], h[others])):
                keep.pop(i)
            else:
                i += 1
        return t, Polytope(G[keep], h[keep])
    raise AssertionError("reference loop hit its cap")


def assert_same_result(res, t_star, poly):
    assert res.t_star == t_star
    assert np.array_equal(res.polytope.G, poly.G)
    assert np.array_equal(res.polytope.h, poly.h)


def backend_cases():
    """A SISO case whose pruning drops rows, and a two-output case with m_in > q."""
    rng = np.random.default_rng(5)
    sys = LtiSystem(
        A=random_stable_matrix(rng, 3, rho_max=0.9),
        B=rng.standard_normal((3, 3)),
        C=rng.standard_normal((2, 3)),
    )
    box = OutputBox(rng.uniform(0.3, 2.0, size=2), rng.uniform(0.3, 2.0, size=2))
    return [(demo_system(), OutputBox([0.4], [1.0]), None), (sys, box, None), (sys, box, 0.1)]


def symmetric_cases():
    """Symmetric boxes: SISO in both regimes, two outputs with one input in both regimes."""
    rng = np.random.default_rng(17)
    sys = LtiSystem(
        A=random_stable_matrix(rng, 4, rho_max=0.9),
        B=rng.standard_normal((4, 1)),
        C=rng.standard_normal((2, 4)),
    )
    siso = LtiSystem(A=sys.A, B=sys.B, C=sys.C[:1])
    box = OutputBox([1.0, 0.5], [1.0, 0.5])
    return [(demo_system(), unit_box(), None), (siso, unit_box(), 1.0), (sys, box, None), (sys, box, 0.05)]


def asymmetric_cases():
    """The two-output system of `symmetric_cases` under a box symmetric on one output or none."""
    sys = symmetric_cases()[2][0]
    return [
        (sys, OutputBox([1.0, 0.5], [0.8, 0.5]), None),
        (sys, OutputBox([1.0, 0.5], [0.8, 0.5]), 0.05),
        (sys, OutputBox([1.0, 0.5], [0.8, 0.4]), None),
    ]


def count_lps(monkeypatch) -> list[int]:
    """A list that gains one entry per `WarmLp.maximize` call."""
    if geometry._HIGHS is None:
        pytest.skip("this scipy has no persistent HiGHS class")
    calls = []
    real = geometry.WarmLp.maximize
    monkeypatch.setattr(geometry.WarmLp, "maximize", lambda self, c: calls.append(1) or real(self, c))
    return calls


def replay_decisions(sys, box, epsilon=None):
    """(t*, decisions, span-screened, parallelotope-decided) of the construction.

    Replays the loop with a cold `is_redundant` per decision.  A decision
    is span-screened when its row raises `numpy.linalg.matrix_rank` of
    the accepted rows, and parallelotope-decided otherwise when the
    accepted rows are d mirrored pairs of rank d.  On a symmetric box
    one decision covers a row and its mirror.
    """
    feed = None if epsilon is None else stable_dc_gain(sys)
    bands = output_bands(sys, box, feed, 1.0 if epsilon is None else epsilon)
    G, h = band_rows(itertools.islice(bands, 1 if epsilon is None else 2))
    d = G.shape[1]
    symmetric = np.array_equal(box.y_lower, box.y_upper)
    decisions = screened = closed = 0
    for t in itertools.count():
        rows, rhs = band_rows([next(bands)])
        rank = np.linalg.matrix_rank(G)
        mirrored = all(np.any(np.all(G == -g, axis=1)) for g in G)
        parallelotope = len(G) == 2 * d and rank == d and mirrored
        fresh = []
        for k in range(sys.q if symmetric else 2 * sys.q):
            decisions += 1
            if np.linalg.matrix_rank(np.vstack([G, rows[k]])) > rank:
                screened += 1
            elif parallelotope:
                closed += 1
            if not is_redundant(rows[k], rhs[k], Polytope(G, h)):
                fresh.append(k)
        if symmetric:
            fresh += [k + sys.q for k in fresh]
        if not fresh:
            return t, decisions, screened, closed
        G, h = np.vstack([G, rows[fresh]]), np.concatenate([h, rhs[fresh]])


class TestMirroredRows:
    """On a symmetric box one decision settles a row and its mirror.

    A step makes q decisions on a symmetric box and 2q otherwise.  A
    decision needs an LP unless its row lies off the accepted rows' span
    or the accepted rows form a parallelotope.
    """

    @pytest.mark.parametrize("case", symmetric_cases())
    def test_symmetric_box_spends_q_lps_per_step(self, monkeypatch, case):
        calls = count_lps(monkeypatch)
        res = run_exact(*case)
        t_star, decisions, screened, closed = replay_decisions(*case)
        assert res.t_star == t_star > 0
        assert decisions == case[0].q * (res.t_star + 1)
        assert screened > 0
        assert len(calls) == decisions - screened - closed

    @pytest.mark.parametrize("case", asymmetric_cases())
    def test_asymmetric_box_spends_2q_lps_per_step(self, monkeypatch, case):
        calls = count_lps(monkeypatch)
        res = run_exact(*case)
        t_star, decisions, screened, closed = replay_decisions(*case)
        assert res.t_star == t_star
        assert decisions == 2 * case[0].q * (res.t_star + 1)
        assert screened > 0
        assert len(calls) == decisions - screened - closed


def nilpotent_cases():
    """A shift matrix with C A^3 = 0, unforced and forced, on a symmetric and an asymmetric box."""
    sys = LtiSystem(A=np.eye(3, k=1), B=[[0.0], [0.0], [1.0]], C=[[1.0, 0.0, 0.0]])
    return [
        (sys, box, epsilon)
        for box in (unit_box(), OutputBox([0.5], [1.0]))
        for epsilon in (None, 0.1, 1.0)
    ]


class TestDecisionsWithoutLps:
    """Rows settled by the span screen or the parallelotope closed form."""

    @pytest.mark.parametrize("case", nilpotent_cases())
    def test_nilpotent_system_matches_cold_reference(self, monkeypatch, case):
        calls = count_lps(monkeypatch)
        res = run_exact(*case)
        assert res.t_star == 2
        assert calls == []  # the rows C A^3 are zero; every other row is screened or closed-form
        assert_same_result(res, *reference_exact(*case))

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_row_too_near_the_span_for_the_basis_stops_the_screen(self, monkeypatch, scale):
        # C A is off span(C) by 5e-7 of its norm: its LP is unbounded, so it
        # is accepted, but it cannot join the basis.  C A^2, off by 9.5e-6,
        # is then redundant (its maximum is 0.995), which only the LP sees.
        # At scale 1e4 its off-span component is above the 1e3 * lp_tol floor.
        sys = LtiSystem(A=[[0.05, 2.5e-8], [0.0, 0.9]], C=[[scale, 0.0]])
        calls = count_lps(monkeypatch)
        res = exact_t_star_unforced(sys, unit_box())
        assert res.t_star == 1
        assert len(calls) == 2
        assert_same_result(res, *reference_exact(sys, unit_box()))

    @pytest.mark.parametrize("gain, lps", [(1e-5, 0), (1e-7, 1)])
    def test_screen_needs_a_residual_far_above_lp_tol(self, monkeypatch, gain, lps):
        # C A = [0, gain] lies wholly off span(C); below 1e3 * lp_tol it goes to the LP.
        sys = LtiSystem(A=[[0.0, gain], [0.0, 0.0]], C=[[1.0, 0.0]])
        calls = count_lps(monkeypatch)
        res = exact_t_star_unforced(sys, unit_box())
        assert len(calls) == lps
        assert_same_result(res, *reference_exact(sys, unit_box()))

    def test_extend_gives_up_between_roundoff_and_the_span_threshold(self):
        basis = np.array([[1.0, 0.0, 0.0]])
        assert exact._extend(basis, np.array([[2.0, 1e-15, 0.0]])) is basis
        assert exact._extend(basis, np.array([[2.0, 1e-9, 0.0]])) is None
        grown = exact._extend(basis, np.array([[2.0, 1e-5, 0.0], [0.0, 0.0, 0.0]]))
        assert np.array_equal(grown, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_closed_form_tie_goes_to_the_lp(self, monkeypatch):
        # max of a x over |x| <= 1 is a, within the tie band of 1 + lp_tol.
        calls = count_lps(monkeypatch)
        assert exact_t_star_unforced(make_siso(1.0 - 1e-7), unit_box()).t_star == 0
        assert calls == [1]
        assert exact_t_star_unforced(make_siso(1.0 - 1e-4), unit_box()).t_star == 0
        assert calls == [1]

    def test_order_one_system_builds_no_model(self, monkeypatch):
        built = count_models(monkeypatch)
        res = exact_t_star_unforced(make_siso(0.5), unit_box())
        assert res.t_star == 0
        assert built == []
        res.polytope  # pruning solves LPs
        assert built == [1]

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(st.lists(exact_cases(), min_size=6, max_size=6))
    def test_calls_in_sequence_build_one_model(self, cases):
        # Every call and every pruning borrows the model the first one built.
        with pytest.MonkeyPatch.context() as monkeypatch:
            built = count_models(monkeypatch)
            results = [run_exact(*case) for case in cases]
            assert len(built) <= 1
            # Build the one model here if no call needed an LP.
            geometry.WarmLp(Polytope(np.eye(1), np.ones(1))).maximize([1.0])
            assert built == [1]
            for res in results:
                res.polytope
            assert built == [1]


class TestLpBackends:
    """Every LP backend of the exact path gives the same index and rows."""

    def test_cold_restart_path(self, monkeypatch):
        expected = [run_exact(*case) for case in backend_cases()]
        restarts = force_unknown(monkeypatch, cold_resolves=True)
        for case, ref in zip(backend_cases(), expected):
            assert_same_result(run_exact(*case), ref.t_star, ref.polytope)
        assert restarts

    def test_linprog_fallback_without_private_class(self, monkeypatch):
        expected = [run_exact(*case) for case in backend_cases()]
        monkeypatch.setattr(geometry, "_HIGHS", None)
        calls = []
        real = geometry.linprog
        monkeypatch.setattr(geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
        for case, ref in zip(backend_cases(), expected):
            assert_same_result(run_exact(*case), ref.t_star, ref.polytope)
        assert calls

    def test_polytope_is_pruned_once_on_first_access(self, monkeypatch):
        calls = []
        real = exact._prune
        monkeypatch.setattr(exact, "_prune", lambda *a: calls.append(1) or real(*a))
        res = exact_t_star_unforced(demo_system(), OutputBox([0.4], [1.0]))
        assert calls == []  # t* alone never pays for pruning
        first = res.polytope
        assert res.polytope is first
        assert calls == [1]
        eager = real(res.rows, res.lp_tol)
        assert np.array_equal(first.G, eager.G) and np.array_equal(first.h, eager.h)
        assert first.nrows < res.rows.nrows


@settings(derandomize=True, max_examples=80, deadline=None)
@given(exact_cases())
@example(backend_cases()[0])
@example(backend_cases()[2])
@example((  # more inputs than outputs, asymmetric box, forced
    LtiSystem(A=[[0.5, 0.1], [0.0, 0.3]], B=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], C=np.eye(2)),
    OutputBox([0.5, 1.0], [1.0, 0.3]),
    0.1,
))
@example((demo_system(), unit_box(), None))  # SISO, symmetric box
@example((  # more inputs than outputs, symmetric box, forced at epsilon = 1
    LtiSystem(A=[[0.5, 0.1], [0.0, 0.3]], B=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], C=np.eye(2)),
    OutputBox([0.5, 1.0], [0.5, 1.0]),
    1.0,
))
@example(symmetric_cases()[3])
def test_warm_path_matches_cold_reference(case):
    assert_same_result(run_exact(*case), *reference_exact(*case))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(exact_cases())
@example(backend_cases()[2])
def test_bounds_dominate_exact_index(case):
    sys, box, epsilon = case
    t_star = run_exact(*case).t_star
    if epsilon is None:
        m1, m2 = bound_m1_unforced(sys, box).m, bound_m2_unforced(sys, box).m
    else:
        m1, m2 = bound_m1_forced(sys, box, epsilon).m, bound_m2_forced(sys, box, epsilon).m
    assert t_star <= m1
    assert t_star <= m2


EXACT_REPORTS = Path(__file__).parent / "data" / "exact_reports.json"


def exact_reports() -> dict:
    """t* and digests of the accepted and pruned rows per golden system and call."""
    out = {}
    for name, sys, box, epsilon in golden_systems():
        calls = (
            ("unforced", exact_t_star_unforced(sys, box)),
            ("forced", exact_t_star_forced(sys, box, epsilon)),
            ("forced_eps1", exact_t_star_forced(sys, box, 1.0)),
        )
        out[name] = {
            call: {
                "t_star": res.t_star,
                **{
                    f"{part}_{key}_sha256": hashlib.sha256(np.ascontiguousarray(getattr(poly, key)).tobytes()).hexdigest()
                    for part, poly in (("rows", res.rows), ("polytope", res.polytope))
                    for key in ("G", "h")
                },
            }
            for call, res in calls
        }
    return out


def record_exact_reports():
    EXACT_REPORTS.write_text(json.dumps(exact_reports(), indent=1, sort_keys=True) + "\n")


def test_exact_reports_bitwise_golden():
    """Every exact result is bitwise the recorded one.

    The file was recorded before rows could be decided without an LP
    (outside the accepted rows' span, or by the parallelotope closed
    form) and before `WarmLp` built its model lazily.  It covers the
    systems of `golden_systems`, unforced and forced at their epsilon and
    at epsilon = 1.  To record it again (only after a change meant to
    move the exact index), run from the repository root:

        cd tests && PYTHONPATH=../src python3 -c "import test_exact; test_exact.record_exact_reports()"
    """
    expected = json.loads(EXACT_REPORTS.read_text())
    got = exact_reports()
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == expected[name], name
