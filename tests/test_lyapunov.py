import hashlib
import itertools
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from masbound import (
    LtiSystem,
    NumericalError,
    OutputBox,
    UnboundedPolytopeError,
    bound_m1_forced,
    bound_m2_forced,
    bound_m2_unforced,
    exact_t_star_forced,
    exact_t_star_unforced,
)
from masbound import geometry, lyapunov
from masbound.config import VERTEX_DIM_CAP
from masbound.geometry import enumerate_vertices
from masbound.linalg import kron_lyapunov, solve_discrete_lyapunov, spectral_radius
from masbound.lyapunov import (
    bound_m2,
    build_O_prefix,
    compute_r1,
    compute_r2,
    compute_sigma,
)
from masbound.model import output_bands, stable_dc_gain
from masbound.montecarlo import StudyConfig, random_stable_system, system_seed
from conftest import (
    bitwise,
    golden_systems,
    lp_seeded_vertices,
    make_siso,
    offset_lu_solves,
    random_spd_matrix,
    random_stable_matrix,
    reference_rows,
    refuse_lps,
    two_output_systems,
    unit_box,
)


class TestPrefixSets:
    def test_scalar_horizon_zero(self):
        poly = build_O_prefix(make_siso(0.5), unit_box(), horizon=0)
        assert np.allclose(poly.G, [[1.0], [-1.0]])
        assert np.allclose(poly.h, [1.0, 1.0])

    def test_scalar_horizon_one(self):
        poly = build_O_prefix(make_siso(0.5), unit_box(), horizon=1)
        assert np.allclose(poly.G, [[1.0], [-1.0], [0.5], [-0.5]])
        assert np.allclose(poly.h, np.ones(4))

    def test_two_state_hand_stacked(self):
        sys = LtiSystem(A=np.diag([0.5, 0.5]), C=np.eye(2))
        poly = build_O_prefix(sys, unit_box(q=2), horizon=1)
        expected = np.vstack([np.eye(2), -np.eye(2), 0.5 * np.eye(2), -0.5 * np.eye(2)])
        assert np.allclose(poly.G, expected)
        assert np.allclose(poly.h, np.ones(8))

    def test_forced_scalar(self):
        sys = make_siso(0.5, b=1.0)
        poly = build_O_prefix(sys, unit_box(), horizon=0, epsilon=0.5)
        # steady-state rows first (H0 = 2), then the t = 0 output rows
        assert np.allclose(poly.G, [[0.0, 2.0], [0.0, -2.0], [1.0, 2.0], [-1.0, -2.0]])
        assert np.allclose(poly.h, [0.5, 0.5, 1.0, 1.0])

    def test_forced_two_state_direct_products(self, rng):
        n = 2
        A = random_stable_matrix(rng, n)
        sys = LtiSystem(A=A, B=rng.standard_normal((n, 1)), C=rng.standard_normal((1, n)))
        H0 = stable_dc_gain(sys)
        eps = 0.3
        poly = build_O_prefix(sys, unit_box(), horizon=1, epsilon=eps)
        rows = [
            np.hstack([np.zeros((1, n)), H0]),
            np.hstack([np.zeros((1, n)), -H0]),
            np.hstack([sys.C, H0]),
            np.hstack([-sys.C, -H0]),
            np.hstack([sys.C @ A, H0]),
            np.hstack([-sys.C @ A, -H0]),
        ]
        assert np.allclose(poly.G, np.vstack(rows))
        assert np.allclose(poly.h, [1 - eps, 1 - eps, 1, 1, 1, 1])

    def test_forced_epsilon_one_pins_input(self):
        sys = make_siso(0.5, b=1.0)
        poly = build_O_prefix(sys, unit_box(), horizon=0, epsilon=1.0)
        assert np.allclose(poly.h[:2], 0.0)  # H0 u <= 0 and -H0 u <= 0


def prefix_band_cases():
    """(sys, box, feed, epsilon): q = 1 and q = 2, unforced, forced, epsilon = 1, and a rank-deficient H0."""
    siso = LtiSystem(A=[[0.6, 0.2], [-0.1, 0.4]], B=[[1.0], [0.5]], C=[[1.0, -0.5]])
    mimo = LtiSystem(
        A=[[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, -0.4]], B=[[1.0], [0.0], [2.0]], C=[[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]
    )
    wide = LtiSystem(A=[[0.5, 0.1], [0.0, 0.3]], B=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], C=np.eye(2))
    box2 = OutputBox(y_lower=[0.5, 2.0], y_upper=[1.5, 1.0])
    return [
        pytest.param(siso, unit_box(), None, 1.0, id="q1"),
        pytest.param(siso, unit_box(), stable_dc_gain(siso), 0.1, id="q1_forced"),
        pytest.param(mimo, box2, None, 1.0, id="q2"),
        pytest.param(mimo, box2, stable_dc_gain(mimo), 0.2, id="q2_forced"),
        pytest.param(mimo, box2, stable_dc_gain(mimo), 1.0, id="epsilon_one"),
        pytest.param(wide, unit_box(q=2), lyapunov._input_basis(wide), 0.1, id="rank_deficient_h0"),
    ]


@pytest.mark.parametrize("sys, box, feed, epsilon", prefix_band_cases())
def test_prefix_bands_stack_the_output_bands(sys, box, feed, epsilon):
    # The first n bands of `output_bands` (n + 1 with the steady-state
    # band), stacked; their one-sided rows are the reference layout.
    bands = lyapunov._prefix_bands(sys, box, sys.n - 1, feed, epsilon)
    ref = list(itertools.islice(output_bands(sys, box, feed, epsilon), sys.n + (feed is not None)))
    for got, parts in zip((bands.M, bands.lower, bands.upper), zip(*ref)):
        assert bitwise(got, np.concatenate(parts))
    assert bands.ends == tuple(box.q * (b + 1) for b in range(len(ref)))  # q rows a band
    G, h = reference_rows(ref)
    assert bitwise(bands.polytope.G, G) and bitwise(bands.polytope.h, h)


class TestLevels:
    def test_r1_diagonal(self):
        P = np.diag([4.0 / 3.0, 4.0 / 3.0])
        assert compute_r1(P, np.eye(2), unit_box(q=2)) == pytest.approx(4.0 / 3.0)

    def test_r1_scales_quadratically(self):
        P = np.diag([4.0 / 3.0, 4.0 / 3.0])
        assert compute_r1(P, np.eye(2), unit_box(q=2), scale=0.5) == pytest.approx(1.0 / 3.0)

    def test_r1_scalar_asymmetric(self):
        box = OutputBox([0.1], [1.0])
        assert compute_r1([[4.0 / 3.0]], [[1.0]], box) == pytest.approx(0.01 / 0.75)

    def test_r2_box_vertices(self):
        P = np.diag([4.0 / 3.0, 4.0 / 3.0])
        verts = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        assert compute_r2(P, verts) == pytest.approx(8.0 / 3.0)

    def test_r2_origin(self):
        assert compute_r2(np.eye(2), np.zeros((1, 2))) == 0.0

    def test_r2_projection_drops_input(self):
        verts = np.array([[1.0, 5.0], [-1.0, -7.0]])
        assert compute_r2([[2.0]], verts, proj_dim=1) == pytest.approx(2.0)

    def test_r2_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_r2(np.eye(2), np.empty((0, 2)))


def numpy_inscribed_level(denoms, box, scale):
    """r1 as the array formula: the oracle of the plain-float `_inscribed_level`."""
    bounds = scale * np.minimum(box.y_lower, box.y_upper)
    with np.errstate(divide="ignore"):
        levels = np.where(denoms > 0.0, bounds**2 / denoms, np.inf)
    return float(np.min(levels))


class TestInscribedLevelOnFloats:
    def test_bitwise_the_array_formula(self, rng):
        for trial in range(60):
            q = 1 + trial % 3
            n = int(rng.integers(q, 5))
            P = random_spd_matrix(rng, n)
            C = rng.standard_normal((q, n)) * 10.0 ** rng.uniform(-3, 3, size=(q, 1))
            if q > 1 and trial % 5 == 0:
                C[rng.integers(q)] = 0.0
            box = OutputBox(10.0 ** rng.uniform(-3, 3, size=q), 10.0 ** rng.uniform(-3, 3, size=q))
            scale = 1.0 - float(rng.uniform())  # in (0, 1]
            denoms = lyapunov._inverse_forms(P, C)
            expected = numpy_inscribed_level(denoms, box, scale)
            assert lyapunov._inscribed_level(denoms, box, scale).hex() == expected.hex()
            assert compute_r1(P, C, box, scale).hex() == expected.hex()

    def test_negative_denominator_refused(self):
        with pytest.raises(NumericalError, match="negative"):
            lyapunov._inscribed_level(np.array([0.5, -1e-300]), unit_box(q=2), 1.0)
        with pytest.raises(NumericalError, match="negative"):
            compute_r1(-np.eye(2), np.eye(2), unit_box(q=2))


class TestSigma:
    def test_modes_agree_on_diagonal(self):
        A = np.diag([0.5, 0.3])
        P = solve_discrete_lyapunov(A, np.eye(2))
        assert compute_sigma(A, P, np.eye(2), mode="eq25") == pytest.approx(0.25)
        assert compute_sigma(A, P, np.eye(2), mode="paper") == pytest.approx(0.25)

    def test_modes_disagree_on_nilpotent(self):
        A = np.array([[0.0, 10.0], [0.0, 0.0]])
        P = solve_discrete_lyapunov(A, np.eye(2))
        assert compute_sigma(A, P, np.eye(2), mode="eq25") == pytest.approx(1 - 1 / 101)
        assert compute_sigma(A, P, np.eye(2), mode="paper") == pytest.approx(0.0, abs=1e-14)

    def test_zero_matrix(self):
        A = np.zeros((1, 1))
        P = solve_discrete_lyapunov(A, np.eye(1))
        assert compute_sigma(A, P, np.eye(1), mode="eq25") == 0.0
        assert compute_sigma(A, P, np.eye(1), mode="paper") == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compute_sigma(np.eye(1), np.eye(1), np.eye(1), mode="exotic")

    def test_mode_agreement_on_normal_matrices(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            rho = np.max(np.abs(np.linalg.eigvalsh(S)))
            A = S * (rng.uniform(0.2, 0.95) / rho)
            P = solve_discrete_lyapunov(A, np.eye(n))
            s_eq = compute_sigma(A, P, np.eye(n), mode="eq25")
            s_paper = compute_sigma(A, P, np.eye(n), mode="paper")
            assert abs(s_eq - s_paper) <= 1e-8

    def test_decay_certificate(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = random_stable_matrix(rng, n)
            P = solve_discrete_lyapunov(A, np.eye(n))
            sigma = compute_sigma(A, P, np.eye(n), mode="eq25")
            x = rng.standard_normal(n)
            v_now = x @ P @ x
            v_next = (A @ x) @ P @ (A @ x)
            assert v_next / v_now <= sigma + 1e-10


class TestFloorFormula:
    def test_worked_zero(self):
        assert bound_m2(4.0 / 3.0, 8.0 / 3.0, 0.25) == 0

    def test_equal_levels(self):
        assert bound_m2(2.0, 2.0, 0.9) == 0

    def test_worked_fortythree(self):
        assert bound_m2(1.0, 100.0, 0.9) == 43

    def test_zero_sigma(self):
        assert bound_m2(1.0, 100.0, 0.0) == 0

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            bound_m2(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            bound_m2(1.0, -1.0, 0.5)


class TestComposedBounds:
    def test_double_contraction(self):
        sys = LtiSystem(A=np.diag([0.5, 0.5]), C=np.eye(2))
        rep = bound_m2_unforced(sys, unit_box(q=2))
        assert rep.m == 0
        assert rep.diagnostics["r1"] == pytest.approx(4.0 / 3.0)
        assert rep.diagnostics["r2"] == pytest.approx(8.0 / 3.0)

    def test_scalar_tight(self):
        rep = bound_m2_unforced(make_siso(0.5), unit_box())
        assert rep.m == 0
        assert rep.diagnostics["r1"] == pytest.approx(rep.diagnostics["r2"])

    def test_forced_scalar_hand_computed(self):
        rep = bound_m2_forced(make_siso(0.5, b=1.0), unit_box(), 0.5)
        assert rep.diagnostics["r1"] == pytest.approx(1.0 / 3.0)
        assert rep.diagnostics["r2"] == pytest.approx(3.0)
        assert rep.diagnostics["sigma"] == pytest.approx(0.25)
        assert rep.m == 1

    def test_forced_epsilon_one_equals_unforced(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 5))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            forced = bound_m2_forced(sys, box, 1.0)
            unforced = bound_m2_unforced(sys, box)
            assert forced.m == unforced.m
            assert forced.diagnostics["r1"] == unforced.diagnostics["r1"]
            assert forced.diagnostics["r2"] == unforced.diagnostics["r2"]

    def test_forced_monotone_in_epsilon(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 4))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            box = unit_box()
            m_small = bound_m2_forced(sys, box, 0.01).m
            m_large = bound_m2_forced(sys, box, 0.5).m
            assert m_small >= m_large

    def test_levels_ordered_r2_ge_r1(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            sys = LtiSystem(A=random_stable_matrix(rng, n), C=rng.standard_normal((1, n)))
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            rep = bound_m2_unforced(sys, box)
            assert rep.diagnostics["r2"] >= rep.diagnostics["r1"] - 1e-9

    def test_inscribed_level_is_admissible_and_invariant(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 5))
            sys = LtiSystem(A=random_stable_matrix(rng, n), C=rng.standard_normal((1, n)))
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            rep = bound_m2_unforced(sys, box)
            P = rep.diagnostics["P"]
            r1 = rep.diagnostics["r1"]
            for _ in range(100):
                direction = rng.standard_normal(n)
                x = direction * np.sqrt(r1 / (direction @ P @ direction))
                y = sys.C @ x
                assert np.all(y <= box.y_upper + 1e-8)
                assert np.all(y >= -box.y_lower - 1e-8)
                x_in = x * rng.uniform(0.0, 1.0)
                assert (sys.A @ x_in) @ P @ (sys.A @ x_in) <= x_in @ P @ x_in + 1e-10

    def test_forced_inscribed_level_respects_shrunk_box(self, rng):
        for _ in range(6):
            n = int(rng.integers(1, 4))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            eps = float(rng.uniform(0.05, 0.9))
            box = unit_box()
            rep = bound_m2_forced(sys, box, eps)
            P = rep.diagnostics["P"]
            r1 = rep.diagnostics["r1"]
            for _ in range(50):
                direction = rng.standard_normal(n)
                z = direction * np.sqrt(r1 / (direction @ P @ direction))
                y = sys.C @ z
                assert np.all(y <= eps * box.y_upper + 1e-8)
                assert np.all(y >= -eps * box.y_lower - 1e-8)

    def test_requires_input_for_forced(self):
        with pytest.raises(ValueError, match="input"):
            bound_m2_forced(make_siso(0.5), unit_box(), 0.5)

    def test_dim_cap_refused(self, rng):
        # Single output, forced: the prefix set lives in (z, s), d = n + 1.
        n = VERTEX_DIM_CAP
        sys = LtiSystem(
            A=random_stable_matrix(rng, n),
            B=rng.standard_normal((n, 1)),
            C=rng.standard_normal((1, n)),
        )
        with pytest.raises(ValueError, match="cap"):
            bound_m2_forced(sys, unit_box(), 0.5)

    def test_inscribed_level_underflow_is_numerical(self):
        # epsilon**2 underflows below about 1e-162, so r1 reads 0.0.
        with pytest.raises(NumericalError, match="inscribed level 0.0 is not positive"):
            bound_m2_forced(make_siso(0.5, b=1.0), unit_box(), 1e-200)

    def test_inscribed_level_overflow_is_numerical(self):
        # 1e200 squared overflows, so r1 reads inf; C has a nonzero row, so the level is not unbounded.
        with pytest.raises(NumericalError, match="overflow"):
            bound_m2_unforced(LtiSystem(A=[[0.5]], C=[[1.0]]), OutputBox([1e200], [1e200]))
        with pytest.raises(NumericalError, match="overflow"):
            compute_r1(np.eye(2), [[1.0, 0.0], [0.0, 0.0]], OutputBox([1e200, 1.0], [1e200, 1.0]))

    def test_all_zero_output_rows_refused_with_huge_limits(self):
        # No row bounds anything, so no limit is squared and none can overflow.
        with pytest.raises(ValueError, match="every output row of C is zero"):
            compute_r1(np.eye(2), np.zeros((2, 2)), OutputBox([1e200, 1.0], [1e200, 1.0]))

    def test_circumscribing_level_below_inscribed_raises(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "_circumscribed_level", lambda *args, **kwargs: 0.5)
        with pytest.raises(NumericalError, match="fell below"):
            bound_m2_unforced(make_siso(0.5), unit_box())


def qhull_m2(sys, box, epsilon=None):
    """m2 with r2 from qhull on the (z, u) prefix polytope."""
    if epsilon is None:
        rep = bound_m2_unforced(sys, box)
        prefix = build_O_prefix(sys, box, horizon=sys.n - 1)
    else:
        rep = bound_m2_forced(sys, box, epsilon)
        prefix = build_O_prefix(sys, box, horizon=sys.n - 1, epsilon=epsilon)
    r2 = compute_r2(rep.diagnostics["P"], enumerate_vertices(prefix).vertices, proj_dim=sys.n)
    return rep, bound_m2(rep.diagnostics["r1"], r2, rep.diagnostics["sigma"]), r2


class TestClosedFormPrefix:
    def test_agrees_with_qhull_on_siso_systems(self, rng):
        checked = 0
        for n in range(1, 10):
            for seed in range(6):
                sys, box = random_stable_system(1000 * n + seed, StudyConfig(order_min=n, order_max=n))
                if seed % 2:
                    box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
                for epsilon in (None, 0.05):
                    rep, m_qhull, r2_qhull = qhull_m2(sys, box, epsilon)
                    assert rep.m == m_qhull
                    assert rep.diagnostics["r2"] == pytest.approx(r2_qhull, rel=1e-9)
                checked += 1
        assert checked >= 50

    def test_single_input_matches_z_u_path(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 5))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            rep, m_qhull, _ = qhull_m2(sys, box, float(rng.uniform(0.01, 0.9)))
            assert rep.m == m_qhull

    def test_full_rank_dc_gain_several_outputs_matches_z_u_path(self, rng):
        # H0 of full column rank: the (z, u) prefix set is bounded, and the
        # z-projection of its vertices must give the r2 of the orth(H0) feed.
        for m_in in (1, 2):
            for _ in range(4):
                n = int(rng.integers(2, 5))
                sys = LtiSystem(
                    A=random_stable_matrix(rng, n),
                    B=rng.standard_normal((n, m_in)),
                    C=rng.standard_normal((2, n)),
                )
                assert np.linalg.matrix_rank(stable_dc_gain(sys)) == m_in
                box = OutputBox(rng.uniform(0.3, 2.0, size=2), rng.uniform(0.3, 2.0, size=2))
                rep, m_qhull, r2_qhull = qhull_m2(sys, box, float(rng.uniform(0.01, 0.5)))
                assert rep.m == m_qhull
                assert rep.diagnostics["r2"] == pytest.approx(r2_qhull, rel=1e-9)

    def test_forced_more_inputs_than_outputs(self):
        # The (z, u) prefix set is unbounded along the null space of H0;
        # in (z, w = H0 u) it is a bounded parallelotope.
        sys = LtiSystem(A=[[0.5, 0.1], [0.0, 0.3]], B=np.eye(2), C=[[1.0, 1.0]])
        box = unit_box()
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(build_O_prefix(sys, box, horizon=1, epsilon=0.01))
        rep = bound_m2_forced(sys, box, 0.01)
        assert np.isfinite(rep.diagnostics["r2"])
        t_star = exact_t_star_forced(sys, box, 0.01).t_star
        assert t_star == 4
        assert rep.m >= t_star

    def test_forced_rank_deficient_dc_gain_several_outputs(self):
        # Three inputs, two outputs: H0 has a null space, so the (z, u)
        # prefix set is unbounded; it is enumerated in (z, s), w = F s.
        sys = LtiSystem(A=[[0.5, 0.1], [0.0, 0.3]], B=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], C=np.eye(2))
        box = unit_box(q=2)
        rep = bound_m2_forced(sys, box, 0.1)
        t_star = exact_t_star_forced(sys, box, 0.1).t_star
        assert t_star == 2
        assert bound_m1_forced(sys, box, 0.1).m == 6
        assert rep.m >= t_star
        # The z-projection does not depend on the parametrisation of w:
        # the first two columns of H0 already span its range.
        H0 = stable_dc_gain(sys)
        bands = lyapunov._prefix_bands(sys, box, sys.n - 1, H0[:, :2], 0.1)
        verts = enumerate_vertices(bands.polytope).vertices
        P = rep.diagnostics["P"]
        assert rep.diagnostics["r2"] == pytest.approx(compute_r2(P, verts, proj_dim=sys.n), rel=1e-9)

    def test_forced_zero_dc_gain(self):
        A = np.array([[0.5, 0.2], [-0.1, 0.3]])
        B = np.array([[1.0], [-2.0]])
        for q in (1, 2):
            C = np.array([[1.0, 0.5], [-0.5, 2.0]])[:q]
            D = -(C @ np.linalg.solve(np.eye(2) - A, B))
            sys = LtiSystem(A=A, B=B, C=C, D=D)
            assert not np.any(stable_dc_gain(sys))
            box = unit_box(q=q)
            forced = bound_m2_forced(sys, box, 0.2)
            unforced = bound_m2_unforced(sys, box)
            assert forced.diagnostics["r2"] == unforced.diagnostics["r2"]
            assert forced.m >= unforced.m

    def test_unobservable_system_falls_back_to_qhull(self, monkeypatch):
        calls = []

        def spy(poly, **kwargs):
            calls.append(poly)
            return enumerate_vertices(poly, **kwargs)

        monkeypatch.setattr(lyapunov, "enumerate_vertices", spy)
        sys = LtiSystem(A=np.diag([0.5, 0.3]), C=[[1.0, 0.0]])
        with pytest.raises(UnboundedPolytopeError):
            bound_m2_unforced(sys, unit_box())
        assert len(calls) == 1

    def test_observable_siso_skips_qhull(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("general vertex path reached")

        monkeypatch.setattr(lyapunov, "enumerate_vertices", refuse)
        sys = LtiSystem(
            A=random_stable_matrix(rng, 3),
            B=rng.standard_normal((3, 2)),
            C=rng.standard_normal((1, 3)),
        )
        bound_m2_unforced(sys, unit_box())
        bound_m2_forced(sys, unit_box(), 0.1)
        bound_m2_forced(sys, unit_box(), 1.0)


class TestSeveralOutputsWithoutLps:
    def test_matches_lp_seeded_enumeration(self, monkeypatch, rng):
        # The oracle enumerates the same prefix bands with a bounding box
        # and a Chebyshev-seeded qhull; the bounds must not see the switch.
        cases = []
        for sys, box in two_output_systems(rng):
            H0 = stable_dc_gain(sys)
            for epsilon, feed in ((None, None), (0.01, scipy.linalg.orth(H0))):
                bands = lyapunov._prefix_bands(sys, box, sys.n - 1, feed, 1.0 if epsilon is None else epsilon)
                poly = bands.polytope
                cases.append((sys, box, epsilon, lp_seeded_vertices(poly.G, poly.h)))
        refuse_lps(monkeypatch)
        for sys, box, epsilon, oracle in cases:
            if epsilon is None:
                rep = bound_m2_unforced(sys, box)
            else:
                rep = bound_m2_forced(sys, box, epsilon)
            r2 = compute_r2(rep.diagnostics["P"], oracle, proj_dim=sys.n)
            assert rep.m == bound_m2(rep.diagnostics["r1"], r2, rep.diagnostics["sigma"])
            assert rep.diagnostics["r2"] == pytest.approx(r2, rel=1e-9)
            assert rep.diagnostics["vertex_path"] == "qhull"
            assert rep.diagnostics["vertices"] == len(oracle)

    def test_fast_modes_shrink_prefix_rows(self, monkeypatch):
        # The rows C A^2 have norm about 1e-11, so their normalised bounds
        # lie far out; the prefix set is still full-dimensional.
        sys = LtiSystem(A=np.diag([0.5, 3e-6, 3e-6]), B=np.ones((3, 1)), C=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        box = unit_box(2)
        oracles = []
        for epsilon, feed in ((1.0, None), (0.01, scipy.linalg.orth(stable_dc_gain(sys)))):
            poly = lyapunov._prefix_bands(sys, box, sys.n - 1, feed, epsilon).polytope
            oracles.append(lp_seeded_vertices(poly.G, poly.h))
        refuse_lps(monkeypatch)
        for rep, oracle in zip((bound_m2_unforced(sys, box), bound_m2_forced(sys, box, 0.01)), oracles):
            r2 = compute_r2(rep.diagnostics["P"], oracle, proj_dim=sys.n)
            assert rep.diagnostics["r2"] == pytest.approx(r2, rel=1e-9)
            assert rep.m == bound_m2(rep.diagnostics["r1"], r2, rep.diagnostics["sigma"])


class TestVertexDiagnostics:
    def test_closed_form_path_reported(self):
        sys = LtiSystem(A=[[0.5, 0.1], [0.0, 0.3]], B=[[1.0], [1.0]], C=[[1.0, 1.0]])
        for rep in (bound_m2_unforced(sys, unit_box()), bound_m2_forced(sys, unit_box(), 0.1)):
            assert rep.diagnostics["vertex_path"] == "closed_form"
        assert bound_m2_unforced(sys, unit_box()).diagnostics["vertices"] == 4
        assert bound_m2_forced(sys, unit_box(), 0.1).diagnostics["vertices"] == 8


class TestWorkPerCall:
    def test_one_eigen_decomposition_and_no_scipy_solvers(self, monkeypatch, rng):
        # Every masbound module that imported `eigenvalues` by name is
        # counted, so a second decomposition anywhere on the path shows.
        calls = []
        original = _sys.modules["masbound.linalg"].eigenvalues

        def counted(M):
            calls.append(1)
            return original(M)

        for name, mod in list(_sys.modules.items()):
            if name.startswith("masbound") and getattr(mod, "eigenvalues", None) is original:
                monkeypatch.setattr(mod, "eigenvalues", counted)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy's solve_discrete_lyapunov or orth was called")

        scipy_kernels = (scipy.linalg.solve_discrete_lyapunov, scipy.linalg.orth)
        for name, mod in list(_sys.modules.items()):
            if name.startswith("masbound") or name == "scipy.linalg":
                for attr, value in list(vars(mod).items()):
                    if any(value is kernel for kernel in scipy_kernels):
                        monkeypatch.setattr(mod, attr, refuse)
        single = LtiSystem(
            A=random_stable_matrix(rng, 3), B=rng.standard_normal((3, 2)), C=rng.standard_normal((1, 3))
        )
        two, box2 = next(two_output_systems(rng))
        # One decomposition per system: its three calls read the cached rho.
        for sys, box in ((single, unit_box()), (two, box2)):
            calls.clear()
            bound_m2_unforced(sys, box)
            bound_m2_forced(sys, box, 0.1)
            bound_m2_forced(sys, box, 1.0)
            assert len(calls) == 1

    def test_qhull_call_checks_its_rows_once(self, monkeypatch, rng):
        # The prefix set's arrays are checked once, when `Bands.polytope`
        # builds them; vertex enumeration reuses them unchecked and, with
        # the origin well inside, needs no rank test.
        checks, ranks, hulls = [], [], []
        post_init = geometry.Polytope.__post_init__
        matrix_rank = np.linalg.matrix_rank
        hull = geometry.HalfspaceIntersection
        monkeypatch.setattr(geometry.Polytope, "__post_init__", lambda self: checks.append(1) or post_init(self))
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda *a, **k: ranks.append(1) or matrix_rank(*a, **k))
        monkeypatch.setattr(geometry, "HalfspaceIntersection", lambda *a, **k: hulls.append(1) or hull(*a, **k))
        sys, box = next(two_output_systems(rng))
        rep = bound_m2_unforced(sys, box)
        assert rep.diagnostics["vertex_path"] == "qhull"
        assert len(checks) <= 1
        assert ranks == []
        assert hulls == [1]

    def test_only_p_is_eigen_solved(self, monkeypatch, rng):
        # lambda_min(Q) of Q = I is 1 without an eigen-solve; lambda_max(P)
        # needs one, once per system across both regimes and repeated calls.
        solved = []
        original = lyapunov.sym_eig_extremes
        monkeypatch.setattr(lyapunov, "sym_eig_extremes", lambda M: solved.append(M) or original(M))
        sys = LtiSystem(A=random_stable_matrix(rng, 3), B=rng.standard_normal((3, 1)), C=rng.standard_normal((1, 3)))
        reports = [
            bound_m2_unforced(sys, unit_box()),
            bound_m2_forced(sys, unit_box(), 0.1),
            bound_m2_unforced(sys, unit_box()),
            bound_m2_forced(sys, unit_box(), 0.1),
        ]
        assert len(solved) == 1
        assert all(rep.diagnostics["P"] is solved[0] for rep in reports)


class TestGuards:
    # P is solved once per system and stored on it, so each test builds its
    # own system: a patched solve takes effect only where none is stored.

    def test_unstable_refused_before_the_solve(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "kron_lyapunov", lambda *args: pytest.fail("solved an unstable system"))
        sys = make_siso(1.0, b=1.0)
        for call in (lambda: bound_m2_unforced(sys, unit_box()), lambda: bound_m2_forced(sys, unit_box(), 0.1)):
            with pytest.raises(ValueError, match="requires spectral radius < 1"):
                call()

    def test_indefinite_solution_refused(self, monkeypatch):
        monkeypatch.setattr(lyapunov, "kron_lyapunov", lambda A, Q: -np.eye(A.shape[0]))
        with pytest.raises(NumericalError, match="positive definiteness"):
            bound_m2_unforced(make_siso(0.5), unit_box())

    def test_decay_factor_rounding_to_one_answers(self, monkeypatch):
        # lambda_max(P) = 1e20 rounds 1 - 1/lambda_max(P) to 1; the bound reads log1p(-1e-20).
        monkeypatch.setattr(lyapunov, "kron_lyapunov", lambda A, Q: 1e20 * np.eye(A.shape[0]))
        rep = bound_m2_forced(make_siso(0.5, b=1.0), unit_box(), 0.1)
        r1, r2 = rep.diagnostics["r1"], rep.diagnostics["r2"]
        assert rep.diagnostics["sigma"] == 1.0
        assert rep.m == math.floor(math.log(r1 / r2) / math.log1p(-1e-20)) > 0

    def test_decay_factor_with_zero_log_refused(self):
        # lambda_min(Q) / lambda_max(P) underflows to 0: no decay is left to bound with.
        with pytest.raises(NumericalError, match="decay factor"):
            compute_sigma(np.eye(1), 1e300 * np.eye(1), 1e-300 * np.eye(1), mode="eq25")

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_huge_lyapunov_level_answers(self):
        # lambda_max(P) = 2.96e16: 1 - 1/lambda_max(P) rounds to 1, which both regimes refused.
        sys = LtiSystem(A=[[0.5, 1e8], [0.0, 0.5]], B=[[1.0], [1.0]], C=[[1.0, 0.0]])
        assert lyapunov._lyapunov_data(sys)[1] > 2.0**54
        unforced, forced = bound_m2_unforced(sys, unit_box()), bound_m2_forced(sys, unit_box(), 0.01)
        assert (unforced.m, forced.m) == (47687049257306696, 344008266969663360)
        assert unforced.diagnostics["sigma"] == forced.diagnostics["sigma"] == 1.0

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_no_tie_reported_where_every_float_is_an_integer(self):
        # log(r1/r2)/log(sigma) is about 4.8e16 here, past 2^52, where the
        # 1e-9 tie window would flag every ratio.
        sys = LtiSystem(A=[[0.5, 1e8], [0.0, 0.5]], B=[[1.0], [1.0]], C=[[1.0, 0.0]])
        for rep in (bound_m2_unforced(sys, unit_box()), bound_m2_forced(sys, unit_box(), 0.01)):
            d = rep.diagnostics
            ratio = math.log(d["r1"] / d["r2"]) / math.log1p(-1.0 / lyapunov._lyapunov_data(sys)[1])
            assert ratio > 2.0**52
            assert d["boundary_integer"] is False

    def test_tie_reported_below_two_to_the_52(self, monkeypatch):
        # A ratio of exactly 2^30, where floats lie 2^-22 apart, is still a tie.
        sys = make_siso(0.5)
        r1 = bound_m2_unforced(sys, unit_box()).diagnostics["r1"]
        log_sigma = math.log(0.25) / 2.0**30
        monkeypatch.setattr(lyapunov, "_circumscribed_level", lambda *args: 4.0 * r1)
        monkeypatch.setattr(lyapunov, "_decay_factor", lambda *args: (math.exp(log_sigma), log_sigma))
        rep = bound_m2_unforced(sys, unit_box())
        assert rep.m == 2**30
        assert rep.diagnostics["boundary_integer"] is True

    def test_tie_reported_within_the_window(self, monkeypatch):
        # r2 = 64 (1 + 1e-11) r1 and sigma = 1/4: the ratio is about 3 + 7e-12, not 3 but within 1e-9 of it.
        sys = make_siso(0.5)
        r1 = bound_m2_unforced(sys, unit_box()).diagnostics["r1"]
        log_sigma = math.log(0.25)
        monkeypatch.setattr(lyapunov, "_circumscribed_level", lambda *args: 64.0 * (1.0 + 1e-11) * r1)
        monkeypatch.setattr(lyapunov, "_decay_factor", lambda *args: (0.25, log_sigma))
        rep = bound_m2_unforced(sys, unit_box())
        ratio = math.log(r1 / (64.0 * (1.0 + 1e-11) * r1)) / log_sigma
        assert ratio != 3.0 and abs(ratio - 3.0) < 1e-9
        assert rep.m == 3
        assert rep.diagnostics["boundary_integer"] is True

    def test_paper_decay_factor_one_refused(self):
        with pytest.raises(NumericalError, match="decay factor"):
            compute_sigma(np.eye(1), np.eye(1), np.eye(1), mode="paper")

    def test_paper_sigma_is_rho_squared(self, rng):
        # Mode "paper" reads A alone: P and Q need not even be symmetric.
        for _ in range(5):
            n = int(rng.integers(1, 5))
            A = random_stable_matrix(rng, n)
            other = rng.standard_normal((n, n))
            assert compute_sigma(A, other, other, mode="paper") == spectral_radius(A) ** 2


def large_a_draws(bench_workloads):
    """Draws with ||A||_F in the hundreds whose accurate Lyapunov solves the gate once refused.

    The bench's two-output generator at orders 3 and 5, and an order-10
    study draw of seed 7.
    """
    config = StudyConfig(seed=7, order_min=10, order_max=10)
    return {
        "mimo-10112": bench_workloads.random_mimo_system(10112),
        "mimo-10171": bench_workloads.random_mimo_system(10171),
        "study-7-18": random_stable_system(system_seed(config.seed, 18), config),
    }


class TestLargeSystemMatrix:
    """The residual gate scales its rounding floor by ||A||_F^2: rounding in A^T P A is not a failed solve."""

    @pytest.mark.parametrize("name", ["mimo-10112", "mimo-10171", "study-7-18"])
    def test_accurate_solve_answers(self, bench_workloads, name):
        sys, box = large_a_draws(bench_workloads)[name]
        assert np.linalg.norm(sys.A, "fro") > 100
        assert bound_m2_unforced(sys, box).m >= exact_t_star_unforced(sys, box).t_star
        assert bound_m2_forced(sys, box, 0.01).m >= exact_t_star_forced(sys, box, 0.01).t_star

    @pytest.mark.parametrize("name", ["mimo-10112", "mimo-10171", "study-7-18"])
    def test_perturbed_solve_refused(self, monkeypatch, bench_workloads, name):
        sys, _ = large_a_draws(bench_workloads)[name]
        offset_lu_solves(monkeypatch, 1e-6)
        with pytest.raises(NumericalError, match="Lyapunov residual"):
            kron_lyapunov(sys.A, np.eye(sys.n))


class TestPaperVariant:
    """`m2_paper` and `sigma_paper`, reported beside every `m2`."""

    @pytest.mark.parametrize("epsilon", [None, 0.1, 1.0])
    def test_same_levels_with_rho_squared(self, rng, epsilon):
        for _ in range(6):
            n = int(rng.integers(1, 4))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            rep = bound_m2_unforced(sys, box) if epsilon is None else bound_m2_forced(sys, box, epsilon)
            d = rep.diagnostics
            sigma = compute_sigma(sys.A, d["P"], np.eye(n), mode="paper")
            assert d["sigma_paper"] == sigma
            assert d["sigma_paper"] == pytest.approx(np.max(np.abs(np.linalg.eigvals(sys.A))) ** 2, rel=1e-9, abs=1e-15)
            assert d["m2_paper"] == bound_m2(d["r1"], d["r2"], sigma)
            assert isinstance(d["m2_paper"], int)

    def test_agrees_with_m2_for_symmetric_A(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            A = S * (rng.uniform(0.2, 0.95) / np.max(np.abs(np.linalg.eigvalsh(S))))
            sys = LtiSystem(A=A, B=rng.standard_normal((n, 1)), C=rng.standard_normal((1, n)))
            for rep in (bound_m2_unforced(sys, unit_box()), bound_m2_forced(sys, unit_box(), 0.2)):
                d = rep.diagnostics
                assert d["sigma_paper"] == pytest.approx(d["sigma"], rel=1e-10)
                if not d["boundary_integer"]:
                    assert d["m2_paper"] == rep.m

    @pytest.mark.parametrize("epsilon", [None, 0.1])
    def test_not_a_bound_for_non_normal_A(self, epsilon):
        # Nilpotent A: rho(A)^2 = 0 gives m2_paper = 0, yet y(1) = 10 x2 still constrains.
        sys = LtiSystem(A=[[0.0, 10.0], [0.0, 0.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
        if epsilon is None:
            rep, t_star = bound_m2_unforced(sys, unit_box()), exact_t_star_unforced(sys, unit_box()).t_star
        else:
            rep, t_star = bound_m2_forced(sys, unit_box(), epsilon), exact_t_star_forced(sys, unit_box(), epsilon).t_star
        assert rep.diagnostics["sigma_paper"] == 0.0
        assert rep.diagnostics["sigma"] == pytest.approx(1 - 1 / 101)
        assert rep.diagnostics["m2_paper"] == 0 < t_star <= rep.m


M2_REPORTS = Path(__file__).parent / "data" / "m2_reports.json"


def m2_reports() -> dict:
    """m, the float.hex of r1, r2 and sigma, and a digest of P's bytes per system and regime."""
    out = {}
    for name, sys, box, epsilon in golden_systems():
        out[name] = {}
        for regime, rep in (("unforced", bound_m2_unforced(sys, box)), ("forced", bound_m2_forced(sys, box, epsilon))):
            d = rep.diagnostics
            out[name][regime] = {
                "m": rep.m,
                **{key: float(d[key]).hex() for key in ("r1", "r2", "sigma")},
                "P_sha256": hashlib.sha256(np.ascontiguousarray(d["P"]).tobytes()).hexdigest(),
            }
    return out


def record_m2_reports():
    M2_REPORTS.write_text(json.dumps(m2_reports(), indent=1, sort_keys=True) + "\n")


def test_m2_reports_bitwise_golden():
    """Every m2 report field is bitwise the recorded one.

    The file was recorded from the level-set code before its Lyapunov
    solve moved from scipy's `solve_discrete_lyapunov(A.T, Q,
    method="direct")` to the one-LU kernel and its forced basis from
    `scipy.linalg.orth` to `linalg.range_basis`.  To record it again
    (only after a change meant to move m2), run from the repository root:

        cd tests && PYTHONPATH=../src python3 -c "import test_lyapunov; test_lyapunov.record_m2_reports()"
    """
    expected = json.loads(M2_REPORTS.read_text())
    got = m2_reports()
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == expected[name], name


M2_PANEL_DIGESTS = {
    "study": "b6d52a2f204cf838ebce793238a5dcf5a7d7a843332381764394e6a3b5beac2a",
    "bounds": "d0d69eddec734f21106ab8c157571ad65bfbb00a1e0894e5d139742f0c89a176",
    "mimo": "70b0d02a3b25c0063506f4eed702dfbbba8a657e063da5c31f530924d4883c59",
}


def m2_panel_digest(panel) -> str:
    """Over `panel` in pool-id order: the unforced m2 call, then the forced call at epsilon = 0.01.

    Per call: `m`, the float.hex of r1 and r2, the vertex count and the vertex path.
    """
    digest = hashlib.sha256()
    for _, (sys, box) in sorted(panel.items()):
        for rep in (bound_m2_unforced(sys, box), bound_m2_forced(sys, box, 0.01)):
            d = rep.diagnostics
            fields = (rep.m, d["r1"].hex(), d["r2"].hex(), d["vertices"], d["vertex_path"])
            digest.update(" ".join(map(str, fields)).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(M2_PANEL_DIGESTS))
def test_bench_panel_m2_bitwise_golden(bench_workloads, workload):
    """Every m2 call on a benchmark panel reports the recorded numbers, to the last bit.

    The `bounds` panel reaches order 9 (forced d = 10, 1024 corners), past
    the orders `m2_reports.json` covers.  A change meant to move m2
    records the digests again.
    """
    assert m2_panel_digest(bench_workloads.panel(workload)) == M2_PANEL_DIGESTS[workload]


M2_PAPER_PANEL_DIGESTS = {
    "study": "53fd5ecb43d9181fa28c152a65b368261be0ae0bafd982c83f4a534c9d47e058",
    "bounds": "585b024ca0b0c78997c2383d2fb44e0af9c5494b85042357f28896d07c0ea5e6",
    "mimo": "4c061501404dc37af8aeed6a5cd438ac694015d2fff47182f65fffed023763a7",
}


@pytest.mark.parametrize("workload", sorted(M2_PAPER_PANEL_DIGESTS))
def test_bench_panel_m2_paper_bitwise_golden(bench_workloads, workload):
    """The paper's rho(A)^2 variant beside every m2 on a benchmark panel, to the last bit.

    Same calls as `m2_panel_digest`; per call `m2_paper` and the
    float.hex of `sigma_paper`.  Recorded when the variant was still
    computed by a separate call with sigma = rho(A)^2 in place of
    eq. (25)'s factor, so these digests tie the diagnostic to that call.
    """
    digest = hashlib.sha256()
    for _, (sys, box) in sorted(bench_workloads.panel(workload).items()):
        for rep in (bound_m2_unforced(sys, box), bound_m2_forced(sys, box, 0.01)):
            digest.update(f"{rep.diagnostics['m2_paper']} {rep.diagnostics['sigma_paper'].hex()}".encode() + b"\n")
    assert digest.hexdigest() == M2_PAPER_PANEL_DIGESTS[workload]
