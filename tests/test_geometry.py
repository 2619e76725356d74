import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError

from masbound import LpError, Polytope, UnboundedPolytopeError
from masbound import geometry
from masbound.config import LP_TOL_RANGE, VERTEX_DIM_CAP
from masbound.geometry import (
    WarmLp,
    _dedupe,
    chebyshev_center,
    enumerate_vertices,
    is_redundant,
    lp_maximize,
    pairs_maximum,
    parallelotope_vertices,
)
from conftest import (
    brute_force_vertices,
    count_models,
    exact_cases,
    force_unknown,
    lp_seeded_vertices,
    match_point_sets,
    random_bounded_polytope,
    refuse_lps,
    run_exact,
    upper_sides,
)


def box2d(limit=1.0):
    return Polytope(np.vstack([np.eye(2), -np.eye(2)]), limit * np.ones(4))


def box_band(limit=1.0):
    """`box2d` as the one band -limit <= x <= limit, in a list of bands for `WarmLp`."""
    return [(np.eye(2), np.full(2, limit), np.full(2, limit))]


def warm_maximize(c, poly):
    return WarmLp(upper_sides(poly)).maximize(c)


def warm_is_redundant(row, rhs, poly):
    return WarmLp(upper_sides(poly)).is_redundant(row, rhs)


# The one-off linprog path and the persistent HiGHS model answer alike.
MAXIMIZERS = (lp_maximize, warm_maximize)
REDUNDANCY_CHECKS = (is_redundant, warm_is_redundant)


class TestLp:
    def test_optimal_on_box(self):
        out = lp_maximize([1.0, 0.0], box2d())
        assert out.status == "optimal"
        assert out.optimum == pytest.approx(1.0, abs=1e-9)
        assert out.argmax[0] == pytest.approx(1.0, abs=1e-8)
        warm = warm_maximize([1.0, 0.0], box2d())
        assert warm.status == "optimal"
        assert warm.optimum == pytest.approx(1.0, abs=1e-9)

    def test_unbounded(self):
        half_line = Polytope([[-1.0]], [0.0])  # x >= 0
        for maximize in MAXIMIZERS:
            assert maximize([1.0], half_line).status == "unbounded"

    def test_infeasible(self):
        empty = Polytope([[1.0], [-1.0]], [1.0, -2.0])  # x <= 1 and x >= 2
        for maximize in MAXIMIZERS:
            assert maximize([1.0], empty).status == "infeasible"

    def test_duality_certificate(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            G, h = random_bounded_polytope(rng, d, int(rng.integers(2 * d, 2 * d + 5)))
            c = rng.standard_normal(d)
            out = lp_maximize(c, Polytope(G, h))
            assert out.status == "optimal"
            y = out.dual
            assert np.all(y >= -1e-9)
            assert np.linalg.norm(G.T @ y - c) <= 1e-6

    def test_objective_length_checked(self):
        for maximize in MAXIMIZERS:
            with pytest.raises(ValueError):
                maximize([1.0, 0.0, 0.0], box2d())


class TestRedundancy:
    def test_loose_row_redundant(self):
        for redundant in REDUNDANCY_CHECKS:
            assert redundant([1.0, 0.0], 2.0, box2d()) is True

    def test_cutting_row_not_redundant(self):
        for redundant in REDUNDANCY_CHECKS:
            assert redundant([1.0, 0.0], 0.5, box2d()) is False

    def test_duplicate_row_redundant(self):
        for redundant in REDUNDANCY_CHECKS:
            assert redundant([1.0, 0.0], 1.0, box2d()) is True

    def test_unbounded_direction_not_redundant(self):
        half_plane = Polytope([[1.0, 0.0]], [1.0])
        for redundant in REDUNDANCY_CHECKS:
            assert redundant([0.0, 1.0], 10.0, half_plane) is False

    def test_zero_row(self):
        for redundant in REDUNDANCY_CHECKS:
            assert redundant([0.0, 0.0], 0.5, box2d()) is True
            with pytest.raises(LpError):
                redundant([0.0, 0.0], -0.5, box2d())

    def test_empty_polytope_raises(self):
        empty = Polytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, -2.0])
        for redundant in REDUNDANCY_CHECKS:
            with pytest.raises(LpError, match="empty"):
                redundant([0.0, 1.0], 1.0, empty)

    def test_agrees_with_vertex_oracle(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 4))
            G, h = random_bounded_polytope(rng, d, int(rng.integers(2 * d, 11)))
            verts = brute_force_vertices(G, h)
            row = rng.standard_normal(d)
            rhs = float(rng.uniform(-0.5, 2.5))
            expected = np.max(verts @ row) <= rhs + 1e-9
            # skip knife-edge instances where the oracle itself is ambiguous
            if abs(np.max(verts @ row) - rhs) < 1e-7:
                continue
            for redundant in REDUNDANCY_CHECKS:
                assert redundant(row, rhs, Polytope(G, h)) == expected


ONE_OFF_LPS = {
    "lp_maximize": lambda lp_tol: lp_maximize([1.0, 1.0], box2d(), lp_tol=lp_tol),
    "is_redundant": lambda lp_tol: is_redundant([1.0, 0.0], 2.0, box2d(), lp_tol=lp_tol),
    "chebyshev_center": lambda lp_tol: chebyshev_center(box2d(), lp_tol=lp_tol),
}


class TestOneOffLpTolerance:
    @pytest.mark.parametrize("name", sorted(ONE_OFF_LPS))
    def test_refused_lp_tol_raises(self, name):
        # linprog itself only warns and solves at HiGHS's own 1e-7; the
        # refusal must raise whatever the caller's warning filters are.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="primal_feasibility_tolerance"):
                ONE_OFF_LPS[name](1e-13)

    @pytest.mark.parametrize("name", sorted(ONE_OFF_LPS))
    def test_range_ends_accepted(self, name):
        for lp_tol in LP_TOL_RANGE:
            ONE_OFF_LPS[name](lp_tol)


def assert_matches_cold(lp, objectives):
    """Each warm solve has the status, and the optimum within 1e-9, of `lp_maximize` on the active rows."""
    for c in objectives:
        warm, cold = lp.maximize(c), lp_maximize(c, lp.polytope)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.optimum == pytest.approx(cold.optimum, abs=1e-9)


class TestWarmLp:
    def test_warm_sequence_matches_cold_solves(self, rng):
        # One model, many objectives, rows added and relaxed in between:
        # every optimum equals a cold solve over the active rows.
        for _ in range(10):
            d = int(rng.integers(2, 5))
            G, h = random_bounded_polytope(rng, d, 2 * d + 4)
            lp = WarmLp(upper_sides(Polytope(G[: 2 * d], h[: 2 * d])))
            lp.add_band(G[2 * d :], np.full(len(h) - 2 * d, np.inf), h[2 * d :])
            for step in range(12):
                if step == 4:
                    lp.relax(2 * d)
                    lp.relax(0)
                if step == 8:
                    lp.restore(0)
                c = rng.standard_normal(d)
                warm = lp.maximize(c)
                cold = lp_maximize(c, lp.polytope)
                assert warm.status == cold.status == "optimal"
                assert warm.optimum == pytest.approx(cold.optimum, abs=1e-9)
            assert lp.polytope.nrows == G.shape[0] - 1

    def test_lp_tol_reaches_highs(self):
        if geometry._HIGHS is None:
            pytest.skip("this scipy has no persistent HiGHS class")
        lp = WarmLp(box_band(), lp_tol=1e-6)
        for name in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
            assert lp._highs.getOptionValue(name)[1] == 1e-6

    def test_primal_simplex(self):
        # Most solves only change the objective, which keeps the last basis primal feasible.
        if geometry._HIGHS is None:
            pytest.skip("this scipy has no persistent HiGHS class")
        assert WarmLp(box_band())._highs.getOptionValue("simplex_strategy")[1] == 4

    @pytest.mark.parametrize("build_first", [False, True])
    def test_many_batches_match_cold_solves(self, rng, build_first):
        # Many small batches, with the model built before them or only
        # after the relax and restore.
        d = 3
        G, h = random_bounded_polytope(rng, d, 160)
        lp = WarmLp(upper_sides(Polytope(G[: 2 * d], h[: 2 * d])))
        if build_first:
            assert lp.maximize(np.ones(d)).status == "optimal"
        for start in range(2 * d, len(h), 5):
            rhs = h[start : start + 5]
            lp.add_band(G[start : start + 5], np.full(len(rhs), np.inf), rhs)
        lp.relax(1)
        lp.relax(len(h) - 1)
        lp.restore(1)
        assert (lp._model is not None) == build_first
        keep = np.ones(len(h), dtype=bool)
        keep[-1] = False
        cold = Polytope(G[keep], h[keep])
        assert np.array_equal(lp.polytope.G, cold.G) and np.array_equal(lp.polytope.h, cold.h)
        for c in rng.standard_normal((10, d)):
            warm = lp.maximize(c)
            assert warm.status == "optimal"
            assert warm.optimum == pytest.approx(lp_maximize(c, cold).optimum, abs=1e-9)

    def test_refused_lp_tol_raises(self):
        # HiGHS keeps its own 1e-7 for a tolerance below 1e-10.  Only
        # accepted tolerances are remembered, so every construction raises.
        if geometry._HIGHS is None:
            pytest.skip("this scipy has no persistent HiGHS class")
        for _ in range(2):
            with pytest.raises(ValueError, match="primal_feasibility_tolerance"):
                WarmLp(box_band(), lp_tol=1e-13)

    def test_returned_model_is_cleared(self, monkeypatch):
        count_models(monkeypatch)
        lp = WarmLp(box_band())
        assert lp.maximize([1.0, 0.0]).status == "optimal"
        model = lp._model
        # The box's two band rows are two ranged rows.
        assert (model.getNumRow(), model.getNumCol()) == (2, 2)
        del lp
        assert geometry._FREE_MODELS[type(model)] == [model]
        assert (model.getNumRow(), model.getNumCol()) == (0, 0)

    def test_mirrored_rows_share_one_highs_row(self, rng):
        # HiGHS row i is band row i, both sides in one ranged row.
        if geometry._HIGHS is None:
            pytest.skip("this scipy has no persistent HiGHS class")
        M, upper, lower = rng.standard_normal((4, 3)), rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
        lp = WarmLp([(M, lower, upper)])
        assert_matches_cold(lp, rng.standard_normal((6, 3)))
        assert lp._model.getNumRow() == 4
        # The one-sided view: the upper sides, then the lower sides.
        assert np.array_equal(lp.polytope.G, np.vstack([M, -M]))
        assert np.array_equal(lp.polytope.h, np.concatenate([upper, lower]))

    @pytest.mark.parametrize("build_first", [False, True])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_relaxing_one_side_of_a_ranged_row(self, rng, symmetric, build_first):
        M = rng.standard_normal((4, 3))
        upper = rng.uniform(0.5, 2.0, 4)
        lower = upper if symmetric else rng.uniform(0.5, 2.0, 4)
        lp = WarmLp([(M, lower, upper)])
        if build_first:
            lp.maximize(np.ones(3))
        objectives = rng.standard_normal((6, 3))
        # The upper side of row 0, the lower side of row 1, then row 1 whole; then back.
        for step in (lp.relax, lp.restore):
            for i in (0, 5, 1):
                step(i)
                assert_matches_cold(lp, objectives)
        assert lp.polytope.nrows == 8

    @pytest.mark.parametrize("build_first", [False, True])
    def test_band_with_absent_sides_matches_cold_solves(self, rng, build_first):
        # A box, then a band whose rows have an upper side only, a lower side only, both, or neither.
        M = rng.standard_normal((4, 3))
        upper = np.array([0.5, np.inf, 0.4, np.inf])
        lower = np.array([np.inf, 0.3, 0.6, np.inf])
        box = (np.eye(3), np.full(3, 2.0), np.full(3, 2.0))
        lp = WarmLp([box])
        if build_first:
            lp.maximize(np.ones(3))
        lp.add_band(M, lower, upper)
        objectives = rng.standard_normal((6, 3))
        assert_matches_cold(lp, objectives)
        if geometry._HIGHS is not None:
            assert lp._highs.getNumRow() == 7
        # The box's six sides, then the band's upper sides (rows 0, 2) and lower sides (rows 1, 2).
        sides = np.vstack([np.eye(3), -np.eye(3), M[[0, 2]], -M[[1, 2]]])
        assert np.array_equal(lp.polytope.G, sides)
        assert np.array_equal(lp.polytope.h, [2.0] * 6 + [0.5, 0.4, 0.3, 0.6])
        for i in range(6, 10):
            lp.relax(i)
            assert_matches_cold(lp, objectives)
            lp.restore(i)
            assert_matches_cold(lp, objectives)
        assert np.array_equal(lp.polytope.G, sides)

    def test_live_warm_lps_hold_distinct_models(self, monkeypatch):
        built = count_models(monkeypatch)
        WarmLp(box_band()).maximize([1.0, 0.0])  # leaves one model on the free list
        first, second = WarmLp(box_band()), WarmLp(box_band())
        for lp in (first, second):
            assert lp.maximize([1.0, 1.0]).optimum == pytest.approx(2.0)
        assert first._model is not second._model
        assert built == [1, 1]

    def test_borrower_gets_its_own_lp_tol(self, monkeypatch):
        count_models(monkeypatch)
        loose = WarmLp(box_band(), lp_tol=1e-6)
        loose.maximize([1.0, 0.0])
        model = loose._model
        del loose
        default = WarmLp(box_band())
        default.maximize([1.0, 0.0])
        assert default._model is model
        for name in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
            assert model.getOptionValue(name)[1] == 1e-9

    def test_free_list_is_kept_per_class(self, monkeypatch):
        if geometry._HIGHS is None:
            pytest.skip("this scipy has no persistent HiGHS class")
        plain_cls = geometry._HIGHS[0]
        WarmLp(box_band()).maximize([1.0, 0.0])  # a model of the plain class goes back
        count_models(monkeypatch)
        counted = WarmLp(box_band())
        counted.maximize([1.0, 0.0])
        assert type(counted._model) is geometry._HIGHS[0]
        del counted  # a model of the counting class goes back
        monkeypatch.undo()
        plain = WarmLp(box_band())
        plain.maximize([1.0, 0.0])
        assert type(plain._model) is plain_cls

    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(st.lists(exact_cases(), min_size=4, max_size=4))
    def test_concurrent_exact_calls_match_serial(self, cases):
        def solve(case):
            res = run_exact(*case)
            return res.t_star, res.rows, res.polytope

        serial = [solve(case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the exact calls
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(solve, cases * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for (t_star, rows, poly), (ref_t, ref_rows, ref_poly) in zip(threaded, serial * 3):
            assert t_star == ref_t
            for got, ref in ((rows, ref_rows), (poly, ref_poly)):
                assert np.array_equal(got.G, ref.G) and np.array_equal(got.h, ref.h)
        # A model handed out twice, or given back twice, would show up twice.
        for models in geometry._FREE_MODELS.values():
            assert len({id(model) for model in models}) == len(models)

    def test_relaxed_row_no_longer_bounds(self):
        lp = WarmLp(box_band())
        assert lp.maximize([1.0, 0.0]).optimum == pytest.approx(1.0)
        lp.relax(0)
        assert lp.maximize([1.0, 0.0]).status == "unbounded"
        lp.restore(0)
        assert lp.maximize([1.0, 0.0]).optimum == pytest.approx(1.0)

    def test_rows_relaxed_before_the_first_solve(self):
        # The model is built on the first solve, without the relaxed row's bound.
        lp = WarmLp(box_band())
        lp.add_band([[1.0, 1.0]], [np.inf], [1.5])
        lp.relax(0)
        assert lp._model is None
        assert lp.maximize([1.0, 0.0]).optimum == pytest.approx(2.5)
        lp.restore(0)
        assert lp.maximize([1.0, 1.0]).optimum == pytest.approx(1.5)
        lp.relax(4)
        assert lp.maximize([1.0, 1.0]).optimum == pytest.approx(2.0)

    def test_cold_restart_on_unknown_status(self, monkeypatch):
        restarts = force_unknown(monkeypatch, cold_resolves=True)
        lp = WarmLp(box_band())
        assert lp.is_redundant([1.0, 1.0], 2.0) is True
        assert lp.is_redundant([1.0, 1.0], 1.5) is False
        assert restarts == [1, 1]

    def test_linprog_answers_when_cold_restart_fails(self, monkeypatch):
        force_unknown(monkeypatch, cold_resolves=False)
        calls = []
        real = geometry.linprog
        monkeypatch.setattr(geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
        out = WarmLp(box_band()).maximize([1.0, 1.0])
        assert out.status == "optimal" and out.optimum == pytest.approx(2.0)
        assert calls

    def test_without_private_highs_class(self, monkeypatch):
        monkeypatch.setattr(geometry, "_HIGHS", None)
        # Every answer, the redundancy verdict included, is `lp_maximize` on the active rows.
        calls = []
        real = geometry.lp_maximize
        monkeypatch.setattr(geometry, "lp_maximize", lambda c, poly, **k: calls.append(poly.nrows) or real(c, poly, **k))
        lp = WarmLp(box_band())
        lp.relax(0)
        assert lp.maximize([1.0, 0.0]).status == "unbounded"
        assert lp.is_redundant([1.0, 0.0], 0.5) is False
        assert calls == [3, 3]


class TestVertexEnumeration:
    def test_unit_box(self):
        result = enumerate_vertices(box2d())
        expected = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        assert match_point_sets(result.vertices, expected, 1e-8)

    def test_simplex(self):
        sim = Polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
        result = enumerate_vertices(sim)
        expected = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        assert match_point_sets(result.vertices, expected, 1e-8)

    def test_cut_corner_has_five_vertices(self):
        cut = Polytope(np.vstack([box2d().G, [[1.0, 1.0]]]), np.append(box2d().h, 1.0))
        result = enumerate_vertices(cut)
        assert len(result.vertices) == 5
        expected = brute_force_vertices(cut.G, cut.h)
        assert match_point_sets(result.vertices, expected, 1e-6)

    def test_interval(self):
        seg = Polytope([[1.0], [-1.0]], [2.0, 0.5])
        result = enumerate_vertices(seg)
        assert match_point_sets(result.vertices, np.array([[2.0], [-0.5]]), 1e-9)

    def test_unbounded_detected(self):
        # qhull divides by zero on this input; no warning may escape.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnboundedPolytopeError):
                enumerate_vertices(Polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0]))

    def test_dimension_cap(self):
        d = 13
        big = Polytope(np.vstack([np.eye(d), -np.eye(d)]), np.ones(2 * d))
        with pytest.raises(ValueError, match="cap"):
            enumerate_vertices(big)

    def test_empty_detected(self):
        empty = Polytope([[1.0], [-1.0]], [1.0, -2.0])
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(empty)

    def test_vertex_soundness_random(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 5))
            G, h = random_bounded_polytope(rng, d, int(rng.integers(2 * d, 2 * d + 6)))
            poly = Polytope(G, h)
            result = enumerate_vertices(poly)
            V = result.vertices
            assert len(V) >= d + 1
            slack = G @ V.T - h[:, None]
            assert np.max(slack) <= 1e-8
            for v in V:
                active = np.abs(G @ v - h) <= 1e-7 * np.maximum(1.0, np.abs(h))
                assert np.linalg.matrix_rank(G[active], tol=1e-9) == d

    def test_completeness_against_brute_force(self, monkeypatch, rng):
        refuse_lps(monkeypatch)  # the origin is inside: no LP is needed
        for _ in range(10):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(2 * d, 13))
            G, h = random_bounded_polytope(rng, d, k)
            mine = enumerate_vertices(Polytope(G, h)).vertices
            oracle = brute_force_vertices(G, h)
            assert match_point_sets(mine, oracle, 1e-6)

    def test_duplicate_rows_tolerated(self):
        G = np.vstack([np.eye(2), -np.eye(2), np.eye(2)])
        h = np.concatenate([np.ones(4), np.ones(2)])
        result = enumerate_vertices(Polytope(G, h))
        assert len(result.vertices) == 4


class TestUnboundedness:
    def test_rank_deficient_rows(self, monkeypatch):
        # A slab in 3-D: bounded along (1, 1, 0) only.
        refuse_lps(monkeypatch)
        slab = Polytope([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], np.ones(4))
        with pytest.raises(UnboundedPolytopeError, match="rank"):
            enumerate_vertices(slab)

    def test_full_rank_unbounded_set(self):
        # A cone around the origin: full rank, every vertex but one at infinity.
        cone = Polytope([[-1.0, 0.5], [-1.0, -0.5], [1.0, 3.0]], [1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnboundedPolytopeError, match="unbounded"):
                enumerate_vertices(cone)

    def test_qhull_failure_falls_back_through_bounding_box(self, monkeypatch):
        def reject(*args, **kwargs):
            raise QhullError("rejected")

        boxes = []
        real_box = geometry.bounding_box
        monkeypatch.setattr(geometry, "HalfspaceIntersection", reject)
        monkeypatch.setattr(geometry, "bounding_box", lambda *a, **k: boxes.append(1) or real_box(*a, **k))
        half_strip = Polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0])
        with pytest.raises(UnboundedPolytopeError, match="unbounded"):
            enumerate_vertices(half_strip)
        assert boxes == [1]
        # A bounded set still gets its vertices from the brute-force sweep.
        result = enumerate_vertices(box2d())
        assert match_point_sets(result.vertices, brute_force_vertices(box2d().G, box2d().h), 1e-9)
        assert boxes == [1, 1]

    def test_interval_closed_form(self, monkeypatch):
        refuse_lps(monkeypatch)
        seg = Polytope([[2.0], [-1.0], [1.0], [-4.0]], [4.0, 0.5, 3.0, 1.0])
        assert match_point_sets(enumerate_vertices(seg).vertices, np.array([[2.0], [-0.25]]), 1e-12)
        point = Polytope([[1.0], [-1.0]], [0.5, -0.5])
        assert enumerate_vertices(point).vertices.shape == (1, 1)

    @pytest.mark.parametrize(
        "G, h, message",
        [
            ([[1.0], [2.0]], [1.0, 1.0], "unbounded"),
            ([[-1.0]], [3.0], "unbounded"),
            ([[1.0], [-1.0]], [1.0, -2.0], "empty"),
            ([[0.0], [0.0]], [1.0, 1.0], "unbounded"),
        ],
    )
    def test_interval_unbounded_or_empty(self, monkeypatch, G, h, message):
        refuse_lps(monkeypatch)
        with pytest.raises(UnboundedPolytopeError, match=message):
            enumerate_vertices(Polytope(G, h))

    def test_origin_outside_uses_one_chebyshev_lp(self, monkeypatch):
        calls = []
        real = geometry.linprog
        monkeypatch.setattr(geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
        shifted = Polytope(box2d().G, np.array([3.0, 3.0, -1.0, -1.0]))  # [1, 3]^2
        expected = np.array([[1, 1], [1, 3], [3, 1], [3, 3]], dtype=float)
        assert match_point_sets(enumerate_vertices(shifted).vertices, expected, 1e-9)
        assert calls == [1]


def band_polytope(rng, d, k):
    """{x : -lower <= M x <= upper} for a tall random M, upper / lower in [1/100, 100]."""
    M = rng.standard_normal((k, d))
    lower = rng.uniform(0.1, 1.0, size=k)
    upper = lower * 10.0 ** rng.uniform(-2.0, 2.0, size=k)
    return Polytope(np.vstack([M, -M]), np.concatenate([upper, lower]))


class TestOriginSeededEnumeration:
    def test_band_polytopes_match_lp_seeded_path(self, monkeypatch, rng):
        cases = []
        for _ in range(30):
            d = int(rng.integers(2, 6))
            poly = band_polytope(rng, d, int(rng.integers(d + 1, 3 * d + 1)))
            cases.append((poly, lp_seeded_vertices(poly.G, poly.h)))
        refuse_lps(monkeypatch)
        for poly, oracle in cases:
            mine = enumerate_vertices(poly).vertices
            scale = max(1.0, np.max(np.abs(oracle)))
            assert match_point_sets(mine, oracle, 1e-9 * scale)

    def test_far_redundant_row(self, monkeypatch):
        # The row x1 <= 1e11 is far from the box and must not make it look flat.
        refuse_lps(monkeypatch)
        far = Polytope(np.vstack([box2d().G, [1.0, 0.0]]), np.append(box2d().h, 1e11))
        assert match_point_sets(enumerate_vertices(far).vertices, enumerate_vertices(box2d()).vertices, 1e-12)

    @pytest.mark.parametrize("gap, lps", [(1e-3, 0), (1e-6, None), (1e-9, 10)])
    def test_off_centre_origin(self, monkeypatch, rng, gap, lps):
        # The origin lies `gap` from the first facet; far below the set's
        # extent it no longer seeds qhull and one Chebyshev LP runs instead.
        calls = []
        for _ in range(10):
            d = int(rng.integers(2, 6))
            poly = band_polytope(rng, d, int(rng.integers(d + 1, 3 * d + 1)))
            h = poly.h.copy()
            h[len(h) // 2] = gap * np.linalg.norm(poly.G[len(h) // 2])
            poly = Polytope(poly.G, h)
            oracle = lp_seeded_vertices(poly.G, poly.h)
            real = geometry.linprog
            monkeypatch.setattr(geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
            mine = enumerate_vertices(poly).vertices
            monkeypatch.undo()
            scale = max(1.0, np.max(np.abs(oracle)))
            assert match_point_sets(mine, oracle, 1e-9 * scale)
        assert lps is None or len(calls) == lps


def parallelotope(M, lower, upper):
    M = np.asarray(M, dtype=float)
    return Polytope(np.vstack([M, -M]), np.concatenate([upper, lower]))


def full_corner_solve(M, lower, upper):
    """M^{-1} s over all 2^d corners s, corner k taking -lower_j where bit j of k is set: the unmirrored solve."""
    d = len(lower)
    bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    return np.linalg.solve(M, np.where(bits == 1, -lower, upper).T).T


class TestParallelotopeVertices:
    def test_matches_qhull_on_random_instances(self, rng):
        for _ in range(12):
            d = int(rng.integers(1, 6))
            M = rng.standard_normal((d, d))
            lower = rng.uniform(0.3, 2.0, size=d)
            upper = rng.uniform(0.3, 2.0, size=d)
            verts = parallelotope_vertices(M, lower, upper)
            assert verts.shape == (2**d, d)
            oracle = enumerate_vertices(parallelotope(M, lower, upper)).vertices
            assert match_point_sets(verts, oracle, 1e-7)

    def test_unit_box(self):
        verts = parallelotope_vertices(np.eye(2), np.ones(2), np.ones(2))
        expected = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        assert match_point_sets(verts, expected, 1e-12)

    def test_non_square_declined(self):
        assert parallelotope_vertices(np.ones((3, 2)), np.ones(3), np.ones(3)) is None

    def test_singular_declined(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert parallelotope_vertices(M, np.ones(2), np.ones(2)) is None
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(parallelotope(M, np.ones(2), np.ones(2)))

    def test_zero_width_declined(self):
        lower, upper = np.array([1.0, -1.0]), np.array([1.0, 1.0])
        assert parallelotope_vertices(np.eye(2), lower, upper) is None
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(parallelotope(np.eye(2), lower, upper))

    def test_empty_box_declined(self):
        lower, upper = np.array([1.0, -2.0]), np.array([1.0, 1.0])
        assert parallelotope_vertices(np.eye(2), lower, upper) is None
        with pytest.raises(UnboundedPolytopeError):
            enumerate_vertices(parallelotope(np.eye(2), lower, upper))

    def test_width_below_dedupe_scale_declined(self):
        tiny = 1e-9 * np.ones(2)
        assert parallelotope_vertices(np.eye(2), tiny, tiny) is None

    def test_dimension_cap_declined(self):
        assert parallelotope_vertices(np.eye(13), np.ones(13), np.ones(13)) is None

    @pytest.mark.parametrize("d", [1, 2, 7, 12])
    @pytest.mark.parametrize("first_row_scale", [1.0, 1.0 - 0.01])
    def test_symmetric_box_mirrors_bitwise_the_full_solve(self, d, first_row_scale):
        # The forced prefix set's first band is the steady one, (1 - epsilon) times the box.
        rng = np.random.default_rng(2300 + d)
        M = rng.standard_normal((d, d))
        limits = rng.uniform(0.3, 2.0, size=d)
        limits[0] *= first_row_scale
        verts = parallelotope_vertices(M, limits, limits.copy())
        assert verts.tobytes() == full_corner_solve(M, limits, limits).tobytes()
        assert verts.tobytes() == (-verts[::-1]).tobytes()

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_corner_masks_read_only_and_built_once(self, symmetric):
        for d in range(1, VERTEX_DIM_CAP + 1):
            k = 2 ** (d - 1) if symmetric else 2**d
            mask = geometry._corner_mask(d, symmetric)
            assert mask.dtype == bool and not mask.flags.writeable
            assert np.array_equal(mask, ((np.arange(k)[:, None] >> np.arange(d)) & 1) == 1)
            assert geometry._corner_mask(d, symmetric) is mask

    def test_asymmetric_box_solves_every_corner(self, rng):
        for d in (1, 2, 5, 9):
            M = rng.standard_normal((d, d))
            lower, upper = rng.uniform(0.3, 2.0, size=d), rng.uniform(0.3, 2.0, size=d)
            verts = parallelotope_vertices(M, lower, upper)
            assert verts.tobytes() == full_corner_solve(M, lower, upper).tobytes()

    def test_overflowing_symmetric_solve_declined(self):
        # The half solve overflows to infinite vertices; the caller falls back to qhull.
        assert parallelotope_vertices(np.diag([1e-300, 1.0]), np.full(2, 1e300), np.full(2, 1e300)) is None


class TestPairsMaximum:
    """max c.x over d or d + 1 slabs {-lower <= M x <= upper} with a leading d x d block of rank d."""

    @pytest.mark.parametrize("extra, count", [(0, 12), (1, 40)])
    def test_matches_lp_on_random_instances(self, rng, extra, count):
        for _ in range(count):
            d = int(rng.integers(1, 6 + extra))
            M = rng.standard_normal((d + extra, d))
            lower = rng.uniform(0.0, 2.0, size=d + extra)
            upper = rng.uniform(0.3, 2.0, size=d + extra)
            c = rng.standard_normal(d)
            out = lp_maximize(c, parallelotope(M, lower, upper))
            assert out.status == "optimal"
            assert pairs_maximum(c, M, lower, upper) == pytest.approx(out.optimum, rel=1e-9, abs=1e-12)

    def test_square_block_is_bitwise_the_parallelotope_sum(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            M = rng.standard_normal((d, d))
            lower = rng.uniform(0.0, 2.0, size=d)
            upper = rng.uniform(0.3, 2.0, size=d)
            c = rng.standard_normal(d)
            w = np.linalg.solve(M.T, c)
            assert pairs_maximum(c, M, lower, upper) == float(np.sum(np.maximum(w * upper, -w * lower)))

    def test_asymmetric_interval(self):
        # -0.5 <= 2 x <= 1 gives x in [-0.25, 0.5].
        M, lower, upper = np.array([[2.0]]), np.array([0.5]), np.array([1.0])
        assert pairs_maximum(np.array([3.0]), M, lower, upper) == 1.5
        assert pairs_maximum(np.array([-3.0]), M, lower, upper) == 0.75

    def test_single_slab_after_a_parallelotope(self):
        # d = 1: -lower_i <= m_i x <= upper_i for two rows is an interval.
        M, lower, upper = np.array([[2.0], [-1.0]]), np.array([0.5, 0.3]), np.array([1.0, 2.0])
        assert pairs_maximum(np.array([3.0]), M, lower, upper) == pytest.approx(0.9)
        assert pairs_maximum(np.array([-3.0]), M, lower, upper) == pytest.approx(0.75)

    def test_singular_square_block_declines(self):
        M = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert pairs_maximum(np.array([1.0, 1.0]), M, np.ones(2), np.ones(2)) is None

    def test_singular_leading_block_declines(self):
        # The first two rows are parallel; with the third, M still has rank 2.
        M = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        ones = np.ones(3)
        assert lp_maximize(np.array([1.0, 1.0]), parallelotope(M, ones, ones)).optimum == pytest.approx(1.5)
        assert pairs_maximum(np.array([1.0, 1.0]), M, ones, ones) is None

    def test_row_that_the_null_direction_leaves_fixed(self):
        # nu = (1, 0, -1): the second row's dual weight does not move with tau.
        # The third row tightens the first: |x1| <= 0.5, |x2| <= 1.
        M = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        limits = np.array([1.0, 1.0, 0.5])
        assert pairs_maximum(np.array([1.0, 1.0]), M, limits, limits) == 1.5
        assert pairs_maximum(np.array([-2.0, 1.0]), M, limits, np.array([1.0, 1.0, 0.25])) == 2.0


def dedupe_oracle(points, tol):
    """The first-occurrence sweep that `_dedupe` replaces."""
    kept = []
    for p in points:
        if all(np.linalg.norm(p - k) > tol for k in kept):
            kept.append(p)
    return np.array(kept)


class TestDedupe:
    tol = 1e-8

    def planted_cloud(self, rng, d):
        base = rng.uniform(-1.0, 1.0, size=(60, d))
        extra = []
        for p in base[:30]:
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            extra += [p + 0.5 * self.tol * u, p + 2.0 * self.tol * u]
        for p in base[30:40]:
            # A chain: the middle point goes, the far end stays because
            # its only close neighbour was itself dropped.
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            extra += [p + 0.6 * self.tol * u, p + 1.2 * self.tol * u]
        cloud = np.vstack([base, np.array(extra), base[:5]])
        return cloud[rng.permutation(len(cloud))]

    def test_matches_oracle_on_planted_clouds(self, rng):
        for d in (1, 2, 3, 6):
            cloud = self.planted_cloud(rng, d)
            mine = _dedupe(cloud, self.tol)
            oracle = dedupe_oracle(cloud, self.tol)
            assert mine.shape == oracle.shape
            assert np.array_equal(mine, oracle)
            assert len(oracle) < len(cloud)

    def test_empty_input(self):
        empty = np.empty((0, 3))
        assert _dedupe(empty, self.tol).shape == dedupe_oracle(empty, self.tol).shape

    def test_single_point(self):
        one = np.array([[0.5, -1.0]])
        assert np.array_equal(_dedupe(one, self.tol), dedupe_oracle(one, self.tol))
