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
from masbound.config import LP_TOL, VERTEX_DIM_CAP
from masbound.geometry import (
    WarmLp,
    _dedupe,
    enumerate_vertices,
    is_redundant,
    lp_maximize,
    pairs_maximum,
    parallelotope_vertices,
)
from conftest import (
    bitwise,
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


class TestPolytopeChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_refused(self, bad):
        G, h = box2d().G.copy(), box2d().h.copy()
        G[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Polytope(G, box2d().h)
        h[2] = bad
        with pytest.raises(ValueError, match="finite"):
            Polytope(box2d().G, h)

    def test_row_counts_must_agree(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Polytope(np.eye(2), np.ones(3))
        with pytest.raises(ValueError, match="inconsistent"):
            Polytope(np.eye(2), np.ones((2, 1)))

    def test_lists_and_one_row_promoted_to_float_arrays(self):
        listed = Polytope([[1, 0], [0, 1]], [1, 2], vertices=[0, 0])
        assert bitwise(listed.G, np.eye(2)) and bitwise(listed.h, np.array([1.0, 2.0]))
        assert bitwise(listed.vertices, np.zeros((1, 2)))
        one_row = Polytope(np.array([1, -2]), 3)
        assert bitwise(one_row.G, np.array([[1.0, -2.0]])) and bitwise(one_row.h, np.array([3.0]))

    def test_bands_polytope_checks_a_present_side(self):
        M = np.array([[1.0, 0.0], [np.inf, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            geometry.Bands(M, np.ones(2), np.array([1.0, np.inf]), (2,)).polytope
        # Row 1 holds inf in M but both of its sides are absent, so it lists no row.
        poly = geometry.Bands(M, np.array([1.0, np.inf]), np.array([1.0, np.inf]), (2,)).polytope
        assert bitwise(poly.G, np.array([[1.0, 0.0], [-1.0, -0.0]]))


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


def assert_matches_cold(lp, objectives):
    """Each warm solve has the status, and the optimum within 1e-9, of `lp_maximize` on the active sides."""
    for c in objectives:
        warm, cold = lp.maximize(c), lp_maximize(c, lp.bands.polytope)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.optimum == pytest.approx(cold.optimum, abs=1e-9)


def side_switches(lp):
    """(relax, restore) of one-sided row i of `lp`, indexed in `Bands.polytope` order of the bands held now.

    `relax(i)` sets the side's bound to inf; `restore(i)` sets it back to
    its bound as held now.
    """
    row, side = lp.bands.sides()
    h = lp.bands.polytope.h
    return (lambda i: lp.set_bound(row[i], side[i], np.inf)), (lambda i: lp.set_bound(row[i], side[i], h[i]))


class TestWarmLp:
    def test_warm_sequence_matches_cold_solves(self, rng):
        # One model, many objectives, rows added and relaxed in between:
        # every optimum equals a cold solve over the active rows.
        for _ in range(10):
            d = int(rng.integers(2, 5))
            G, h = random_bounded_polytope(rng, d, 2 * d + 4)
            lp = WarmLp(upper_sides(Polytope(G[: 2 * d], h[: 2 * d])))
            lp.add_band(G[2 * d :], np.full(len(h) - 2 * d, np.inf), h[2 * d :])
            relax, restore = side_switches(lp)
            for step in range(12):
                if step == 4:
                    relax(2 * d)
                    relax(0)
                if step == 8:
                    restore(0)
                c = rng.standard_normal(d)
                warm = lp.maximize(c)
                cold = lp_maximize(c, lp.bands.polytope)
                assert warm.status == cold.status == "optimal"
                assert warm.optimum == pytest.approx(cold.optimum, abs=1e-9)
            assert lp.bands.polytope.nrows == G.shape[0] - 1

    def test_primal_simplex(self):
        # Most solves only change the objective, which keeps the last basis primal feasible.
        if geometry._HIGHS is None:
            pytest.skip("this scipy has no persistent HiGHS class")
        assert WarmLp(box_band())._highs.getOptionValue("simplex_strategy")[1] == 4

    @pytest.mark.parametrize("build_first", [False, True])
    def test_many_batches_match_cold_solves(self, rng, build_first):
        # Many small batches, with the model built before them or only
        # after the sides are relaxed and restored.
        d = 3
        G, h = random_bounded_polytope(rng, d, 160)
        lp = WarmLp(upper_sides(Polytope(G[: 2 * d], h[: 2 * d])))
        if build_first:
            assert lp.maximize(np.ones(d)).status == "optimal"
        for start in range(2 * d, len(h), 5):
            rhs = h[start : start + 5]
            lp.add_band(G[start : start + 5], np.full(len(rhs), np.inf), rhs)
        relax, restore = side_switches(lp)
        relax(1)
        relax(len(h) - 1)
        restore(1)
        assert (lp._model is not None) == build_first
        keep = np.ones(len(h), dtype=bool)
        keep[-1] = False
        cold = Polytope(G[keep], h[keep])
        assert np.array_equal(lp.bands.polytope.G, cold.G) and np.array_equal(lp.bands.polytope.h, cold.h)
        for c in rng.standard_normal((10, d)):
            warm = lp.maximize(c)
            assert warm.status == "optimal"
            assert warm.optimum == pytest.approx(lp_maximize(c, cold).optimum, abs=1e-9)

    def test_no_band_refused(self):
        # The first band fixes the dimension.
        with pytest.raises(ValueError, match="at least one band"):
            WarmLp([])

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
        assert np.array_equal(lp.bands.polytope.G, np.vstack([M, -M]))
        assert np.array_equal(lp.bands.polytope.h, np.concatenate([upper, lower]))

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
        for step in side_switches(lp):
            for i in (0, 5, 1):
                step(i)
                assert_matches_cold(lp, objectives)
        assert lp.bands.polytope.nrows == 8

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
        assert np.array_equal(lp.bands.polytope.G, sides)
        assert np.array_equal(lp.bands.polytope.h, [2.0] * 6 + [0.5, 0.4, 0.3, 0.6])
        relax, restore = side_switches(lp)
        for i in range(6, 10):
            relax(i)
            assert_matches_cold(lp, objectives)
            restore(i)
            assert_matches_cold(lp, objectives)
        assert np.array_equal(lp.bands.polytope.G, sides)

    @pytest.mark.parametrize("build_first", [False, True])
    def test_set_bound_round_trip(self, rng, build_first):
        # Relaxing a side shows it as inf in `bands` and drops exactly its
        # row from `bands.polytope`; its own bound brings the rows back bitwise.
        M = rng.standard_normal((4, 3))
        upper, lower = rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4)
        lower[2] = np.inf
        lp = WarmLp([(np.eye(3), np.full(3, 2.0), np.full(3, 2.0)), (M, lower, upper)])
        if build_first:
            lp.maximize(np.ones(3))
        objectives = rng.standard_normal((6, 3))
        start = lp.bands.polytope
        for i, (row, side) in enumerate(zip(*lp.bands.sides())):
            lp.set_bound(row, side, np.inf)
            assert np.isinf((lp.bands.upper, lp.bands.lower)[side][row])
            keep = np.arange(start.nrows) != i
            relaxed = lp.bands.polytope
            assert bitwise(relaxed.G, start.G[keep]) and bitwise(relaxed.h, start.h[keep])
            if build_first:
                assert_matches_cold(lp, objectives)
            lp.set_bound(row, side, start.h[i])
            restored = lp.bands.polytope
            assert bitwise(restored.G, start.G) and bitwise(restored.h, start.h)
        assert (lp._model is not None) == build_first
        assert_matches_cold(lp, objectives)

    def test_live_warm_lps_hold_distinct_models(self, monkeypatch):
        built = count_models(monkeypatch)
        WarmLp(box_band()).maximize([1.0, 0.0])  # leaves one model on the free list
        first, second = WarmLp(box_band()), WarmLp(box_band())
        for lp in (first, second):
            assert lp.maximize([1.0, 1.0]).optimum == pytest.approx(2.0)
        assert first._model is not second._model
        assert built == [1, 1]

    def test_borrowed_again_model_keeps_its_options(self, monkeypatch):
        # `clearModel` keeps the options set when the model was built.
        count_models(monkeypatch)
        first = WarmLp(box_band())
        first.maximize([1.0, 0.0])
        model = first._model
        del first
        again = WarmLp(box_band())
        assert again.maximize([1.0, 1.0]).optimum == pytest.approx(2.0)
        assert again._model is model
        options = {
            "primal_feasibility_tolerance": LP_TOL,
            "dual_feasibility_tolerance": LP_TOL,
            "presolve": "off",
            "simplex_strategy": 4,  # primal simplex
        }
        assert {name: model.getOptionValue(name)[1] for name in options} == options

    def test_refused_option_raises_and_is_not_pooled(self, monkeypatch):
        # HiGHS keeps its own 1e-7 for a tolerance below 1e-10; the refusal
        # raises instead of solving at that default.
        built = count_models(monkeypatch)
        monkeypatch.setitem(geometry._MODEL_OPTIONS, "primal_feasibility_tolerance", 1e-13)
        with pytest.raises(ValueError, match="refused option primal_feasibility_tolerance = 1e-13"):
            WarmLp(box_band()).maximize([1.0, 0.0])
        assert built == [1]
        assert geometry._FREE_MODELS[geometry._HIGHS[0]] == []

    def test_options_set_only_on_models_built(self, monkeypatch):
        built = count_models(monkeypatch)
        counted = geometry._HIGHS[0]
        names = []
        real = counted.setOptionValue

        def counting(model, name, value):
            names.append(name)
            return real(model, name, value)

        monkeypatch.setattr(counted, "setOptionValue", counting)
        # Three live at once build three models; six more in turn borrow them.
        live = [WarmLp(box_band()) for _ in range(3)]
        for lp in live:
            lp.maximize([1.0, 0.0])
        del live, lp
        for _ in range(6):
            assert WarmLp(box_band()).maximize([0.0, 1.0]).optimum == pytest.approx(1.0)
        assert built == [1, 1, 1]
        assert names == 3 * list(geometry._MODEL_OPTIONS)

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
        relax, restore = side_switches(lp)
        assert lp.maximize([1.0, 0.0]).optimum == pytest.approx(1.0)
        relax(0)
        assert lp.maximize([1.0, 0.0]).status == "unbounded"
        restore(0)
        assert lp.maximize([1.0, 0.0]).optimum == pytest.approx(1.0)

    def test_rows_relaxed_before_the_first_solve(self):
        # The model is built on the first solve, with the relaxed side absent.
        lp = WarmLp(box_band())
        lp.add_band([[1.0, 1.0]], [np.inf], [1.5])
        relax, restore = side_switches(lp)
        relax(0)
        assert lp._model is None
        assert lp.maximize([1.0, 0.0]).optimum == pytest.approx(2.5)
        restore(0)
        assert lp.maximize([1.0, 1.0]).optimum == pytest.approx(1.5)
        relax(4)
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
        side_switches(lp)[0](0)
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

    def test_vertices_outside_the_set_fall_back_to_brute_force(self, monkeypatch):
        # qhull round-off 1e-6 outside the square fails the feasibility guard.
        qhull = geometry._qhull_vertices
        monkeypatch.setattr(geometry, "_qhull_vertices", lambda *args: qhull(*args) * (1.0 + 1e-6))
        verts = enumerate_vertices(box2d()).vertices
        corners = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
        assert sorted(map(tuple, verts.tolist())) == sorted(map(tuple, corners))
        monkeypatch.setattr(geometry, "_brute_force_vertices", lambda poly: np.empty((0, 2)))
        with pytest.raises(UnboundedPolytopeError, match="failed feasibility screening"):
            enumerate_vertices(box2d())


class TestUnboundedness:
    def test_rank_deficient_rows(self, monkeypatch):
        # A slab in 3-D: bounded along (1, 1, 0) only.
        refuse_lps(monkeypatch)
        slab = Polytope([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], np.ones(4))
        with pytest.raises(UnboundedPolytopeError, match="rank"):
            enumerate_vertices(slab)

    @pytest.mark.parametrize(
        "G, h",
        [
            ([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),
            ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),
            ([[1.0, 1.0], [0.0, 0.0], [-2.0, -2.0]], [1.0, 1.0, 1.0]),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0, 1.0]),
        ],
    )
    def test_too_few_nonzero_rows_fail_the_rank_test(self, monkeypatch, G, h):
        # Fewer than d + 1 nonzero rows of rank below d: neither qhull nor an LP may run.
        def refuse(*args, **kwargs):
            raise AssertionError("qhull was called")

        refuse_lps(monkeypatch)
        monkeypatch.setattr(geometry, "HalfspaceIntersection", refuse)
        with pytest.raises(UnboundedPolytopeError, match="rank"):
            enumerate_vertices(Polytope(G, h))

    def test_d_rows_of_full_rank(self):
        # A cone with its apex inside: the rank test passes and the Chebyshev LP finds it unbounded.
        with pytest.raises(UnboundedPolytopeError, match="unbounded inscribed balls"):
            enumerate_vertices(Polytope(np.eye(2), [1.0, 1.0]))

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

    def separated_cloud(self, rng, d, n=80, scale=1.0):
        """n points at least 1e-3 * scale apart, in a cube of side 2 * scale."""
        cloud = rng.uniform(-scale, scale, size=(n, d))
        while len(dedupe_oracle(cloud, 1e-3 * scale)) < n:
            cloud = rng.uniform(-scale, scale, size=(n, d))
        return cloud

    def test_no_pair_returns_a_copy_without_a_tree(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("a KD-tree was built")

        monkeypatch.setattr(geometry, "cKDTree", refuse)
        for d in (1, 2, 3, 6, VERTEX_DIM_CAP):
            cloud = self.separated_cloud(rng, d)
            mine = _dedupe(cloud, self.tol)
            assert bitwise(mine, cloud)
            assert not np.shares_memory(mine, cloud)

    def test_tied_first_coordinates(self, monkeypatch, rng):
        # Points that share their first coordinate, as the vertices of
        # the two-output prefix sets often do, still separate on the probe.
        real_tree = geometry.cKDTree
        for d in (2, 3, 5):
            rest = self.separated_cloud(rng, d - 1)
            cloud = np.column_stack([np.where(np.arange(80) < 40, 0.25, -0.25), rest])
            monkeypatch.setattr(geometry, "cKDTree", None)
            assert bitwise(_dedupe(cloud, self.tol), cloud)
            monkeypatch.setattr(geometry, "cKDTree", real_tree)
            with_pairs = np.vstack([cloud, cloud[:10] + np.append(0.0, np.full(d - 1, 0.4 * self.tol))])
            mine = _dedupe(with_pairs, self.tol)
            assert bitwise(mine, dedupe_oracle(with_pairs, self.tol))
            assert bitwise(mine, cloud)

    @pytest.mark.parametrize("factor, kept", [(1.0 - 1e-7, 1), (1.0 + 1e-7, 2)])
    def test_pair_at_the_radius_along_the_probe(self, rng, factor, kept):
        # Apart by tol (1 -+ 1e-7) along the probe direction, just inside
        # or outside tol: the certificate cannot hold, the tree decides.
        for d in (1, 2, 4, 8):
            cloud = self.separated_cloud(rng, d, n=30)
            shifted = cloud[7] + factor * self.tol * geometry._probe_direction(d)
            with_pair = np.vstack([cloud, shifted])
            mine = _dedupe(with_pair, self.tol)
            assert bitwise(mine, dedupe_oracle(with_pair, self.tol))
            assert len(mine) == len(cloud) + kept - 1

    def test_large_coordinates(self, rng):
        # Near 1e8 the rounding margin of the projections exceeds tol.
        for d in (2, 3, 6):
            for scale in (1e4, 1e6, 1e8):
                cloud = self.separated_cloud(rng, d, n=40, scale=scale)
                pairs = cloud[:8] + rng.choice([0.3, 0.9, 1.5], size=(8, 1)) * self.tol * rng.standard_normal((8, d))
                for points in (cloud, np.vstack([cloud, pairs])):
                    assert bitwise(_dedupe(points, self.tol), dedupe_oracle(points, self.tol))

    def test_projection_rounding_is_covered(self, rng):
        # A pair 0.9 tol apart whose projections, near 1e8, may round a
        # float spacing (up to about 1.5e-8 > tol) apart: only the margin
        # stops the certificate from keeping both.
        for _ in range(200):
            d = int(rng.integers(2, 4))
            p = np.append(rng.uniform(0.5e8, 1.5e8), rng.uniform(-1.0, 1.0, size=d - 1))
            q = p.copy()
            q[1] += 0.9 * self.tol
            pair = np.array([p, q])
            assert bitwise(_dedupe(pair, self.tol), dedupe_oracle(pair, self.tol))

    def test_empty_input(self):
        empty = np.empty((0, 3))
        assert _dedupe(empty, self.tol).shape == dedupe_oracle(empty, self.tol).shape

    def test_single_point(self):
        one = np.array([[0.5, -1.0]])
        assert np.array_equal(_dedupe(one, self.tol), dedupe_oracle(one, self.tol))
