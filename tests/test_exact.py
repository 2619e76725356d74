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
from masbound.config import LP_TOL, ZERO_ROW
from masbound.geometry import is_redundant
from masbound.lyapunov import build_O_prefix
from masbound.model import output_bands, stable_dc_gain
from conftest import (
    bitwise,
    count_models,
    exact_cases,
    force_unknown,
    golden_systems,
    make_siso,
    random_stable_matrix,
    reference_rows,
    run_exact,
    scalar_interval_t_star,
    two_output_systems,
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


def one_sided_case():
    """A two-output system on an asymmetric box (unforced) where one output's row cuts on one side only."""
    return (*next(two_output_systems(np.random.default_rng(2027))), None)


def count_lps(monkeypatch) -> list[int]:
    """A list that gains one entry per `WarmLp.maximize` call."""
    if geometry._HIGHS is None:
        pytest.skip("this scipy has no persistent HiGHS class")
    calls = []
    real = geometry.WarmLp.maximize
    monkeypatch.setattr(geometry.WarmLp, "maximize", lambda self, c: calls.append(1) or real(self, c))
    return calls


def count_witnessed(monkeypatch) -> list[int]:
    """A list that gains one entry per row `exact._witnessed` proves to cut."""
    witnessed = []
    real = exact._witnessed

    def spy(*args):
        gap = real(*args)
        if gap is not None:
            witnessed.append(1)
        return gap

    monkeypatch.setattr(exact, "_witnessed", spy)
    return witnessed


def count_closed_form(monkeypatch) -> list[int]:
    """A list that gains one entry per `exact.pairs_maximum` call."""
    calls = []
    real = exact.pairs_maximum
    monkeypatch.setattr(exact, "pairs_maximum", lambda *args: calls.append(1) or real(*args))
    return calls


def spy_highs_rows(monkeypatch) -> list[tuple[int, int, int, int]]:
    """A list that gains (HiGHS rows, band rows, one-sided rows, absent sides) per `WarmLp.maximize` call.

    A side whose bound is inf is absent, a side the prune relaxed included.
    """
    if geometry._HIGHS is None:
        pytest.skip("this scipy has no persistent HiGHS class")
    held = []
    real = geometry.WarmLp.maximize

    def spy(self, c):
        out = real(self, c)
        bands = self.bands
        absent = int(np.isinf(bands.lower).sum() + np.isinf(bands.upper).sum())
        held.append((self._model.getNumRow(), len(bands.M), bands.polytope.nrows, absent))
        return out

    monkeypatch.setattr(geometry.WarmLp, "maximize", spy)
    return held


def replay_decisions(sys, box, epsilon=None):
    """(t*, verdicts, live decisions, span-screened, parallelotope-decided, slab-decided) of the construction.

    Replays the loop cold, deciding every row at every step with
    `is_redundant`; `verdicts[t][k]` is row k's verdict at step t (True
    for redundant).  On a symmetric box one decision covers a "+" row and
    its mirror, so only the q "+" rows are decided.  Only the decisions on
    live rows are counted: a row leaves them once it is redundant clear of
    the tie band (still redundant with its bound lowered by `exact._TIE`
    times itself).  A row below ZERO_ROW is decided without an LP, stays
    live and is not counted.  A counted decision is span-screened when its
    row raises `numpy.linalg.matrix_rank` of the accepted rows;
    otherwise it is parallelotope-decided when the accepted rows are d
    mirrored pairs of rank d, and slab-decided when they are d + 1
    mirrored pairs of rank d whose first d "+" rows, in the order they
    were accepted, each lie off the span of the rows before them by more
    than `exact._SPAN` times their norm (a diagonal entry of R in their QR).
    """
    feed = None if epsilon is None else stable_dc_gain(sys)
    bands = output_bands(sys, box, feed, 1.0 if epsilon is None else epsilon)
    start = list(itertools.islice(bands, 1 if epsilon is None else 2))
    G, h = reference_rows(start)
    plus = [row for M, _, _ in start for row in M]  # the "+" rows, in the order they were accepted
    d = G.shape[1]
    symmetric = np.array_equal(box.y_lower, box.y_upper)
    width = sys.q if symmetric else 2 * sys.q
    live = list(range(width))
    verdicts = []
    decisions = screened = closed = slab = 0
    for t in itertools.count():
        rows, rhs = reference_rows([next(bands)])
        poly = Polytope(G, h)
        rank = np.linalg.matrix_rank(G)
        mirrored = rank == d and all(np.any(np.all(G == -g, axis=1)) for g in G)
        parallelotope = mirrored and len(G) == 2 * d
        lead = np.array(plus[:d])
        slab_form = (
            mirrored
            and len(G) == 2 * (d + 1)
            and np.all(np.abs(np.diag(np.linalg.qr(lead.T, mode="r"))) > exact._SPAN * np.linalg.norm(lead, axis=1))
        )
        verdicts.append([is_redundant(rows[k], rhs[k], poly) for k in range(width)])
        for k in list(live):
            if np.linalg.norm(rows[k]) < ZERO_ROW:
                continue
            decisions += 1
            if np.linalg.matrix_rank(np.vstack([G, rows[k]])) > rank:
                screened += 1
            elif parallelotope:
                closed += 1
            elif slab_form:
                slab += 1
            if verdicts[t][k] and is_redundant(rows[k], (1.0 - exact._TIE) * rhs[k], poly):
                live.remove(k)
        fresh = [k for k, redundant in enumerate(verdicts[t]) if not redundant]
        if symmetric:
            fresh += [k + sys.q for k in fresh]
        if not fresh:
            return t, verdicts, decisions, screened, closed, slab
        G, h = np.vstack([G, rows[fresh]]), np.concatenate([h, rhs[fresh]])
        plus += [rows[k] for k in fresh if k < sys.q]


class TestMirroredRows:
    """On a symmetric box one decision settles a row and its mirror.

    A step decides at most q rows on a symmetric box and 2q otherwise:
    only the rows not yet found redundant clear of the tie band.  A
    decision needs an LP unless its row lies off the accepted rows' span
    or the accepted rows are d or d + 1 mirrored pairs that the closed
    form covers.
    """

    @pytest.mark.parametrize("case", symmetric_cases())
    def test_symmetric_box_spends_q_lps_per_step(self, monkeypatch, case):
        calls = count_lps(monkeypatch)
        witnessed = count_witnessed(monkeypatch)
        res = run_exact(*case)
        t_star, _, decisions, screened, closed, slab = replay_decisions(*case)
        assert res.t_star == t_star > 0
        assert decisions <= case[0].q * (res.t_star + 1)
        assert screened > 0
        assert len(calls) + len(witnessed) == decisions - screened - closed - slab

    @pytest.mark.parametrize(
        "case, one_sided",
        [pytest.param(case, False, id=f"symmetric{i}") for i, case in enumerate(symmetric_cases())]
        + [pytest.param(case, False, id=f"asymmetric{i}") for i, case in enumerate(asymmetric_cases())]
        + [pytest.param(one_sided_case(), True, id="one_sided")],
    )
    def test_every_lp_holds_one_highs_row_per_band_row(self, monkeypatch, case, one_sided):
        # The starting set, every band and the pruned rows: a row is one
        # ranged HiGHS row, or a one-sided one where it cut on one side only.
        held = spy_highs_rows(monkeypatch)
        res = run_exact(*case)
        solved = len(held)
        res.polytope  # the prune's LPs
        built, pruned = held[:solved], held[solved:]
        assert pruned
        assert all(highs == rows and sides + absent == 2 * highs for highs, rows, sides, absent in held)
        assert any(absent for *_, absent in built) == one_sided
        # Some cases decide every row without an LP.
        assert not built or built[-1][2] == res.rows.nrows
        # Each prune LP holds every band row, with the side it decides relaxed, so absent.
        assert all(rows == len(res.bands.M) and sides < res.rows.nrows for _, rows, sides, _ in pruned)

    @pytest.mark.parametrize("case", asymmetric_cases())
    def test_asymmetric_box_spends_2q_lps_per_step(self, monkeypatch, case):
        calls = count_lps(monkeypatch)
        witnessed = count_witnessed(monkeypatch)
        res = run_exact(*case)
        t_star, _, decisions, screened, closed, slab = replay_decisions(*case)
        assert res.t_star == t_star
        assert decisions < 2 * case[0].q * (res.t_star + 1)
        assert screened > 0
        assert len(calls) + len(witnessed) == decisions - screened - closed - slab


def non_normal_draw(seed: int, n: int) -> LtiSystem:
    """A strongly non-normal two-output, two-input system of order n in 3, 4, 5.

    One generator per seed draws orders 3, 4 and 5 in turn: a triangular
    A with diagonal U(-0.9, 0.9) and a standard normal upper part scaled
    by 10 ** U(1, 3), then a standard normal B and C.
    """
    rng = np.random.default_rng(seed)
    for order in (3, 4, 5):
        A = np.diag(rng.uniform(-0.9, 0.9, order)) + np.triu(rng.standard_normal((order, order)), 1) * 10 ** rng.uniform(1, 3)
        B = rng.standard_normal((order, 2))
        C = rng.standard_normal((2, order))
        if order == n:
            return LtiSystem(A=A, B=B, C=C)
    raise ValueError(f"order {n} is not drawn")


@pytest.mark.parametrize(
    "seed, n, unforced, forced", [(30, 5, 15, 26), (37, 4, 12, 20), (47, 4, 12, 20), (47, 5, 16, 27), (59, 5, 7, 19)]
)
def test_non_normal_draws_keep_their_index(seed, n, unforced, forced):
    # Ill-conditioned LPs: the largest entry of A reaches the hundreds.
    sys = non_normal_draw(seed, n)
    box = unit_box(2)
    assert exact_t_star_unforced(sys, box).t_star == unforced
    assert exact_t_star_forced(sys, box, 0.05).t_star == forced


class TestWitnessedRows:
    """A row that the optimal point of an earlier LP proves to cut is decided without an LP, and no result moves."""

    @staticmethod
    def check(case) -> list[float]:
        """Run `case` checking each witnessed cut with a cold LP, then with `_witnessed` declining.

        Every witnessed verdict is a cut for a cold LP, on a fresh
        `WarmLp` of the bands held at that moment, and t*, the bands and
        the pruned set are bitwise those of the run that solves an LP for
        every such row.  Returns, per witnessed row, rhs + LP_TOL less the
        largest row.p over the held points p, their mirrors -p left out.
        """
        held = []

        class Held(geometry.WarmLp):
            def __init__(self, bands):
                super().__init__(bands)
                held.append(self)

        witnessed = []
        real = exact._witnessed

        def spy(row, bound, points, symmetric):
            gap = real(row, bound, points, symmetric)
            if gap is not None:
                assert gap < 0
                # A fresh model: one-off `linprog` gives no status on some non-normal draws.
                assert not geometry.WarmLp(held[-1].bands).is_redundant(row, bound)
                witnessed.append(bound + LP_TOL - (points @ row).max())
            return gap

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(exact, "WarmLp", Held)
            monkeypatch.setattr(exact, "_witnessed", spy)
            res = run_exact(*case)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(exact, "_witnessed", lambda *args: None)
            ref = run_exact(*case)
        assert res.t_star == ref.t_star
        assert res.bands.ends == ref.bands.ends
        for got, want in zip(
            (res.bands.M, res.bands.lower, res.bands.upper, res.polytope.G, res.polytope.h),
            (ref.bands.M, ref.bands.lower, ref.bands.upper, ref.polytope.G, ref.polytope.h),
        ):
            assert bitwise(got, want)
        return witnessed

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(exact_cases())
    @example(asymmetric_cases()[0])
    @example(asymmetric_cases()[1])
    @example(asymmetric_cases()[2])
    def test_witnessed_rows_cut_and_change_nothing(self, case):
        self.check(case)

    @pytest.mark.parametrize("epsilon", [None, 0.05])
    @pytest.mark.parametrize("seed, n", [(30, 5), (37, 4), (47, 4), (47, 5), (59, 5)])
    def test_non_normal_draws(self, seed, n, epsilon):
        # Ill-conditioned LPs, whose optimal points sit on rows with entries in the hundreds.
        assert self.check((non_normal_draw(seed, n), unit_box(2), epsilon))

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("over, cuts", [(0.5, False), (2.0, True)])
    def test_witness_must_clear_the_tie_band(self, symmetric, over, cuts):
        # The held point (0, top) proves that the row (0, 1) with bound 2
        # cuts only when top exceeds 2 + LP_TOL by more than _TIE * 2.
        top = 2.0 + LP_TOL + over * exact._TIE * 2.0
        points = np.array([[5.0, 0.0], [0.0, top]])
        gap = exact._witnessed(np.array([0.0, 1.0]), 2.0, points, symmetric)
        assert (gap == 2.0 + LP_TOL - top) if cuts else gap is None

    @pytest.mark.parametrize("symmetric, cuts", [(False, False), (True, True)])
    def test_mirror_point_counts_only_on_a_symmetric_box(self, symmetric, cuts):
        gap = exact._witnessed(np.array([1.0, 0.0]), 1.0, np.array([[-2.0, 0.0]]), symmetric)
        assert (gap == 1.0 + LP_TOL - 2.0) if cuts else gap is None

    def test_symmetric_box_takes_the_mirror_point(self):
        # The set is symmetric, so -p lies in it with p: here a row is
        # witnessed to cut at -p where no held p alone shows it.
        assert any(gap >= 0 for gap in self.check(symmetric_cases()[2]))


class TestRetiredRows:
    """A row redundant clear of the tie band is not decided again."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(exact_cases())
    @example(asymmetric_cases()[0])
    @example(asymmetric_cases()[1])
    @example(asymmetric_cases()[2])
    def test_redundant_rows_stay_redundant(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = count_lps(monkeypatch)
            witnessed = count_witnessed(monkeypatch)
            res = run_exact(*case)
        t_star, verdicts, decisions, screened, closed, slab = replay_decisions(*case)
        assert res.t_star == t_star
        for k in range(len(verdicts[0])):
            history = [step[k] for step in verdicts]
            assert history == sorted(history)  # no redundant verdict is ever followed by a cut
        assert len(calls) + len(witnessed) == decisions - screened - closed - slab

    @pytest.mark.parametrize("gap, lps", [(1e-8, 3), (1e-4, 1)])
    def test_redundant_verdict_in_the_tie_band_keeps_its_row_live(self, monkeypatch, gap, lps):
        # Over the box, output 1's "+" row of C A has maximum 0.5 (1 - gap)
        # against the bound 0.5, and output 2's "-" row cuts.  Inside the tie
        # band (gap 1e-8) the closed form hands the row to the LP, which
        # finds it redundant, and its C A^2 row is decided again by LP beside
        # the row that cut; clear of the band (gap 1e-4) the closed form
        # retires it and only the row that cut is decided again.
        sys = LtiSystem(A=np.diag([-0.5 * (1.0 - gap), -0.9]), C=np.eye(2))
        box = OutputBox([1.0, 0.1], [0.5, 1.0])
        calls = count_lps(monkeypatch)
        res = exact_t_star_unforced(sys, box)
        assert res.t_star == 1
        assert len(calls) == lps
        assert_same_result(res, *reference_exact(sys, box))


def nilpotent_cases():
    """A shift matrix with C A^3 = 0, unforced and forced, on a symmetric and an asymmetric box."""
    sys = LtiSystem(A=np.eye(3, k=1), B=[[0.0], [0.0], [1.0]], C=[[1.0, 0.0, 0.0]])
    return [
        (sys, box, epsilon)
        for box in (unit_box(), OutputBox([0.5], [1.0]))
        for epsilon in (None, 0.1, 1.0)
    ]


class TestDecisionsWithoutLps:
    """Rows settled by the span screen or the closed form."""

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
        span = np.full((3, 3), np.nan)
        span[0] = [1.0, 0.0, 0.0]
        assert exact._extend(span, 1, np.array([[2.0, 1e-15, 0.0]])) == 1
        assert exact._extend(span, 1, np.array([[2.0, 1e-9, 0.0]])) is None
        assert exact._extend(span, 1, np.array([[2.0, 1e-5, 0.0], [0.0, 0.0, 0.0]])) == 2
        assert np.array_equal(span[:2], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    @staticmethod
    def unobservable_rotation():
        """A rotation by 2 rad at radius 0.9 beside an unobserved state: the rows never reach rank 3."""
        A = np.zeros((3, 3))
        A[:2, :2] = 0.9 * np.array([[np.cos(2.0), np.sin(2.0)], [-np.sin(2.0), np.cos(2.0)]])
        A[2, 2] = 0.5
        return LtiSystem(A=A, C=[[1.0, 0.0, 0.0]])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(exact_cases())
    # A "-" row is accepted after its "+" row retired.  The negated residual
    # of the "-" row has -0.0 where `_residual` of the "+" row has 0.0, so
    # `_extend` projects the "+" row itself.
    @example((unobservable_rotation(), OutputBox([0.5], [1.0]), None))
    def test_extend_reuses_the_screen_residual(self, case):
        # The residual the screen computed for a row is bitwise the one
        # `_extend` would compute.  On a symmetric box with one output every
        # accepted row was screened, so only the starting call projects a
        # row again.
        calls = []
        real = exact._extend

        def spy(span, rank, rows, first=None):
            if first is not None:
                assert first.tobytes() == exact._residual(rows[0], span[:rank]).tobytes()
            calls.append(first is not None)
            return real(span, rank, rows, first)

        sys, box, epsilon = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_extend", spy)
            run_exact(sys, box, epsilon)
        if sys.q == 1 and np.array_equal(box.y_lower, box.y_upper):
            assert calls[0] is False and all(calls[1:])

    @pytest.mark.parametrize(
        "M, leads",
        [
            ([[1.0, 3.0], [0.0, 1.0], [0.1, 0.3]], True),
            ([[1.0, 3.0], [0.1, 0.3], [0.0, 1.0]], False),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]], True),
            ([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], False),
            # The second row lies off the first's span by 2e-6 of its norm, just above _SPAN.
            ([[1.0, 0.0], [1.0, 2e-6], [0.0, 1.0]], True),
        ],
    )
    def test_leads_needs_each_of_the_first_d_rows_to_join(self, M, leads):
        M = np.array(M)
        d = M.shape[1]
        span = np.empty((d, d))
        assert exact._extend(span, 0, M) == d
        assert exact._leads(M, span) is leads
        # The first d rows have rank d exactly when they lead, and then
        # `_leads` holds for them alone: each joined, the last by the very
        # test `_leads` repeats.
        head = np.empty((d, d))
        assert (exact._extend(head, 0, M[:d]) == d) is leads
        if leads:
            assert exact._leads(M[:d], head)

    @pytest.mark.parametrize("epsilon", [None, 0.5, 1.0])
    def test_d_plus_one_pairs_need_no_model(self, monkeypatch, epsilon):
        # A rotation by 0.3 rad at radius 0.5 seen in its first coordinate:
        # every row but the last one decided is span-screened or decided by
        # the closed form over d mirrored pairs, and the last one by the
        # closed form over d + 1 pairs (t* = d unforced, d - 1 in (z0, u)).
        c, s = 0.5 * np.cos(0.3), 0.5 * np.sin(0.3)
        sys = LtiSystem(A=[[c, s], [-s, c]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
        case = (sys, unit_box(), epsilon)
        built = count_models(monkeypatch)
        calls = count_lps(monkeypatch)
        res = run_exact(*case)
        assert res.t_star == 2
        assert res.rows.nrows == 2 * (res.rows.dim + 1)
        assert calls == [] and built == []
        assert replay_decisions(*case)[-1] == 1
        assert_same_result(res, *reference_exact(*case))

    @pytest.mark.parametrize(
        "C",
        [
            # Output 2 is zero: the leading block [C_1; 0] is singular.
            [[1.0, 0.0], [0.0, 0.0]],
            # Output 2 is output 1 scaled to within rounding: LU of the
            # leading block leaves a pivot near 1e-17 rather than 0.
            [[1.0, 3.0], [0.1, 0.3], [0.0, 1.0]],
        ],
    )
    def test_slab_with_a_leading_block_off_the_span_goes_to_the_lp(self, monkeypatch, C):
        # d + 1 mirrored pairs of rank d meet a row, but the second of their
        # first d rows never joined the span basis: the LP decides the row.
        c, s = 0.5 * np.cos(0.3), 0.5 * np.sin(0.3)
        sys = LtiSystem(A=[[c, s], [-s, c]], C=C)
        box = OutputBox(np.ones(sys.q), np.ones(sys.q))
        slabs = []

        def pairs_maximum(c, M, lower, upper):
            if len(M) == len(c) + 1:
                slabs.append(M)
            return geometry.pairs_maximum(c, M, lower, upper)

        monkeypatch.setattr(exact, "pairs_maximum", pairs_maximum)
        calls = count_lps(monkeypatch)
        witnessed = count_witnessed(monkeypatch)
        res = exact_t_star_unforced(sys, box)
        t_star, _, decisions, screened, closed, slab = replay_decisions(sys, box)
        assert res.t_star == t_star
        assert slabs == [] and slab == 0
        assert len(calls) + len(witnessed) == decisions - screened - closed - slab > 0
        assert_same_result(res, *reference_exact(sys, box))

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
            geometry.WarmLp([(np.eye(1), np.ones(1), np.ones(1))]).maximize([1.0])
            assert built == [1]
            for res in results:
                res.polytope
            assert built == [1]


def reference_extend(span, rank: int, rows) -> int | None:
    """`exact._extend` with `np.linalg.norm` taken afresh at every use."""
    for row in rows:
        res = exact._residual(row, span[:rank])
        norm = np.linalg.norm(row)
        if norm >= ZERO_ROW and np.linalg.norm(res) > exact._SPAN * norm:
            span[rank] = res / np.linalg.norm(res)
            rank += 1
        elif np.linalg.norm(res) > exact._ROUNDOFF * norm:
            return None
    return rank


class TestSpanHelpers:
    """`_norm`, `_residual` and `_extend`, against numpy's own norm."""

    @pytest.mark.parametrize("length", range(1, 13))
    def test_norm_is_numpy_norm_bitwise(self, length):
        rng = np.random.default_rng(length)
        for scale in (1e-13, 1e-6, 1.0, 1e6):
            v = scale * rng.standard_normal(length)
            assert exact._norm(v) == np.linalg.norm(v)

    @pytest.mark.parametrize("seed", range(40))
    def test_extend_matches_a_reference_that_takes_every_norm_afresh(self, seed):
        # Rows of random rank, some a combination of earlier rows plus a
        # perturbation near the _SPAN and _ROUNDOFF thresholds.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        rows = rng.standard_normal((int(rng.integers(1, d + 3)), d))
        for i in range(1, len(rows)):
            if rng.random() < 0.4:
                rows[i] = rng.standard_normal(i) @ rows[:i] + 10.0 ** rng.uniform(-14, -4) * rng.standard_normal(d)
        span, expected = np.full((d, d), np.nan), np.full((d, d), np.nan)
        # The rows in two calls, the second from the basis the first built.
        cut = int(rng.integers(0, len(rows) + 1))
        rank, want = exact._extend(span, 0, rows[:cut]), reference_extend(expected, 0, rows[:cut])
        assert rank == want
        if rank is not None:
            rank, want = exact._extend(span, rank, rows[cut:]), reference_extend(expected, want, rows[cut:])
            assert rank == want
        if rank is not None:
            assert span[:rank].tobytes() == expected[:rank].tobytes()

    @pytest.mark.parametrize("off", [2e-12, 1e-10, 1e-7, 0.999e-6])
    def test_extend_gives_up_on_a_row_between_roundoff_and_span(self, off):
        # The row's component off span(e0) is `off` times its norm, to within rounding.
        span = np.full((3, 3), np.nan)
        span[0] = [1.0, 0.0, 0.0]
        row = np.array([np.sqrt(1.0 - off**2), off, 0.0])
        assert exact._extend(span, 1, np.array([row, [0.0, 0.0, 1.0]])) is None
        assert np.isnan(span[1:]).all()

    def test_extend_passes_over_a_row_below_zero_row(self):
        span = np.full((3, 3), np.nan)
        span[0] = [1.0, 0.0, 0.0]
        # Below ZERO_ROW a row never joins: a row in the span is passed
        # over, and the rows after it still join.
        rows = np.array([[0.5 * ZERO_ROW, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        assert exact._extend(span, 1, rows) == 2
        assert np.array_equal(span[:2], np.eye(3)[:2]) and np.isnan(span[2]).all()
        # Off the span it cannot join, and the basis gives up.
        assert exact._extend(span, 2, np.array([[0.0, 0.0, 0.5 * ZERO_ROW]])) is None
        assert np.isnan(span[2]).all()


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
        eager = real(res.bands)
        assert np.array_equal(first.G, eager.G) and np.array_equal(first.h, eager.h)
        assert first.nrows < res.rows.nrows

    def test_prune_keeps_a_lone_row_without_an_lp(self, monkeypatch):
        calls = count_lps(monkeypatch)
        bands = geometry.Bands(np.array([[1.0, 2.0]]), np.array([np.inf]), np.array([3.0]), (1,))
        pruned = exact._prune(bands)
        assert calls == []
        assert pruned.G.tolist() == [[1.0, 2.0]] and pruned.h.tolist() == [3.0]


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


def several_output_cases():
    """30 fixed-seed systems of orders 2-5 with one or two inputs.

    Eight two-output systems on asymmetric boxes, the same eight on
    symmetric boxes, eight three-output and six single-output systems on
    asymmetric boxes.
    """
    rng = np.random.default_rng(2027)
    two = list(two_output_systems(rng))
    cases = two + [(sys, OutputBox(box.y_lower, box.y_lower)) for sys, box in two]
    for q, count in ((3, 8), (1, 6)):
        for _ in range(count):
            n = int(rng.integers(2, 6))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, int(rng.integers(1, 3)))),
                C=rng.standard_normal((q, n)),
            )
            cases.append((sys, OutputBox(rng.uniform(0.3, 2.0, size=q), rng.uniform(0.3, 2.0, size=q))))
    return cases


def test_several_output_results_bitwise_golden():
    """t* and the accepted rows of `several_output_cases`, unforced and forced at epsilon = 0.01, are the recorded ones.

    The digest was recorded before a row found redundant was retired for
    the rest of its call; a change meant to move the exact index records
    it again.
    """
    digest = hashlib.sha256()
    for sys, box in several_output_cases():
        for res in (exact_t_star_unforced(sys, box), exact_t_star_forced(sys, box, 0.01)):
            digest.update(np.int64(res.t_star).tobytes())
            for part in (res.rows.G, res.rows.h):
                digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == "64e0c85cbd2432214d83d3f7e1eab469624d0ef4aba652349068871f9bd55319"


# Construction LPs (`WarmLp.maximize`) of each panel's exact calls; with
# no witness point they were 601, 390 and 625.
PANEL_LPS = {"study": 433, "bounds": 203, "mimo": 426}


@pytest.mark.parametrize("workload", sorted(PANEL_LPS))
def test_bench_panel_lp_counts(monkeypatch, bench_workloads, workload):
    """The exact calls of a benchmark panel solve the recorded number of LPs, a gate on their cost that reads no clock.

    Over the panel in pool-id order: the unforced call, then the forced
    call at epsilon = 0.01, without pruning.  The benchmark's own tracing
    counts only one-off LPs, not those of `WarmLp`.
    """
    calls = count_lps(monkeypatch)
    for _, (sys, box) in sorted(bench_workloads.panel(workload).items()):
        exact_t_star_unforced(sys, box)
        exact_t_star_forced(sys, box, 0.01)
    assert len(calls) == PANEL_LPS[workload]


# (rows `_witnessed` proves to cut, `pairs_maximum` calls) of each
# panel's exact calls: the LP count cannot see a decision that moves
# between the closed form and a witness, nor can the digests below.
PANEL_LP_FREE = {"study": (168, 260), "bounds": (187, 97), "mimo": (199, 144)}


@pytest.mark.parametrize("workload", sorted(PANEL_LP_FREE))
def test_bench_panel_lp_free_decision_counts(monkeypatch, bench_workloads, workload):
    """The exact calls of a benchmark panel, as in `test_bench_panel_lp_counts`, make the recorded witnessed cuts and closed-form calls."""
    witnessed = count_witnessed(monkeypatch)
    closed = count_closed_form(monkeypatch)
    for _, (sys, box) in sorted(bench_workloads.panel(workload).items()):
        exact_t_star_unforced(sys, box)
        exact_t_star_forced(sys, box, 0.01)
    assert (len(witnessed), len(closed)) == PANEL_LP_FREE[workload]


PANEL_DIGESTS = {
    "study": "2ddb3a6ff17b8c9556a074128939f077e880c3eb8b4d3298274b49a45dbcc17f",
    "bounds": "b23788314b3748a099c42a28746af395c3c8476b6a204a97e129517e609109af",
    "mimo": "d704e9533254260616e0164c6d7f74a4cc5a758731fa49837036741835224e3d",
}


@pytest.mark.parametrize("workload", sorted(PANEL_DIGESTS))
def test_bench_panel_results_bitwise_golden(bench_workloads, workload):
    """t*, the accepted rows and the pruned polytope of every exact call on a benchmark panel are the recorded ones.

    Over the panel in pool-id order: the unforced call, then the forced
    call at epsilon = 0.01; per call `str(t_star)`, then the bytes of
    `rows.G`, `rows.h`, `polytope.G` and `polytope.h`.  A change meant to
    move the exact index records the digests again.
    """
    digest = hashlib.sha256()
    for _, (sys, box) in sorted(bench_workloads.panel(workload).items()):
        for res in (exact_t_star_unforced(sys, box), exact_t_star_forced(sys, box, 0.01)):
            digest.update(str(res.t_star).encode())
            for part in (res.rows.G, res.rows.h, res.polytope.G, res.polytope.h):
                digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == PANEL_DIGESTS[workload]
