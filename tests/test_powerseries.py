import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from masbound import (
    IterationCapError,
    LtiSystem,
    OutputBox,
    bound_m1_forced,
    bound_m1_unforced,
    exact_t_star_unforced,
    powerseries,
)
from masbound.linalg import char_poly_coeffs
from masbound.powerseries import BetaState, beta_init, beta_step, condition_forced, condition_unforced
from conftest import m1_cases, make_siso, random_stable_matrix, reference_m1, unit_box


class TestBetaRecursion:
    def test_init_scalar(self):
        s = beta_init([-0.5])
        assert s.t == 1 and s.beta == pytest.approx([0.5])

    def test_init_second_order(self):
        s = beta_init([0.25, -1.0])
        assert s.t == 2 and s.beta == pytest.approx([-0.25, 1.0])

    def test_init_demo_coeffs(self):
        s = beta_init([0.85505, -0.8915, -0.82])
        assert s.beta == pytest.approx([-0.85505, 0.8915, 0.82])

    def test_init_rejects_empty(self):
        with pytest.raises(ValueError):
            beta_init([])

    def test_step_second_order(self):
        c = np.array([0.25, -1.0])
        s = beta_step(beta_init(c), c)
        assert s.t == 3
        assert s.beta == pytest.approx([-0.25, 0.75])
        # Direct oracle: A^3 = -0.25 I + 0.75 A for any A with this polynomial.
        A = np.array([[0.0, 1.0], [-0.25, 1.0]])
        assert np.allclose(
            np.linalg.matrix_power(A, 3), -0.25 * np.eye(2) + 0.75 * A
        )

    def test_step_scalar_powers(self):
        c = np.array([-0.5])
        s = beta_step(beta_init(c), c)
        assert s.t == 2 and s.beta == pytest.approx([0.25])

    def test_zero_is_fixed_point(self, rng):
        from masbound.powerseries import BetaState

        c = rng.standard_normal(4)
        s = beta_step(BetaState(t=4, beta=np.zeros(4)), c)
        assert np.all(s.beta == 0.0)

    def test_step_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            beta_step(beta_init([0.5, 0.5]), [0.5])

    def test_expansion_reproduces_matrix_powers(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            A = random_stable_matrix(rng, n, rho_max=0.9)
            c = char_poly_coeffs(A)
            state = beta_init(c)
            powers = [np.linalg.matrix_power(A, i) for i in range(n)]
            for _ in range(12):
                target = np.linalg.matrix_power(A, state.t)
                recon = sum(b * Ai for b, Ai in zip(state.beta, powers))
                norm = np.linalg.norm(target, "fro")
                assert np.linalg.norm(target - recon, "fro") <= 1e-8 * max(norm, 1e-30)
                state = beta_step(state, c)

    def test_beta_decays_for_stable_matrices(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            A = random_stable_matrix(rng, n, rho_max=0.95)
            c = char_poly_coeffs(A)
            state = beta_init(c)
            initial = np.linalg.norm(state.beta)
            for _ in range(500):
                state = beta_step(state, c)
            assert np.linalg.norm(state.beta) < max(initial, 1e-12)
            assert np.linalg.norm(state.beta) < 1e-3


class TestStopConditions:
    def test_unforced_examples(self):
        assert condition_unforced([0.5], 1.0) is True
        assert condition_unforced([-0.25, 1.0], 1.0) is False  # 1.25 > 1
        assert condition_unforced([-0.9], 10.0) is False  # 9 > 1

    def test_unforced_boundary_non_strict(self):
        assert condition_unforced([1.0], 1.0) is True
        assert condition_unforced([-0.25, 0.75], 1.0) is True  # exactly 1

    def test_forced_examples(self):
        assert condition_forced([0.2], 1.0, 0.5) is True  # 0.3 <= 0.5
        assert condition_forced([0.0625], 1.0, 0.1) is False  # 0.11875 > 0.1

    def test_forced_epsilon_one_matches_unforced(self, rng):
        for _ in range(200):
            beta = rng.standard_normal(int(rng.integers(1, 6)))
            g = float(rng.uniform(1.0, 10.0))
            assert condition_forced(beta, g, 1.0) == condition_unforced(beta, g)

    def test_forced_epsilon_validation(self):
        with pytest.raises(ValueError):
            condition_forced([0.1], 1.0, 0.0)
        with pytest.raises(ValueError):
            condition_forced([0.1], 1.0, 1.5)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            condition_unforced([0.1], 0.5)


class TestBoundUnforced:
    def test_scalar_contraction(self):
        rep = bound_m1_unforced(make_siso(0.5), unit_box())
        assert rep.m == 0
        assert rep.method == "power-series" and rep.regime == "unforced"

    def test_double_pole(self):
        sys = LtiSystem(A=[[0.0, 1.0], [-0.25, 1.0]], C=[[1.0, 0.0]])
        rep = bound_m1_unforced(sys, unit_box())
        assert rep.m == 2
        assert rep.diagnostics["stop_t"] == 3

    def test_negative_scalar_asymmetric(self):
        rep = bound_m1_unforced(make_siso(-0.9), OutputBox([0.1], [1.0]))
        assert rep.m == 1

    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="spectral radius"):
            bound_m1_unforced(make_siso(1.01), unit_box())

    def test_cap_raises(self):
        rho, th = 0.9999, 1.0
        A = rho * np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        sys = LtiSystem(A=A, C=[[1.0, 0.0]])
        with pytest.raises(IterationCapError) as info:
            bound_m1_unforced(sys, unit_box(), step_cap=10)
        last = info.value.last_state
        assert isinstance(last, BetaState) and last.t == sys.n + 10
        c = char_poly_coeffs(A)
        state = beta_init(c)
        for _ in range(10):
            state = beta_step(state, c)
        assert np.array_equal(last.beta, state.beta)

    def test_radial_scaling_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            sys = LtiSystem(A=random_stable_matrix(rng, n), C=rng.standard_normal((1, n)))
            lo = rng.uniform(0.2, 2.0, size=1)
            hi = rng.uniform(0.2, 2.0, size=1)
            m_ref = bound_m1_unforced(sys, OutputBox(lo, hi)).m
            for k in (0.1, 10.0):
                assert bound_m1_unforced(sys, OutputBox(k * lo, k * hi)).m == m_ref


class TestBoundForced:
    def test_scalar_small_epsilon(self):
        rep = bound_m1_forced(make_siso(0.5, b=1.0), unit_box(), 0.1)
        assert rep.m == 4

    def test_scalar_inside_interval(self):
        rep = bound_m1_forced(make_siso(0.2, b=1.0), unit_box(), 0.5)
        assert rep.m == 0

    def test_epsilon_one_degenerates_to_unforced(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            lo = rng.uniform(0.2, 2.0, size=1)
            hi = rng.uniform(0.2, 2.0, size=1)
            box = OutputBox(lo, hi)
            assert bound_m1_forced(sys, box, 1.0).m == bound_m1_unforced(sys, box).m

    def test_monotone_in_epsilon(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            sys = LtiSystem(
                A=random_stable_matrix(rng, n),
                B=rng.standard_normal((n, 1)),
                C=rng.standard_normal((1, n)),
            )
            box = unit_box()
            eps = sorted(rng.uniform(0.01, 1.0, size=3))
            ms = [bound_m1_forced(sys, box, e).m for e in eps]
            assert ms[0] >= ms[1] >= ms[2]

    def test_requires_input_channel(self):
        with pytest.raises(ValueError, match="input"):
            bound_m1_forced(make_siso(0.5), unit_box(), 0.1)

    def test_epsilon_range(self):
        sys = make_siso(0.5, b=1.0)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                bound_m1_forced(sys, unit_box(), bad)


class TestSoundnessAgainstExact:
    def test_bound_dominates_exact_small_systems(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            sys = LtiSystem(A=random_stable_matrix(rng, n, rho_max=0.9),
                            C=rng.standard_normal((1, n)))
            box = OutputBox(rng.uniform(0.3, 2.0, size=1), rng.uniform(0.3, 2.0, size=1))
            assert bound_m1_unforced(sys, box).m >= exact_t_star_unforced(sys, box).t_star

    def test_theorem_shortcut_scalar(self, rng):
        # A > -1/gamma (stable) makes the very first check succeed.
        for _ in range(50):
            lo = rng.uniform(0.1, 2.0)
            hi = rng.uniform(0.1, 2.0)
            box = OutputBox([lo], [hi])
            g = max(hi / lo, lo / hi)
            a = rng.uniform(-1.0 / g + 1e-6, 0.999)
            assert bound_m1_unforced(make_siso(a), box).m == 0


def run_m1(sys, box, epsilon):
    rep = bound_m1_unforced(sys, box) if epsilon is None else bound_m1_forced(sys, box, epsilon)
    return rep.m, rep.iterations, rep.diagnostics


def slow_rotation(rho=0.995, theta=0.3):
    A = rho * np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    return LtiSystem(A=A, B=[[1.0], [0.0]], C=[[1.0, 0.0]])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(m1_cases())
@example((slow_rotation(), unit_box(), None))
@example((slow_rotation(), unit_box(), 0.01))  # about 1000 steps
@example((slow_rotation(theta=1.0), OutputBox([0.5], [2.0]), 0.3))
def test_float_recursion_matches_numpy_reference(case):
    assert run_m1(*case) == reference_m1(*case)


class TestNearTies:
    # A scalar system has beta(1) = [a], and the box [-0.5, 1] gives g = 2,
    # so the left side at t = 1 is 2|a| for the unforced rule (a < 0) and,
    # at epsilon = 0.5, 2a against the threshold 0.5 for the forced rule.
    # Both regimes decide near-ties with the forced rule (at epsilon = 1
    # for the unforced one).
    BOX = OutputBox([0.5], [1.0])
    RULES = {None: ("condition_forced", -0.5), 0.5: ("condition_forced", 0.25)}

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(powerseries, name)

        def wrapped(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(powerseries, name, wrapped)
        return calls

    @staticmethod
    def warm(sys):
        """Step the system's stored recursion past t = 3, where the rules under test have stopped."""
        bound_m1_forced(sys, unit_box(), 0.01)
        assert sys.__dict__[powerseries._RECORD][0].shape[1] > 3

    @pytest.mark.parametrize("warmed", [False, True])
    @pytest.mark.parametrize("epsilon", [None, 0.5])
    @pytest.mark.parametrize("ulps, stops_at_once", [(-1, True), (0, True), (1, False)])
    def test_threshold_and_neighbours_go_to_exact_rule(self, monkeypatch, epsilon, ulps, stops_at_once, warmed):
        # On a warmed system the tie lies among the stored sums; beta(1) is re-stepped for the rule.
        name, a = self.RULES[epsilon]
        if ulps:
            a = float(np.nextafter(a, a * 2.0 if ulps > 0 else 0.0))
        sys = make_siso(a, b=1.0)
        if warmed:
            self.warm(sys)
        calls = self.spy(monkeypatch, name)
        result = run_m1(sys, self.BOX, epsilon)
        assert calls and calls[0] is stops_at_once
        assert result[0] == (0 if stops_at_once else 1)
        assert result == reference_m1(sys, self.BOX, epsilon)

    @pytest.mark.parametrize("warmed", [False, True])
    @pytest.mark.parametrize("epsilon", [None, 0.5])
    def test_clear_decisions_skip_exact_rule(self, monkeypatch, epsilon, warmed):
        name, _ = self.RULES[epsilon]
        sys = LtiSystem(A=[[0.0, 1.0], [-0.25, 1.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
        if warmed:
            self.warm(sys)
        # The reference runs before the spy: its unforced rule calls the forced one.
        expected = reference_m1(sys, self.BOX, epsilon)
        calls = self.spy(monkeypatch, name)
        assert run_m1(sys, self.BOX, epsilon) == expected
        assert calls == []


def spy_store(monkeypatch):
    """The (record, sums) of every `powerseries._store` call."""
    stores = []
    real = powerseries._store

    def wrapped(sys, record, sums, beta):
        stores.append((record, sums))
        return real(sys, record, sums, beta)

    monkeypatch.setattr(powerseries, "_store", wrapped)
    return stores


class TestRecordReuse:
    def test_warm_calls_stopping_by_the_last_step_store_nothing(self, monkeypatch):
        # The forced call at epsilon = 0.01 steps furthest (about 1000 steps);
        # it and every call that stops before it read the stored sums alone.
        sys = slow_rotation()
        cases = [(unit_box(), 0.01), (unit_box(), None), (OutputBox([0.5], [2.0]), 0.3), (unit_box(), 0.5)]
        expected = [reference_m1(sys, box, epsilon) for box, epsilon in cases]
        run_m1(sys, *cases[0])
        stores = spy_store(monkeypatch)
        assert [run_m1(sys, box, epsilon) for box, epsilon in cases] == expected
        assert stores == []

    def test_call_past_the_record_evaluates_only_new_steps(self, monkeypatch):
        sys = slow_rotation()
        run_m1(sys, unit_box(), None)
        last = sys.__dict__[powerseries._RECORD][0].shape[1] - 1
        stores = spy_store(monkeypatch)
        expected = reference_m1(sys, unit_box(), 0.01)
        assert run_m1(sys, unit_box(), 0.01) == expected
        [(record, sums)] = stores
        assert record[0].shape[1] == last + 1
        # The loop evaluates steps n + last + 1 .. m + 1, the stop.
        assert len(sums[0]) == expected[0] + 1 - sys.n - last

    @pytest.mark.parametrize("epsilon", [None, 0.5])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_tie_at_the_last_step_reads_the_stored_beta(self, monkeypatch, epsilon, ulps):
        # A first call stores the recursion up to its stop; a second decides
        # the same near-tie, at or before the record's last step, without a store.
        name, a = TestNearTies.RULES[epsilon]
        if ulps:
            a = float(np.nextafter(a, a * 2.0 if ulps > 0 else 0.0))
        sys = make_siso(a, b=1.0)
        expected = reference_m1(sys, TestNearTies.BOX, epsilon)
        assert run_m1(sys, TestNearTies.BOX, epsilon) == expected
        stores = spy_store(monkeypatch)
        calls = TestNearTies.spy(monkeypatch, name)
        assert run_m1(sys, TestNearTies.BOX, epsilon) == expected
        assert calls and stores == []
