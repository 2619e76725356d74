import json
import pickle

import numpy as np
import pytest

from masbound import (
    LtiSystem,
    OutputBox,
    bound_m1_forced,
    bound_m1_unforced,
    bound_m2_forced,
    bound_m2_unforced,
    exact,
    exact_t_star_forced,
    exact_t_star_unforced,
    lyapunov,
    model,
    powerseries,
)
from masbound.lyapunov import build_O_prefix
from masbound.model import (
    check_problem,
    gamma,
    observability_matrix,
    stable_dc_gain,
    system_from_dict,
    validate,
)
from conftest import make_siso, random_stable_matrix, unit_box


class TestTypes:
    def test_shapes_inferred(self):
        sys = LtiSystem(A=[[0.5, 0.0], [0.0, 0.2]], C=[[1.0, 0.0]])
        assert (sys.n, sys.q, sys.m_in) == (2, 1, 0)
        assert not sys.has_input

    def test_d_defaults_to_zero(self):
        sys = LtiSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        assert sys.D is not None and sys.D[0, 0] == 0.0

    def test_d_without_b_rejected(self):
        with pytest.raises(ValueError, match="D given without B"):
            LtiSystem(A=[[0.5]], C=[[1.0]], D=[[1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LtiSystem(A=[[0.5, 0.0], [0.0, 0.5]], C=[[1.0]])

    def test_matrices_are_read_only_copies(self):
        A = np.array([[0.5, 0.1], [0.0, 0.2]])
        B = np.array([[1.0], [0.0]])
        sys = LtiSystem(A=A, B=B, C=np.array([[1.0, 0.0]]))
        for M in (sys.A, sys.B, sys.C, sys.D):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 2.0
        assert A.flags.writeable and B.flags.writeable
        A[0, 0] = 0.9
        assert sys.A[0, 0] == 0.5 and sys.rho == 0.5

    def test_rho_survives_a_pickle_round_trip(self, monkeypatch):
        sys = LtiSystem(A=[[0.5, 1.0], [0.0, -0.8]], C=[[1.0, 0.0]])
        assert sys.rho == 0.8
        copy = pickle.loads(pickle.dumps(sys))
        # The copy reads the pickled value; it never decomposes A again.
        monkeypatch.setattr(model, "spectral_radius", lambda M: pytest.fail("A decomposed again"))
        assert copy.rho == 0.8
        assert check_problem(copy, unit_box()) == 0.8
        with pytest.raises(ValueError, match="read-only"):
            copy.A[0, 0] = 0.0

    def test_box_requires_positive_limits(self):
        with pytest.raises(ValueError, match="positive"):
            OutputBox([0.0], [1.0])
        with pytest.raises(ValueError, match="positive"):
            OutputBox([1.0], [-1.0])

    def test_box_requires_an_output(self):
        with pytest.raises(ValueError, match="at least one output"):
            OutputBox([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_box_limits_checked_for_finiteness_first(self, bad):
        # A NaN compares false with 0, so a positivity test first would call it non-positive.
        with pytest.raises(ValueError, match="finite"):
            OutputBox([1.0, bad], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            OutputBox([1.0], [bad])


class TestPerSystem:
    def test_value_is_stored_once_and_read_only(self):
        calls = []

        @model.per_system
        def quantity(sys):
            calls.append(sys)
            return sys.A @ sys.A, (np.ones(2),), None

        sys = make_siso(0.5)
        first = quantity(sys)
        assert quantity(sys) is first and calls == [sys]
        for array in (first[0], first[1][0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
        copy = pickle.loads(pickle.dumps(sys))
        again = quantity(copy)
        assert calls == [sys]  # read back from the pickled state
        assert np.array_equal(again[0], first[0]) and not again[0].flags.writeable
        assert not again[1][0].flags.writeable
        assert quantity(make_siso(0.5)) is not first and len(calls) == 2

    def test_exception_is_not_stored(self):
        calls = []

        @model.per_system
        def quantity(sys):
            calls.append(sys)
            if len(calls) < 3:
                raise ArithmeticError("not yet")
            return 1.0

        sys = make_siso(0.5)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="not yet"):
                quantity(sys)
        assert quantity(sys) == 1.0 and quantity(sys) == 1.0 and len(calls) == 3


class TestValidate:
    def test_scalar_ok(self):
        rep = validate(make_siso(0.5), unit_box())
        assert rep.spectral_radius == pytest.approx(0.5)
        assert rep.min_obsv_singular_value == pytest.approx(1.0)
        assert rep.stable and rep.observable and rep.ok

    def test_unobservable_mode(self):
        sys = LtiSystem(A=np.diag([0.5, 0.5]), C=[[1.0, 0.0]])
        rep = validate(sys, unit_box())
        assert not rep.observable
        assert rep.min_obsv_singular_value < 1e-4

    def test_marginally_stable_rejected(self):
        rep = validate(make_siso(1.0), unit_box())
        assert not rep.stable

    def test_threshold_is_strict(self):
        assert not validate(make_siso(0.999), unit_box()).stable
        assert validate(make_siso(0.9989), unit_box()).stable

    def test_obsv_matrix_stacking(self):
        sys = LtiSystem(A=[[0.0, 1.0], [-0.25, 1.0]], C=[[1.0, 0.0]])
        O = observability_matrix(sys)
        assert np.allclose(O, [[1.0, 0.0], [0.0, 1.0]])


class TestCheckProblem:
    def test_returns_spectral_radius(self):
        assert check_problem(make_siso(-0.5), unit_box()) == 0.5
        assert check_problem(make_siso(-0.5, b=1.0), unit_box(), 1.0) == 0.5

    def test_wrong_output_count(self):
        with pytest.raises(ValueError, match="box has 2 outputs but system has 1"):
            check_problem(make_siso(0.5, b=1.0), unit_box(2))

    def test_unstable(self):
        for a in (1.0, -1.5):
            with pytest.raises(ValueError, match="requires spectral radius < 1"):
                check_problem(make_siso(a, b=1.0), unit_box(), 0.1)

    def test_input_channel_only_with_epsilon(self):
        check_problem(make_siso(0.5), unit_box())
        with pytest.raises(ValueError, match="input channel"):
            check_problem(make_siso(0.5), unit_box(), 0.1)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5, float("nan")])
    def test_epsilon_range(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\]"):
            check_problem(make_siso(0.5, b=1.0), unit_box(), epsilon)

    def test_wrong_output_count_refused_before_any_solve(self, monkeypatch):
        def solve(*args, **kwargs):
            pytest.fail("a solve ran before the output count was checked")

        monkeypatch.setattr(lyapunov, "kron_lyapunov", solve)
        monkeypatch.setattr(exact, "WarmLp", solve)
        monkeypatch.setattr(powerseries, "char_poly_coeffs", solve)
        # A fresh system: a patched solve is not reached through a stored value.
        sys, box = make_siso(0.5, b=1.0), unit_box(2)
        for call in (
            lambda: exact_t_star_unforced(sys, box),
            lambda: exact_t_star_forced(sys, box, 0.1),
            lambda: bound_m1_unforced(sys, box),
            lambda: bound_m1_forced(sys, box, 0.1),
            lambda: bound_m2_unforced(sys, box),
            lambda: bound_m2_forced(sys, box, 0.1),
            lambda: build_O_prefix(sys, box, 1),
            lambda: build_O_prefix(sys, box, 1, 0.1),
        ):
            with pytest.raises(ValueError, match="box has 2 outputs but system has 1"):
                call()


class TestGamma:
    def test_symmetric(self):
        assert gamma(OutputBox([1.0], [1.0])) == 1.0

    def test_max_over_outputs(self):
        assert gamma(OutputBox([2.0, 1.0], [4.0, 1.0])) == 2.0

    def test_strong_asymmetry(self):
        assert gamma(OutputBox([0.1], [1.0])) == pytest.approx(10.0)

    def test_at_least_one_and_scaling_invariant(self, rng):
        for _ in range(50):
            q = int(rng.integers(1, 4))
            lo = rng.uniform(0.1, 5.0, size=q)
            hi = rng.uniform(0.1, 5.0, size=q)
            g = gamma(OutputBox(lo, hi))
            assert g >= 1.0
            k = float(rng.uniform(0.01, 100.0))
            assert gamma(OutputBox(k * lo, k * hi)) == pytest.approx(g)

    def test_unity_iff_symmetric(self):
        assert gamma(OutputBox([2.0, 3.0], [2.0, 3.0])) == 1.0
        assert gamma(OutputBox([2.0, 3.0], [2.0, 3.0 + 1e-6])) > 1.0


class TestDcGain:
    def test_first_order(self):
        assert stable_dc_gain(make_siso(0.5, b=1.0))[0, 0] == pytest.approx(2.0)

    def test_feedthrough(self):
        assert stable_dc_gain(make_siso(0.0, b=1.0, d=3.0))[0, 0] == pytest.approx(4.0)

    def test_two_state(self):
        sys = LtiSystem(A=np.diag([0.5, 0.0]), B=[[1.0], [1.0]], C=[[1.0, 1.0]])
        assert stable_dc_gain(sys)[0, 0] == pytest.approx(3.0)

    def test_requires_input(self):
        with pytest.raises(ValueError, match="input"):
            stable_dc_gain(make_siso(0.5))

    def test_shared_and_read_only(self):
        sys = make_siso(0.5, b=1.0)
        H0 = stable_dc_gain(sys)
        assert stable_dc_gain(sys) is H0
        with pytest.raises(ValueError, match="read-only"):
            H0[0, 0] = 0.0

    def test_fixed_point_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = random_stable_matrix(rng, n)
            sys = LtiSystem(A=A, B=rng.standard_normal((n, 2)), C=rng.standard_normal((2, n)),
                            D=rng.standard_normal((2, 2)))
            u = rng.standard_normal(2)
            x_eq = np.linalg.solve(np.eye(n) - A, sys.B @ u)
            assert np.allclose(sys.A @ x_eq + sys.B @ u, x_eq, atol=1e-10)
            assert np.allclose(sys.C @ x_eq + sys.D @ u, stable_dc_gain(sys) @ u, atol=1e-10)


class TestJsonSchema:
    def good(self):
        return {
            "A": [[0.5, 0.1], [0.0, 0.2]],
            "B": [[1.0], [0.0]],
            "C": [[1.0, 0.0]],
            "y_lower": [1.0],
            "y_upper": [2.0],
            "epsilon": 0.05,
        }

    def test_roundtrip(self):
        sys, box, eps = system_from_dict(self.good())
        assert sys.n == 2 and sys.q == 1 and sys.m_in == 1
        assert box.y_upper[0] == 2.0
        assert eps == 0.05

    def test_missing_a_names_key(self):
        obj = self.good()
        del obj["A"]
        with pytest.raises(ValueError, match="'A'"):
            system_from_dict(obj)

    def test_ragged_rows_named(self):
        obj = self.good()
        obj["A"] = [[0.5, 0.1], [0.0]]
        with pytest.raises(ValueError, match="'A'"):
            system_from_dict(obj)

    def test_non_numeric_entry_named(self):
        obj = self.good()
        obj["y_lower"] = ["one"]
        with pytest.raises(ValueError, match="'y_lower'"):
            system_from_dict(obj)

    @pytest.mark.parametrize("bad", ["0.5", True], ids=["string", "boolean"])
    @pytest.mark.parametrize("key", ["A", "B", "C", "D", "y_lower", "y_upper", "epsilon"])
    def test_non_number_refused(self, key, bad):
        obj = self.good()
        obj["D"] = [[0.0]]
        if key == "epsilon":
            obj[key] = bad
        elif key.startswith("y_"):
            obj[key][0] = bad
        else:
            obj[key][0][0] = bad
        with pytest.raises(ValueError, match=f"key '{key}': .*must be (a number|numbers)"):
            system_from_dict(obj)

    @pytest.mark.parametrize("key", ["A", "B", "C", "D", "y_lower", "y_upper", "epsilon"])
    def test_integer_too_large_for_a_float_refused(self, key):
        obj = self.good()
        obj["D"] = [[0.0]]
        huge = 10**400
        if key == "epsilon":
            obj[key] = huge
        elif key.startswith("y_"):
            obj[key][0] = huge
        else:
            obj[key][0][0] = huge
        with pytest.raises(ValueError, match=f"key '{key}': .*must be finite"):
            system_from_dict(obj)

    def test_box_length_checked(self):
        obj = self.good()
        obj["y_lower"] = [1.0, 1.0]
        with pytest.raises(ValueError):
            system_from_dict(obj)

    def test_optional_keys_absent(self):
        obj = self.good()
        del obj["B"], obj["epsilon"]
        sys, box, eps = system_from_dict(obj)
        assert not sys.has_input and eps is None

    def test_file_loading(self, tmp_path):
        from masbound import load_system

        path = tmp_path / "sys.json"
        path.write_text(json.dumps(self.good()))
        sys, box, eps = load_system(path)
        assert sys.n == 2
