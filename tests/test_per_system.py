"""What depends on the system alone is computed once per system and shared.

`model.per_system` stores on the `LtiSystem` the Lyapunov pair
(P, lambda_max(P)) and the r1 denominators of `m2`, the characteristic
polynomial of `m1`, the DC gain and its range basis.  These tests count
the solves behind them over a study row and a sweep, check that every
result is bitwise the same whatever the call order and whether the
system object is reused, a fresh copy or a pickled one, and check that
a failed solve is not stored.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

from masbound import (
    LtiSystem,
    NumericalError,
    bound_m1_forced,
    bound_m1_unforced,
    bound_m2_forced,
    bound_m2_unforced,
    lyapunov,
    powerseries,
)
from masbound.config import STABILITY_THRESHOLD
from masbound.errors import MasboundError
from masbound.lyapunov import SIGMA_MODES
from masbound.montecarlo import (
    StudyConfig,
    asymmetry_sweep,
    compute_study_row,
    demo_system,
    random_stable_system,
    system_seed,
)
from conftest import exact_cases, run_exact, unit_box


def count_solves(monkeypatch, sys):
    """Calls to the Lyapunov solve, the eigen-solve of P, the characteristic polynomial and `sys`'s DC-gain solve."""
    counts = dict.fromkeys(("kron_lyapunov", "sym_eig_extremes", "char_poly_coeffs", "dc_gain"), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in ((lyapunov, "kron_lyapunov"), (lyapunov, "sym_eig_extremes"), (powerseries, "char_poly_coeffs")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    solve = np.linalg.solve

    def dc_solve(a, b):
        # The DC gain solves (I - A) X = B with the system's own B.
        if b is sys.B:
            counts["dc_gain"] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", dc_solve)
    return counts


class TestOneSolvePerSystem:
    @pytest.mark.parametrize("system_id", range(4))
    def test_study_row(self, monkeypatch, system_id):
        config = StudyConfig(seed=2026)
        pair = random_stable_system(system_seed(config.seed, system_id), config)
        counts = count_solves(monkeypatch, pair[0])
        row = compute_study_row(system_id, config, system=pair)
        assert row.status == "ok"
        assert counts == {"kron_lyapunov": 1, "sym_eig_extremes": 1, "char_poly_coeffs": 1, "dc_gain": 1}

    def test_asymmetry_sweep(self, monkeypatch):
        # The sweep is unforced, so it needs no DC gain.
        sys = demo_system()
        counts = count_solves(monkeypatch, sys)
        rows = asymmetry_sweep(sys, 1.0, [0.1 * i for i in range(1, 21)])
        assert len(rows) == 20
        assert counts == {"kron_lyapunov": 1, "sym_eig_extremes": 1, "char_poly_coeffs": 1, "dc_gain": 0}

    def test_failed_lyapunov_solve_is_not_stored(self, monkeypatch):
        # An order-10 study draw whose Lyapunov residual, about 2.4e-6, is above the gate.
        config = StudyConfig(seed=7, order_min=10, order_max=10)
        sys, box = random_stable_system(system_seed(config.seed, 18), config)
        counts = count_solves(monkeypatch, sys)
        for call in (
            lambda: bound_m2_unforced(sys, box),
            lambda: bound_m2_forced(sys, box, 0.01),
            lambda: bound_m2_unforced(sys, box),
        ):
            with pytest.raises(NumericalError, match="Lyapunov residual"):
                call()
        assert counts["kron_lyapunov"] == 3

    def test_ill_conditioned_solve_warns_once_per_system(self):
        # 1 - a^2 = eps for a = 1 - 2^-53, so the Kronecker system's rcond is below eps.
        def system():
            return LtiSystem(A=np.diag([1.0 - 2.0**-53, -0.9]), B=[[1.0], [1.0]], C=[[1.0, 1.0]])

        sys = system()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bound_m2_unforced(sys, unit_box())
            bound_m2_forced(sys, unit_box(), 0.1)
            bound_m2_unforced(sys, unit_box(), sigma_mode="paper")
            assert [w.category for w in caught] == [LinAlgWarning]
            bound_m2_unforced(system(), unit_box())
        assert [w.category for w in caught] == [LinAlgWarning, LinAlgWarning]


@st.composite
def hard_cases(draw):
    """An `exact_cases` draw with A made strongly non-normal or given rho(A) near STABILITY_THRESHOLD."""
    sys, box, epsilon = draw(exact_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sys.n
    if draw(st.booleans()):
        # Triangular: eigenvalues in (-0.9, 0.9) under an upper part scaled by 10 to 1000.
        A = np.diag(rng.uniform(-0.9, 0.9, n)) + np.triu(rng.standard_normal((n, n)), 1) * 10 ** rng.uniform(1, 3)
    else:
        A = sys.A * (rng.uniform(0.99, STABILITY_THRESHOLD) / sys.rho)
    return LtiSystem(A=A, B=sys.B, C=sys.C), box, epsilon


def bound_calls(box, epsilon):
    """The m1 and m2 calls of a case, by name: both regimes (forced when epsilon is given), both sigma modes."""
    calls = {"m1": lambda s: bound_m1_unforced(s, box)}
    calls.update({f"m2 {mode}": lambda s, mode=mode: bound_m2_unforced(s, box, sigma_mode=mode) for mode in SIGMA_MODES})
    if epsilon is not None:
        calls["m1_forced"] = lambda s: bound_m1_forced(s, box, epsilon)
        calls.update(
            {
                f"m2_forced {mode}": lambda s, mode=mode: bound_m2_forced(s, box, epsilon, sigma_mode=mode)
                for mode in SIGMA_MODES
            }
        )
    return calls


def outcome(call, sys):
    """m and the bits of what it rests on, or the error a call raised."""
    try:
        rep = call(sys)
    except (MasboundError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    d = rep.diagnostics
    if rep.method == "power-series":
        return rep.m, rep.iterations
    assert not d["P"].flags.writeable
    return rep.m, *(float(d[key]).hex() for key in ("r1", "r2", "sigma")), d["P"].tobytes()


def fresh(sys):
    """A copy of the system that has stored nothing."""
    return LtiSystem(A=sys.A, B=sys.B, C=sys.C, D=sys.D)


def stored_arrays(sys):
    """The arrays the per-system memo holds on `sys`."""
    values = [v for k, v in vars(sys).items() if k not in ("A", "B", "C", "D", "rho")]
    assert values
    items = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
    return [x for x in items if isinstance(x, np.ndarray)]


# Strongly non-normal draws make ill-conditioned Kronecker systems on
# purpose; how often that warns is tested above.
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(exact_cases(), hard_cases()))
def test_results_bitwise_whatever_the_call_order(case):
    sys, box, epsilon = case
    calls = bound_calls(box, epsilon)
    alone = {name: outcome(call, fresh(sys)) for name, call in calls.items()}
    forward = {name: outcome(call, sys) for name, call in calls.items()}
    backward_sys = fresh(sys)
    backward = {name: outcome(calls[name], backward_sys) for name in reversed(calls)}
    assert forward == alone == backward
    arrays = stored_arrays(sys)
    assert arrays and not any(a.flags.writeable for a in arrays)
    clone = pickle.loads(pickle.dumps(sys))
    assert not any(a.flags.writeable for a in stored_arrays(clone))
    assert {name: outcome(call, clone) for name, call in calls.items()} == alone
    for suffix, eps in [("", None)] + ([("_forced", epsilon)] if epsilon is not None else []):
        try:
            t_star = run_exact(fresh(sys), box, eps).t_star
        except MasboundError:
            continue
        for name in ("m1" + suffix, f"m2{suffix} eq25"):
            m = alone[name][0]
            if isinstance(m, int):
                assert t_star <= m, name
