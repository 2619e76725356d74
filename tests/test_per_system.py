"""What depends on the system alone is computed once per system and shared.

`model.per_system` stores on the `LtiSystem` the Lyapunov pair
(P, lambda_max(P)) and the r1 denominators of `m2`, the characteristic
polynomial of `m1`, the DC gain and its range basis; beside them
`powerseries` keeps how far the `m1` recursion has been stepped.  These
tests count the solves and recursion steps behind them over a study row
and a sweep, check that every result and every `m1` error is bitwise
the same whatever the call order and history and whether the system
object is reused, a fresh copy or a pickled one, and check that a failed
solve is not stored.
"""

import itertools
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

from masbound import (
    IterationCapError,
    LtiSystem,
    NumericalError,
    OutputBox,
    bound_m1_forced,
    bound_m1_unforced,
    bound_m2_forced,
    bound_m2_unforced,
    lyapunov,
    powerseries,
)
from masbound.config import POWER_SERIES_STEP_CAP, STABILITY_THRESHOLD
from masbound.errors import MasboundError
from masbound.montecarlo import (
    StudyConfig,
    asymmetry_sweep,
    compute_study_row,
    demo_system,
    random_stable_system,
    system_seed,
)
from conftest import exact_cases, m1_cases, reference_m1, run_exact, unit_box


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


def count_evaluated(monkeypatch):
    """Per m1 call that stores its steps, how many steps of the recursion it evaluated beyond the stored ones.

    A call that goes on from a record starts at the step after its last.
    """
    evaluated = []
    store = powerseries._store

    def spy(sys, record, sums, beta):
        evaluated.append(len(sums[0]))
        return store(sys, record, sums, beta)

    monkeypatch.setattr(powerseries, "_store", spy)
    return evaluated


def record_length(sys):
    """The number of steps, n .. T, whose sums the system's m1 record holds."""
    return len(sys.__dict__[powerseries._RECORD][0])


class TestOneSolvePerSystem:
    @pytest.mark.parametrize("system_id", range(4))
    def test_study_row(self, monkeypatch, system_id):
        config = StudyConfig(seed=2026)
        pair = random_stable_system(system_seed(config.seed, system_id), config)
        counts = count_solves(monkeypatch, pair[0])
        evaluated = count_evaluated(monkeypatch)
        row = compute_study_row(system_id, config, system=pair)
        assert row.status == "ok"
        assert counts == {"kron_lyapunov": 1, "sym_eig_extremes": 1, "char_poly_coeffs": 1, "dc_gain": 1}
        # m = stop_t - 1: the recursion is stepped once, to the furthest stop.
        length = max(row.m1, row.m1_forced) + 2 - row.n
        assert record_length(pair[0]) == sum(evaluated) == length

    def test_asymmetry_sweep(self, monkeypatch):
        # The sweep is unforced, so it needs no DC gain.
        sys = demo_system()
        counts = count_solves(monkeypatch, sys)
        evaluated = count_evaluated(monkeypatch)
        rows = asymmetry_sweep(sys, 1.0, [0.1 * i for i in range(1, 21)])
        assert len(rows) == 20
        assert counts == {"kron_lyapunov": 1, "sym_eig_extremes": 1, "char_poly_coeffs": 1, "dc_gain": 0}
        length = max(r.m1 for r in rows) + 2 - sys.n
        assert record_length(sys) == sum(evaluated) == length

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
            bound_m2_unforced(sys, unit_box())
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
    """The m1 and m2 calls of a case, by name: both regimes (forced when epsilon is given)."""
    calls = {"m1": lambda s: bound_m1_unforced(s, box), "m2": lambda s: bound_m2_unforced(s, box)}
    if epsilon is not None:
        calls["m1_forced"] = lambda s: bound_m1_forced(s, box, epsilon)
        calls["m2_forced"] = lambda s: bound_m2_forced(s, box, epsilon)
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
    hexes = (float(d[key]).hex() for key in ("r1", "r2", "sigma", "sigma_paper"))
    return rep.m, d["m2_paper"], *hexes, d["P"].tobytes()


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
        for name in ("m1" + suffix, "m2" + suffix):
            m = alone[name][0]
            if isinstance(m, int):
                assert t_star <= m, name


def m1_outcome(sys, box, epsilon, step_cap=POWER_SERIES_STEP_CAP):
    """The m1 report's m, iterations and diagnostics, or the error's type and message and the bits of its last state."""
    try:
        if epsilon is None:
            rep = bound_m1_unforced(sys, box, step_cap)
        else:
            rep = bound_m1_forced(sys, box, epsilon, step_cap)
    except MasboundError as exc:
        last = getattr(exc, "last_state", None)
        return type(exc).__name__, str(exc), last and (last.t, last.beta.tobytes())
    return rep.m, rep.iterations, rep.diagnostics


def warm_m1(sys, box):
    """m1 calls on `sys` at other boxes and epsilons, with caps below and above where they stop."""
    boxes = [box, OutputBox(box.y_lower, 4.0 * box.y_upper), unit_box(sys.q)]
    epsilons = [None, 0.01, 0.3, 1.0] if sys.has_input else [None]
    for other, epsilon, cap in itertools.product(boxes, epsilons, (0, 2, 9, 40, POWER_SERIES_STEP_CAP)):
        m1_outcome(sys, other, epsilon, cap)


def diverging():
    """0.99 I_8 seen through its first state: beta(t) grows past the limit at t = 130."""
    return LtiSystem(A=0.99 * np.eye(8), B=np.eye(8)[:, :1], C=np.eye(8)[:1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(exact_cases(), hard_cases(), m1_cases()))
@example((diverging(), unit_box(), None))
@example((diverging(), OutputBox([0.5], [1.0]), 0.3))
def test_m1_does_not_depend_on_call_history(case):
    sys, box, epsilon = case
    warm_m1(sys, box)
    clone = pickle.loads(pickle.dumps(sys))
    epsilons = [None] if epsilon is None else [None, epsilon]
    for eps, cap in itertools.product(epsilons, (POWER_SERIES_STEP_CAP, 5, 121, 122)):
        expected = m1_outcome(fresh(sys), box, eps, cap)
        assert m1_outcome(sys, box, eps, cap) == expected
        assert m1_outcome(clone, box, eps, cap) == expected
        if isinstance(expected[0], int):
            assert expected == reference_m1(sys, box, eps)
    for s in (sys, clone):
        assert not any(a.flags.writeable for a in stored_arrays(s))


@pytest.mark.parametrize(
    "step_cap, outcome",
    [
        (121, (IterationCapError, "stop rule not met after 121 steps")),
        (122, (NumericalError, r"diverged \(\|\|beta\(130\)\|\|_inf")),
        (POWER_SERIES_STEP_CAP, (NumericalError, r"diverged \(\|\|beta\(130\)\|\|_inf")),
    ],
)
def test_cap_and_divergence_raise_where_the_recursion_is(step_cap, outcome):
    # The record holds the steps a cap error reached; a divergence is not stored.
    sys = diverging()
    expected = m1_outcome(sys, unit_box(), None, step_cap)
    error, message = outcome
    with pytest.raises(error, match=message):
        bound_m1_unforced(fresh(sys), unit_box(), step_cap)
    for cap in (60, 121, 122, POWER_SERIES_STEP_CAP, 10):
        m1_outcome(sys, unit_box(), 0.3, cap)
        assert m1_outcome(sys, unit_box(), None, step_cap) == expected
    assert record_length(sys) == 122
