"""Power-series upper bound on the admissibility index (Method 1).

Any matrix power A^t with t >= n expands as sum_i beta_i(t) A^i over the
first n powers; the coefficient vector beta(t) obeys a companion-form
recursion driven by the characteristic polynomial and decays to zero for
stable A.  Once the coefficients are small enough (in a weighted sense
that accounts for constraint asymmetry), every output constraint beyond
that step is implied by the earlier ones, which yields an upper bound on
the admissibility index without solving any LPs.

The unforced regime is the constant-input one with no input: its rule
`condition_unforced` is `condition_forced` at epsilon = 1, bitwise, so
both bounds run one core, `_bound_m1`.  It passes `model.check_problem`,
reads the characteristic polynomial of A, which depends on the system
alone and so is computed once per system (`model.per_system`) for both
regimes and every box, steps a list of plain floats with the operations
of `beta_step`, so every beta(t) is bitwise its value, and tests the
stop rule on plain sums.  A left side near the threshold goes to
`condition_forced` on the numpy array, so every stop decision is the
rule's.  `beta_init`, `beta_step` and the `condition_*` rules are the
definition the loop follows.

beta(t) does not depend on the box or epsilon either, so the recursion
is stepped once per system.  The system keeps, beside the `per_system`
values, a record of how far it has been stepped: the plain sums of the
positive and of the negative coefficients of beta(t) for t = n .. T, one
read-only float64 array, and beta(T); 16 bytes per step reached plus one
beta.  A call decides the steps up to T on the stored sums in one numpy
pass, whose left side, taken elementwise, is bitwise the loop's.  Only a
stop beyond them runs the loop, from beta(T + 1), and that call then
replaces the record whole by the longer one.  A near-tie among the
stored steps re-steps beta(t) from the polynomial (or reads beta(T)) for
`condition_forced`; a cap error stores the steps it reached; a
divergence, like a failed `per_system` computation, stores nothing and
is met again by the next call.  So every report and error is bitwise the
same whatever was asked of the system before.  `diagnostics["stop_slack"]`
is epsilon (1 unforced) less the left side at the stop step, from the
plain sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BETA_GROWTH_LIMIT, POWER_SERIES_STEP_CAP
from .errors import IterationCapError, NumericalError
from .linalg import char_poly_coeffs
from .model import LtiSystem, OutputBox, check_problem, gamma, per_system
from .results import BoundReport


@dataclass(frozen=True)
class BetaState:
    """Coefficients beta_0(t) ... beta_{n-1}(t) of the expansion of A^t."""

    t: int
    beta: np.ndarray


def beta_init(c) -> BetaState:
    """Initial coefficient vector beta(n) = -c for A^n."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size == 0:
        raise ValueError("empty coefficient vector")
    return BetaState(t=c.size, beta=-c.copy())


def beta_step(state: BetaState, c) -> BetaState:
    """Advance beta(t) -> beta(t+1) via the companion recursion.

    beta_0(t+1) = -c_0 beta_{n-1}(t);
    beta_i(t+1) = beta_{i-1}(t) - c_i beta_{n-1}(t) for i >= 1.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    b = state.beta
    if b.shape != c.shape:
        raise ValueError(f"state has {b.size} coefficients but c has {c.size}")
    last = b[-1]
    nxt = np.empty_like(b)
    nxt[0] = -c[0] * last
    if b.size > 1:
        nxt[1:] = b[:-1] - c[1:] * last
    return BetaState(t=state.t + 1, beta=nxt)


def _split_sums(beta: np.ndarray) -> tuple[float, float]:
    pos = float(beta[beta > 0.0].sum())
    neg = float(beta[beta < 0.0].sum())
    return pos, neg


def condition_unforced(beta, g: float) -> bool:
    """Stop rule: sum of positive coefficients minus g times the sum of
    negative ones must not exceed 1."""
    return condition_forced(beta, g, 1.0)


def condition_forced(beta, g: float, epsilon: float) -> bool:
    """Tightened stop rule for the constant-input case.

    (1 + g(1-eps)) * pos_sum - (g + (1-eps)) * neg_sum <= eps.
    At epsilon = 1 this reduces exactly to the unforced rule.
    """
    if g < 1.0:
        raise ValueError(f"asymmetry ratio must be >= 1, got {g}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    pos, neg = _split_sums(beta)
    lhs = (1.0 + g * (1.0 - epsilon)) * pos - (g + (1.0 - epsilon)) * neg
    return lhs <= epsilon


# A left side within this relative distance of the threshold is decided
# by `condition_forced` on the numpy array: numpy may sum in another
# order, and the plain sums of same-sign terms are within a few ulps of
# its sums.
_TIE_BAND = 1e-9


@per_system
def _char_poly(sys: LtiSystem) -> tuple[float, ...]:
    """`char_poly_coeffs(A)` as plain floats; once per system."""
    return tuple(char_poly_coeffs(sys.A).tolist())


# The key, in the system's `__dict__` beside `per_system`'s values, of the
# record of how far the recursion has been stepped: (sums, beta(T)), where
# sums[0, i] and sums[1, i] are the plain sums of the positive and of the
# negative coefficients of beta(n + i), for n + i = n .. T.
_RECORD = f"{__name__}.recursion"


def _beta_at(c: tuple[float, ...], steps: int, beta=None) -> list[float]:
    """beta stepped `steps` times from `beta` (beta(n) by default) as plain floats, as `_bound_m1` steps it."""
    beta = [-ci for ci in c] if beta is None else list(beta)
    c0, c_rest = c[0], c[1:]
    for _ in range(steps):
        last = beta[-1]
        beta = [-c0 * last] + [b - ci * last for b, ci in zip(beta, c_rest)]
    return beta


def _cap_error(step_cap, rho: float, t: int, beta) -> IterationCapError:
    return IterationCapError(
        f"stop rule not met after {step_cap} steps (spectral radius {rho:.6g}); "
        "raise the cap or reconsider the system",
        cap=step_cap,
        last_state=BetaState(t=t, beta=np.array(beta)),
    )


def _store(sys: LtiSystem, record, sums: tuple[list[float], list[float]], beta: list[float]) -> None:
    """Store the record extended by the steps of `sums`, ending at `beta`.

    `sums` starts at the step after the record's last, or at step n without one.
    """
    stored = np.array(sums) if record is None else np.concatenate([record[0], sums], axis=1)
    stored.setflags(write=False)
    sys.__dict__[_RECORD] = (stored, tuple(beta))


def _bound_m1(sys: LtiSystem, box: OutputBox, epsilon: float | None, step_cap) -> BoundReport:
    """Both regimes; `epsilon is None` is the unforced one, the forced rule at epsilon = 1.

    There the weights 1 + g*0 and g + 0 and the threshold are bitwise the
    unforced rule's 1, g and 1.  The record's steps, up to its last, T,
    are decided on its sums, up to the step at which the loop would raise
    the cap error (a near-tie at T reads the stored beta(T)); the loop
    goes on from T + 1.
    """
    rho = check_problem(sys, box, epsilon)
    g = gamma(box)
    eps = 1.0 if epsilon is None else epsilon
    w_pos, w_neg = 1.0 + g * (1.0 - eps), g + (1.0 - eps)
    band = _TIE_BAND * eps
    c = _char_poly(sys)
    n = len(c)
    record = sys.__dict__.get(_RECORD)
    if record is None:
        beta, t = _beta_at(c, 0), n
    else:
        stored, last_beta = record
        # The loop raises the cap error at step n + capped; the record ends at step n + last.
        capped, last = max(step_cap, 0), stored.shape[1] - 1
        k = min(last, capped) + 1
        slack = eps - (w_pos * stored[0, :k] - w_neg * stored[1, :k])
        for i in (slack >= -band).nonzero()[0].tolist():
            if slack[i] > band or condition_forced(np.array(last_beta if i == last else _beta_at(c, i)), g, eps):
                return _report(sys, epsilon, n + i, float(slack[i]), g, rho)
        if k > capped:
            raise _cap_error(step_cap, rho, n + capped, last_beta if capped == last else _beta_at(c, capped))
        beta, t = _beta_at(c, 1, last_beta), n + k
    sums = ([], [])
    add_pos, add_neg = sums[0].append, sums[1].append
    c0, c_rest = c[0], c[1:]
    while True:
        pos = neg = 0.0
        for b in beta:
            if b > 0.0:
                pos += b
            elif b < 0.0:
                neg += b
        # pos - neg >= max |b|, rounding included, so only a large sum needs the max.
        if pos - neg > BETA_GROWTH_LIMIT and t > n and max(map(abs, beta)) > BETA_GROWTH_LIMIT:
            raise NumericalError(
                f"coefficient recursion diverged (||beta({t})||_inf > "
                f"{BETA_GROWTH_LIMIT:.1e}) despite spectral radius {rho:.6g} < 1"
            )
        add_pos(pos)
        add_neg(neg)
        # eps - lhs, for lhs = w_pos * pos - w_neg * neg, is bitwise -(lhs - eps).
        slack = eps - (w_pos * pos - w_neg * neg)
        if slack >= -band and (slack > band or condition_forced(np.array(beta), g, eps)):
            break
        if t - n >= step_cap:
            _store(sys, record, sums, beta)
            raise _cap_error(step_cap, rho, t, beta)
        last = beta[-1]
        beta = [-c0 * last] + [b - ci * last for b, ci in zip(beta, c_rest)]
        t += 1
    _store(sys, record, sums, beta)
    return _report(sys, epsilon, t, slack, g, rho)


def _report(sys: LtiSystem, epsilon: float | None, t: int, slack: float, g: float, rho: float) -> BoundReport:
    """The report of a stop at step t, `slack` the threshold less the left side there."""
    diagnostics = {"stop_t": t, "stop_slack": slack, "gamma": g, "rho": rho}
    if epsilon is not None:
        diagnostics["epsilon"] = epsilon
    return BoundReport(
        method="power-series",
        regime="unforced" if epsilon is None else "forced",
        m=t - 1,
        iterations=t - sys.n,
        diagnostics=diagnostics,
    )


def bound_m1_unforced(
    sys: LtiSystem,
    box: OutputBox,
    step_cap: int = POWER_SERIES_STEP_CAP,
) -> BoundReport:
    """Upper bound m on the admissibility index for the autonomous system.

    Runs the coefficient recursion from t = n and returns m = t - 1 for
    the first t at which the weighted-sum stop rule holds.
    """
    return _bound_m1(sys, box, None, step_cap)


def bound_m1_forced(
    sys: LtiSystem,
    box: OutputBox,
    epsilon: float,
    step_cap: int = POWER_SERIES_STEP_CAP,
) -> BoundReport:
    """Upper bound for the constant-input system with steady-state margin epsilon.

    epsilon = 1 is accepted and reproduces the unforced bound (the
    steady-state tightening then forces u = 0).
    """
    return _bound_m1(sys, box, epsilon, step_cap)
