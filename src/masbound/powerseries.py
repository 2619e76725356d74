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
stop rule with the rule's own arithmetic: the sums of the positive and
of the negative coefficients, each added in index order (`_split_sums`),
weighted and compared with the threshold, with no tolerance and no
second path near it.  `beta_init`, `beta_step` and the `condition_*`
rules are the definition the loop follows.

beta(t) does not depend on the box or epsilon either, so the recursion
is stepped once per system.  The system keeps, beside the `per_system`
values, a record of how far it has been stepped: the plain sums of the
positive and of the negative coefficients of beta(t) for t = n .. T, two
tuples of floats, and beta(T); about 64 bytes per step reached plus one
beta.  A call decides the stored steps one by one with the loop's own
expressions, so it reaches the same decision, slack and error as the
loop would.  Only a stop beyond them runs the loop, from beta(T + 1), and
that call then replaces the record whole by the longer one.  A cap
among the stored steps takes its last state from the stored beta(T) at
T, and re-steps beta(t) from the polynomial, exactly as the loop steps
it, before T; a cap error stores the steps it reached; a divergence,
like a failed `per_system` computation, stores nothing and is met again
by the next call.  So every report and error is bitwise the
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
    nxt[1:] = b[:-1] - c[1:] * last
    return BetaState(t=state.t + 1, beta=nxt)


def _split_sums(beta: list[float]) -> tuple[float, float]:
    """The sums of the positive and of the negative entries of `beta`, each added in index order."""
    pos = neg = 0.0
    for b in beta:
        if b > 0.0:
            pos += b
        elif b < 0.0:
            neg += b
    return pos, neg


def condition_unforced(beta, g: float) -> bool:
    """Stop rule: sum of positive coefficients minus g times the sum of
    negative ones must not exceed 1."""
    return condition_forced(beta, g, 1.0)


def condition_forced(beta, g: float, epsilon: float) -> bool:
    """Tightened stop rule for the constant-input case.

    (1 + g(1-eps)) * pos_sum - (g + (1-eps)) * neg_sum <= eps, where
    pos_sum and neg_sum add the positive and the negative coefficients in
    index order; there is no tolerance.  At epsilon = 1 this reduces
    exactly to the unforced rule.
    """
    if g < 1.0:
        raise ValueError(f"asymmetry ratio must be >= 1, got {g}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    pos, neg = _split_sums(np.atleast_1d(np.asarray(beta, dtype=float)).tolist())
    lhs = (1.0 + g * (1.0 - epsilon)) * pos - (g + (1.0 - epsilon)) * neg
    return lhs <= epsilon


@per_system
def _char_poly(sys: LtiSystem) -> tuple[float, ...]:
    """`char_poly_coeffs(A)` as plain floats; once per system."""
    return tuple(char_poly_coeffs(sys.A).tolist())


# The key, in the system's `__dict__` beside `per_system`'s values, of the
# record of how far the recursion has been stepped: (pos_sums, neg_sums,
# beta(T)), where pos_sums[i] and neg_sums[i] are the plain sums of the
# positive and of the negative coefficients of beta(n + i), for
# n + i = n .. T.
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
    """Store `record` extended by the steps of `sums`, which start at the step after its last, ending at `beta`."""
    sys.__dict__[_RECORD] = (record[0] + tuple(sums[0]), record[1] + tuple(sums[1]), tuple(beta))


def _bound_m1(sys: LtiSystem, box: OutputBox, epsilon: float | None, step_cap) -> BoundReport:
    """Both regimes; `epsilon is None` is the unforced one, the forced rule at epsilon = 1.

    There the weights 1 + g*0 and g + 0 and the threshold are bitwise the
    unforced rule's 1, g and 1.  Every step is decided by `slack >= 0`, on
    the index-order sums of `_split_sums` and the rule's own weights, which
    for finite floats holds exactly when the rule's left side is at most
    epsilon; no step has a second test.  Each step of the record, up to its
    last, T, is decided on its stored sums; a cap there takes its last state
    from the stored beta(T), or re-steps beta(t) before T; the loop goes on
    from beta(T + 1).
    """
    rho = check_problem(sys, box, epsilon)
    g = gamma(box)
    eps = 1.0 if epsilon is None else epsilon
    w_pos, w_neg = 1.0 + g * (1.0 - eps), g + (1.0 - eps)
    c = _char_poly(sys)
    n = len(c)
    record = sys.__dict__.get(_RECORD, ((), (), None))
    pos_sums, neg_sums, last_beta = record
    t = n
    for pos, neg in zip(pos_sums, neg_sums):
        slack = eps - (w_pos * pos - w_neg * neg)
        if slack >= 0.0:
            return _report(sys, epsilon, t, slack, g, rho)
        if t - n >= step_cap:
            raise _cap_error(step_cap, rho, t, last_beta if t - n == len(pos_sums) - 1 else _beta_at(c, t - n))
        t += 1
    beta = _beta_at(c, 0) if last_beta is None else _beta_at(c, 1, last_beta)
    sums = ([], [])
    add_pos, add_neg = sums[0].append, sums[1].append
    c0, c_rest = c[0], c[1:]
    while True:
        # `_split_sums` inline, to save a call per step.
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
        if slack >= 0.0 or t - n >= step_cap:
            break
        last = beta[-1]
        beta = [-c0 * last] + [b - ci * last for b, ci in zip(beta, c_rest)]
        t += 1
    _store(sys, record, sums, beta)
    if slack >= 0.0:
        return _report(sys, epsilon, t, slack, g, rho)
    raise _cap_error(step_cap, rho, t, beta)


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
