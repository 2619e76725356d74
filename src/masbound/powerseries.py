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
    if g < 1.0:
        raise ValueError(f"asymmetry ratio must be >= 1, got {g}")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    pos, neg = _split_sums(beta)
    return pos - g * neg <= 1.0


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


def _bound_m1(sys: LtiSystem, box: OutputBox, epsilon: float | None, step_cap) -> BoundReport:
    """Both regimes; `epsilon is None` is the unforced one, the forced rule at epsilon = 1.

    There the weights 1 + g*0 and g + 0 and the threshold are bitwise the
    unforced rule's 1, g and 1.
    """
    rho = check_problem(sys, box, epsilon)
    g = gamma(box)
    eps = 1.0 if epsilon is None else epsilon
    w_pos, w_neg = 1.0 + g * (1.0 - eps), g + (1.0 - eps)
    c = _char_poly(sys)
    c0, c_rest = c[0], c[1:]
    beta = [-ci for ci in c]
    n = t = len(c)
    while True:
        pos = neg = 0.0
        for b in beta:
            if b > 0.0:
                pos += b
            elif b < 0.0:
                neg += b
        lhs = w_pos * pos - w_neg * neg
        if abs(lhs - eps) > _TIE_BAND * eps:
            stop = lhs <= eps
        else:
            stop = condition_forced(np.array(beta), g, eps)
        if stop:
            break
        if t - n >= step_cap:
            raise IterationCapError(
                f"stop rule not met after {step_cap} steps (spectral radius {rho:.6g}); "
                "raise the cap or reconsider the system",
                cap=step_cap,
                last_state=BetaState(t=t, beta=np.array(beta)),
            )
        last = beta[-1]
        beta = [-c0 * last] + [b - ci * last for b, ci in zip(beta, c_rest)]
        t += 1
        if max(map(abs, beta)) > BETA_GROWTH_LIMIT:
            raise NumericalError(
                f"coefficient recursion diverged (||beta({t})||_inf > "
                f"{BETA_GROWTH_LIMIT:.1e}) despite spectral radius {rho:.6g} < 1"
            )
    diagnostics = {"stop_t": t, "gamma": g, "rho": rho}
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
