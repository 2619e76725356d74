"""Lyapunov level-set upper bound on the admissibility index (Method 2).

Two ellipsoidal level sets of V(x) = x'Px are computed: the largest one
inscribed in the state-space constraint set and the smallest one
circumscribing the n-step admissible prefix set.  The worst-case decay
factor of V along trajectories converts the ratio of their levels into
an upper bound on the admissibility index.  No LP runs unless the vertex
enumeration needs its Chebyshev center or fallback; `lp_tol` is their
tolerance.

The unforced regime is the constant-input one with no input, so both
`bound_m2_*` run one core, `_bound_m2`.  It passes `model.check_problem`,
which reads the system's spectral radius (A is decomposed once per
system, and sigma mode "paper" reads the same value).  What depends on
the system alone is computed once per system (`model.per_system`) and
shared by every call on it, both regimes and both sigma modes: P with
Q = I from the unchecked one-LU kernel `linalg.kron_lyapunov`,
lambda_max(P), the r1 denominators c_j P^{-1} c_j', and the forced
regime's basis of range(H0) from `linalg.range_basis`.  The report's
`P` is that shared, read-only array.  The checks on them (P positive
definite, sigma < 1, r1 > 0, r2 >= r1) run on every call.  The decay
factor reads lambda_min(Q) = 1 without an eigen-solve of Q.  r1 is
taken on plain floats, and r2 from the vertex array the core built,
without the input checks of the public `compute_r2`.  On a symmetric
box the closed-form vertex path solves half the parallelotope corners
and mirrors the rest (`geometry.parallelotope_vertices`, whose corner
masks are built once per dimension); r2 still runs over every vertex,
since one einsum over half the array can round its last bit otherwise.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .config import LP_TOL
from .errors import NumericalError
from .geometry import Polytope, enumerate_vertices, parallelotope_vertices
from .linalg import kron_lyapunov, range_basis, spectral_radius, sym_eig_extremes
from .model import LtiSystem, OutputBox, band_rows, check_problem, output_bands, per_system, stable_dc_gain
from .results import BoundReport

SIGMA_MODES = ("eq25", "paper")


def _prefix_bands(sys: LtiSystem, box: OutputBox, horizon: int, feed=None, epsilon: float = 1.0):
    """The bands of the prefix set: the steady-state band (with `feed`), then t = 0..horizon."""
    return list(itertools.islice(output_bands(sys, box, feed, epsilon), horizon + 1 + (feed is not None)))


def _halfspaces(bands) -> Polytope:
    return Polytope(*band_rows(bands))


def _prefix_vertices(bands, lp_tol: float) -> tuple[np.ndarray, str]:
    """Closed-form vertices when the stacked bands form a parallelotope, qhull otherwise.

    Returns the vertices and the path that found them, "closed_form" or "qhull".
    """
    verts = parallelotope_vertices(
        np.vstack([M for M, _, _ in bands]),
        np.concatenate([lower for _, lower, _ in bands]),
        np.concatenate([upper for _, _, upper in bands]),
    )
    if verts is not None:
        return verts, "closed_form"
    return enumerate_vertices(_halfspaces(bands), lp_tol=lp_tol).vertices, "qhull"


def build_O_prefix(sys: LtiSystem, box: OutputBox, horizon: int, epsilon: float | None = None) -> Polytope:
    """Halfspace form of {x : C A^t x inside the box for t = 0..horizon}.

    Row order: for each t, rows +C_j A^t <= y_upper[j] then -C_j A^t <=
    y_lower[j], outputs in order.  With `epsilon` (the constant-input
    regime) the set lives in (z, u) coordinates: the steady-state rows
    come first and constrain H0 u to (1 - epsilon) times the box, and the
    output rows are [C_j A^t, H0_j].  The problem must pass
    `model.check_problem` with epsilon.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    check_problem(sys, box, epsilon)
    if epsilon is None:
        return _halfspaces(_prefix_bands(sys, box, horizon))
    return _halfspaces(_prefix_bands(sys, box, horizon, stable_dc_gain(sys), epsilon))


def compute_r1(P, C, box: OutputBox, scale: float = 1.0) -> float:
    """Largest level r with {x'Px <= r} inside the (scaled) output constraint.

    r1 = min_j (scale * min(y_lower[j], y_upper[j]))^2 / (c_j P^{-1} c_j').
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    if box.q != C.shape[0]:
        raise ValueError(f"box has {box.q} outputs but C has {C.shape[0]} rows")
    return _inscribed_level(_inverse_forms(P, C), box, scale)


def _inverse_forms(P: np.ndarray, C: np.ndarray) -> np.ndarray:
    """c_j P^{-1} c_j' for each row c_j of C."""
    return np.einsum("ij,ji->i", C, np.linalg.solve(P, C.T))


def _inscribed_level(denoms: np.ndarray, box: OutputBox, scale: float) -> float:
    """`compute_r1` given its denominators c_j P^{-1} c_j' and a checked scale.

    On plain floats, as `model.gamma`: for the few outputs of a box,
    numpy's call overhead would cost several times the arithmetic.  Each
    step rounds as numpy's would (`b * b`, not `b ** 2`, whose `pow` need
    not), so r1 is bitwise the array formula's.  A zero row of C bounds
    nothing and is skipped.
    """
    levels = []
    for x, l, u in zip(denoms.tolist(), box.y_lower.tolist(), box.y_upper.tolist()):
        if x < 0.0:
            raise NumericalError("quadratic form c P^{-1} c' came out negative; P is not positive definite")
        if x > 0.0:
            b = scale * min(l, u)
            levels.append(b * b / x)
    if not levels:
        raise ValueError("every output row of C is zero; inscribed level is unbounded")
    r1 = min(levels)
    if not math.isfinite(r1):
        raise NumericalError(f"inscribed level {r1!r} is not finite; the scaled limits overflow when squared")
    return r1


def compute_r2(P, vertices, proj_dim: int | None = None) -> float:
    """Smallest level r with every (projected) vertex inside {x'Px <= r}."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    if V.size == 0:
        raise ValueError("empty vertex list")
    if proj_dim is not None:
        if not 0 < proj_dim <= V.shape[1]:
            raise ValueError(f"projection dimension {proj_dim} out of range for {V.shape[1]}-vectors")
        V = V[:, :proj_dim]
    if V.shape[1] != P.shape[0]:
        raise ValueError(f"vertices have dimension {V.shape[1]} but P is {P.shape[0]}x{P.shape[0]}")
    return _circumscribed_level(P, V)


def _circumscribed_level(P: np.ndarray, V: np.ndarray) -> float:
    """`compute_r2` on checked arrays, the vertices already projected."""
    return float(np.max(np.einsum("ij,jk,ik->i", V, P, V)))


def compute_sigma(A, P, Q, mode: str = "eq25") -> float:
    """Per-step decay factor of V(x) = x'Px along x(t+1) = A x(t).

    mode "eq25" uses 1 - lambda_min(Q)/lambda_max(P), which the decay
    chain proves for every A.  mode "paper" uses the spectral-radius
    square rho(A)^2 (exact for normal A, optimistic for non-normal A).
    """
    lam_min_q = sym_eig_extremes(Q)[0] if mode == "eq25" else None
    lam_max_p = sym_eig_extremes(P)[1] if mode == "eq25" else None
    rho = spectral_radius(A) if mode == "paper" else None
    return _decay_factor(rho, lam_max_p, lam_min_q, mode)[0]


def _decay_factor(rho: float | None, lam_max_p: float | None, lam_min_q: float | None, mode: str) -> tuple[float, float]:
    """(`compute_sigma`, log of the factor) given rho(A) (read by mode "paper"), lambda_max(P) and lambda_min(Q) (read by "eq25").

    In mode "eq25" the log is log1p(-lambda_min(Q)/lambda_max(P)): once
    lambda_max(P) exceeds about 2^53 lambda_min(Q) the factor itself
    rounds to 1, but its log stays negative.  Only a factor whose log is
    not negative is refused; a factor at or below 0 has log -inf.
    """
    if mode not in SIGMA_MODES:
        raise ValueError(f"unknown sigma mode {mode!r}; expected one of {SIGMA_MODES}")
    if mode == "paper":
        sigma = rho**2
        log_sigma = math.log(sigma) if sigma > 0.0 else -math.inf
    else:
        if lam_min_q <= 0.0 or lam_max_p <= 0.0:
            raise NumericalError("Lyapunov pair lost positive definiteness")
        ratio = lam_min_q / lam_max_p
        sigma = 1.0 - ratio
        log_sigma = math.log1p(-ratio) if ratio < 1.0 else -math.inf
    if not log_sigma < 0.0:
        raise NumericalError(f"decay factor {sigma:.6g} >= 1; Lyapunov data is inconsistent")
    return max(sigma, 0.0), log_sigma


def bound_m2(r1: float, r2: float, sigma: float) -> int:
    """floor(log(r1/r2) / log(sigma)), clamped to be a valid nonnegative bound."""
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    return _steps(r1, r2, math.log(sigma) if sigma > 0.0 else -math.inf)


def _steps(r1: float, r2: float, log_sigma: float) -> int:
    """`bound_m2` given log(sigma) < 0, -inf for sigma = 0."""
    if r1 <= 0.0 or r2 <= 0.0:
        raise ValueError(f"levels must be positive, got r1={r1}, r2={r2}")
    if log_sigma == -math.inf or r1 >= r2:
        return 0
    return max(0, math.floor(math.log(r1 / r2) / log_sigma))


@per_system
def _lyapunov_data(sys: LtiSystem) -> tuple[np.ndarray, float, np.ndarray]:
    """P with A'PA - P = -I, lambda_max(P) and the r1 denominators c_j P^{-1} c_j'; once per system.

    The caller has passed `check_problem`.  A NumericalError from the
    solve is not stored, so every call on the system solves again and
    raises again; a LinAlgWarning for an ill-conditioned Kronecker
    system fires on the one solve, so once per system.
    """
    P = kron_lyapunov(sys.A, np.eye(sys.n))
    return P, sym_eig_extremes(P)[1], _inverse_forms(P, sys.C)


@per_system
def _input_basis(sys: LtiSystem) -> np.ndarray | None:
    """Orthonormal basis of the range of the DC gain H0, None when H0 = 0; once per system."""
    H0 = stable_dc_gain(sys)
    return range_basis(H0) if np.any(H0) else None


def _bound_m2(sys: LtiSystem, box: OutputBox, epsilon: float | None, sigma_mode: str, lp_tol: float) -> BoundReport:
    """Both regimes; `epsilon is None` is the unforced one: scale 1, no input feed.

    Its vertices are n-dim, so the projection onto n coordinates keeps them.
    """
    check_problem(sys, box, epsilon)
    P, lam_max_p, denoms = _lyapunov_data(sys)
    # lambda_min(I) = 1, with no eigen-solve of Q.
    sigma, log_sigma = _decay_factor(sys.rho, lam_max_p, 1.0, sigma_mode)
    scale = 1.0 if epsilon is None else epsilon
    r1 = _inscribed_level(denoms, box, scale)
    if not r1 > 0.0:
        raise NumericalError(f"inscribed level {r1!r} is not positive; the scaled limits underflow when squared")
    # H0 u is pinned to zero at epsilon = 1, and a zero H0 has no basis.
    feed = None if epsilon is None or epsilon == 1.0 else _input_basis(sys)
    verts, path = _prefix_vertices(_prefix_bands(sys, box, sys.n - 1, feed, scale), lp_tol)
    # Over every vertex, mirrored ones too (see the module docstring).
    r2 = _circumscribed_level(P, verts[:, : sys.n])
    m = _steps(r1, r2, log_sigma)
    if r2 < r1 - 1e-9 * max(1.0, abs(r1)):
        raise NumericalError(
            f"circumscribing level {r2:.6g} fell below inscribed level "
            f"{r1:.6g}; vertex enumeration or the Lyapunov solve is suspect"
        )
    boundary = False
    if log_sigma > -math.inf and r1 < r2:
        ratio = math.log(r1 / r2) / log_sigma
        # From 2^52 on every float is an integer, so the window says nothing.
        boundary = abs(ratio) < 2.0**52 and abs(ratio - round(ratio)) < 1e-9
    diagnostics = {
        "sigma": sigma,
        "sigma_mode": sigma_mode,
        "r1": r1,
        "r2": r2,
        "P": P,
        "boundary_integer": boundary,
        "vertices": len(verts),
        "vertex_path": path,
    }
    if epsilon is not None:
        diagnostics["epsilon"] = epsilon
    return BoundReport(
        method="lyapunov", regime="unforced" if epsilon is None else "forced", m=m, diagnostics=diagnostics
    )


def bound_m2_unforced(
    sys: LtiSystem,
    box: OutputBox,
    sigma_mode: str = "eq25",
    lp_tol: float = LP_TOL,
) -> BoundReport:
    """Level-set upper bound for the autonomous system (Q = I)."""
    return _bound_m2(sys, box, None, sigma_mode, lp_tol)


def bound_m2_forced(
    sys: LtiSystem,
    box: OutputBox,
    epsilon: float,
    sigma_mode: str = "eq25",
    lp_tol: float = LP_TOL,
) -> BoundReport:
    """Level-set upper bound for the constant-input system.

    The prefix set depends on u only through w = H0 u, so it is
    enumerated in (z, s) with w = F s for an orthonormal basis F of the
    range of H0; r2 reads only the z-projection, which does not depend
    on how w is parametrised.  When H0 u is pinned to zero (epsilon = 1,
    or zero DC gain) the prefix set is the unforced one, and at
    epsilon = 1 the bound coincides exactly with the unforced one.
    """
    return _bound_m2(sys, box, epsilon, sigma_mode, lp_tol)
