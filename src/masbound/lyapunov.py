"""Lyapunov level-set upper bound on the admissibility index (Method 2).

Two ellipsoidal level sets of V(x) = x'Px are computed: the largest one
inscribed in the state-space constraint set and the smallest one
circumscribing the n-step admissible prefix set.  The worst-case decay
factor of V along trajectories converts the ratio of their levels into
an upper bound on the admissibility index.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOLS, Tolerances
from .errors import NumericalError
from .geometry import Polytope, enumerate_vertices, parallelotope_vertices
from .linalg import solve_discrete_lyapunov, spectral_radius, sym_eig_extremes
from .model import LtiSystem, OutputBox, band_rows, dc_gain, output_bands
from .results import BoundReport

SIGMA_MODES = ("eq25", "paper")


def _prefix_bands(sys: LtiSystem, box: OutputBox, horizon: int, feed=None, epsilon: float = 1.0):
    """The bands of the prefix set: the steady-state band (with `feed`), then t = 0..horizon."""
    return list(itertools.islice(output_bands(sys, box, feed, epsilon), horizon + 1 + (feed is not None)))


def _halfspaces(bands) -> Polytope:
    return Polytope(*band_rows(bands))


def _prefix_vertices(bands, tols: Tolerances) -> tuple[np.ndarray, str]:
    """Closed-form vertices when the stacked bands form a parallelotope, qhull otherwise.

    Returns the vertices and the path that found them, "closed_form" or "qhull".
    """
    verts = parallelotope_vertices(
        np.vstack([M for M, _, _ in bands]),
        np.concatenate([lower for _, lower, _ in bands]),
        np.concatenate([upper for _, _, upper in bands]),
        tols=tols,
    )
    if verts is not None:
        return verts, "closed_form"
    return enumerate_vertices(_halfspaces(bands), tols=tols).vertices, "qhull"


def build_O_prefix(sys: LtiSystem, box: OutputBox, horizon: int) -> Polytope:
    """Halfspace form of {x : C A^t x inside the box for t = 0..horizon}.

    Row order: for each t, rows +C_j A^t <= y_upper[j] then -C_j A^t <=
    y_lower[j], outputs in order.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if box.q != sys.q:
        raise ValueError(f"box has {box.q} outputs but system has {sys.q}")
    return _halfspaces(_prefix_bands(sys, box, horizon))


def build_O_prefix_forced(
    sys: LtiSystem, box: OutputBox, epsilon: float, horizon: int
) -> Polytope:
    """Prefix set in (z, u) coordinates with the tightened steady-state rows.

    Output rows are [C_j A^t, H0_j] against the box for t = 0..horizon;
    the steady-state rows constrain H0 u to (1 - epsilon) times the box.
    """
    if not sys.has_input:
        raise ValueError("forced prefix set requires a system with an input channel (B)")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if box.q != sys.q:
        raise ValueError(f"box has {box.q} outputs but system has {sys.q}")
    return _halfspaces(_prefix_bands(sys, box, horizon, dc_gain(sys), epsilon))


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
    bounds = scale * np.minimum(box.y_lower, box.y_upper)
    sol = np.linalg.solve(P, C.T)  # P^{-1} C'
    denoms = np.einsum("ij,ji->i", C, sol)
    if np.any(denoms < 0.0):
        raise NumericalError("quadratic form c P^{-1} c' came out negative; P is not positive definite")
    with np.errstate(divide="ignore"):
        levels = np.where(denoms > 0.0, bounds**2 / denoms, np.inf)
    r1 = float(np.min(levels))
    if not np.isfinite(r1):
        raise ValueError("every output row of C is zero; inscribed level is unbounded")
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
    return float(np.max(np.einsum("ij,jk,ik->i", V, P, V)))


def compute_sigma(A, P, Q, mode: str = "eq25") -> float:
    """Per-step decay factor of V(x) = x'Px along x(t+1) = A x(t).

    mode "eq25" uses 1 - lambda_min(Q)/lambda_max(P), which the decay
    chain proves for every A.  mode "paper" uses the spectral-radius
    square rho(A)^2 (exact for normal A, optimistic for non-normal A).
    """
    if mode not in SIGMA_MODES:
        raise ValueError(f"unknown sigma mode {mode!r}; expected one of {SIGMA_MODES}")
    if mode == "paper":
        sigma = spectral_radius(A) ** 2
    else:
        lam_min_q, _ = sym_eig_extremes(Q)
        _, lam_max_p = sym_eig_extremes(P)
        if lam_min_q <= 0.0 or lam_max_p <= 0.0:
            raise NumericalError("Lyapunov pair lost positive definiteness")
        sigma = 1.0 - lam_min_q / lam_max_p
    if sigma >= 1.0:
        raise NumericalError(f"decay factor {sigma:.6g} >= 1; Lyapunov data is inconsistent")
    return max(sigma, 0.0)


def bound_m2(r1: float, r2: float, sigma: float) -> int:
    """floor(log(r1/r2) / log(sigma)), clamped to be a valid nonnegative bound."""
    if r1 <= 0.0 or r2 <= 0.0:
        raise ValueError(f"levels must be positive, got r1={r1}, r2={r2}")
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if sigma == 0.0 or r1 >= r2:
        return 0
    return max(0, math.floor(math.log(r1 / r2) / math.log(sigma)))


def _compose_report(P, sigma, sigma_mode, r1, r2, verts, path, regime, epsilon=None) -> BoundReport:
    m = bound_m2(r1, r2, sigma)
    if r2 < r1 - 1e-9 * max(1.0, abs(r1)):
        raise NumericalError(
            f"circumscribing level {r2:.6g} fell below inscribed level "
            f"{r1:.6g}; vertex enumeration or the Lyapunov solve is suspect"
        )
    boundary = False
    if 0.0 < sigma < 1.0 and r1 < r2:
        ratio = math.log(r1 / r2) / math.log(sigma)
        boundary = abs(ratio - round(ratio)) < 1e-9
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
    return BoundReport(method="lyapunov", regime=regime, m=m, diagnostics=diagnostics)


def _lyapunov_pieces(sys: LtiSystem, sigma_mode: str, tols: Tolerances):
    rho = spectral_radius(sys.A)
    if rho >= 1.0:
        raise ValueError(f"level-set bound requires spectral radius < 1, got {rho:.6g}")
    Q = np.eye(sys.n)
    P = solve_discrete_lyapunov(sys.A, Q, tols=tols)
    sigma = compute_sigma(sys.A, P, Q, mode=sigma_mode)
    return P, sigma


def bound_m2_unforced(
    sys: LtiSystem,
    box: OutputBox,
    sigma_mode: str = "eq25",
    tols: Tolerances = DEFAULT_TOLS,
) -> BoundReport:
    """Level-set upper bound for the autonomous system (Q = I)."""
    P, sigma = _lyapunov_pieces(sys, sigma_mode, tols)
    r1 = compute_r1(P, sys.C, box, scale=1.0)
    verts, path = _prefix_vertices(_prefix_bands(sys, box, horizon=sys.n - 1), tols)
    r2 = compute_r2(P, verts)
    return _compose_report(P, sigma, sigma_mode, r1, r2, verts, path, regime="unforced")


def bound_m2_forced(
    sys: LtiSystem,
    box: OutputBox,
    epsilon: float,
    sigma_mode: str = "eq25",
    tols: Tolerances = DEFAULT_TOLS,
) -> BoundReport:
    """Level-set upper bound for the constant-input system.

    The prefix set depends on u only through w = H0 u, so it is
    enumerated in (z, s) with w = F s for an orthonormal basis F of the
    range of H0; r2 reads only the z-projection, which does not depend
    on how w is parametrised.  When H0 u is pinned to zero (epsilon = 1,
    or zero DC gain) the prefix set is the unforced one, and at
    epsilon = 1 the bound coincides exactly with the unforced one.
    """
    if not sys.has_input:
        raise ValueError("forced bound requires a system with an input channel (B)")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    P, sigma = _lyapunov_pieces(sys, sigma_mode, tols)
    r1 = compute_r1(P, sys.C, box, scale=epsilon)
    H0 = dc_gain(sys)
    feed = None if epsilon == 1.0 or not np.any(H0) else scipy.linalg.orth(H0)
    bands = _prefix_bands(sys, box, sys.n - 1, feed, epsilon)
    verts, path = _prefix_vertices(bands, tols)
    r2 = compute_r2(P, verts, proj_dim=sys.n)
    return _compose_report(P, sigma, sigma_mode, r1, r2, verts, path, regime="forced", epsilon=epsilon)
