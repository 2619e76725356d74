"""Dense linear-algebra kernels used throughout the package.

Thin, validated wrappers around numpy/scipy plus the characteristic
polynomial recursion.  All functions are pure and accept anything
`np.asarray` turns into a float matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov as _scipy_dlyap

from .config import LYAPUNOV_RESIDUAL, SYMMETRY
from .errors import NumericalError


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a square matrix with their maximum modulus."""

    eigenvalues: np.ndarray  # complex, length n, with multiplicity
    spectral_radius: float


def _as_square(M, name="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def eigenvalues(M) -> Spectrum:
    """All eigenvalues (with multiplicity) of a square matrix."""
    M = _as_square(M)
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed to converge: {exc}") from exc
    return Spectrum(eigenvalues=vals, spectral_radius=float(np.max(np.abs(vals))) if vals.size else 0.0)


def spectral_radius(M) -> float:
    return eigenvalues(M).spectral_radius


def char_poly_coeffs(M) -> np.ndarray:
    """Coefficients [c_0, ..., c_{n-1}] of det(sI - M) = s^n + c_{n-1} s^{n-1} + ... + c_0.

    Uses the Faddeev-LeVerrier trace recursion, which is exact in exact
    arithmetic and adequate for the small orders handled here.
    """
    M = _as_square(M)
    n = M.shape[0]
    coeffs = np.empty(n)  # coeffs[k] holds the s^{n-1-k} coefficient while building
    N = M.copy()
    for k in range(1, n + 1):
        a_k = -np.trace(N) / k
        coeffs[k - 1] = a_k
        if k < n:
            N = M @ (N + a_k * np.eye(n))
    # coeffs is [c_{n-1}, c_{n-2}, ..., c_0]; return ascending powers.
    return coeffs[::-1].copy()


def solve_discrete_lyapunov(A, Q) -> np.ndarray:
    """Solve A^T P A - P = -Q for symmetric positive-definite P.

    Requires a strictly stable A and symmetric positive-definite Q; the
    result is checked against the residual tolerance before returning.
    """
    A = _as_square(A, "A")
    Q = _as_square(Q, "Q")
    if A.shape != Q.shape:
        raise ValueError(f"A and Q must have equal shapes, got {A.shape} and {Q.shape}")
    q_scale = np.linalg.norm(Q, "fro")
    if np.linalg.norm(Q - Q.T, "fro") > SYMMETRY * max(1.0, q_scale):
        raise ValueError("Q is not symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) <= 0.0:
        raise ValueError("Q is not positive definite")
    rho = spectral_radius(A)
    if rho >= 1.0:
        raise ValueError(f"no stable Lyapunov solution: spectral radius {rho:.6g} >= 1")
    # Kronecker (column-stacking) solve; fine at the orders handled here.
    P = _scipy_dlyap(A.T, Q, method="direct")
    P = 0.5 * (P + P.T)
    target = LYAPUNOV_RESIDUAL * max(1.0, q_scale)
    for _ in range(2):
        R = A.T @ P @ A - P + Q
        if np.linalg.norm(R, "fro") <= target:
            break
        # One defect-correction step recovers accuracy lost to the
        # conditioning of the Kronecker system.
        delta = _scipy_dlyap(A.T, R, method="direct")
        P = 0.5 * ((P + delta) + (P + delta).T)
    residual = np.linalg.norm(A.T @ P @ A - P + Q, "fro")
    # Forming the residual itself costs ~eps * ||P||, which dominates the
    # budget for badly scaled P; accept that floor on top of the target.
    eval_floor = 64.0 * np.finfo(float).eps * A.shape[0] * np.linalg.norm(P, "fro")
    if residual > target + eval_floor:
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_RESIDUAL:.1e} * ||Q||"
        )
    return P


def sym_eig_extremes(P) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a symmetric matrix."""
    P = _as_square(P, "P")
    scale = max(1.0, float(np.max(np.abs(P))))
    if np.max(np.abs(P - P.T)) > SYMMETRY * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals = np.linalg.eigvalsh(0.5 * (P + P.T))
    return float(vals[0]), float(vals[-1])


def min_singular_value(M) -> float:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.svd(M, compute_uv=False)[-1])
