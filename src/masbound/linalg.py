"""Dense linear-algebra kernels used throughout the package.

Thin, validated wrappers around numpy/scipy plus the characteristic
polynomial recursion.  The public functions are pure and accept
anything `np.asarray` turns into a float matrix.  Two kernels skip the
input checks for callers that have made them: `kron_lyapunov`, the
discrete Lyapunov solve by one LAPACK LU of the Kronecker system, and
`range_basis`, an orthonormal basis of a range from one LAPACK SVD.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dgecon, dgesdd, dgetrf, dgetrs

from .config import LYAPUNOV_RESIDUAL, SYMMETRY
from .errors import NumericalError

_EPS = np.finfo(float).eps


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
    solve is `kron_lyapunov`.
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
    return kron_lyapunov(A, Q)


def kron_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """P with A^T P A - P = -Q from one LU of I - kron(A^T, A^T).

    A and Q are float arrays of one square shape, unchecked: the caller
    has made sure that rho(A) < 1 and that Q is symmetric.  The n^2
    system in the row-major vec(P) is factored by LAPACK `dgetrf` and
    solved by `dgetrs`, the calls that scipy's
    `solve_discrete_lyapunov(A.T, Q, method="direct")` makes on a
    general (not symmetric or triangular) system, so P is bitwise its
    result there.  (OpenBLAS's `dgesv` takes a threaded path of its own
    from n = 12 on and rounds differently.)  A singular system raises
    NumericalError; a reciprocal condition number (`dgecon`) below
    machine epsilon warns with LinAlgWarning, as `scipy.linalg.solve`
    does.  Up to two defect-correction passes reuse the LU factors, and
    the residual must come within `LYAPUNOV_RESIDUAL * max(1, ||Q||_F)`
    plus the rounding of forming it, `64 eps n max(1, ||A||_F^2)
    ||P||_F`.  The gate is a sanity check that refuses a grossly wrong
    solve, not a certificate that `m2` is sound.
    """
    n = A.shape[0]
    At = A.T
    # kron(At, At) as one broadcast product: the same entries, bitwise.
    lhs = np.eye(n * n) - np.multiply.outer(At, At).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    anorm = np.abs(lhs).sum(axis=0).max()
    lu, piv, info = dgetrf(lhs)
    if info > 0:
        raise NumericalError(f"Kronecker Lyapunov system is singular (zero pivot {info})")
    rcond, _ = dgecon(lu, anorm, norm="1")
    if rcond < _EPS:
        warnings.warn(
            f"Ill-conditioned Kronecker Lyapunov system (rcond={rcond:.6g}): result may not be accurate.",
            LinAlgWarning,
            stacklevel=2,
        )
    P = dgetrs(lu, piv, Q.ravel())[0].reshape(n, n)
    P = 0.5 * (P + P.T)
    target = LYAPUNOV_RESIDUAL * max(1.0, np.linalg.norm(Q, "fro"))
    R = At @ P @ A - P + Q
    for _ in range(2):
        if np.linalg.norm(R, "fro") <= target:
            break
        # A defect-correction pass recovers accuracy lost to the
        # conditioning of the Kronecker system.
        delta = dgetrs(lu, piv, R.ravel())[0].reshape(n, n)
        P = 0.5 * ((P + delta) + (P + delta).T)
        R = At @ P @ A - P + Q
    residual = np.linalg.norm(R, "fro")
    # Forming the residual A^T P A - P rounds at the size of
    # ||A||^2 ||P||, which dominates the budget for badly scaled P or
    # large A; accept that floor, a backward error, on top of the target.
    scale = max(1.0, np.linalg.norm(A, "fro") ** 2)
    eval_floor = 64.0 * _EPS * n * scale * np.linalg.norm(P, "fro")
    if residual > target + eval_floor:
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_RESIDUAL:.1e} * ||Q||"
        )
    return P


def range_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a nonempty float matrix M.

    The left singular vectors from LAPACK `dgesdd` whose singular values
    exceed `max(M.shape) * s_max * eps`, the rank cutoff of
    `scipy.linalg.orth`, which runs the same SVD.
    """
    u, s, _, info = dgesdd(M, compute_uv=1, full_matrices=0)
    if info > 0:
        raise NumericalError("SVD did not converge")
    return u[:, s > max(M.shape) * s[0] * _EPS]


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
