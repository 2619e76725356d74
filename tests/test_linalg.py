import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from masbound import NumericalError, linalg
from masbound.linalg import (
    char_poly_coeffs,
    eigenvalues,
    kron_lyapunov,
    min_singular_value,
    range_basis,
    solve_discrete_lyapunov,
    sym_eig_extremes,
)
from conftest import random_spd_matrix, random_stable_matrix


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(np.diag([0.5, 0.3]))
        assert sorted(spec.eigenvalues.real) == pytest.approx([0.3, 0.5])
        assert np.allclose(spec.eigenvalues.imag, 0.0)
        assert spec.spectral_radius == pytest.approx(0.5)

    def test_double_root_companion(self):
        spec = eigenvalues([[0.0, 1.0], [-0.25, 1.0]])
        assert np.allclose(sorted(spec.eigenvalues.real), [0.5, 0.5], atol=1e-8)
        assert spec.spectral_radius == pytest.approx(0.5, abs=1e-8)

    def test_block_triangular(self):
        # Oracle: the 2x2 rotation-scale block contributes 0.9 +/- 0.25i and
        # the decoupled third state contributes its diagonal entry.
        A = np.array([[0.9, -0.25, 1.0], [0.25, 0.9, 0.0], [0.0, 0.0, -0.98]])
        expected = np.array([0.9 + 0.25j, 0.9 - 0.25j, -0.98 + 0.0j])
        spec = eigenvalues(A)
        got = np.sort_complex(spec.eigenvalues)
        assert np.allclose(got, np.sort_complex(expected), atol=1e-10)
        assert spec.spectral_radius == pytest.approx(0.98)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))

    def test_spectral_mapping_squares(self, rng):
        for n in range(1, 6):
            A = random_stable_matrix(rng, n)
            lam = np.sort_complex(eigenvalues(A).eigenvalues) ** 2
            lam2 = np.sort_complex(eigenvalues(A @ A).eigenvalues)
            assert np.allclose(np.sort_complex(lam), lam2, atol=1e-8)


class TestCharPoly:
    def test_scalar(self):
        assert char_poly_coeffs([[0.5]]) == pytest.approx([-0.5])

    def test_companion(self):
        assert char_poly_coeffs([[0.0, 1.0], [-0.25, 1.0]]) == pytest.approx([0.25, -1.0])

    def test_block_triangular_cofactor(self):
        # Oracle: (s^2 - 1.8 s + 0.8725)(s + 0.98) expanded by hand.
        A = np.array([[0.9, -0.25, 1.0], [0.25, 0.9, 0.0], [0.0, 0.0, -0.98]])
        assert char_poly_coeffs(A) == pytest.approx([0.85505, -0.8915, -0.82])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            char_poly_coeffs(np.ones((3, 2)))

    def test_roots_are_eigenvalues(self, rng):
        for n in range(1, 9):
            A = random_stable_matrix(rng, n)
            c = char_poly_coeffs(A)
            poly = np.concatenate([[1.0], c[::-1]])  # descending powers
            for lam in eigenvalues(A).eigenvalues:
                val = np.polyval(poly, lam)
                assert abs(val) <= 1e-6 * (1.0 + abs(lam)) ** n


class TestDiscreteLyapunov:
    def test_scalar_geometric_series(self):
        P = solve_discrete_lyapunov([[0.5]], [[1.0]])
        assert P[0, 0] == pytest.approx(4.0 / 3.0)

    def test_diagonal_decoupled(self):
        P = solve_discrete_lyapunov(np.diag([0.5, 0.3]), np.eye(2))
        assert np.allclose(P, np.diag([1 / 0.75, 1 / 0.91]))

    def test_nilpotent_terminating_series(self):
        P = solve_discrete_lyapunov([[0.0, 10.0], [0.0, 0.0]], np.eye(2))
        assert np.allclose(P, np.diag([1.0, 101.0]))

    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="spectral radius"):
            solve_discrete_lyapunov([[1.0]], [[1.0]])

    def test_rejects_indefinite_q(self):
        with pytest.raises(ValueError, match="positive definite"):
            solve_discrete_lyapunov([[0.5]], [[-1.0]])

    def test_rejects_asymmetric_q(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_discrete_lyapunov(0.1 * np.eye(2), [[1.0, 0.5], [0.0, 1.0]])

    def test_residual_and_definiteness_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            A = random_stable_matrix(rng, n, rho_max=0.95)
            P = solve_discrete_lyapunov(A, np.eye(n))
            residual = np.linalg.norm(A.T @ P @ A - P + np.eye(n), "fro")
            assert residual <= 1e-8 * np.linalg.norm(np.eye(n), "fro") + 1e-12
            assert np.min(np.linalg.eigvalsh(P - 1e-12 * np.eye(n))) > 0.0

    def test_matches_truncated_series(self, rng):
        for _ in range(10):
            A = random_stable_matrix(rng, 3, rho_max=0.9)
            Q = np.eye(3)
            P_series = np.zeros((3, 3))
            term = Q.copy()
            At = np.eye(3)
            while np.linalg.norm(term, "fro") >= 1e-14:
                P_series += term
                At = At @ A
                term = At.T @ Q @ At
            P = solve_discrete_lyapunov(A, Q)
            assert np.linalg.norm(P - P_series, "fro") <= 1e-8


def scipy_direct(A, Q):
    """The reference: scipy's Kronecker solve, symmetrised as the kernel does."""
    P = scipy.linalg.solve_discrete_lyapunov(A.T, Q, method="direct")
    return 0.5 * (P + P.T)


class TestKronLyapunovKernel:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        identity_q=st.booleans(),
    )
    def test_bitwise_scipy_direct_on_dense_matrices(self, n, seed, identity_q):
        rng = np.random.default_rng(seed)
        A = random_stable_matrix(rng, n)
        Q = np.eye(n) if identity_q else random_spd_matrix(rng, n)
        expected = scipy_direct(A, Q)
        assert np.array_equal(kron_lyapunov(A, Q), expected)
        assert np.array_equal(solve_discrete_lyapunov(A, Q), expected)

    def test_symmetric_matrices_within_a_few_ulps(self, rng):
        # scipy factors the (then symmetric) Kronecker system with a
        # symmetric solver, the kernel with LU, so only the rounding moves.
        for n in range(1, 9):
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            A = S * (rng.uniform(0.2, 0.95) / np.max(np.abs(np.linalg.eigvalsh(S))))
            expected = scipy_direct(A, np.eye(n))
            P = kron_lyapunov(A, np.eye(n))
            assert np.max(np.abs(P - expected)) <= 8 * np.finfo(float).eps * np.max(np.abs(expected))

    def test_singular_kronecker_system_raises(self):
        # Eigenvalues 2 and 1/2: lambda_i lambda_j = 1 zeroes a pivot.
        with pytest.raises(NumericalError, match="singular"):
            kron_lyapunov(np.diag([2.0, 0.5]), np.eye(2))

    def test_ill_conditioned_system_warns_once(self):
        # 1 - a^2 = eps, while 1 + 0.9 a is about 1.9, so rcond < eps.
        A = np.diag([1.0 - 2.0**-53, -0.9])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            P = solve_discrete_lyapunov(A, np.eye(2))
        assert [w.category for w in caught] == [scipy.linalg.LinAlgWarning]
        assert P[0, 0] == pytest.approx(1.0 / np.finfo(float).eps)

    def test_well_conditioned_system_does_not_warn(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kron_lyapunov(random_stable_matrix(rng, 4), np.eye(4))

    @staticmethod
    def perturb_first_solve(monkeypatch, corrections):
        """Offset the kernel's first LU solve by 1e-3; later solves return `corrections(x)`."""
        solves = []

        def solve(lu, piv, b):
            x, info = scipy.linalg.lapack.dgetrs(lu, piv, b)
            solves.append(1)
            return (x + 1e-3 if len(solves) == 1 else corrections(x)), info

        monkeypatch.setattr(linalg, "dgetrs", solve)
        return solves

    def test_defect_correction_repairs_a_perturbed_solve(self, monkeypatch, rng):
        A = random_stable_matrix(rng, 3)
        solves = self.perturb_first_solve(monkeypatch, lambda x: x)
        P = kron_lyapunov(A, np.eye(3))
        assert 2 <= len(solves) <= 3
        assert np.linalg.norm(A.T @ P @ A - P + np.eye(3), "fro") <= 1e-8 * np.sqrt(3)

    def test_residual_gate_raises(self, monkeypatch, rng):
        solves = self.perturb_first_solve(monkeypatch, np.zeros_like)
        with pytest.raises(NumericalError, match="Lyapunov residual"):
            kron_lyapunov(random_stable_matrix(rng, 3), np.eye(3))
        assert len(solves) == 3


class TestRangeBasis:
    def test_matches_scipy_orth(self, rng):
        for q, m in ((1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)):
            for rank_one in (False, True):
                M = rng.standard_normal((q, m))
                if rank_one:
                    M = np.outer(M[:, 0], rng.standard_normal(m))
                assert np.array_equal(range_basis(M), scipy.linalg.orth(M))

    def test_rank_cutoff(self):
        assert range_basis(np.array([[1.0, 0.0], [0.0, 1e-17]])).shape == (2, 1)
        assert range_basis(np.array([[1.0, 0.0], [0.0, 1e-10]])).shape == (2, 2)


class TestSymEig:
    def test_diagonal(self):
        lo, hi = sym_eig_extremes(np.diag([4.0 / 3.0, 1.0 / 0.91]))
        assert (lo, hi) == pytest.approx((1.0 / 0.91, 4.0 / 3.0))

    def test_identity(self):
        assert sym_eig_extremes(np.eye(3)) == pytest.approx((1.0, 1.0))

    def test_two_by_two(self):
        assert sym_eig_extremes([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx((1.0, 3.0))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig_extremes([[1.0, 1.0], [0.0, 1.0]])


class TestMinSingularValue:
    def test_identity(self):
        assert min_singular_value(np.eye(2)) == pytest.approx(1.0)

    def test_rank_deficient(self):
        assert min_singular_value([[1.0, 0.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert min_singular_value([[3.0, 0.0], [0.0, 4.0]]) == pytest.approx(3.0)

    def test_rectangular_ok(self):
        assert min_singular_value(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])) == pytest.approx(1.0)
