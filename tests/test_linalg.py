import numpy as np
import pytest

from masbound.linalg import (
    char_poly_coeffs,
    eigenvalues,
    min_singular_value,
    solve_discrete_lyapunov,
    sym_eig_extremes,
)
from conftest import random_stable_matrix


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
