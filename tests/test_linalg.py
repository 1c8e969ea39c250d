import numpy as np
import pytest

from ucsm.errors import DimensionMismatch, SingularMatrix
from ucsm.linalg import lu_backsolve, lu_factor


def _solve(a, b):
    return lu_backsolve(*lu_factor(a), b)


def test_solves_known_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([5.0, 10.0])
    x = _solve(a, b)
    np.testing.assert_allclose(a @ x, b, atol=1e-12)


def test_random_systems_match_numpy(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        np.testing.assert_allclose(_solve(a, b), np.linalg.solve(a, b),
                                   rtol=1e-9, atol=1e-9)


def test_matrix_rhs():
    a = np.array([[4.0, 1.0], [2.0, 3.0]])
    b = np.eye(2)
    x = _solve(a, b)
    np.testing.assert_allclose(a @ x, np.eye(2), atol=1e-12)


def test_factorization_reconstructs(rng):
    a = rng.normal(size=(6, 6)) + 6 * np.eye(6)
    lu, piv = lu_factor(a)
    lmat = np.tril(lu, -1) + np.eye(6)
    umat = np.triu(lu)
    np.testing.assert_allclose(lmat @ umat, a[piv], atol=1e-10)


def test_pivoting_handles_zero_leading_entry():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = _solve(a, np.array([3.0, 7.0]))
    np.testing.assert_allclose(x, [7.0, 3.0])


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_non_square_raises():
    with pytest.raises(DimensionMismatch):
        lu_factor(np.zeros((2, 3)))


def test_nonfinite_raises():
    with pytest.raises(ValueError):
        lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_backsolve_dimension_check():
    lu, piv = lu_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        lu_backsolve(lu, piv, np.zeros(4))
