"""Linear solves through the LU inverse behind the grid's reduced B matrix."""
import numpy as np

from ucsm.grid import _inverse


def test_solves_known_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([5.0, 10.0])
    x = _inverse(a) @ b
    np.testing.assert_allclose(a @ x, b, atol=1e-12)


def test_random_systems_match_numpy(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        np.testing.assert_allclose(_inverse(a) @ b, np.linalg.solve(a, b),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(_inverse(a), np.linalg.inv(a),
                                   rtol=1e-9, atol=1e-9)
