"""Dense LU factorization with partial pivoting.

Used for the reduced susceptance matrix: the PTDF build and the voltage
angle solves from net injections. Systems are desk scale, so a dense
factorization is deliberate.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

PIVOT_TOL = 1e-12


def lu_factor(a: np.ndarray):
    """Factor a square matrix as P A = L U with partial pivoting.

    Returns (lu, piv) in the usual packed form: strictly lower triangle of
    ``lu`` holds L (unit diagonal implied), upper triangle holds U.

    Raises SingularMatrix when the best available pivot is below
    ``PIVOT_TOL``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    n = a.shape[0]
    lu = a.copy()
    piv = np.arange(n)
    for k in range(n):
        row = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[row, k]) <= PIVOT_TOL:
            raise SingularMatrix(f"pivot {lu[row, k]:.3e} at column {k}")
        if row != k:
            lu[[k, row]] = lu[[row, k]]
            piv[[k, row]] = piv[[row, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv


def lu_backsolve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b given the packed factorization of A.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != lu.shape[0]:
        raise DimensionMismatch(
            f"rhs length {b.shape[0]} != matrix order {lu.shape[0]}"
        )
    x = b[piv].astype(float, copy=True)
    n = lu.shape[0]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x

