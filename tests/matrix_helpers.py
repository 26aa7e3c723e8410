"""Single-matrix helpers that only the tests use: checked products,
Hermitian transpose, trace and norms, and an HPD log-determinant."""

from __future__ import annotations

import numpy as np

from relaysim.linalg import ShapeError, as_matrix, logdet_hpd_stack


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b with an explicit inner-dimension check."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Hermitian transpose."""
    return as_matrix(a, "a").conj().T


def trace(a: np.ndarray) -> complex:
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"trace needs a square matrix, got {a.shape}")
    return complex(np.trace(a))


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(as_matrix(a, "a")))


def row_norm_sq(a: np.ndarray, m: int) -> float:
    """Squared Euclidean norm of row m."""
    a = as_matrix(a, "a")
    if not 0 <= m < a.shape[0]:
        raise ShapeError(f"row index {m} out of range for shape {a.shape}")
    row = a[m]
    return float(np.real(np.vdot(row, row)))


def logdet_hpd(a: np.ndarray) -> float:
    """log-determinant (natural log) of a Hermitian positive definite
    matrix; NumericError unless positive definite."""
    return float(logdet_hpd_stack(as_matrix(a, "a")))
