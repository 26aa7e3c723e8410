"""Complex matrix kernel used by the simulator.

Thin wrappers around LAPACK-backed numpy routines on complex128 stacks
(..., rows, cols). Decompositions raise NumericError instead of
returning garbage.
"""

from __future__ import annotations

import numpy as np


class NumericError(ArithmeticError):
    """A factorization or solve failed (e.g. matrix not positive definite)."""


def qr_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR of a stack (..., m, m) of square matrices as (q, |diag r|), the
    (..., m) magnitudes being all of r that successive detection reads.
    q is LAPACK's Householder factor as it comes, not normalized."""
    q, r = np.linalg.qr(a)
    return q, np.abs(np.diagonal(r, axis1=-2, axis2=-1))


def re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum(a o conj(b)) = Re tr(a b^H) over the trailing two axes of
    complex stacks (..., rows, cols). Computed from the float64 views of
    the arrays, which avoids forming conj(b) and a complex product."""
    x = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    y = np.ascontiguousarray(b, dtype=np.complex128).view(np.float64)
    return np.einsum(
        "...i,...i->...", x.reshape(x.shape[:-2] + (-1,)), y.reshape(y.shape[:-2] + (-1,))
    )


def cholesky_stack(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack (..., m, m) of HPD matrices."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"cholesky_stack: matrix not positive definite ({exc})") from exc


def logdet_hpd_stack(a: np.ndarray) -> np.ndarray:
    """log-determinants of a stack (..., m, m) of HPD matrices."""
    c = cholesky_stack(a)
    d = np.real(np.diagonal(c, axis1=-2, axis2=-1))
    return 2.0 * np.sum(np.log(d), axis=-1)
