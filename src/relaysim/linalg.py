"""Complex matrix kernel used by the simulator.

Thin, checked wrappers around LAPACK-backed numpy/scipy routines. All
matrices are 2-D complex128 ndarrays, except for the *_stack routines
and re_inner, which take stacks (..., rows, cols). Decompositions raise
NumericError instead of returning garbage, and shape mismatches raise
ShapeError with both operand shapes in the message.

scipy is imported only by solve_hpd, the single-matrix reference solve,
so that importing the simulator does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """A factorization or solve failed (e.g. matrix not positive definite)."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class QrFactors:
    """QR factors of a square matrix, with q unitary and r upper triangular.

    The diagonal of r is real and non-negative; the column phases of q
    absorb the arbitrary unit factors so the factorization is unique for
    full-rank input.
    """

    q: np.ndarray
    r: np.ndarray


def qr_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-normalized QR of a stack (..., m, m) of square matrices.

    LAPACK's Householder QR leaves each diagonal entry of r with an
    arbitrary unit phase; multiplying column m of q and row m of r by the
    conjugate phase cancels it without changing the product q @ r. A zero
    diagonal entry (rank-deficient input) is left at exactly 0.
    """
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    q = q * phase[..., np.newaxis, :]
    r = r * phase.conj()[..., :, np.newaxis]
    # kill the residual imaginary dust on the diagonal; it is |d| by construction
    idx = np.arange(a.shape[-1])
    r[..., idx, idx] = mag
    return q, r


def qr_decompose(a: np.ndarray) -> QrFactors:
    """QR factorization of one square matrix, r diagonal real and >= 0."""
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"qr_decompose needs a square matrix, got {a.shape}")
    q, r = qr_stack(a)
    return QrFactors(q=q, r=r)


def re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum(a o conj(b)) = Re tr(a b^H) over the trailing two axes of
    complex stacks (..., rows, cols). Computed from the float64 views of
    the arrays, which avoids forming conj(b) and a complex product."""
    x = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    y = np.ascontiguousarray(b, dtype=np.complex128).view(np.float64)
    return np.einsum(
        "...i,...i->...", x.reshape(x.shape[:-2] + (-1,)), y.reshape(y.shape[:-2] + (-1,))
    )


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for Hermitian positive definite a via Cholesky.

    Never forms an inverse. Raises NumericError naming the failing pivot
    when a is not positive definite.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"solve_hpd needs a square matrix, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"solve_hpd shapes do not align: {a.shape} vs {b.shape}")
    from scipy.linalg.lapack import zpotrf, zpotrs

    c, info = zpotrf(a, lower=1)
    if info != 0:
        raise NumericError(f"solve_hpd: matrix is not positive definite (pivot {info} failed)")
    x, info = zpotrs(c, b, lower=1)
    if info != 0:  # pragma: no cover - zpotrs only fails on bad arguments
        raise NumericError(f"solve_hpd: triangular solve failed (info={info})")
    return x


def cholesky_stack(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack (..., m, m) of HPD matrices.

    Same zpotrf kernel as solve_hpd, applied across the stack; per-item
    results are bit-identical to the single-matrix route.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"cholesky_stack: matrix not positive definite ({exc})") from exc


def logdet_hpd_stack(a: np.ndarray) -> np.ndarray:
    """log-determinants of a stack (..., m, m) of HPD matrices."""
    c = cholesky_stack(a)
    d = np.real(np.diagonal(c, axis1=-2, axis2=-1))
    return 2.0 * np.sum(np.log(d), axis=-1)
