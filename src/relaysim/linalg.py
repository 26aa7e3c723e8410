"""Complex matrix kernel used by the simulator.

Thin wrappers around LAPACK-backed numpy routines on complex128 stacks
(..., rows, cols). Decompositions raise NumericError instead of
returning garbage.

Stacks of m x m matrices with m <= TRIAL_MINOR_MAX_M are trial-minor:
Fortran-ordered (T, ..., rows, cols), so the trial axis is contiguous.
There one einsum over all trials (matmul) beats a stacked matmul, which
makes one BLAS call per product, and sums over a matrix or relay axis
are fixed_sums: ndarray.sum orders its additions by the memory layout,
which changes when a trial range holds one trial.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

# The largest trial-minor m: at m = 4 the einsum takes half the time of
# a stacked matmul, at m = 5 the matmul is faster.
TRIAL_MINOR_MAX_M = 4


class NumericError(ArithmeticError):
    """A factorization or solve failed (e.g. matrix not positive definite)."""


def trial_minor(m: int) -> bool:
    """Whether m x m stacks are trial-minor: the one layout decision."""
    return m <= TRIAL_MINOR_MAX_M


def fixed_sum(terms) -> np.ndarray:
    """The sum of an iterable of arrays, added elementwise from left to
    right whatever their layout."""
    return reduce(np.add, terms)


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks (..., m, j) and (..., j, cols); if m is
    trial-minor, one einsum that writes a trial-minor stack."""
    if trial_minor(x.shape[-2]):
        return np.einsum("...ij,...jk->...ik", x, y, order="F")
    return x @ y


def re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum(a o conj(b)) = Re tr(a b^H) over the trailing two axes of
    complex stacks (..., rows, cols). Trial-minor stacks add their
    entries' products with fixed_sum; others are read as float64 views,
    which avoids forming conj(b) and a complex product."""
    rows, cols = a.shape[-2:]
    if trial_minor(rows):
        prod = a.real * b.real + a.imag * b.imag
        return fixed_sum(prod[..., i, j] for i in range(rows) for j in range(cols))
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
