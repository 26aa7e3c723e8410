"""Complex matrix kernel used by the simulator.

Thin wrappers around LAPACK-backed numpy routines on complex128 stacks
(..., rows, cols). Decompositions raise NumericError instead of
returning garbage.

Stacks of m x m matrices with m <= TRIAL_MINOR_MAX_M are trial-minor:
Fortran-ordered (T, ..., rows, cols), so the trial axis is contiguous
and every matrix entry is one vector over the trials. There matmul
forms a product entry by entry, one multiply-add of trial vectors per
term, which beats a stacked matmul (one BLAS call per product) and an
einsum, and sums over a matrix or relay axis are fixed_sums:
ndarray.sum orders its additions by the memory layout, which changes
when a trial range holds one trial.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

# The largest trial-minor m. Per product of 512 x 10 stacks, entrywise
# against a stacked matmul: 0.64 against 1.65 ms at m = 4, 1.31 against
# 1.81 ms at m = 5, 2.04 against 1.78 ms at m = 6. A whole 5 x 5 job is
# not clearly faster trial-minor (no bundled scenario has 5 <= m <= 7).
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
    """x @ y for complex stacks (..., m, j) and (..., j, cols) of one
    leading shape; if m is trial-minor, entry by entry into a
    trial-minor stack: each out[..., i, k] = sum_j x[..., i, j]
    y[..., j, k] is added from left to right, one product of two trial
    vectors at a time."""
    rows, inner = x.shape[-2:]
    if not trial_minor(rows):
        return x @ y
    out = np.empty(x.shape[:-1] + y.shape[-1:], complex, order="F")
    term = np.empty(x.shape[:-2], complex, order="F")
    for i in range(rows):
        for k in range(y.shape[-1]):
            entry = np.multiply(x[..., i, 0], y[..., 0, k], out=out[..., i, k])
            for j in range(1, inner):
                entry += np.multiply(x[..., i, j], y[..., j, k], out=term)
    return out


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
    """Lower Cholesky factors of a stack (..., m, m) of HPD matrices.
    numpy factors a matrix with a NaN entry into NaNs without an error,
    so a factor whose diagonal is not finite fails too."""
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"cholesky_stack: matrix not positive definite ({exc})") from exc
    if not np.all(np.isfinite(np.diagonal(c, axis1=-2, axis2=-1))):
        raise NumericError("cholesky_stack: matrix not positive definite (factor not finite)")
    return c


def logdet_hpd_stack(a: np.ndarray) -> np.ndarray:
    """log-determinants of a stack (..., m, m) of HPD matrices."""
    c = cholesky_stack(a)
    d = np.real(np.diagonal(c, axis1=-2, axis2=-1))
    return 2.0 * np.sum(np.log(d), axis=-1)
