"""Complex matrix kernels used by the simulator, and the one module that
knows how their stacks lie in memory.

The kernels take complex128 stacks (..., rows, cols) whose leading axes
are Monte Carlo trials (and relays), and work trial by trial.
Decompositions raise NumericError instead of returning garbage.

The layout. Stacks of m x m matrices with m <= TRIAL_MINOR_MAX_M are
trial-minor: Fortran-ordered (T, ..., rows, cols), so the trial axis is
contiguous and every matrix entry is one vector over the trials. There
a kernel works entry by entry, one numpy call per entry or term over all
trials, which beats one BLAS or LAPACK call per small matrix; from the
crossover up, stacks are C-ordered and go to numpy's batched matmul,
einsum and LAPACK. A producer of a stack writes it in stack_order(m);
every kernel that forks on the layout does so here, once, beside the
timing that decided the fork, so no caller branches on it. The kernels
fork on m, not on their operands' flags, and accept a stack of either
order: only their speed depends on it.

Sums. A trial's values must not depend on how many trials share its
batch. ndarray.sum over a matrix or relay axis orders its additions by
the memory layout, which changes when a trial range holds one trial. So
a trial-minor kernel adds whole trial vectors from left to right
(_fixed_sum), the bound's relay sums are added relay by relay from left
to right at every m (relay_prefix_sums), and the others reduce one trial
at a time (einsum over one axis, a batched product).
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate

import numpy as np

# The largest trial-minor m. Per product of 512 x 10 stacks, entrywise
# against a stacked matmul: 0.64 against 1.65 ms at m = 4, 1.31 against
# 1.81 ms at m = 5, 2.04 against 1.78 ms at m = 6. A whole 5 x 5 job is
# not clearly faster trial-minor (no bundled scenario has 5 <= m <= 7).
TRIAL_MINOR_MAX_M = 4


class NumericError(ArithmeticError):
    """A factorization or solve failed (e.g. matrix not positive definite)."""


def _trial_minor(m: int) -> bool:
    """Whether m x m stacks are trial-minor: the one layout decision."""
    return m <= TRIAL_MINOR_MAX_M


def _fixed_sum(terms) -> np.ndarray:
    """The sum of an iterable of arrays, added elementwise from left to
    right whatever their layout."""
    return reduce(np.add, terms)


def stack_order(m: int) -> str:
    """The memory order, "F" (trial-minor) or "C", in which to write a
    stack of m x m matrices, or the channels they are formed from."""
    # a C-ordered 4 x 4 draw cost +17 ms in the Grams and af cascades of
    # one 56 ms fig2 job
    return "F" if _trial_minor(m) else "C"


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for complex stacks (..., m, j) and (..., j, cols) of one
    leading shape; if m is trial-minor, entry by entry into a
    trial-minor stack: each out[..., i, k] = sum_j x[..., i, j]
    y[..., j, k] is added from left to right, one product of two trial
    vectors at a time."""
    rows, inner = x.shape[-2:]
    if not _trial_minor(rows):
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
    entries' products with _fixed_sum; others are read as float64 views,
    which avoids forming conj(b) and a complex product."""
    rows, cols = a.shape[-2:]
    # entrywise, this ran 6.5x slower at 8 x 8
    if _trial_minor(rows):
        prod = a.real * b.real + a.imag * b.imag
        return _fixed_sum(prod[..., i, j] for i in range(rows) for j in range(cols))
    x = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    y = np.ascontiguousarray(b, dtype=np.complex128).view(np.float64)
    return np.einsum(
        "...i,...i->...", x.reshape(x.shape[:-2] + (-1,)), y.reshape(y.shape[:-2] + (-1,))
    )


def re_trace(a: np.ndarray) -> np.ndarray:
    """Re tr a over the trailing two axes of a stack (..., m, m)."""
    m = a.shape[-1]
    # np.trace at m = 4 made a trial's value depend on its range length;
    # _fixed_sum at every m moved 3 af rows each of fig5 and fig6
    if _trial_minor(m):
        return _fixed_sum(a[..., i, i].real for i in range(m))
    return np.real(np.trace(a, axis1=-2, axis2=-1))


def relay_sum(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k weights_k a_k for weights (..., k) and a stack a (..., k, m, m):
    a _fixed_sum over the relays of trial-minor stacks, else one
    (1, k) @ (k, m*m) product per trial."""
    *lead, k, m, _ = a.shape
    # trial-minor, this ran 4.8x slower at 8 x 8
    if _trial_minor(m):
        return _fixed_sum(weights[..., i, None, None] * a[..., i, :, :] for i in range(k))
    return (weights[..., np.newaxis, :] @ a.reshape(*lead, k, m * m)).reshape(*lead, m, m)


def relay_prefix_sums(a: np.ndarray, counts) -> dict:
    """{k: sum_{i<k} a_i} for each k of `counts` and a stack a
    (..., K, m, m) with K >= max(counts), whole relays added from left to
    right. The first term is a copy, so that no sum is a view of a."""
    sums = accumulate((a[..., i, :, :] for i in range(1, max(counts))), np.add,
                      initial=np.copy(a[..., 0, :, :]))
    return {k: total for k, total in enumerate(sums, 1) if k in counts}


def qr_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, |diag r|^2) of the QR factorizations a = q r of a stack
    (T, m, m): q (T, m, m) in Fortran order at every m, and (T, m). a's
    storage may be reused.

    Modified Gram-Schmidt, vectorized across the trials rather than one
    LAPACK call per m x m matrix, whose per-call cost dominates at these
    sizes. It works on a (column, row, trial) array, so column j of every
    trial is one contiguous (m, T) slice (a trial-minor a is one
    already, others are copied into one). Step j normalizes the residual
    v_j of column j, with |r_jj|^2 = ||v_j||^2, and projects q_j out of
    all the columns after it in one step. A residual that is exactly
    zero, such as that of a zero column, is never divided by: its q_j
    is 0, so it removes nothing from the later columns (where LAPACK's
    Householder QR would pick some unit q_j). A column in the span of
    the earlier ones leaves rounding dust."""
    m = a.shape[-1]
    a = np.ascontiguousarray(a.transpose(2, 1, 0))
    q = np.empty_like(a)
    r_sq = np.empty((m, a.shape[-1]))
    for j in range(m):
        v = a[j]
        r_sq[j] = np.einsum("rt,rt->t", v.real, v.real) + np.einsum("rt,rt->t", v.imag, v.imag)
        scale = np.divide(1.0, np.sqrt(r_sq[j]), out=np.zeros(a.shape[-1]), where=r_sq[j] > 0)
        np.multiply(v, scale, out=q[j])
        a[j + 1 :] -= np.einsum("rt,crt->ct", q[j].conj(), a[j + 1 :])[:, np.newaxis] * q[j]
    return q.transpose(2, 1, 0), r_sq.T


def re_diag_congruence(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Re diag(q^H a q) (T, m) of stacks a and q (T, m, m): the j-th
    entry is Re q_j^H a q_j for the j-th column q_j of q."""
    m = q.shape[-1]
    # at 4 x 4, a @ q is one zgemm call per trial: 0.8-1.1 against
    # 0.5-0.6 ms here for a link call's noise; at 8 x 8 a @ q is faster
    if _trial_minor(m):  # in (column, row, trial) order
        q = q.transpose(2, 1, 0)
        aq = np.einsum("crt,jct->jrt", a.transpose(2, 1, 0), q)
        return np.real(np.einsum("jrt,jrt->tj", q.conj(), aq))
    q = np.ascontiguousarray(q)
    return np.real(np.einsum("...ij,...ij->...j", q.conj(), a @ q))


def hpd_inverse(a: np.ndarray, definite) -> np.ndarray:
    """The inverses of a stack (..., m, m) of Hermitian positive definite
    matrices; a's storage may be reused. Raises NumericError unless every
    matrix is positive definite.

    Trial-minor stacks are inverted in place by Gauss-Jordan elimination
    without pivoting, one numpy call per row operation over all trials.
    Its p-th pivot is the p-th diagonal entry of the matrix's LDL^H
    factorization, so the pivots are the positive-definiteness check:
    they are all positive exactly when the matrix is positive definite,
    and a zero row or a NaN gives a zero or NaN pivot. Larger stacks are
    inverted by LAPACK, and checked first by a Cholesky factorization
    unless `definite()`, which is called there alone, returns True: the
    caller's proof that the factorization would succeed on every
    matrix."""
    m = a.shape[-1]
    # LAPACK at 4 x 4 took 12.6 against 6.1 ms for one fig2 job's D; a
    # C-order Gauss-Jordan at 8 x 8 took 34.7 against 30.0 ms for LAPACK
    if not _trial_minor(m):
        if not definite():
            cholesky_stack(a)  # raises NumericError unless positive definite
        return np.linalg.inv(a)
    for p in range(m):
        pivot = a[..., p, p].real.copy()
        if not np.all(pivot > 0):
            raise NumericError("hpd_inverse: matrix not positive definite")
        a[..., p, p] = 1.0
        a[..., p, :] *= (1.0 / pivot)[..., None]
        for i in (*range(p), *range(p + 1, m)):
            factor = a[..., i, p].copy()
            a[..., i, p] = 0.0
            a[..., i, :] -= factor[..., None] * a[..., p, :]
    return a


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
