"""Kernel tests. Oracles here are hand-coded and independent of the
implementation: triple-loop products, cofactor determinants, closed-form
2x2 inverses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import linalg
from relaysim.linalg import NumericError

from oracle import (
    ShapeError,
    as_matrix,
    conj_transpose,
    frobenius_norm,
    logdet_hpd,
    matmul,
    qr_decompose,
    qr_stack,
    row_norm_sq,
    solve_hpd,
    trace,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0j
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def cofactor_det(a):
    """Determinant by Laplace expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * a[0, j] * cofactor_det(minor)
    return total


# ---------------------------------------------------------------- matmul


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(11)
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 3, 3)
    assert np.allclose(matmul(a, b), triple_loop_matmul(a, b), atol=1e-12)


def test_matmul_rectangular():
    rng = np.random.default_rng(12)
    a = random_complex(rng, 2, 5)
    b = random_complex(rng, 5, 3)
    assert np.allclose(matmul(a, b), triple_loop_matmul(a, b), atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_matmul_rejects_nan():
    bad = np.array([[np.nan + 0j, 0], [0, 0]])
    with pytest.raises(ValueError):
        matmul(bad, np.eye(2, dtype=complex))


# ------------------------------------------------ stacked linalg.matmul


def random_stack(rng, shape, order):
    return np.asarray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), order=order)


def assert_close_to_matmul(product, x, y):
    expected = x @ y
    error = np.linalg.norm(product - expected, axis=(-2, -1))
    assert np.all(error <= 1e-14 * np.linalg.norm(expected, axis=(-2, -1)))


@pytest.mark.parametrize("order", ["F", "C"])
def test_trial_minor_matmul_of_square_stacks(order):
    rng = np.random.default_rng(21)
    x, y = (random_stack(rng, (9, 3, 4, 4), order) for _ in range(2))
    product = linalg.matmul(x, y)
    assert_close_to_matmul(product, x, y)
    assert product.flags.f_contiguous


@pytest.mark.parametrize("order", ["F", "C"])
def test_trial_minor_matmul_of_the_af_cascade_shapes(order):
    # g (2 x 5) h (5 x 2) is trial-minor; h g has 5 rows and is a stacked @
    rng = np.random.default_rng(22)
    g = random_stack(rng, (9, 3, 2, 5), order)
    h = random_stack(rng, (9, 3, 5, 2), order)
    cascade = linalg.matmul(g, h)
    assert_close_to_matmul(cascade, g, h)
    assert cascade.flags.f_contiguous
    assert_close_to_matmul(linalg.matmul(h, g), h, g)


def test_trial_minor_matmul_of_conjugate_transposed_views():
    # the operands relay_grams passes: g g^H and h^H h, with the
    # conjugate transposes formed from swapaxes views of trial-minor h, g
    rng = np.random.default_rng(23)
    h = random_stack(rng, (9, 3, 5, 4), "F")
    g = random_stack(rng, (9, 3, 4, 5), "F")
    for x, y in [(g, np.swapaxes(g, -1, -2).conj()), (np.swapaxes(h, -1, -2).conj(), h)]:
        product = linalg.matmul(x, y)
        assert_close_to_matmul(product, x, y)
        assert product.flags.f_contiguous


# ------------------------------------------------------- conj_transpose


def test_conj_transpose_entries():
    a = np.array([[1 + 2j, 3 - 1j]])
    ah = conj_transpose(a)
    assert ah.shape == (2, 1)
    assert ah[0, 0] == 1 - 2j
    assert ah[1, 0] == 3 + 1j


@given(st.integers(0, 10_000))
def test_conj_transpose_involution(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, rng.integers(1, 6), rng.integers(1, 6))
    assert np.array_equal(conj_transpose(conj_transpose(a)), a)


# ------------------------------------------------------------- trace etc.


@given(st.integers(0, 10_000))
def test_trace_cyclic(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    a = random_complex(rng, n, n)
    b = random_complex(rng, n, n)
    assert trace(matmul(a, b)) == pytest.approx(trace(matmul(b, a)), rel=1e-10)


def test_trace_requires_square():
    with pytest.raises(ShapeError):
        trace(np.ones((2, 3), dtype=complex))


def test_frobenius_norm_known_value():
    a = np.array([[3.0 + 4j, 0.0], [0.0, 0.0]])
    assert frobenius_norm(a) == pytest.approx(5.0)


def test_row_norm_sq_known_value():
    a = np.array([[1 + 1j, 2.0], [0.0, 3j]])
    assert row_norm_sq(a, 0) == pytest.approx(6.0)
    assert row_norm_sq(a, 1) == pytest.approx(9.0)


def test_row_norm_sq_index_error():
    with pytest.raises(ShapeError):
        row_norm_sq(np.eye(2, dtype=complex), 2)


# ---------------------------------------------------------------- QR


def test_qr_identity():
    f = qr_decompose(np.eye(3, dtype=complex))
    assert np.allclose(f.q, np.eye(3))
    assert np.allclose(f.r, np.eye(3))


def test_qr_negative_scalar_phase_flip():
    f = qr_decompose(np.array([[-2.0 + 0j]]))
    assert f.q[0, 0] == pytest.approx(-1.0)
    assert f.r[0, 0] == pytest.approx(2.0)


def test_qr_rank_deficient_zero_diagonal():
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    f = qr_decompose(a)
    d = np.real(np.diagonal(f.r))
    assert d[0] > 0
    assert d[1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(f.q @ f.r, a, atol=1e-12)


def test_qr_requires_square():
    with pytest.raises(ShapeError):
        qr_decompose(np.ones((2, 3), dtype=complex))


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_qr_contract(seed, n):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n, n)
    f = qr_decompose(a)
    scale = max(frobenius_norm(a), 1.0)
    # reconstruction
    assert frobenius_norm(f.q @ f.r - a) <= 1e-10 * scale
    # unitarity
    assert frobenius_norm(conj_transpose(f.q) @ f.q - np.eye(n)) <= 1e-10
    # upper triangular with real non-negative diagonal
    assert np.allclose(np.tril(f.r, -1), 0.0, atol=1e-12 * scale)
    d = np.diagonal(f.r)
    assert np.all(np.imag(d) == 0.0)
    assert np.all(np.real(d) >= 0.0)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_qr_stack_matches_normalized_oracle_up_to_column_phases(seed, n):
    # qr_stack keeps LAPACK's q and only |diag r|; qr_decompose rotates
    # the phases out of r's diagonal and into q's columns
    a = random_complex(np.random.default_rng(seed), n, n)
    q, r_diag = qr_stack(a)
    f = qr_decompose(a)
    assert r_diag.shape == (n,)
    assert np.array_equal(r_diag, np.real(np.diagonal(f.r)))
    phase = np.sum(q.conj() * f.q, axis=0)
    assert np.allclose(np.abs(phase), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(q * phase, f.q, rtol=0, atol=1e-12)


# ------------------------------------------------------------ solve_hpd


def test_solve_hpd_closed_form_2x2():
    # inverse of [[2, i], [-i, 2]] is (1/3) [[2, -i], [i, 2]]
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    x = solve_hpd(a, np.eye(2, dtype=complex))
    expected = np.array([[2.0, -1j], [1j, 2.0]]) / 3.0
    assert np.allclose(x, expected, atol=1e-12)


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 4))
def test_solve_hpd_roundtrip(seed, n, p):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, n, n)
    a = conj_transpose(m) @ m + np.eye(n)  # well conditioned HPD
    b = random_complex(rng, n, p)
    x = solve_hpd(a, b)
    assert frobenius_norm(a @ x - b) <= 1e-10 * max(frobenius_norm(b), 1.0)


def test_solve_hpd_reports_failing_pivot():
    a = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    with pytest.raises(NumericError, match="pivot 2"):
        solve_hpd(a, np.eye(2, dtype=complex))


def test_solve_hpd_shape_mismatch():
    with pytest.raises(ShapeError):
        solve_hpd(np.eye(2, dtype=complex), np.ones((3, 1), dtype=complex))


# ------------------------------------------------------------ logdet_hpd


def test_logdet_matches_cofactor_oracle():
    rng = np.random.default_rng(21)
    m = random_complex(rng, 3, 3)
    a = conj_transpose(m) @ m + np.eye(3)
    det = cofactor_det(a)
    assert abs(det.imag) < 1e-10 * abs(det.real)
    assert logdet_hpd(a) == pytest.approx(np.log(det.real), rel=1e-10)


def test_logdet_identity_is_zero():
    assert logdet_hpd(np.eye(4, dtype=complex)) == pytest.approx(0.0, abs=1e-14)


@given(st.integers(0, 10_000), st.integers(1, 6))
def test_logdet_scaling_rule(seed, n):
    # logdet(c A) = n log c + logdet(A), checked at c = 4
    rng = np.random.default_rng(seed)
    m = random_complex(rng, n, n)
    a = conj_transpose(m) @ m + np.eye(n)
    assert logdet_hpd(4.0 * a) == pytest.approx(
        n * np.log(4.0) + logdet_hpd(a), rel=1e-10
    )


def test_logdet_rejects_indefinite():
    a = np.array([[1.0, 0.0], [0.0, -2.0]], dtype=complex)
    with pytest.raises(NumericError):
        logdet_hpd(a)


def test_logdet_rejects_nan():
    # numpy's Cholesky factors this into NaNs without a LinAlgError
    a = np.eye(5, dtype=complex)[np.newaxis].copy()
    a[0, 0, 4] = a[0, 4, 0] = np.nan
    with pytest.raises(NumericError, match="factor not finite"):
        linalg.logdet_hpd_stack(a)


def test_as_matrix_rejects_vector():
    with pytest.raises(ShapeError):
        as_matrix(np.ones(3))
