"""Beamformer construction and exact per-relay power normalization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaysim import linalg
from relaysim.beamformers import Scheme, regularized_inverse, relay_grams, stacked_beamformers
from relaysim.channel import channels_for_trials
from relaysim.linalg import NumericError, cholesky_stack

from oracle import (
    Network,
    RelayWeights,
    af_beamformer,
    build_weights,
    conj_transpose,
    mf_beamformer,
    matmul,
    mf_rzf_beamformer,
    power_control_factor,
    realization_for_trial,
)


def realized_power(f, rho, h, cfg):
    """Independent check of the average relay transmit power."""
    cov = (cfg.p / cfg.m) * (h @ conj_transpose(h)) + np.eye(cfg.n)
    scaled = rho * f
    return float(np.real(np.trace(scaled @ cov @ conj_transpose(scaled))))


def test_scheme_wire_names():
    assert [scheme.value for scheme in Scheme] == ["af", "mf", "mf-rzf"]
    assert Scheme("mf-rzf") is Scheme.MF_RZF
    with pytest.raises(ValueError):
        Scheme("zf")


def test_af_is_identity():
    assert np.array_equal(af_beamformer(3), np.eye(3))


def test_mf_matches_conjugate_product_oracle():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    expected = matmul(conj_transpose(g), conj_transpose(h))
    assert np.allclose(mf_beamformer(h, g), expected, atol=1e-12)


def test_mf_rzf_zero_alpha_inverts_second_hop():
    # alpha = 0 with invertible g g^H: the cascade g @ f equals h^H exactly
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    g = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    f = mf_rzf_beamformer(h, g, alpha=0.0)
    assert np.allclose(g @ f, conj_transpose(h), atol=1e-10)


def test_mf_rzf_zero_alpha_singular_gram_raises():
    h = np.ones((2, 2), dtype=complex)
    g = np.zeros((2, 2), dtype=complex)  # g g^H singular
    with pytest.raises(NumericError):
        mf_rzf_beamformer(h, g, alpha=0.0)


def test_mf_rzf_singular_gram_in_a_chunk_raises():
    # one trial of a batch has a second hop with a zero row: with alpha = 0
    # its Gram matrix g g^H is singular and the whole chunk must fail
    h, g = channels_for_trials(4, 4, 4, seed=3, start=100, stop=164, g_start=4)
    a, b = relay_grams(h, g)
    d = regularized_inverse(a, alpha=0.0)  # full rank: fine
    stacked_beamformers(Scheme.MF_RZF, a, b, d)
    g[37, 2, 1, :] = 0.0
    with pytest.raises(NumericError):
        regularized_inverse(relay_grams(h, g)[0], alpha=0.0)


def scaled_gram(a, alpha):
    """A/(1 + alpha) + alpha/(1 + alpha) I, the matrix regularized_inverse inverts."""
    m = a.shape[-1]
    return a / (1.0 + alpha) + alpha / (1.0 + alpha) * np.eye(m)


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_regularized_inverse_matches_lapack_inverse(m, order):
    h, g = channels_for_trials(m, m + 2, 3, seed=8, start=0, stop=64, g_start=3)
    a = np.asarray(relay_grams(h, g)[0], order=order)
    for alpha in (0.0, 0.01, 0.7, 1e4):
        d = regularized_inverse(a, alpha)
        expected = np.linalg.inv(scaled_gram(a, alpha))
        error = np.linalg.norm(d - expected, axis=(-2, -1))
        assert np.all(error <= 1e-13 * np.linalg.norm(expected, axis=(-2, -1)))
        assert d.flags.f_contiguous  # the trial-minor layout, whatever a's


def hermitian_with_eigenvalues(rng, eigenvalues):
    m = len(eigenvalues)
    u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    return (u * eigenvalues) @ u.conj().T


def gram_batch_with_defects(m, alpha):
    """Grams (6, 2, m, m) of which trials 1-4 have one of these at relay
    1: a zero row of g (at alpha = 0 an exactly singular Gram), an
    eigenvalue of A + alpha I below zero, a NaN entry and its mirror, and
    a positive definite A + alpha I with an eigenvalue near zero."""
    rng = np.random.default_rng(m)
    h, g = channels_for_trials(m, m + 1, 2, seed=m, start=0, stop=6, g_start=2)
    g[1, 1, m - 1, :] = 0.0
    a = np.array(relay_grams(h, g)[0])
    eigenvalues = np.linspace(1.0, 2.0, m)
    eigenvalues[m // 2] = -alpha - 0.5
    a[2, 1] = hermitian_with_eigenvalues(rng, eigenvalues)
    a[3, 1, 0, m - 1] = a[3, 1, m - 1, 0] = np.nan
    eigenvalues[m // 2] = 1e-9 - alpha
    a[4, 1] = hermitian_with_eigenvalues(rng, eigenvalues)
    return a


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_regularized_inverse_fails_exactly_where_cholesky_fails(m, alpha):
    a = gram_batch_with_defects(m, alpha)
    for order in ("F", "C"):
        failed = {"inverse": [], "cholesky": []}
        for trial in range(len(a)):
            one = np.asarray(a[trial : trial + 1], order=order)
            for name, check in [
                ("inverse", lambda: regularized_inverse(one, alpha)),
                ("cholesky", lambda: cholesky_stack(scaled_gram(one, alpha))),
            ]:
                try:
                    check()
                except NumericError:
                    failed[name].append(trial)
        # the zero row fails at alpha = 0 only, the NaN on both paths
        expected = [1, 2, 3] if alpha == 0.0 else [2, 3]
        assert failed == {"inverse": expected, "cholesky": expected}
    for trial in failed["inverse"]:  # one failing trial fails its batch
        with pytest.raises(NumericError):
            regularized_inverse(a[[0, trial, 4, 5]], alpha)
    regularized_inverse(np.delete(a, failed["inverse"], axis=0), alpha)


@pytest.mark.parametrize(
    "alpha, n, checks",
    [(1.0, 8, 0), (1.0, None, 1), (0.0, 8, 1), (1e-12, 8, 1)],
    ids=["proven", "not-a-gram", "alpha-0", "below-the-bound"],
)
def test_regularized_inverse_checks_what_its_bound_cannot_prove(monkeypatch, alpha, n, checks):
    # one fig5 job's Grams: 256 trials of 10 relays, m = n = 8. The bound
    # is about 1e-10, so alpha = 1e-12 is below it; alpha = 0 never
    # proves anything, and without n, a need not be a Gram
    h, g = channels_for_trials(8, 8, 10, seed=5, start=0, stop=256, g_start=10)
    a = relay_grams(h, g)[0]
    factor, calls = linalg.cholesky_stack, []
    monkeypatch.setattr(linalg, "cholesky_stack", lambda x: calls.append(x.shape) or factor(x))
    d = regularized_inverse(a, alpha, n)
    assert calls == [(256, 10, 8, 8)] * checks
    assert d.tobytes() == regularized_inverse(a, alpha).tobytes()  # the same inv either way


def _relative_error(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    m=st.integers(1, 4),
    extra=st.integers(0, 2),
    k=st.integers(1, 4),
    alpha=st.sampled_from([0.0, 0.7, 1e4, 1e8]),
)
def test_gram_products_equal_per_relay_builder_products(seed, m, extra, k, alpha):
    # (P, S, ||fh||^2, ||f||^2) from g g^H and h^H h against the products
    # of the per-relay builders' f, which for mf-rzf the Gram route scales
    # by 1 + alpha; fails for C = (1 + alpha)I - alpha D at alpha = 1e8
    n = m + extra
    h, g = channels_for_trials(m, n, k, seed=seed, start=0, stop=3, g_start=k)
    a, b = relay_grams(h, g)
    if alpha == 0.0:
        # both routes invert g g^H, so their errors grow with its condition
        assume(np.linalg.cond(a).max() < 1e4)
    # mf-rzf reads D; af reads the channels, for its cascade and n
    products = dict(d=regularized_inverse(a, alpha), h=h, g=g)
    builders = {
        Scheme.AF: lambda h_i, g_i: af_beamformer(n),
        Scheme.MF: mf_beamformer,
        Scheme.MF_RZF: lambda h_i, g_i: (1 + alpha) * mf_rzf_beamformer(h_i, g_i, alpha),
    }
    for scheme, builder in builders.items():
        p, s, fh_sq, f_sq = stacked_beamformers(scheme, a, b, **products)
        for t in range(len(h)):
            for i in range(k):
                f = builder(h[t, i], g[t, i])
                gf = g[t, i] @ f
                assert _relative_error(p[t, i], gf @ h[t, i]) < 1e-10
                assert _relative_error(s[t, i], gf @ conj_transpose(gf)) < 1e-10
                assert fh_sq[t, i] == pytest.approx(np.linalg.norm(f @ h[t, i]) ** 2, rel=1e-10)
                assert f_sq[t, i] == pytest.approx(np.linalg.norm(f) ** 2, rel=1e-10)


def test_mf_rzf_large_alpha_approaches_mf():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    alpha = 1e8
    f_rzf = mf_rzf_beamformer(h, g, alpha)
    f_mf = mf_beamformer(h, g)
    rel = np.linalg.norm(alpha * f_rzf - f_mf) / np.linalg.norm(f_mf)
    assert rel < 1e-6


def test_power_factor_identity_channel():
    # m=n=2, h=I, p=q=2, sigma1_sq=1: rho^2 = 2 / tr{2 I} = 1/2
    f = np.eye(2, dtype=complex)
    h = np.eye(2, dtype=complex)
    rho = power_control_factor(f, h, p=2.0, m=2, sigma1_sq=1.0, q=2.0)
    assert rho == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_power_factor_scalar_closed_form():
    # h = 1+i, f = (2+i)(1-i) = 3-i, p=q=4: rho^2 = 4 / (10 * 9) = 2/45
    h = np.array([[1.0 + 1j]])
    g = np.array([[2.0 - 1j]])
    f = mf_beamformer(h, g)
    assert f[0, 0] == pytest.approx(3.0 - 1j)
    rho = power_control_factor(f, h, p=4.0, m=1, sigma1_sq=1.0, q=4.0)
    assert rho**2 == pytest.approx(2.0 / 45.0, rel=1e-12)


@given(st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False))
def test_power_factor_homogeneity(c):
    rng = np.random.default_rng(13)
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base = power_control_factor(f, h, p=2.0, m=2, sigma1_sq=1.0, q=5.0)
    scaled = power_control_factor(c * f, h, p=2.0, m=2, sigma1_sq=1.0, q=5.0)
    assert scaled == pytest.approx(base / abs(c), rel=1e-9)


def test_power_factor_zero_beamformer_raises():
    with pytest.raises(NumericError):
        power_control_factor(
            np.zeros((2, 2), dtype=complex),
            np.eye(2, dtype=complex),
            p=1.0,
            m=2,
            sigma1_sq=1.0,
            q=1.0,
        )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([Scheme.AF, Scheme.MF, Scheme.MF_RZF]),
    st.integers(1, 4),
)
def test_realized_power_is_exactly_q(seed, scheme, k):
    cfg = Network(m=2, n=3, k=k, p=4.0, q=2.5, alpha=1.0)
    real = realization_for_trial(cfg, seed=seed, trial=0)
    weights = build_weights(scheme, real, cfg)
    for i in range(k):
        power = realized_power(weights.f[i], weights.rho[i], real.h[i], cfg)
        assert power == pytest.approx(cfg.q, rel=1e-9)


def test_build_weights_matches_per_relay_ops():
    cfg = Network(m=2, n=3, k=3, p=1.5, q=3.0, alpha=0.7)
    real = realization_for_trial(cfg, seed=77, trial=2)
    for scheme, builder in [
        (Scheme.AF, lambda h, g: af_beamformer(cfg.n)),
        (Scheme.MF, mf_beamformer),
        (Scheme.MF_RZF, lambda h, g: mf_rzf_beamformer(h, g, cfg.alpha)),
    ]:
        weights = build_weights(scheme, real, cfg)
        for i in range(cfg.k):
            f_i = builder(real.h[i], real.g[i])
            rho_i = power_control_factor(f_i, real.h[i], cfg.p, cfg.m, 1.0, cfg.q)
            assert np.allclose(weights.f[i], f_i, atol=1e-12)
            assert weights.rho[i] == pytest.approx(rho_i, rel=1e-12)


def test_build_weights_rejects_mismatched_config():
    cfg = Network(m=2, n=3, k=2, p=1.0, q=1.0)
    other = Network(m=2, n=3, k=3, p=1.0, q=1.0)
    real = realization_for_trial(cfg, seed=0, trial=0)
    with pytest.raises(ValueError):
        build_weights(Scheme.MF, real, other)


def test_relay_weights_validation():
    with pytest.raises(ValueError):
        RelayWeights(f=np.zeros((1, 2, 2), dtype=complex), rho=np.array([0.0]))
    with pytest.raises(ValueError):
        RelayWeights(f=np.zeros((1, 2, 3), dtype=complex), rho=np.array([1.0]))
