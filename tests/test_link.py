"""Receive-chain tests: effective channel, SNR formula, capacity, the
cut-set bound, and agreement between the analytic SNR and a brute-force
noise simulation."""

import numpy as np
import pytest

from relaysim.beamformers import Scheme
from relaysim.channel import NetworkConfig

from oracle import (
    ChannelRealization,
    build_weights,
    compute_link_metrics,
    conj_transpose,
    effective_channel,
    instantaneous_capacity,
    per_stream_snr,
    qr_decompose,
    realization_for_trial,
    simulate_transmission,
    trial_rng,
    upper_bound_capacity,
)


def identity_network():
    cfg = NetworkConfig(m=2, n=2, k=1, p=2.0, q=2.0)
    eye = np.eye(2, dtype=complex)[np.newaxis]
    real = ChannelRealization(h=eye.copy(), g=eye.copy())
    return cfg, real


def test_identity_channel_snr_is_one_third():
    # m=2, k=1, h=g=I, p=q=2, sigma^2=1: rho^2 = 1/2 and every stream
    # sees snr = (1 * 1/2) / (1/2 + 1) = 1/3
    cfg, real = identity_network()
    weights = build_weights(Scheme.MF, real, cfg)
    metrics = compute_link_metrics(real, weights, cfg)
    assert np.allclose(metrics.snr_per_stream, 1.0 / 3.0, rtol=1e-12)
    assert metrics.capacity_bits == pytest.approx(np.log2(4.0 / 3.0), rel=1e-12)


def test_scalar_closed_form_snr():
    # single antenna, single relay: h=1+i, g=2-i, p=q=4 gives snr=160/29
    cfg = NetworkConfig(m=1, n=1, k=1, p=4.0, q=4.0)
    real = ChannelRealization(
        h=np.array([[[1.0 + 1j]]]), g=np.array([[[2.0 - 1j]]])
    )
    weights = build_weights(Scheme.MF, real, cfg)
    metrics = compute_link_metrics(real, weights, cfg)
    assert metrics.snr_per_stream[0] == pytest.approx(160.0 / 29.0, rel=1e-12)
    assert metrics.effective_channel[0, 0] == pytest.approx(
        10.0 * weights.rho[0], rel=1e-12
    )


def test_effective_channel_mf_structure():
    # with the matched filter the cascade is sum_k rho_k g g^H h^H h
    cfg = NetworkConfig(m=2, n=3, k=2, p=1.0, q=1.0)
    real = realization_for_trial(cfg, seed=3, trial=0)
    weights = build_weights(Scheme.MF, real, cfg)
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(cfg.k):
        g, h = real.g[i], real.h[i]
        expected += weights.rho[i] * (
            g @ conj_transpose(g) @ conj_transpose(h) @ h
        )
    assert np.allclose(effective_channel(real, weights), expected, atol=1e-12)


def test_per_stream_snr_term_by_term():
    # brute-force the formula for one realization, row norms and all
    cfg = NetworkConfig(m=2, n=2, k=2, p=3.0, q=5.0)
    real = realization_for_trial(cfg, seed=11, trial=4)
    weights = build_weights(Scheme.MF_RZF, real, cfg)
    qr = qr_decompose(effective_channel(real, weights))
    snr = per_stream_snr(real, weights, qr, cfg)
    for m in range(cfg.m):
        noise = cfg.sigma2_sq
        for i in range(cfg.k):
            row = (conj_transpose(qr.q) @ real.g[i] @ weights.f[i])[m]
            noise += cfg.sigma1_sq * weights.rho[i] ** 2 * float(
                np.real(np.vdot(row, row))
            )
        signal = (cfg.p / cfg.m) * float(np.real(qr.r[m, m])) ** 2
        assert snr[m] == pytest.approx(signal / noise, rel=1e-12)


def test_capacity_basics():
    assert instantaneous_capacity(np.array([0.0, 0.0])) == 0.0
    assert instantaneous_capacity(np.array([3.0])) == pytest.approx(1.0)
    assert instantaneous_capacity(np.array([1.0, 1.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        instantaneous_capacity(np.array([-0.5]))
    with pytest.raises(ValueError):
        instantaneous_capacity(np.array([np.inf]))


def test_rank_deficient_stream_gets_zero_snr():
    # rank-1 first hop collapses the second stream; capacity stays finite
    cfg = NetworkConfig(m=2, n=2, k=1, p=2.0, q=2.0)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2))
    h = np.ones((1, 2, 2), dtype=complex)
    real = ChannelRealization(h=h, g=g)
    weights = build_weights(Scheme.MF, real, cfg)
    metrics = compute_link_metrics(real, weights, cfg)
    assert metrics.snr_per_stream[1] == pytest.approx(0.0, abs=1e-18)
    assert metrics.snr_per_stream[0] > 0
    assert np.isfinite(metrics.capacity_bits)


def test_upper_bound_against_lu_determinant_oracle():
    cfg = NetworkConfig(m=2, n=3, k=2, p=10.0, q=1.0)
    real = realization_for_trial(cfg, seed=21, trial=0)
    gram = sum(
        conj_transpose(real.h[i]) @ real.h[i] for i in range(cfg.k)
    )
    arg = np.eye(2) + (cfg.p / (2 * cfg.sigma1_sq)) * gram
    expected = 0.5 * np.log2(np.real(np.linalg.det(arg)))
    assert upper_bound_capacity(real, cfg) == pytest.approx(expected, rel=1e-10)


def test_upper_bound_ignores_relay_power():
    cfg_lo = NetworkConfig(m=2, n=2, k=2, p=5.0, q=1.0)
    cfg_hi = NetworkConfig(m=2, n=2, k=2, p=5.0, q=1000.0)
    real = realization_for_trial(cfg_lo, seed=2, trial=7)
    assert upper_bound_capacity(real, cfg_lo) == upper_bound_capacity(real, cfg_hi)


def test_capacity_never_exceeds_cut_set_bound():
    # spot check across schemes and shapes; the acceptance suite hits this harder
    for seed, (m, n, k) in enumerate([(2, 2, 1), (2, 3, 2), (4, 4, 4)]):
        cfg = NetworkConfig(m=m, n=n, k=k, p=10.0, q=10.0)
        for trial in range(200):
            real = realization_for_trial(cfg, seed=seed, trial=trial)
            bound = upper_bound_capacity(real, cfg)
            for scheme in Scheme:
                metrics = compute_link_metrics(
                    real, build_weights(scheme, real, cfg), cfg
                )
                assert metrics.capacity_bits <= bound + 1e-9


def test_simulated_snr_matches_formula():
    cfg = NetworkConfig(m=2, n=2, k=2, p=4.0, q=6.0)
    real = realization_for_trial(cfg, seed=33, trial=1)
    for scheme in (Scheme.MF, Scheme.MF_RZF):
        weights = build_weights(scheme, real, cfg)
        qr = qr_decompose(effective_channel(real, weights))
        formula = per_stream_snr(real, weights, qr, cfg)
        measured = simulate_transmission(
            real, weights, qr, cfg, draws=200_000, rng=trial_rng(seed=900, trial=0)
        )
        assert np.allclose(measured, formula, rtol=0.02)


def test_zero_noise_draws_leave_zero_residual():
    cfg, real = identity_network()
    weights = build_weights(Scheme.MF, real, cfg)
    qr = qr_decompose(effective_channel(real, weights))
    measured = simulate_transmission(
        real,
        weights,
        qr,
        cfg,
        draws=100,
        rng=trial_rng(seed=1, trial=0),
        sigma1_sq=0.0,
        sigma2_sq=0.0,
    )
    # residual vanished identically, so the ratio diverges
    assert np.all(np.isinf(measured))


def test_simulate_rejects_bad_args():
    cfg, real = identity_network()
    weights = build_weights(Scheme.MF, real, cfg)
    qr = qr_decompose(effective_channel(real, weights))
    rng = trial_rng(seed=0, trial=0)
    with pytest.raises(ValueError):
        simulate_transmission(real, weights, qr, cfg, draws=0, rng=rng)
    with pytest.raises(ValueError):
        simulate_transmission(
            real, weights, qr, cfg, draws=10, rng=rng, sigma1_sq=-1.0
        )
