"""Receive-chain tests: effective channel, SNR formula, capacity, the
cut-set bound, and agreement between the analytic SNR and a brute-force
noise simulation."""

import numpy as np
import pytest

from relaysim.beamformers import Scheme, regularized_inverse, relay_grams, stacked_beamformers
from relaysim.beamformers import stacked_power_factors
from relaysim.channel import channels_for_trials
from relaysim.linalg import relay_sum
from relaysim.link import sic_capacity, stacked_capacity_bits, stacked_upper_bound

from oracle import (
    ChannelRealization,
    Network,
    build_weights,
    compute_link_metrics,
    conj_transpose,
    effective_channel,
    instantaneous_capacity,
    lapack_scheme_capacity,
    per_stream_snr,
    qr_decompose,
    qr_stack,
    realization_for_trial,
    simulate_transmission,
    stacked_snr,
    trial_rng,
    upper_bound_capacity,
)


def identity_network():
    cfg = Network(m=2, n=2, k=1, p=2.0, q=2.0)
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
    cfg = Network(m=1, n=1, k=1, p=4.0, q=4.0)
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
    cfg = Network(m=2, n=3, k=2, p=1.0, q=1.0)
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
    cfg = Network(m=2, n=2, k=2, p=3.0, q=5.0)
    real = realization_for_trial(cfg, seed=11, trial=4)
    weights = build_weights(Scheme.MF_RZF, real, cfg)
    qr = qr_decompose(effective_channel(real, weights))
    snr = per_stream_snr(real, weights, qr, cfg)
    for m in range(cfg.m):
        noise = 1.0
        for i in range(cfg.k):
            row = (conj_transpose(qr.q) @ real.g[i] @ weights.f[i])[m]
            noise += weights.rho[i] ** 2 * float(
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
    cfg = Network(m=2, n=2, k=1, p=2.0, q=2.0)
    rng = np.random.default_rng(9)
    g = rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2))
    h = np.ones((1, 2, 2), dtype=complex)
    real = ChannelRealization(h=h, g=g)
    weights = build_weights(Scheme.MF, real, cfg)
    metrics = compute_link_metrics(real, weights, cfg)
    assert metrics.snr_per_stream[1] == pytest.approx(0.0, abs=1e-18)
    assert metrics.snr_per_stream[0] > 0
    assert np.isfinite(metrics.capacity_bits)


def random_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def one_relay(h_sd, noise_gram=None):
    """sic_capacity's inputs for effective channels h_sd (T, m, m) seen
    through one relay with rho = 1: P = h_sd and S = noise_gram (or 0)."""
    s = np.zeros_like(h_sd) if noise_gram is None else noise_gram
    return h_sd[:, np.newaxis], s[:, np.newaxis], np.ones((len(h_sd), 1))


def link_inputs(h, g, scheme, cfg):
    """(p, s, rho) of channel stacks h and g as the Monte Carlo chunk
    forms them for one point and scheme."""
    a, b = relay_grams(h, g)
    d = regularized_inverse(a, cfg.alpha)
    p, s, fh_sq, f_sq = stacked_beamformers(scheme, a, b, d, h=h, g=g)
    return p, s, stacked_power_factors(fh_sq, f_sq, cfg.p, cfg.m, cfg.q)


def product_inputs(m, n, k, power, scheme, trials, seed):
    """(p, s, rho, config) of trials [0, trials) as the Monte Carlo chunk
    forms them for one point, at PNR = QNR = power, and scheme."""
    cfg = Network(m=m, n=n, k=k, p=power, q=power)
    h, g = channels_for_trials(m, n, k, seed, 0, trials, k)
    return *link_inputs(h, g, scheme, cfg), cfg


def test_snr_ignores_unit_phases_on_the_columns_of_q():
    # a unit phase on column j of H_sd lands on column j of q and leaves
    # |r_jj| and q_j^H M q_j, so every stream's SNR, unchanged
    cfg = Network(m=4, n=4, k=3, p=10.0, q=5.0)
    rng = np.random.default_rng(21)
    p = random_stack(rng, 32, 3, 4, 4)
    w = random_stack(rng, 32, 3, 4, 6)
    s = w @ np.swapaxes(w, -1, -2).conj()
    rho = rng.random((32, 3)) + 0.5
    phases = np.exp(2j * np.pi * rng.random((32, 1, 1, 4)))
    capacity = sic_capacity(p, s, rho, cfg.p)
    np.testing.assert_allclose(sic_capacity(p * phases, s, rho, cfg.p), capacity, rtol=1e-12)
    q, r_diag = qr_stack(relay_sum(rho, p))
    noise_gram = np.einsum("tk,tkij->tij", rho**2, s)
    snr = stacked_snr(noise_gram, q, r_diag, cfg)
    rotated = stacked_snr(noise_gram, q * phases[:, 0], r_diag, cfg)
    np.testing.assert_allclose(rotated, snr, rtol=1e-12)


def test_rank_deficient_effective_channel_gives_its_last_stream_zero_snr():
    # the last column is a combination of the others, so r_mm is rounding
    # dust: the capacity is that of the first two streams alone
    cfg = Network(m=3, n=3, k=1, p=100.0, q=1.0)
    rng = np.random.default_rng(4)
    h_sd = random_stack(rng, 16, 3, 3)
    h_sd[..., 2] = h_sd[..., 0] - 2j * h_sd[..., 1]
    snr = stacked_snr(np.zeros_like(h_sd), *qr_stack(h_sd), cfg)
    assert np.all(snr[:, :2] > 0)
    assert np.all(snr[:, 2] < 1e-18)
    two_streams = stacked_capacity_bits(snr[:, :2])
    capacity = sic_capacity(*one_relay(h_sd), cfg.p)
    np.testing.assert_allclose(capacity, two_streams, rtol=1e-14)


@pytest.mark.parametrize(
    "h_sd",
    [
        [[1.0, 2.0, 0.0], [3j, -1.0, 0.0], [0.5, 1j, 0.0]],  # the last column is zero
        [[1.0, 1.0], [1.0, 1.0]],  # rank 1 in exact arithmetic
        [[0.0, 0.0], [0.0, 0.0]],
    ],
)
def test_exact_rank_deficiency_does_not_raise_and_matches_lapack(h_sd):
    h_sd = np.array(h_sd, dtype=complex)[np.newaxis]
    m = h_sd.shape[-1]
    cfg = Network(m=m, n=m, k=1, p=10.0, q=1.0)
    w = np.arange(1.0, m * m + 1).reshape(1, m, m) * (1 + 0.5j)
    args = one_relay(h_sd, w @ np.swapaxes(w, -1, -2).conj())
    expected = lapack_scheme_capacity(*args, cfg)
    with np.errstate(all="raise"):
        capacity = sic_capacity(*args, cfg.p)
    assert np.all(np.isfinite(capacity))
    np.testing.assert_allclose(capacity, expected, rtol=1e-12, atol=1e-12)


def test_a_zero_column_is_a_stream_with_zero_snr_that_removes_nothing():
    # q_j = 0 for a zero column j, so the later streams see the channel
    # without that column, as LAPACK's QR of that m x (m - 1) matrix does
    cfg = Network(m=3, n=3, k=1, p=10.0, q=1.0)
    rng = np.random.default_rng(5)
    for j in (0, 1):
        h_sd = random_stack(rng, 8, 3, 3)
        w = random_stack(rng, 8, 3, 3)
        noise_gram = w @ np.swapaxes(w, -1, -2).conj()
        h_sd[..., j] = 0.0
        with np.errstate(all="raise"):
            capacity = sic_capacity(*one_relay(h_sd, noise_gram), cfg.p)
        rest = np.delete(h_sd, j, axis=-1)  # (8, 3, 2): the other two streams
        expected = stacked_capacity_bits(stacked_snr(noise_gram, *qr_stack(rest), cfg))
        np.testing.assert_allclose(capacity, expected, rtol=1e-13)


@pytest.mark.parametrize("m, worst_cond", [(2, 1e6), (4, 1e7)])
def test_per_trial_capacity_matches_lapack_on_ill_conditioned_trials(m, worst_cond):
    # mf at 30 dB and one relay draws effective channels with condition
    # numbers up to 6.1e6 (m = 2) and 2.9e7 (m = 4) among these trials
    p, s, rho, cfg = product_inputs(m, m, 1, 1000.0, Scheme.MF, trials=8192, seed=1)
    cond = np.linalg.cond(relay_sum(rho, p))
    assert cond.max() > worst_cond
    capacity = sic_capacity(p, s, rho, cfg.p)
    expected = lapack_scheme_capacity(p, s, rho, cfg)
    worst = np.argsort(cond)[-64:]
    np.testing.assert_allclose(capacity[worst], expected[worst], rtol=1e-13, atol=0)
    np.testing.assert_allclose(capacity, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "m, n, k, scheme",
    [(4, 4, 2, "mf"), (3, 5, 3, "af"), (8, 8, 2, "mf-rzf"), (4, 4, 6, "mf-rzf")],
)
def test_kernel_capacity_does_not_depend_on_the_batch_length(m, n, k, scheme):
    # every row-axis reduction must sum in the same order whether the
    # trial axis holds 1024 trials, one, or an odd three; the draw is
    # trial-minor at m <= 4
    p, s, rho, cfg = product_inputs(m, n, k, 10.0, Scheme(scheme), trials=1024, seed=2)
    batch = sic_capacity(p, s, rho, cfg.p)
    alone = [
        sic_capacity(p[t : t + 1], s[t : t + 1], rho[t : t + 1], cfg.p) for t in range(1024)
    ]
    assert np.concatenate(alone).tobytes() == batch.tobytes()
    assert sic_capacity(p[-3:], s[-3:], rho[-3:], cfg.p).tobytes() == batch[-3:].tobytes()


@pytest.mark.parametrize("m, n, k", [(2, 3, 5), (4, 4, 6)])
def test_permuting_the_relays_leaves_every_capacity_unchanged(m, n, k):
    # relay i's rho_i must weight its own P_i and S_i, and each relay's
    # a, b, d and cascade must come from that relay's h and g; only the
    # order of the relay sums moves, so the capacities agree to rounding
    cfg = Network(m=m, n=n, k=k, p=10.0, q=10.0)
    h, g = channels_for_trials(m, n, k, 8, 0, 256, k)
    order = np.random.default_rng(k).permutation(k)
    assert np.any(order != np.arange(k))
    stacks = (h, g), (h[:, order], g[:, order])
    for scheme in Scheme:
        capacity, permuted = (sic_capacity(*link_inputs(*hg, scheme, cfg), cfg.p) for hg in stacks)
        np.testing.assert_allclose(permuted, capacity, rtol=1e-12, atol=0)
    bound, permuted = (
        stacked_upper_bound(np.sum(relay_grams(*hg)[1], axis=-3), cfg.p) for hg in stacks
    )
    np.testing.assert_allclose(permuted, bound, rtol=1e-12, atol=0)


def test_upper_bound_against_lu_determinant_oracle():
    cfg = Network(m=2, n=3, k=2, p=10.0, q=1.0)
    real = realization_for_trial(cfg, seed=21, trial=0)
    gram = sum(
        conj_transpose(real.h[i]) @ real.h[i] for i in range(cfg.k)
    )
    arg = np.eye(2) + (cfg.p / 2) * gram
    expected = 0.5 * np.log2(np.real(np.linalg.det(arg)))
    assert upper_bound_capacity(real, cfg) == pytest.approx(expected, rel=1e-10)


def test_upper_bound_ignores_relay_power():
    cfg_lo = Network(m=2, n=2, k=2, p=5.0, q=1.0)
    cfg_hi = Network(m=2, n=2, k=2, p=5.0, q=1000.0)
    real = realization_for_trial(cfg_lo, seed=2, trial=7)
    assert upper_bound_capacity(real, cfg_lo) == upper_bound_capacity(real, cfg_hi)


def test_capacity_never_exceeds_cut_set_bound():
    # spot check across schemes and shapes; the acceptance suite hits this harder
    for seed, (m, n, k) in enumerate([(2, 2, 1), (2, 3, 2), (4, 4, 4)]):
        cfg = Network(m=m, n=n, k=k, p=10.0, q=10.0)
        for trial in range(200):
            real = realization_for_trial(cfg, seed=seed, trial=trial)
            bound = upper_bound_capacity(real, cfg)
            for scheme in Scheme:
                metrics = compute_link_metrics(
                    real, build_weights(scheme, real, cfg), cfg
                )
                assert metrics.capacity_bits <= bound + 1e-9


def test_simulated_snr_matches_formula():
    cfg = Network(m=2, n=2, k=2, p=4.0, q=6.0)
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
