"""End-to-end link: effective channel, QR-based successive detection,
per-stream SNR, and instantaneous capacity.

The destination QR-decomposes the effective source-destination channel
and detects streams in reverse order, cancelling already-decoded ones.
With perfect cancellation stream m sees only the m-th diagonal of the
triangular factor as signal, plus forwarded relay noise and local
receiver noise. Capacity carries the 1/2 pre-log of the two-slot
half-duplex protocol.

The stacked_* functions evaluate whole batches of Monte Carlo trials at
once (leading axes broadcast). They never see a beamformer F, only the
per-relay m x m products that stacked_beamformers forms once per chunk
and scheme: the cascade P_k = g_k F_k h_k and the forwarded-noise Gram
S_k = (g_k F_k)(g_k F_k)^H. Per sweep point, what is left is

    effective channel  H_sd = sum_k rho_k P_k
    relay noise Gram   M    = sum_k rho_k^2 S_k
    row power of q^H [rho_1 g_1 F_1, ..., rho_k g_k F_k]  =  Re diag(q^H M q)

where q is the unitary factor of H_sd, and the cut-set bound needs only
sum_k h_k^H h_k. The single-realization API forms P and S from
RelayWeights.f and wraps the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamformers import RelayWeights
from .channel import ChannelRealization, NetworkConfig
from .linalg import QrFactors, logdet_hpd_stack, qr_stack

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class LinkMetrics:
    """Everything the Monte Carlo loop needs from one realization under
    one beamforming scheme."""

    effective_channel: np.ndarray
    qr: QrFactors
    snr_per_stream: np.ndarray
    capacity_bits: float

    def __post_init__(self):
        snr = self.snr_per_stream
        if not (np.all(np.isfinite(snr)) and np.all(snr >= 0)):
            raise ValueError("per-stream SNRs must be finite and non-negative")


def _relay_sum(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k weights_k a_k for weights (..., k) and a stack a (..., k, m, m),
    as one (1, k) @ (k, m*m) product per trial."""
    *lead, k, m, _ = a.shape
    return (weights[..., np.newaxis, :] @ a.reshape(*lead, k, m * m)).reshape(*lead, m, m)


def stacked_effective_channel(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Source-to-destination cascade summed over relays:
    sum_k rho_k P_k with P_k = g_k f_k h_k, batched over leading axes."""
    return _relay_sum(rho, p)


def stacked_snr(
    noise_gram: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    config: NetworkConfig,
) -> np.ndarray:
    """Post-detection SNR of each stream, batched over leading axes.

    Signal power of stream m is (p/m) r_mm^2. The noise seen by stream m
    is the relay noise forwarded through rho_k g_k f_k, rotated by q^H,
    plus the destination noise:

        sigma1_sq * sum_k rho_k^2 ||row_m(q^H g_k f_k)||^2 + sigma2_sq

    The sum over relays is the m-th diagonal entry of q^H M q, where
    noise_gram is M = sum_k rho_k^2 (g_k f_k)(g_k f_k)^H.
    """
    row_power = np.real(np.einsum("...ij,...ij->...j", q.conj(), noise_gram @ q))
    noise = config.sigma1_sq * row_power + config.sigma2_sq
    diag = np.real(np.diagonal(r, axis1=-2, axis2=-1))
    return (config.p / config.m) * diag**2 / noise


def stacked_capacity_bits(snr: np.ndarray) -> np.ndarray:
    """Half-duplex sum rate in bits: 0.5 * sum_m log2(1 + snr_m)."""
    return 0.5 * np.sum(np.log1p(snr), axis=-1) / _LN2


def stacked_scheme_capacity(
    p: np.ndarray, s: np.ndarray, rho: np.ndarray, config: NetworkConfig
) -> np.ndarray:
    """Capacity of every trial in a batch under one beamforming scheme,
    from the relays' cascades p and forwarded-noise Grams s."""
    q, r = qr_stack(stacked_effective_channel(p, rho))
    return stacked_capacity_bits(stacked_snr(_relay_sum(rho**2, s), q, r, config))


def stacked_upper_bound(b_sum: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Cut-set bound at the source cut, batched over leading axes, from
    b_sum = sum_k h_k^H h_k (..., m, m):

        0.5 * log2 det(I + p/(m sigma1_sq) * sum_k h_k^H h_k)

    Depends only on the first-hop channels, so it is unaffected by the
    relay power budget q and by the beamforming scheme.
    """
    m = b_sum.shape[-1]
    arg = np.eye(m) + (config.p / (m * config.sigma1_sq)) * b_sum
    return 0.5 * logdet_hpd_stack(arg) / _LN2


def effective_channel(
    realization: ChannelRealization, weights: RelayWeights
) -> np.ndarray:
    """Effective m x m source-destination channel of one realization."""
    return stacked_effective_channel(
        realization.g @ weights.f @ realization.h, weights.rho
    )


def per_stream_snr(
    realization: ChannelRealization,
    weights: RelayWeights,
    qr: QrFactors,
    config: NetworkConfig,
) -> np.ndarray:
    """Post-detection SNRs of one realization under one scheme."""
    gf = realization.g @ weights.f
    s = gf @ np.swapaxes(gf, -1, -2).conj()
    return stacked_snr(_relay_sum(weights.rho**2, s), qr.q, qr.r, config)


def instantaneous_capacity(snr_per_stream: np.ndarray) -> float:
    """Half-duplex sum rate in bits for one vector of stream SNRs."""
    snr = np.asarray(snr_per_stream, dtype=float)
    if np.any(snr < 0) or not np.all(np.isfinite(snr)):
        raise ValueError("SNRs must be finite and non-negative")
    return float(stacked_capacity_bits(snr))


def compute_link_metrics(
    realization: ChannelRealization,
    weights: RelayWeights,
    config: NetworkConfig,
) -> LinkMetrics:
    """Assemble the full chain for one realization under one scheme."""
    h_sd = effective_channel(realization, weights)
    q, r = qr_stack(h_sd)
    qr = QrFactors(q=q, r=r)
    snr = per_stream_snr(realization, weights, qr, config)
    return LinkMetrics(
        effective_channel=h_sd,
        qr=qr,
        snr_per_stream=snr,
        capacity_bits=float(stacked_capacity_bits(snr)),
    )


def upper_bound_capacity(
    realization: ChannelRealization, config: NetworkConfig
) -> float:
    """Cut-set bound of one realization, in bits."""
    h = realization.h
    b_sum = np.sum(np.swapaxes(h, -1, -2).conj() @ h, axis=0)
    return float(stacked_upper_bound(b_sum, config))


def simulate_transmission(
    realization: ChannelRealization,
    weights: RelayWeights,
    qr: QrFactors,
    config: NetworkConfig,
    draws: int,
    rng: np.random.Generator,
    sigma1_sq: float | None = None,
    sigma2_sq: float | None = None,
) -> np.ndarray:
    """Measure per-stream SNR by actually running the signal chain.

    Draws `draws` source vectors with covariance (p/m) I and sends them
    over the effective channel; relay noise is drawn per relay and
    forwarded through its weighted beamformer, destination noise is added
    last. The receiver rotates by q^H and a genie removes the known
    signal contribution exactly (perfect cancellation, like the analytic
    formula assumes). The measured SNR of stream m is its analytic signal
    power (p/m) r_mm^2 over the empirical variance of what remains.

    sigma1_sq / sigma2_sq override the noise variances in the draws only
    (default: the config values); setting both to 0 checks the zero-noise
    limit where the residual must vanish identically.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    s1 = config.sigma1_sq if sigma1_sq is None else float(sigma1_sq)
    s2 = config.sigma2_sq if sigma2_sq is None else float(sigma2_sq)
    if s1 < 0 or s2 < 0:
        raise ValueError("noise variances must be >= 0")

    k, n, m = realization.h.shape
    scale_s = np.sqrt(config.p / (2.0 * config.m))
    s = scale_s * (
        rng.standard_normal((m, draws)) + 1j * rng.standard_normal((m, draws))
    )

    h_sd = effective_channel(realization, weights)
    signal_part = h_sd @ s
    y = signal_part.copy()
    scale_n1 = np.sqrt(s1 / 2.0)
    for i in range(k):
        if scale_n1 > 0:
            relay_noise = scale_n1 * (
                rng.standard_normal((n, draws))
                + 1j * rng.standard_normal((n, draws))
            )
            y += weights.rho[i] * (
                realization.g[i] @ (weights.f[i] @ relay_noise)
            )
    if s2 > 0:
        y += np.sqrt(s2 / 2.0) * (
            rng.standard_normal((m, draws)) + 1j * rng.standard_normal((m, draws))
        )

    residual = qr.q.conj().T @ (y - signal_part)
    noise_power = np.mean(np.abs(residual) ** 2, axis=1)
    diag = np.real(np.diagonal(qr.r))
    signal = (config.p / config.m) * diag**2
    zero_noise = np.where(signal > 0, np.inf, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(noise_power > 0, signal / noise_power, zero_noise)
