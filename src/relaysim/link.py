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
sum_k h_k^H h_k.
"""

from __future__ import annotations

import numpy as np

from .channel import NetworkConfig
from .linalg import logdet_hpd_stack, qr_stack

_LN2 = float(np.log(2.0))


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

