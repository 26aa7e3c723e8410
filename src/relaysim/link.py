"""End-to-end link: effective channel, QR-based successive detection,
per-stream SNR, and instantaneous capacity.

The destination QR-decomposes the effective source-destination channel
and detects streams in reverse order, cancelling already-decoded ones.
With perfect cancellation stream j sees |r_jj| as signal gain, plus
forwarded relay noise rotated by q_j^H and local receiver noise, both of
unit variance (powers are PNR and QNR): SIC reads only q and |diag r|.
Capacity carries the 1/2 pre-log of the two-slot half-duplex protocol.

The functions here evaluate whole batches of Monte Carlo trials at once
(leading axes broadcast; sic_capacity takes one trial axis). They never
see a beamformer F, only the per-relay m x m products that
stacked_beamformers forms once per chunk, scheme and relay count: the cascade
P_k = g_k F_k h_k and the forwarded-noise Gram S_k = (g_k F_k)(g_k F_k)^H.
Per sweep point, what is left is

    effective channel  H_sd = sum_k rho_k P_k
    relay noise Gram   M    = sum_k rho_k^2 S_k
    row power of q^H [rho_1 g_1 F_1, ..., rho_k g_k F_k]  =  Re diag(q^H M q)

where q is the unitary factor of H_sd, and the cut-set bound needs only
sum_k h_k^H h_k.

sic_capacity factors H_sd by modified Gram-Schmidt (linalg.qr_stack),
whose q_j of an exactly zero residual is 0, so that stream gets SNR 0.
The kernels it calls keep a trial's capacity independent of how many
trials share its batch; linalg's docstring says how, and how they lay
out their stacks.
"""

from __future__ import annotations

import numpy as np

from .linalg import logdet_hpd_stack, qr_stack, re_diag_congruence, relay_sum

_LN2 = float(np.log(2.0))


def stacked_capacity_bits(snr: np.ndarray) -> np.ndarray:
    """Half-duplex sum rate in bits: 0.5 * sum_m log2(1 + snr_m)."""
    return 0.5 * np.sum(np.log1p(snr), axis=-1) / _LN2


def sic_capacity(p: np.ndarray, s: np.ndarray, rho: np.ndarray, p_lin: float) -> np.ndarray:
    """Capacity (T,) of T trials under SIC detection, from the relays'
    cascades p and forwarded-noise Grams s (T, k, m, m), their power
    factors rho (T, k) and the source power p_lin; m is the stream count.

    Stream j's SNR is (p_lin/m) |r_jj|^2 / (q_j^H M q_j + 1), with q_j and
    r_jj from the Gram-Schmidt QR of H_sd; see the module docstring."""
    q, r_sq = qr_stack(relay_sum(rho, p))
    noise = re_diag_congruence(relay_sum(rho**2, s), q)
    return stacked_capacity_bits((p_lin / p.shape[-1]) * r_sq / (noise + 1.0))


def stacked_upper_bound(b_sum: np.ndarray, p: float) -> np.ndarray:
    """Cut-set bound at the source cut, batched over leading axes, from
    b_sum = sum_k h_k^H h_k (..., m, m) and the source power p:

        0.5 * log2 det(I + p/m * sum_k h_k^H h_k)

    Depends only on the first-hop channels, so it is unaffected by the
    relay power budget q and by the beamforming scheme.
    """
    m = b_sum.shape[-1]
    arg = np.eye(m) + (p / m) * b_sum
    return 0.5 * logdet_hpd_stack(arg) / _LN2
