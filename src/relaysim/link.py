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

sic_capacity factors H_sd by modified Gram-Schmidt vectorized across
the trials rather than by one LAPACK call per m x m matrix, whose
per-call cost dominates at these sizes. H_sd is transposed once into a
column-major, trial-minor array (column, row, trial), so column j of
every trial is one contiguous (m, T) slice. Step j normalizes the
residual v_j of column j, with |r_jj|^2 = ||v_j||^2, and projects q_j
out of all the columns after it in one step. A residual that is exactly
zero, such as that of a zero column, is never divided by: its q_j is 0
and its stream gets SNR 0, so it removes nothing from the later columns
(where LAPACK's Householder QR would pick some unit q_j). A column in
the span of the earlier ones leaves rounding dust and an SNR near 0.
The noise q_j^H M q_j is then read from the batched product M Q, which
at 8 x 8 is cheaper than forming it in the trial-minor layout.

A trial's capacity must not depend on how many trials share its batch.
Elementwise operations and einsum over the row axis keep that;
ndarray.sum over the row axis does not, because numpy sums in another
order when the trial axis has length 1. So no row-axis reduction here is
an ndarray.sum.
"""

from __future__ import annotations

import numpy as np

from .linalg import logdet_hpd_stack

_LN2 = float(np.log(2.0))


def _relay_sum(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k weights_k a_k for weights (..., k) and a stack a (..., k, m, m),
    as one (1, k) @ (k, m*m) product per trial."""
    *lead, k, m, _ = a.shape
    return (weights[..., np.newaxis, :] @ a.reshape(*lead, k, m * m)).reshape(*lead, m, m)


def stacked_capacity_bits(snr: np.ndarray) -> np.ndarray:
    """Half-duplex sum rate in bits: 0.5 * sum_m log2(1 + snr_m)."""
    return 0.5 * np.sum(np.log1p(snr), axis=-1) / _LN2


def sic_capacity(p: np.ndarray, s: np.ndarray, rho: np.ndarray, p_lin: float) -> np.ndarray:
    """Capacity (T,) of T trials under SIC detection, from the relays'
    cascades p and forwarded-noise Grams s (T, k, m, m), their power
    factors rho (T, k) and the source power p_lin; m is the stream count.

    Stream j's SNR is (p_lin/m) |r_jj|^2 / (q_j^H M q_j + 1), with q_j and
    r_jj from the Gram-Schmidt QR of H_sd; see the module docstring."""
    m = p.shape[-1]
    # (column, row, trial): a[j] is column j of every trial
    a = np.ascontiguousarray(_relay_sum(rho, p).transpose(2, 1, 0))
    q = np.empty_like(a)
    r_sq = np.empty((m, a.shape[-1]))
    for j in range(m):
        v = a[j]
        r_sq[j] = np.einsum("rt,rt->t", v.real, v.real) + np.einsum("rt,rt->t", v.imag, v.imag)
        scale = np.divide(1.0, np.sqrt(r_sq[j]), out=np.zeros(a.shape[-1]), where=r_sq[j] > 0)
        np.multiply(v, scale, out=q[j])
        a[j + 1 :] -= np.einsum("rt,crt->ct", q[j].conj(), a[j + 1 :])[:, np.newaxis] * q[j]
    q = np.ascontiguousarray(q.transpose(2, 1, 0))  # (trial, row, column)
    noise = np.real(np.einsum("...ij,...ij->...j", q.conj(), _relay_sum(rho**2, s) @ q))
    return stacked_capacity_bits((p_lin / m) * r_sq.T / (noise + 1.0))


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
