"""Per-realization reference chain that the tests compare the package
against.

relaysim computes capacities in one batched pass from each relay's m x m
channel products and never forms a beamformer F. This chain takes one
channel realization at a time, forms every relay's F explicitly (mf-rzf
through a scipy Cholesky solve), and only then reduces to the cascade
P = g F h and forwarded-noise Gram S = (g F)(g F)^H that the package's
link functions take. Agreement between the two routes therefore checks
the Gram identities in relaysim.beamformers. The chain detects with
LAPACK's Householder QR (qr_stack, stacked_snr), independent of the
package's Gram-Schmidt kernel relaysim.link.sic_capacity, and
lapack_scheme_capacity is that route on the package's batched inputs.
simulate_transmission measures SNR by pushing signal and noise through
the chain, and mutual_information gives I(s; y) from explicit F, which
lies between SIC's capacity and the cut-set bound. The checked
single-matrix helpers (products, Hermitian transpose, trace, norms,
log-determinant) are the tests' building blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from relaysim.beamformers import Scheme, stacked_power_factors
from relaysim.channel import channels_for_trials
from relaysim.linalg import NumericError, logdet_hpd_stack, re_inner, relay_sum
from relaysim.link import stacked_capacity_bits, stacked_upper_bound
from relaysim.montecarlo import check_seed

# ------------------------------------------------------------------ linalg


class ShapeError(ValueError):
    """Operand dimensions are incompatible with the requested operation."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b with an explicit inner-dimension check."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """Hermitian transpose."""
    return as_matrix(a, "a").conj().T


def trace(a: np.ndarray) -> complex:
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"trace needs a square matrix, got {a.shape}")
    return complex(np.trace(a))


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(as_matrix(a, "a")))


def logdet_hpd(a: np.ndarray) -> float:
    """log-determinant (natural log) of a Hermitian positive definite
    matrix; NumericError unless positive definite."""
    return float(logdet_hpd_stack(as_matrix(a, "a")))


@dataclass(frozen=True)
class QrFactors:
    """Phase-normalized QR factors of a square matrix: q unitary and r
    upper triangular with a real non-negative diagonal. qr_stack returns
    only q, with LAPACK's column phases, and |diag r|."""

    q: np.ndarray
    r: np.ndarray


def qr_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR of a stack (..., m, m) of square matrices as (q, |diag r|), the
    (..., m) magnitudes being all of r that successive detection reads.
    q is LAPACK's Householder factor as it comes, not normalized."""
    q, r = np.linalg.qr(a)
    return q, np.abs(np.diagonal(r, axis1=-2, axis2=-1))


def qr_decompose(a: np.ndarray) -> QrFactors:
    """QR factorization of one square matrix, r diagonal real and >= 0.

    LAPACK's Householder QR leaves each diagonal entry of r with an
    arbitrary unit phase; multiplying column m of q and row m of r by the
    conjugate phase cancels it without changing the product q @ r. A zero
    diagonal entry (rank-deficient input) is left at exactly 0.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"qr_decompose needs a square matrix, got {a.shape}")
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    mag = np.abs(d)
    phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    q = q * phase[np.newaxis, :]
    r = r * phase.conj()[:, np.newaxis]
    # kill the residual imaginary dust on the diagonal; it is |d| by construction
    r[np.diag_indices_from(r)] = mag
    return QrFactors(q=q, r=r)


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for Hermitian positive definite a via Cholesky.

    Never forms an inverse. Raises NumericError naming the failing pivot
    when a is not positive definite.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"solve_hpd needs a square matrix, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"solve_hpd shapes do not align: {a.shape} vs {b.shape}")
    from scipy.linalg.lapack import zpotrf, zpotrs

    c, info = zpotrf(a, lower=1)
    if info != 0:
        raise NumericError(f"solve_hpd: matrix is not positive definite (pivot {info} failed)")
    x, info = zpotrs(c, b, lower=1)
    if info != 0:  # pragma: no cover - zpotrs only fails on bad arguments
        raise NumericError(f"solve_hpd: triangular solve failed (info={info})")
    return x


# ----------------------------------------------------------------- channel


class Network(NamedTuple):
    """One network as the chain reads it: m antennas at source and
    destination, n per relay, k relays, p (PNR) and q (QNR) as linear
    ratios to the unit noise variance, and mf-rzf's alpha. Unchecked: the
    package checks its input in relaysim.montecarlo.SweepSpec."""

    m: int
    n: int
    k: int
    p: float
    q: float
    alpha: float = 1.0


@dataclass(frozen=True)
class ChannelRealization:
    """One fading realization: h[k] is the n x m first-hop matrix of relay k,
    g[k] the m x n second-hop matrix. Arrays are stacked (k, rows, cols) and
    frozen read-only after construction."""

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        h, g = self.h, self.g
        if h.ndim != 3 or g.ndim != 3 or h.shape[0] != g.shape[0]:
            raise ValueError(f"bad realization shapes {h.shape} / {g.shape}")
        k, n, m = h.shape
        if g.shape != (k, m, n):
            raise ValueError(f"g shape {g.shape} does not mirror h shape {h.shape}")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(g))):
            raise ValueError("realization contains non-finite entries")
        h.flags.writeable = False
        g.flags.writeable = False


def _check_key(seed: int, trial: int) -> None:
    check_seed(seed)
    if trial < 0:
        raise ValueError(f"trial index must be >= 0, got {trial}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent Philox stream for one (seed, trial) pair."""
    _check_key(seed, trial)
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def realization_for_trial(config: Network, seed: int, trial: int) -> ChannelRealization:
    """The fading realization of Monte Carlo trial `trial` under `seed`:
    the one-trial view of channels_for_trials, which leaves checking the
    seed and trial to its caller."""
    _check_key(seed, trial)
    h, g = channels_for_trials(config.m, config.n, config.k, seed, trial, trial + 1, config.k)
    return ChannelRealization(h=h[0], g=g[0])


# ------------------------------------------------------------- beamformers


@dataclass(frozen=True)
class RelayWeights:
    """Per-relay beamforming matrices f (stacked k x n x n) and power
    control scalars rho (length k, strictly positive)."""

    f: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if self.f.ndim != 3 or self.f.shape[1] != self.f.shape[2]:
            raise ValueError(f"f must be stacked square matrices, got {self.f.shape}")
        if self.rho.shape != (self.f.shape[0],):
            raise ValueError(f"rho shape {self.rho.shape} does not match {self.f.shape[0]} relays")
        if not np.all(self.rho > 0) or not np.all(np.isfinite(self.rho)):
            raise ValueError("rho entries must be strictly positive and finite")
        self.f.flags.writeable = False
        self.rho.flags.writeable = False


def af_beamformer(n: int) -> np.ndarray:
    """Identity relay: retransmit the received vector as-is (before scaling)."""
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    return np.eye(n, dtype=np.complex128)


def _hop_pair(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One relay's first hop h (n x m) and second hop g (m x n), checked."""
    h = as_matrix(h, "h")
    g = as_matrix(g, "g")
    if h.shape[1] != g.shape[0] or h.shape[0] != g.shape[1]:
        raise ShapeError(f"h {h.shape} and g {g.shape} are not a dual-hop pair")
    return h, g


def mf_beamformer(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Matched filter F = G^H H^H for one relay."""
    h, g = _hop_pair(h, g)
    return g.conj().T @ h.conj().T


def mf_rzf_beamformer(h: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """Regularized second-hop inversion, F = G^H (G G^H + alpha I)^-1 H^H.

    The inverse is applied through a Cholesky solve, never formed. With
    alpha = 0 and a rank-deficient G G^H this raises NumericError.
    """
    h, g = _hop_pair(h, g)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    m = g.shape[0]
    gram = g @ g.conj().T + alpha * np.eye(m)
    x = solve_hpd(gram, h.conj().T)
    return g.conj().T @ x


def power_control_factor(
    f: np.ndarray, h: np.ndarray, p: float, m: int, sigma1_sq: float, q: float
) -> np.ndarray:
    """Scale rho that sets a relay's average transmit power to exactly q,
    for one relay (f n x n, h n x m) or a stack of relays (k, n, n) and
    (k, n, m).

    The relay input covariance is (p/m) h h^H + sigma1_sq I, so the
    un-scaled output power is tr{f ((p/m) h h^H + sigma1_sq I) f^H}.
    """
    f = np.asarray(f, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    n = f.shape[-1]
    if f.shape[-2] != n or h.shape[-2] != n:
        raise ShapeError(f"f {f.shape} does not act on relay input of {h.shape}")
    fh = f @ h
    return stacked_power_factors(re_inner(fh, fh), sigma1_sq * re_inner(f, f), p, m, q)


def build_weights(
    scheme: Scheme, realization: ChannelRealization, config: Network
) -> RelayWeights:
    """Beamforming matrices and power scales for every relay of one
    realization: the per-relay builders applied relay by relay, and
    power_control_factor applied to the stack."""
    h, g = realization.h, realization.g
    k, n, m = h.shape
    if (n, m) != (config.n, config.m) or k != config.k:
        raise ValueError(
            f"realization dims {h.shape} do not match config "
            f"(k={config.k}, n={config.n}, m={config.m})"
        )
    if scheme is Scheme.AF:
        f = np.stack([af_beamformer(n)] * k)
    elif scheme is Scheme.MF:
        f = np.stack([mf_beamformer(h_i, g_i) for h_i, g_i in zip(h, g)])
    elif scheme is Scheme.MF_RZF:
        f = np.stack([mf_rzf_beamformer(h_i, g_i, config.alpha) for h_i, g_i in zip(h, g)])
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    rho = power_control_factor(f, h, config.p, config.m, 1.0, config.q)
    return RelayWeights(f=f, rho=rho)


# -------------------------------------------------------------------- link


@dataclass(frozen=True)
class LinkMetrics:
    """Everything the Monte Carlo loop needs from one realization under
    one beamforming scheme."""

    effective_channel: np.ndarray
    qr: QrFactors
    snr_per_stream: np.ndarray
    capacity_bits: float


def stacked_snr(
    noise_gram: np.ndarray,
    q: np.ndarray,
    r_diag: np.ndarray,
    config: Network,
) -> np.ndarray:
    """Post-detection SNR of each stream, batched over leading axes, from
    the QR factor q and |diag r| (..., m) of the effective channel. A unit
    phase on a column of q leaves the SNR unchanged.

    Signal power of stream m is (p/m) |r_mm|^2. The noise seen by stream m
    is the relay noise forwarded through rho_k g_k f_k, rotated by q^H,
    plus the destination noise:

        sum_k rho_k^2 ||row_m(q^H g_k f_k)||^2 + 1

    The sum over relays is the m-th diagonal entry of q^H M q, where
    noise_gram is M = sum_k rho_k^2 (g_k f_k)(g_k f_k)^H.
    """
    row_power = np.real(np.einsum("...ij,...ij->...j", q.conj(), noise_gram @ q))
    return (config.p / config.m) * r_diag**2 / (row_power + 1.0)


def lapack_scheme_capacity(
    p: np.ndarray, s: np.ndarray, rho: np.ndarray, config: Network
) -> np.ndarray:
    """relaysim.link.sic_capacity's inputs and output, through LAPACK's
    QR and stacked_snr: per-trial capacities of cascades p and noise
    Grams s (..., k, m, m) under power factors rho (..., k)."""
    q, r_diag = qr_stack(relay_sum(rho, p))
    return stacked_capacity_bits(stacked_snr(relay_sum(rho**2, s), q, r_diag, config))


def effective_channel(realization: ChannelRealization, weights: RelayWeights) -> np.ndarray:
    """Effective m x m source-destination channel of one realization."""
    return relay_sum(weights.rho, realization.g @ weights.f @ realization.h)


def per_stream_snr(
    realization: ChannelRealization, weights: RelayWeights, qr: QrFactors, config: Network
) -> np.ndarray:
    """Post-detection SNRs of one realization under one scheme."""
    gf = realization.g @ weights.f
    s = gf @ np.swapaxes(gf, -1, -2).conj()
    return stacked_snr(relay_sum(weights.rho**2, s), qr.q, np.real(np.diagonal(qr.r)), config)


def instantaneous_capacity(snr_per_stream: np.ndarray) -> float:
    """Half-duplex sum rate in bits for one vector of stream SNRs."""
    snr = np.asarray(snr_per_stream, dtype=float)
    if np.any(snr < 0) or not np.all(np.isfinite(snr)):
        raise ValueError("SNRs must be finite and non-negative")
    return float(stacked_capacity_bits(snr))


def compute_link_metrics(
    realization: ChannelRealization, weights: RelayWeights, config: Network
) -> LinkMetrics:
    """Assemble the full chain for one realization under one scheme."""
    h_sd = effective_channel(realization, weights)
    qr = qr_decompose(h_sd)
    snr = per_stream_snr(realization, weights, qr, config)
    return LinkMetrics(
        effective_channel=h_sd,
        qr=qr,
        snr_per_stream=snr,
        capacity_bits=instantaneous_capacity(snr),
    )


def upper_bound_capacity(realization: ChannelRealization, config: Network) -> float:
    """Cut-set bound of one realization, in bits."""
    h = realization.h
    b_sum = np.sum(np.swapaxes(h, -1, -2).conj() @ h, axis=0)
    return float(stacked_upper_bound(b_sum, config.p))


def mutual_information(
    realization: ChannelRealization, weights: RelayWeights, config: Network
) -> float:
    """I(s; y) in bits, with the half-duplex 1/2 pre-log, of one
    realization under explicit relay beamformers F. The destination sees
    y = H_sd s + n, where n has covariance M + I, M = sum_k rho_k^2
    (g_k F_k)(g_k F_k)^H, so

        I(s; y) = 0.5 * log2 det(I + (p/m) H_sd^H (M + I)^-1 H_sd).

    ZF-SIC, which ignores the noise's colour, reaches at most this, and
    the cut-set bound is at least this."""
    m = config.m
    h_sd = effective_channel(realization, weights)
    gf = realization.g @ weights.f
    noise = relay_sum(weights.rho**2, gf @ np.swapaxes(gf, -1, -2).conj()) + np.eye(m)
    arg = np.eye(m) + (config.p / m) * matmul(conj_transpose(h_sd), solve_hpd(noise, h_sd))
    return logdet_hpd((arg + conj_transpose(arg)) / 2) / (2 * np.log(2.0))


def simulate_transmission(
    realization: ChannelRealization,
    weights: RelayWeights,
    qr: QrFactors,
    config: Network,
    draws: int,
    rng: np.random.Generator,
    sigma1_sq: float = 1.0,
    sigma2_sq: float = 1.0,
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
    (default: 1, what the config's powers are relative to); setting both
    to 0 checks the zero-noise limit where the residual must vanish
    identically.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    s1, s2 = float(sigma1_sq), float(sigma2_sq)
    if s1 < 0 or s2 < 0:
        raise ValueError("noise variances must be >= 0")

    k, n, m = realization.h.shape
    scale_s = np.sqrt(config.p / (2.0 * config.m))
    s = scale_s * (rng.standard_normal((m, draws)) + 1j * rng.standard_normal((m, draws)))

    h_sd = effective_channel(realization, weights)
    signal_part = h_sd @ s
    y = signal_part.copy()
    scale_n1 = np.sqrt(s1 / 2.0)
    for i in range(k):
        if scale_n1 > 0:
            relay_noise = scale_n1 * (
                rng.standard_normal((n, draws)) + 1j * rng.standard_normal((n, draws))
            )
            y += weights.rho[i] * (realization.g[i] @ (weights.f[i] @ relay_noise))
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
