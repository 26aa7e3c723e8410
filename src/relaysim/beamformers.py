"""Relay beamforming matrices and transmit power normalization.

Three schemes:

* af:      pure amplify-and-forward, F = I
* mf:      matched filter against both hops, F = G^H H^H
* mf-rzf:  matched filter cascaded with a regularized zero-forcing
           stage that pre-inverts the second hop, F = G^H (G G^H + alpha I)^-1 H^H

Every relay scales its transmit matrix by a power control factor rho so
the average radiated power is exactly q per relay, whatever the scheme.

The per-relay builders below are the readable reference forms. The
Monte Carlo loop goes through stacked_beamformers / stacked_power_factors,
which apply the same formulas over arbitrary leading batch axes and
work from the products f h and g f, formed once per scheme; the test
suite pins the two routes to each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, NetworkConfig
from .linalg import NumericError, ShapeError, as_matrix, cholesky_stack, sq_norm, solve_hpd


class Scheme(enum.Enum):
    """Relay beamforming scheme, serialized by its wire name."""

    AF = "af"
    MF = "mf"
    MF_RZF = "mf-rzf"

    def __str__(self) -> str:
        return self.value


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
            raise ValueError(
                f"rho shape {self.rho.shape} does not match {self.f.shape[0]} relays"
            )
        if not np.all(self.rho > 0) or not np.all(np.isfinite(self.rho)):
            raise ValueError("rho entries must be strictly positive and finite")
        self.f.flags.writeable = False
        self.rho.flags.writeable = False


def af_beamformer(n: int) -> np.ndarray:
    """Identity relay: retransmit the received vector as-is (before scaling)."""
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    return np.eye(n, dtype=np.complex128)


def mf_beamformer(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Matched filter F = G^H H^H for one relay."""
    h = as_matrix(h, "h")
    g = as_matrix(g, "g")
    if h.shape[1] != g.shape[0] or h.shape[0] != g.shape[1]:
        raise ShapeError(f"h {h.shape} and g {g.shape} are not a dual-hop pair")
    return g.conj().T @ h.conj().T


def mf_rzf_beamformer(h: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """Regularized second-hop inversion, F = G^H (G G^H + alpha I)^-1 H^H.

    The inverse is applied through a Cholesky solve, never formed. With
    alpha = 0 and a rank-deficient G G^H this raises NumericError.
    """
    h = as_matrix(h, "h")
    g = as_matrix(g, "g")
    if h.shape[1] != g.shape[0] or h.shape[0] != g.shape[1]:
        raise ShapeError(f"h {h.shape} and g {g.shape} are not a dual-hop pair")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    m = g.shape[0]
    gram = g @ g.conj().T + alpha * np.eye(m)
    x = solve_hpd(gram, h.conj().T)
    return g.conj().T @ x


def power_control_factor(
    f: np.ndarray, h: np.ndarray, p: float, m: int, sigma1_sq: float, q: float
) -> float:
    """Scale rho that sets the relay's average transmit power to exactly q.

    The relay input covariance is (p/m) h h^H + sigma1_sq I, so the
    un-scaled output power is tr{f ((p/m) h h^H + sigma1_sq I) f^H}.
    """
    f = as_matrix(f, "f")
    h = as_matrix(h, "h")
    n = f.shape[0]
    if f.shape[1] != n or h.shape[0] != n:
        raise ShapeError(f"f {f.shape} does not act on relay input of {h.shape}")
    rho = stacked_power_factors(
        (f @ h)[np.newaxis], sq_norm(f)[np.newaxis], p=p, m=m, sigma1_sq=sigma1_sq, q=q
    )
    return float(rho[0])


def stacked_beamformers(
    scheme: Scheme, h: np.ndarray, g: np.ndarray, alpha: float
) -> tuple:
    """Beamformers of stacks h (..., k, n, m), g (..., k, m, n), returned
    as (f, fh, gf, f_sq): the (..., k, n, n) matrices f, the products
    fh = f h and gf = g f that power control and the link need, and the
    squared Frobenius norms f_sq = ||f||^2 (..., k).

    Leading axes are broadcast batch dimensions (Monte Carlo trials),
    axis -3 indexes relays. For af, f is the identity: it is returned as
    None, with fh = h, gf = g and f_sq = n, and no product is formed.
    """
    if scheme is Scheme.AF:
        n = h.shape[-2]
        return None, h, g, np.full(h.shape[:-2], float(n))
    hh = np.swapaxes(h, -1, -2).conj()
    gh = np.swapaxes(g, -1, -2).conj()
    if scheme is Scheme.MF:
        f = gh @ hh
    elif scheme is Scheme.MF_RZF:
        m = g.shape[-2]
        gram = g @ gh
        gram[..., range(m), range(m)] += alpha
        cholesky_stack(gram)  # raises NumericError unless positive definite
        f = gh @ np.linalg.solve(gram, hh)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return f, f @ h, g @ f, sq_norm(f)


def stacked_power_factors(
    fh: np.ndarray, f_sq: np.ndarray, p: float, m: int, sigma1_sq: float, q: float
) -> np.ndarray:
    """rho for stacks fh = f h (..., k, n, m) and f_sq = ||f||^2 (..., k):
    per relay, sqrt(q / tr{f ((p/m) h h^H + sigma1_sq I) f^H}), where the
    trace is (p/m) ||f h||^2 + sigma1_sq ||f||^2."""
    power = (p / m) * sq_norm(fh) + sigma1_sq * f_sq
    if not np.all(power > 0):
        raise NumericError("a relay's output power is not positive")
    return np.sqrt(q / power)


def build_weights(
    scheme: Scheme, realization: ChannelRealization, config: NetworkConfig
) -> RelayWeights:
    """Beamforming matrices and power scales for every relay of one
    realization, equal to the per-relay builders applied relay by relay."""
    h, g = realization.h, realization.g
    k, n, m = h.shape
    if (n, m) != (config.n, config.m) or k != config.k:
        raise ValueError(
            f"realization dims {h.shape} do not match config "
            f"(k={config.k}, n={config.n}, m={config.m})"
        )
    f, fh, _, f_sq = stacked_beamformers(scheme, h, g, config.alpha)
    rho = stacked_power_factors(fh, f_sq, config.p, config.m, config.sigma1_sq, config.q)
    if f is None:
        f = np.broadcast_to(af_beamformer(n), (k, n, n))
    return RelayWeights(f=f, rho=rho)
