"""Relay beamforming matrices and transmit power normalization.

Three schemes:

* af:      pure amplify-and-forward, F = I
* mf:      matched filter against both hops, F = G^H H^H
* mf-rzf:  matched filter cascaded with a regularized zero-forcing
           stage that pre-inverts the second hop, F = G^H (G G^H + alpha I)^-1 H^H

Every relay scales its transmit matrix by a power control factor rho so
the average radiated power is exactly q per relay, whatever the scheme.
Noise variances are 1, so p and q are PNR and QNR.

The Monte Carlo loop never forms F. The SIC receiver needs four things
from each relay: the cascade P = G F H, the forwarded-noise Gram
S = (G F)(G F)^H, ||F H||^2 and ||F||^2. mf and mf-rzf are one family,
F = G^H D H^H, with D = I for mf and D = (1 + alpha)(A + alpha I)^-1 for
mf-rzf, where A = G G^H and B = H^H H (D commutes with A). The factor
1 + alpha scales F, which power control cancels, and keeps D near I at
any alpha. These are

    af:         P = G H,  S = A,  ||FH||^2 = tr B,  ||F||^2 = n
    mf, mf-rzf: X = D B,  C = A D,  P = A X,  S = P C,
                ||FH||^2 = Re sum P o conj(X),  ||F||^2 = tr(C X)

so for mf and mf-rzf all four are m x m functions of A and B. A sweep
forms A, B (relay_grams) and D (regularized_inverse) once per chunk of
trials, for all its relay counts, and the products once per relay count
(stacked_beamformers). The powers p and q enter only through rho
(stacked_power_factors). C is the product A D and not
(1 + alpha)I - alpha D, which is the same matrix in exact arithmetic but
cancels at large alpha. The test suite pins the Gram route to per-relay
builders that do form F.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .linalg import NumericError, cholesky_stack, re_inner


class Scheme(enum.Enum):
    """Relay beamforming scheme, serialized by its wire name."""

    AF = "af"
    MF = "mf"
    MF_RZF = "mf-rzf"

    def __str__(self) -> str:
        return self.value


class RelayGrams(NamedTuple):
    """The m x m channel products of stacks h (..., k, n, m) and
    g (..., k, m, n) that stacked_beamformers works from: a = g g^H,
    b = h^H h and, when af needs it, the cascade g h (else None); n is
    the relay antenna count. d, when given, is mf-rzf's
    regularized_inverse(a, alpha), formed once for the a it was taken
    from and shared; else mf-rzf forms it."""

    a: np.ndarray
    b: np.ndarray
    cascade: np.ndarray | None
    n: int
    d: np.ndarray | None = None


def relay_grams(h: np.ndarray, g: np.ndarray) -> RelayGrams:
    """RelayGrams of channel stacks h (..., k, n, m) and g (..., k, m, n),
    without the cascade: af's caller forms g h for the relays it reads."""
    a = g @ np.swapaxes(g, -1, -2).conj()
    b = np.swapaxes(h, -1, -2).conj() @ h
    return RelayGrams(a, b, None, h.shape[-2])


def regularized_inverse(a: np.ndarray, alpha: float) -> np.ndarray:
    """D = (1 + alpha)(A + alpha I)^-1 of a stack of Grams a (..., m, m),
    as the inverse of A/(1 + alpha) + alpha/(1 + alpha) I: it tends to I
    as alpha grows, where the products of (A + alpha I)^-1 underflow,
    and to A^-1 as alpha tends to 0. Raises NumericError unless every
    A + alpha I is positive definite."""
    m = a.shape[-1]
    gram = a / (1.0 + alpha)
    gram[..., range(m), range(m)] += alpha / (1.0 + alpha)
    cholesky_stack(gram)  # raises NumericError unless positive definite
    return np.linalg.inv(gram)


def stacked_beamformers(scheme: Scheme, grams: RelayGrams, alpha: float) -> tuple:
    """What the link needs from each relay's beamformer F under `scheme`,
    from the channel products `grams` (..., k, m, m): (P, S, fh_sq, f_sq)
    with the cascades P = g F h and forwarded-noise Grams
    S = (g F)(g F)^H, both (..., k, m, m), and ||F h||^2, ||F||^2, both
    (..., k). See the module docstring for the identities.

    Leading axes are broadcast batch dimensions (Monte Carlo trials),
    axis -3 indexes relays. mf-rzf reads D from grams.d, or forms it and
    raises NumericError unless every A + alpha I is positive definite.
    """
    a, b = grams.a, grams.b
    if scheme is Scheme.AF:
        trace_b = np.real(np.trace(b, axis1=-2, axis2=-1))
        return grams.cascade, a, trace_b, np.full(trace_b.shape, float(grams.n))
    if scheme not in (Scheme.MF, Scheme.MF_RZF):
        raise ValueError(f"unknown scheme {scheme!r}")
    x, c = b, a  # D = I
    if scheme is Scheme.MF_RZF:
        d = regularized_inverse(a, alpha) if grams.d is None else grams.d
        x, c = d @ b, a @ d
        del d
    p = a @ x
    # tr(C X) as Re sum X o conj(C): C = A D is Hermitian
    fh_sq, f_sq = re_inner(p, x), re_inner(x, c)
    # mf-rzf's X is its own and dead now: S = P C reuses its buffer
    s = p @ c if x is b else np.matmul(p, c, out=x)
    return p, s, fh_sq, f_sq


def stacked_power_factors(
    fh_sq: np.ndarray, f_sq: np.ndarray, p: float, m: int, q: float
) -> np.ndarray:
    """rho for stacks of ||f h||^2 and ||f||^2 (..., k): per relay,
    sqrt(q / tr{f ((p/m) h h^H + I) f^H}), where the trace is
    (p/m) ||f h||^2 + ||f||^2."""
    power = (p / m) * fh_sq + f_sq
    if not np.all(power > 0):
        raise NumericError("a relay's output power is not positive")
    return np.sqrt(q / power)

