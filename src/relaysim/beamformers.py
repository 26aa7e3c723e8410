"""Relay beamforming matrices and transmit power normalization.

Three schemes:

* af:      pure amplify-and-forward, F = I
* mf:      matched filter against both hops, F = G^H H^H
* mf-rzf:  matched filter cascaded with a regularized zero-forcing
           stage that pre-inverts the second hop, F = G^H (G G^H + alpha I)^-1 H^H

Every relay scales its transmit matrix by a power control factor rho so
the average radiated power is exactly q per relay, whatever the scheme.

The Monte Carlo loop never forms F. The SIC receiver needs four things
from each relay: the cascade P = G F H, the forwarded-noise Gram
S = (G F)(G F)^H, ||F H||^2 and ||F||^2. With A = G G^H, B = H^H H
and D = (A + alpha I)^-1 (which commutes with A), these are

    af:      P = G H,  S = A,      ||FH||^2 = tr B,         ||F||^2 = n
    mf:      P = A B,  S = P A,    ||FH||^2 = tr(P B),      ||F||^2 = tr P
    mf-rzf:  X = D B,  C = A D,  P = A X,  S = P C,
             ||FH||^2 = Re sum P o conj(X),  ||F||^2 = tr(C X)

so for mf and mf-rzf all four are m x m functions of A and B, formed
once per chunk of trials by relay_grams and stacked_beamformers. The
powers p and q enter only through rho (stacked_power_factors). C is the
product A D and not I - alpha D, which is the same matrix in exact
arithmetic but cancels at large alpha. The test suite pins the Gram
route to per-relay builders that do form F.
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
    the relay antenna count."""

    a: np.ndarray
    b: np.ndarray
    cascade: np.ndarray | None
    n: int


def relay_grams(h: np.ndarray, g: np.ndarray, cascade: bool = True) -> RelayGrams:
    """RelayGrams of channel stacks h (..., k, n, m) and g (..., k, m, n),
    with the cascade g h only if `cascade`."""
    a = g @ np.swapaxes(g, -1, -2).conj()
    b = np.swapaxes(h, -1, -2).conj() @ h
    return RelayGrams(a, b, g @ h if cascade else None, h.shape[-2])


def stacked_beamformers(scheme: Scheme, grams: RelayGrams, alpha: float) -> tuple:
    """What the link needs from each relay's beamformer F under `scheme`,
    from the channel products `grams` (..., k, m, m): (P, S, fh_sq, f_sq)
    with the cascades P = g F h and forwarded-noise Grams
    S = (g F)(g F)^H, both (..., k, m, m), and ||F h||^2, ||F||^2, both
    (..., k). See the module docstring for the identities.

    Leading axes are broadcast batch dimensions (Monte Carlo trials),
    axis -3 indexes relays. mf-rzf raises NumericError unless every
    A + alpha I is positive definite.
    """
    a, b = grams.a, grams.b
    if scheme is Scheme.AF:
        trace_b = np.real(np.trace(b, axis1=-2, axis2=-1))
        return grams.cascade, a, trace_b, np.full(trace_b.shape, float(grams.n))
    if scheme is Scheme.MF:
        p = a @ b
        # tr(P B) as Re sum P o conj(B): B is Hermitian
        return p, p @ a, re_inner(p, b), np.real(np.trace(p, axis1=-2, axis2=-1))
    if scheme is Scheme.MF_RZF:
        m = a.shape[-1]
        gram = a.copy()
        gram[..., range(m), range(m)] += alpha
        cholesky_stack(gram)  # raises NumericError unless positive definite
        d = np.linalg.inv(gram)
        del gram
        x = d @ b
        c = a @ d
        del d
        p = a @ x
        # tr(C X) as Re sum X o conj(C): C = A D is Hermitian
        fh_sq, f_sq = re_inner(p, x), re_inner(x, c)
        del x
        return p, p @ c, fh_sq, f_sq
    raise ValueError(f"unknown scheme {scheme!r}")


def stacked_power_factors(
    fh_sq: np.ndarray, f_sq: np.ndarray, p: float, m: int, sigma1_sq: float, q: float
) -> np.ndarray:
    """rho for stacks of ||f h||^2 and ||f||^2 (..., k): per relay,
    sqrt(q / tr{f ((p/m) h h^H + sigma1_sq I) f^H}), where the trace is
    (p/m) ||f h||^2 + sigma1_sq ||f||^2."""
    power = (p / m) * fh_sq + sigma1_sq * f_sq
    if not np.all(power > 0):
        raise NumericError("a relay's output power is not positive")
    return np.sqrt(q / power)

