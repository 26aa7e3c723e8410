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
forms A, B (relay_grams) and mf-rzf's D (regularized_inverse) once per
chunk of trials, for all its relay counts, and the products, af's
cascade among them, once per relay count (stacked_beamformers). Every
product is a linalg.matmul and D's inverse a linalg.hpd_inverse, which
keep the stacks in the layout linalg chooses for them. The powers p and
q enter only through rho (stacked_power_factors). C is the product A D
and not (1 + alpha)I - alpha D, which is the same matrix in exact
arithmetic but cancels at large alpha. The test suite pins the Gram
route to per-relay builders that do form F.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .linalg import NumericError, hpd_inverse, matmul, re_inner, re_trace, stack_order


_U = np.finfo(float).eps / 2  # the unit roundoff, 2^-53


class Scheme(enum.Enum):
    """Relay beamforming scheme, serialized by its wire name."""

    AF = "af"
    MF = "mf"
    MF_RZF = "mf-rzf"


def relay_grams(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m x m channel products (A, B) = (g g^H, h^H h) of stacks
    h (..., k, n, m) and g (..., k, m, n) that stacked_beamformers works
    from; af reads h and g themselves for its cascade g h."""
    return matmul(g, np.swapaxes(g, -1, -2).conj()), matmul(np.swapaxes(h, -1, -2).conj(), h)


def regularized_inverse(a: np.ndarray, alpha: float, n: int | None = None) -> np.ndarray:
    """D = (1 + alpha)(A + alpha I)^-1 of a stack of Grams a (..., m, m),
    as the inverse of M = A/(1 + alpha) + beta I, beta = alpha/(1 + alpha):
    it tends to I as alpha grows, where the products of (A + alpha I)^-1
    underflow, and to A^-1 as alpha tends to 0. Raises NumericError
    unless every A + alpha I is positive definite.

    n, where given, says that a holds the computed Grams g g^H of stacks
    g (..., m, n), as relay_grams forms them. Then a bound on their
    rounding can prove every matrix positive definite at once, and
    hpd_inverse skips its Cholesky check where the bound holds (on its
    LAPACK path, above the trial-minor sizes, where the check is a
    factorization of its own: 1.4 ms of a 256-trial fig5 job's D):

    - A computed Gram is A + E with A = g g^H positive semidefinite and
      |E_ij| <= gamma_{n+2} sum_l |g_il| |g_jl| (a complex inner product
      of length n, Higham, Accuracy and Stability of Numerical
      Algorithms, sec. 3.6; gamma_k = k u / (1 - k u), u = 2^-53), so
      ||E||_2 <= gamma_{n+2} ||g||_F^2 = gamma_{n+2} tr A. Dividing by
      1 + alpha and adding beta round each entry by at most gamma_3, so
      the computed M has lambda_min >= beta - (n + 6) u (t + beta) to
      first order, with t = tr A / (1 + alpha).
    - Cholesky runs to completion on M if lambda_min / max_i M_ii
      exceeds m gamma_{m+1} / (1 - m gamma_{m+1}), about m (m + 1) u
      (Demmel's condition, ibid. sec. 10.1), and max_i M_ii <= t + beta.
    - So beta > c u (t + beta) with c = n + m (m + 1) + 6 suffices to
      first order. Doubling c covers the second-order terms and the
      rounding of t and s while c u < 1/4, and then beta > 4 c u t
      implies beta > 2 c u (t + beta). Every matrix's t <= tr M <=
      sqrt(m) ||M||_F <= sqrt(m s), where s = sum |M_ij|^2 over the
      whole stack, which is finite only if every entry is.

    The check runs when s is not finite, at alpha = 0 (where a zero row
    of g makes A singular), below the bound, and without n, for which a
    need not be a Gram. At fig5's shapes (m = n = 8, 256 trials of 10
    relays, alpha = 1) the bound is about 1e-10 against beta = 0.5."""
    m = a.shape[-1]
    d = np.divide(a, 1.0 + alpha, order=stack_order(m))
    beta = alpha / (1.0 + alpha)
    d[..., range(m), range(m)] += beta

    def definite() -> bool:
        if n is None:
            return False
        s = float(np.vdot(d, d).real)
        return math.isfinite(s) and beta > 4 * (n + m * (m + 1) + 6) * _U * math.sqrt(m * s)

    return hpd_inverse(d, definite)


def stacked_beamformers(
    scheme: Scheme,
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray | None = None,
    h: np.ndarray | None = None,
    g: np.ndarray | None = None,
) -> tuple:
    """What the link needs from each relay's beamformer F under `scheme`,
    from the Grams a = g g^H and b = h^H h (..., k, m, m): (P, S, fh_sq,
    f_sq) with the cascades P = g F h and forwarded-noise Grams
    S = (g F)(g F)^H, both (..., k, m, m), and ||F h||^2, ||F||^2, both
    (..., k). See the module docstring for the identities.

    Leading axes are broadcast batch dimensions (Monte Carlo trials),
    axis -3 indexes relays. mf-rzf reads D = regularized_inverse(a, alpha)
    from d; af reads the channels h (..., k, n, m) and g (..., k, m, n),
    whose cascade g h it forms and whose n it takes. Each operand and
    product is dropped after its last use, so one that the caller holds
    no other reference to is freed there.
    """
    if scheme is Scheme.AF:
        n, p = h.shape[-2], matmul(g, h)
        del h, g
        return p, a, re_trace(b), np.full(b.shape[:-2], float(n))
    x, c = b, a  # D = I
    if scheme is Scheme.MF_RZF:
        x = matmul(d, b)
        del b
        c = matmul(a, d)
        del d
    p = matmul(a, x)
    del a
    # tr(C X) as Re sum X o conj(C): C = A D is Hermitian
    fh_sq, f_sq = re_inner(p, x), re_inner(x, c)
    del x
    return p, matmul(p, c), fh_sq, f_sq


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

