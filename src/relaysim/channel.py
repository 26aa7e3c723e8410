"""Network configuration and Rayleigh block-fading channel sampling.

Randomness is counter-based: every Monte Carlo trial gets its own Philox
stream keyed by (seed, trial), so trial t yields the same channels no
matter which worker draws it or in what order. That is what makes sweep
output byte-identical across --workers settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SEED_LIMIT = 1 << 64


def _from_db(value: float, field: str) -> float:
    """10^(value/10), with a ValueError naming `field` where it overflows."""
    try:
        return 10.0 ** (value / 10.0)
    except OverflowError:
        raise ValueError(f"{field} = {value} dB is too large for a float") from None


@dataclass(frozen=True)
class NetworkConfig:
    """Dimensions and power budget of one dual-hop relay network.

    m: antennas at source and destination, n: antennas per relay,
    k: number of relays. p is the total source transmit power, q the
    per-relay transmit power, both linear (not dB). alpha is the
    regularization weight of the mf-rzf beamformer.
    """

    m: int
    n: int
    k: int
    p: float
    q: float
    sigma1_sq: float = 1.0
    sigma2_sq: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.n < self.m:
            raise ValueError(
                f"relay antennas must satisfy n >= m, got n={self.n}, m={self.m}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for field in ("p", "q", "sigma1_sq", "sigma2_sq"):
            value = getattr(self, field)
            if not (value > 0) or not math.isfinite(value):
                raise ValueError(f"{field} must be strictly positive, got {value}")
        if self.alpha < 0 or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")

    @classmethod
    def from_db(
        cls,
        m: int,
        n: int,
        k: int,
        pnr_db: float,
        qnr_db: float,
        alpha: float = 1.0,
        sigma1_sq: float = 1.0,
        sigma2_sq: float = 1.0,
    ) -> "NetworkConfig":
        """Build a config from PNR = p/sigma1_sq and QNR = q/sigma2_sq in dB."""
        return cls(
            m=m,
            n=n,
            k=k,
            p=sigma1_sq * _from_db(pnr_db, "pnr_db"),
            q=sigma2_sq * _from_db(qnr_db, "qnr_db"),
            sigma1_sq=sigma1_sq,
            sigma2_sq=sigma2_sq,
            alpha=alpha,
        )


def check_seed(seed: int, field: str = "seed") -> int:
    """Return seed if it is an integer in [0, 2**64), else raise
    ValueError naming `field`. Seeds key the Philox streams, which take
    64-bit words, so any other value would alias a valid one."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {seed!r}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"{field} must be in [0, 2**64), got {seed}")
    return int(seed)


def channels_for_trials(
    config: NetworkConfig, seed: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked channels of Monte Carlo trials [start, stop) under `seed`:
    h (T, k, n, m) and g (T, k, m, n) with T = stop - start.

    Trial t draws from its own Philox stream keyed by (seed, t) with the
    counter at 0, so a trial's channels do not depend on which chunk or
    worker draws it. One bit generator is re-keyed per trial through its
    state, instead of building one per trial. Each trial consumes
    4*k*n*m standard normals in a fixed documented order: first-hop
    matrices for relays 1..k, then second-hop matrices 1..k; within a
    matrix, entries column by column, real and imaginary parts
    interleaved per entry, scaled by 1/sqrt(2) for CN(0, 1) entries.
    Powers and alpha do not touch the stream, so all beamforming schemes
    and the capacity upper bound see a common set of random channels.
    """
    check_seed(seed)
    if not 0 <= start <= stop:
        raise ValueError(f"trial range must satisfy 0 <= start <= stop, got [{start}, {stop})")
    k, n, m = config.k, config.n, config.m
    per = k * n * m
    raw = np.empty((stop - start, 4 * per))
    bitgen = np.random.Philox(0)
    normal = np.random.Generator(bitgen).standard_normal
    state = bitgen.state  # counter 0, empty buffer: a fresh stream once re-keyed
    key = state["state"]["key"]
    key[0] = seed
    for row, trial in zip(raw, range(start, stop)):
        key[1] = trial
        bitgen.state = state
        normal(out=row)
    if not np.all(np.isfinite(raw)):
        raise ValueError("channel draw produced non-finite entries")
    entries = raw.view(np.complex128)
    entries /= np.sqrt(2.0)  # complex division: its rounding differs from raw /= sqrt(2)
    # column-major fill per matrix == reshape to the transposed shape, then swap
    h = entries[:, :per].reshape(-1, k, m, n).swapaxes(-1, -2).copy()
    g = entries[:, per:].reshape(-1, k, n, m).swapaxes(-1, -2).copy()
    return h, g

