"""Network configuration and Rayleigh block-fading channel sampling.

Randomness is counter-based: every Monte Carlo trial gets its own Philox
stream keyed by (seed, trial), so trial t yields the same channels no
matter which worker draws it or in what order. That is what makes sweep
output byte-identical across --workers settings. The stream is a
sequence of blocks of n*m complex entries, and k relays read h from
blocks [0, k) and g from blocks [k, 2k), so a draw at K relays holds the
channels of every k <= K (channels_for_trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SEED_LIMIT = 1 << 64


class ConfigError(ValueError):
    """An input value is invalid; the message names its field."""


def _from_db(value: float, field: str) -> float:
    """10^(value/10), with a ConfigError naming `field` unless that is a
    finite positive float (it overflows, underflows to 0, or is nan)."""
    try:
        power = 10.0 ** (value / 10.0)
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ConfigError(f"{field} = {value} dB is not a finite positive power")
    return power


@dataclass(frozen=True)
class NetworkConfig:
    """Dimensions and power budget of one dual-hop relay network.

    m: antennas at source and destination, n: antennas per relay,
    k: number of relays. p is PNR, the total source transmit power, and q
    is QNR, the per-relay transmit power, both as linear ratios (not dB)
    to the noise variance, which is 1 at the relays and the destination.
    alpha is the regularization weight of the mf-rzf beamformer.
    """

    m: int
    n: int
    k: int
    p: float
    q: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.n < self.m:
            raise ConfigError(f"relay antennas must satisfy n >= m, got n={self.n}, m={self.m}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        for field in ("p", "q"):
            value = getattr(self, field)
            if not (value > 0) or not math.isfinite(value):
                raise ConfigError(f"{field} must be strictly positive, got {value}")
        if self.alpha < 0 or not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")

    @classmethod
    def from_db(
        cls, m: int, n: int, k: int, pnr_db: float, qnr_db: float, alpha: float = 1.0
    ) -> "NetworkConfig":
        """Build a config from PNR and QNR in dB."""
        return cls(
            m=m,
            n=n,
            k=k,
            p=_from_db(pnr_db, "pnr_db"),
            q=_from_db(qnr_db, "qnr_db"),
            alpha=alpha,
        )


def check_seed(seed: int, field: str = "seed") -> int:
    """Return seed if it is an integer in [0, 2**64), else raise
    ConfigError naming `field`. Seeds key the Philox streams, which take
    64-bit words, so any other value would alias a valid one."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"{field} must be an integer, got {seed!r}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ConfigError(f"{field} must be in [0, 2**64), got {seed}")
    return int(seed)


def channels_for_trials(
    config: NetworkConfig,
    seed: int,
    start: int,
    stop: int,
    g_start: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked channels of Monte Carlo trials [start, stop) under `seed`:
    h (T, k, n, m) and g (T, 2k - g_start, m, n) with T = stop - start
    (g_start = k by default, so g holds k matrices).

    Trial t draws from its own Philox stream keyed by (seed, t) with the
    counter at 0, so a trial's channels do not depend on which chunk or
    worker draws it. One bit generator is re-keyed per trial through its
    state, instead of building one per trial. Each trial consumes
    4*k*n*m standard normals, read as 2k blocks of n*m complex entries:
    within a block, entries column by column, real and imaginary parts
    interleaved per entry, scaled by 1/sqrt(2) for CN(0, 1) entries.
    Blocks [0, k) are the first-hop matrices h (n x m) of relays 1..k and
    blocks [k, 2k) the second-hop matrices g (m x n) of relays 1..k.
    Powers and alpha do not touch the stream, so all beamforming schemes
    and the capacity upper bound see a common set of random channels.

    Neither does k: the stream of k relays is a prefix of that of K > k
    relays, so this draw holds every k' <= k as h[:, :k'] and blocks
    [k', 2k'). g is blocks [g_start, 2k), so with g_start the smallest k'
    of a sweep, k' reads its g as g[:, k' - g_start : 2k' - g_start] and
    one draw at the sweep's largest k serves every k'.
    """
    check_seed(seed)
    if not 0 <= start <= stop:
        raise ConfigError(f"trial range must satisfy 0 <= start <= stop, got [{start}, {stop})")
    k, n, m = config.k, config.n, config.m
    g_start = k if g_start is None else g_start
    if not 1 <= g_start <= k:
        raise ConfigError(f"g_start must be in [1, {k}], got {g_start}")
    raw = np.empty((stop - start, 4 * k * n * m))
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
    blocks = entries.reshape(len(raw), 2 * k, n * m)
    # column-major fill per matrix == reshape to the transposed shape, then swap
    h = blocks[:, :k].reshape(len(raw), k, m, n).swapaxes(-1, -2).copy()
    g = blocks[:, g_start:].reshape(len(raw), 2 * k - g_start, n, m).swapaxes(-1, -2).copy()
    return h, g
