"""Input errors, seeds and Rayleigh block-fading channel sampling.

Randomness is counter-based: every Monte Carlo trial gets its own Philox
stream keyed by (seed, trial), so trial t yields the same channels no
matter which worker draws it or in what order. That is what makes sweep
output byte-identical across --workers settings. The stream is a
sequence of blocks of n*m complex entries, and k relays read h from
blocks [0, k) and g from blocks [k, 2k), so a draw at K relays holds the
channels of every k <= K (channels_for_trials).
"""

from __future__ import annotations

import numpy as np

from .linalg import trial_minor

_SEED_LIMIT = 1 << 64


class ConfigError(ValueError):
    """An input value is invalid; the message names its field."""


def check_seed(seed: int, field: str = "seed") -> int:
    """Return the integer seed if it is in [0, 2**64), else raise
    ConfigError naming `field`. Seeds key the Philox streams, which take
    64-bit words, so any other value would alias a valid one."""
    if not 0 <= seed < _SEED_LIMIT:
        raise ConfigError(f"{field} must be in [0, 2**64), got {seed}")
    return seed


def channels_for_trials(
    m: int, n: int, k: int, seed: int, start: int, stop: int, g_start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked channels of k relays of n antennas between an m-antenna
    source and destination, for Monte Carlo trials [start, stop) under
    `seed`: h (T, k, n, m) and g (T, 2k - g_start, m, n) with
    T = stop - start (at g_start = k, g holds k matrices).

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

    Up to the crossover m (linalg.trial_minor, m <= 4) h and g are
    trial-minor: in Fortran order, so memory runs (column, row, relay,
    trial) and every matrix entry is one contiguous run over the trials.
    Above it they are C-contiguous. Their shapes are the same either way.

    The caller passes positive dimensions, a checked seed,
    0 <= start <= stop and 1 <= g_start <= k; a seed or trial outside
    64 bits raises OverflowError when it keys the stream.
    """
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
    # The entries are complex normals divided by sqrt(2) + 0j, which numpy
    # computes as a product with fl(1 / sqrt(2)); scaling the real buffer
    # by that factor gives the same bytes (raw /= sqrt(2) does not)
    raw *= 1.0 / np.sqrt(2.0)
    blocks = raw.view(np.complex128).reshape(len(raw), 2 * k, n * m)
    # column-major fill per matrix == reshape to the transposed shape, then swap
    order = "F" if trial_minor(m) else "C"
    h = blocks[:, :k].reshape(len(raw), k, m, n).swapaxes(-1, -2).copy(order)
    g = blocks[:, g_start:].reshape(len(raw), 2 * k - g_start, n, m).swapaxes(-1, -2).copy(order)
    return h, g
