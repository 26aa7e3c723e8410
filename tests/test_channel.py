"""Channel sampling: distribution, independence, and keyed-stream
determinism. Statistical assertions run on fixed seeds so they are
repeatable, with thresholds set at roughly the 3-sigma level."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from relaysim.channel import channels_for_trials
from relaysim.linalg import TRIAL_MINOR_MAX_M, stack_order

from oracle import ChannelRealization, Network, realization_for_trial, trial_rng


def sample_gaussian_matrix(rows, cols, rng):
    """Reference layout of one rows x cols CN(0, 1) matrix: 2*rows*cols
    standard normals from rng, real and imaginary parts interleaved per
    entry, entries filled column by column, scaled by 1/sqrt(2)."""
    raw = rng.standard_normal(2 * rows * cols)
    entries = (raw[0::2] + 1j * raw[1::2]) / np.sqrt(2.0)
    return entries.reshape((rows, cols), order="F")


def first_hop_matrix(rows, cols, seed):
    """h_1 of trial 0 of a one-relay network with n=rows, m=cols."""
    cfg = Network(m=cols, n=rows, k=1, p=1.0, q=1.0)
    return realization_for_trial(cfg, seed=seed, trial=0).h[0]


def test_realization_shape_validation():
    h = np.zeros((2, 4, 2), dtype=complex)
    g = np.zeros((2, 2, 3), dtype=complex)  # wrong trailing dim
    with pytest.raises(ValueError):
        ChannelRealization(h=h, g=g)


def test_realization_arrays_frozen():
    cfg = Network(m=2, n=2, k=1, p=1.0, q=1.0)
    real = realization_for_trial(cfg, seed=0, trial=0)
    with pytest.raises(ValueError):
        real.h[0, 0, 0] = 0.0


def test_same_seed_trial_gives_identical_realization():
    cfg = Network(m=2, n=3, k=2, p=1.0, q=1.0)
    a = realization_for_trial(cfg, seed=42, trial=17)
    b = realization_for_trial(cfg, seed=42, trial=17)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.g, b.g)


def test_different_trials_give_different_draws():
    cfg = Network(m=2, n=2, k=1, p=1.0, q=1.0)
    a = realization_for_trial(cfg, seed=42, trial=0)
    b = realization_for_trial(cfg, seed=42, trial=1)
    assert not np.allclose(a.h, b.h)


def test_negative_trial_rejected():
    with pytest.raises(ValueError):
        trial_rng(seed=1, trial=-1)
    cfg = Network(m=2, n=2, k=1, p=1.0, q=1.0)
    with pytest.raises(ValueError):
        realization_for_trial(cfg, seed=1, trial=-1)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        trial_rng(seed=seed, trial=0)


@pytest.mark.parametrize("m, n, k", [(4, 4, 4), (8, 8, 10)])
def test_chunk_draw_is_stack_of_per_trial_draws(m, n, k):
    # a chunk away from trial 0 equals the trials drawn one by one, byte
    # for byte, both through realization_for_trial and through a fresh
    # keyed stream per trial read in the documented order, on any number
    # of threads (9 and 16: more than the trials), in stack_order(m); at
    # 16 the threads switch every microsecond, so a lost or misplaced
    # slice of the shared buffers would show
    cfg = Network(m=m, n=n, k=k, p=1.0, q=1.0)
    seed, start, stop = 2**64 - 3, 1021, 1029
    order = {4: "F", 8: "C"}[m]
    assert stack_order(m) == order
    reals = [realization_for_trial(cfg, seed, t) for t in range(start, stop)]
    default = sys.getswitchinterval()
    for threads, interval in ((1, default), (2, default), (3, default), (9, default), (16, 1e-6)):
        sys.setswitchinterval(interval)
        try:
            h, g = channels_for_trials(m, n, k, seed, start, stop, k, threads)
        finally:
            sys.setswitchinterval(default)
        assert h.flags[f"{order}_CONTIGUOUS"] and g.flags[f"{order}_CONTIGUOUS"]
        assert h.tobytes() == np.stack([r.h for r in reals]).tobytes()
        assert g.tobytes() == np.stack([r.g for r in reals]).tobytes()
        for i, trial in enumerate(range(start, stop)):
            rng = trial_rng(seed, trial)
            hs = [sample_gaussian_matrix(n, m, rng) for _ in range(k)]
            gs = [sample_gaussian_matrix(m, n, rng) for _ in range(k)]
            assert h[i].tobytes() == np.stack(hs).tobytes()
            assert g[i].tobytes() == np.stack(gs).tobytes()


@pytest.mark.parametrize("relays", [(1, 2, 3, 4, 5), (1, 2, 5), (3, 4)])
def test_every_relay_count_is_a_slice_of_one_draw(relays):
    # one draw at K = max k holds every k <= K: h is blocks [0, k) and g
    # blocks [k, 2k), byte for byte what k's own keyed stream gives in
    # the reference layout, on any number of threads (6: more than the
    # trials); g starts at the sweep's smallest k
    m, n, low, top = 2, 3, min(relays), max(relays)
    seed, start, stop = 12, 1022, 1027
    for threads in (1, 2, 3, 6):
        h, g = channels_for_trials(m, n, top, seed, start, stop, low, threads)
        assert h.shape == (stop - start, top, n, m)
        assert g.shape == (stop - start, 2 * top - low, m, n)
        assert h.flags.f_contiguous and g.flags.f_contiguous  # stack_order(2)
        for i, trial in enumerate(range(start, stop)):
            for k in range(1, top + 1):
                rng = trial_rng(seed, trial)
                hs = [sample_gaussian_matrix(n, m, rng) for _ in range(k)]
                gs = [sample_gaussian_matrix(m, n, rng) for _ in range(k)]
                assert h[i, :k].tobytes() == np.stack(hs).tobytes()
                if k >= low:
                    assert g[i, k - low : 2 * k - low].tobytes() == np.stack(gs).tobytes()


@pytest.mark.parametrize("start, stop", [(2**64 - 2, 2**64 + 2), (2**64, 2**64 + 1)])
def test_a_failed_slice_raises_in_the_caller_after_every_join(start, stop):
    # at two threads the helper alone keys trial 2**64 in the 4-trial
    # range, and a 1-trial range runs on the caller alone: either way the
    # call raises the key's OverflowError and leaves no thread behind
    before = threading.active_count()
    with pytest.raises(OverflowError):
        channels_for_trials(2, 2, 1, 5, start, stop, 1, 2)
    assert threading.active_count() == before
    h, g = channels_for_trials(2, 2, 1, 5, start - 2, start - 1, 1, 2)
    assert threading.active_count() == before
    assert (h.tobytes(), g.tobytes()) == tuple(
        a.tobytes() for a in channels_for_trials(2, 2, 1, 5, start - 2, start - 1, 1)
    )


def test_the_caller_waits_for_its_slowest_helper(monkeypatch):
    # helpers that start late still finish before the call returns or
    # raises: a call that returned after its own slice would hand back
    # unwritten rows, miss the helper's error and leave it running; a
    # draw on three threads starts two helpers, one on a single trial none
    started = []

    class LateThread(threading.Thread):
        def run(self):
            started.append(self)
            time.sleep(0.05)
            super().run()

    expect = channels_for_trials(4, 4, 4, 8, 0, 96, 2)
    before = threading.active_count()
    monkeypatch.setattr(threading, "Thread", LateThread)
    drawn = channels_for_trials(4, 4, 4, 8, 0, 96, 2, 3)
    assert threading.active_count() == before and len(started) == 2
    assert [a.tobytes() for a in drawn] == [a.tobytes() for a in expect]
    with pytest.raises(OverflowError):
        channels_for_trials(2, 2, 1, 5, 2**64 - 2, 2**64 + 2, 1, 2)
    assert threading.active_count() == before and len(started) == 3
    channels_for_trials(2, 2, 1, 5, 0, 1, 1, 3)
    assert len(started) == 3


@given(st.integers(0, 2**63), st.integers(0, 10_000))
def test_trial_rng_is_reproducible(seed, trial):
    x = trial_rng(seed, trial).standard_normal(4)
    y = trial_rng(seed, trial).standard_normal(4)
    assert np.array_equal(x, y)


def test_entry_moments():
    # 10^6 entries: mean magnitude below 0.005, variance within 0.5%
    entries = first_hop_matrix(1000, 1000, seed=123).ravel()
    assert abs(entries.mean()) < 0.005
    var = np.mean(np.abs(entries) ** 2)
    assert 0.995 < var < 1.005


def test_real_imag_parts_are_normal():
    # KS test of both parts against N(0, 1/2) at significance 1e-3
    entries = first_hop_matrix(400, 250, seed=7).ravel()
    scale = np.sqrt(0.5)
    for part in (entries.real, entries.imag):
        stat = stats.kstest(part, "norm", args=(0.0, scale))
        assert stat.pvalue > 1e-3


def test_cross_relay_independence():
    # entries of different relays' matrices are uncorrelated
    cfg = Network(m=2, n=2, k=2, p=1.0, q=1.0)
    xs, ys = [], []
    for t in range(12_500):
        real = realization_for_trial(cfg, seed=99, trial=t)
        xs.append(real.h[0].ravel())
        ys.append(real.h[1].ravel())
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    corr = np.mean(x * y.conj())  # both zero-mean unit-variance
    assert abs(corr) < 0.01


def test_first_and_second_hop_independence():
    cfg = Network(m=2, n=2, k=1, p=1.0, q=1.0)
    xs, ys = [], []
    for t in range(12_500):
        real = realization_for_trial(cfg, seed=17, trial=t)
        xs.append(real.h[0].ravel())
        ys.append(real.g[0].ravel())
    corr = np.mean(np.concatenate(xs) * np.concatenate(ys).conj())
    assert abs(corr) < 0.01


def test_documented_draw_order():
    # a trial consumes its stream as h_1..h_k then g_1..g_k
    cfg = Network(m=2, n=3, k=2, p=1.0, q=1.0)
    real = realization_for_trial(cfg, seed=4, trial=9)
    rng = trial_rng(seed=4, trial=9)
    h1 = sample_gaussian_matrix(3, 2, rng)
    h2 = sample_gaussian_matrix(3, 2, rng)
    g1 = sample_gaussian_matrix(2, 3, rng)
    g2 = sample_gaussian_matrix(2, 3, rng)
    assert np.array_equal(real.h, np.stack([h1, h2]))
    assert np.array_equal(real.g, np.stack([g1, g2]))


def test_entry_order_within_matrix():
    # column-major fill, real/imag interleaved, 1/sqrt(2) scale
    raw = trial_rng(seed=31, trial=0).standard_normal(2 * 2 * 2)
    mat = first_hop_matrix(2, 2, seed=31)
    expect = np.array(
        [
            [raw[0] + 1j * raw[1], raw[4] + 1j * raw[5]],
            [raw[2] + 1j * raw[3], raw[6] + 1j * raw[7]],
        ]
    ) / np.sqrt(2.0)
    assert np.array_equal(mat, expect)


@pytest.mark.parametrize("m", [TRIAL_MINOR_MAX_M, TRIAL_MINOR_MAX_M + 1])
def test_draw_is_trial_minor_up_to_the_crossover(m):
    # Fortran order up to the crossover and C order above it, one shape;
    # the chunk tests above pin the values in both layouts
    h, g = channels_for_trials(m, m + 1, 3, 4, 0, 8, 2)
    assert h.shape == (8, 3, m + 1, m) and g.shape == (8, 4, m, m + 1)
    assert h.flags.f_contiguous == g.flags.f_contiguous == (m <= TRIAL_MINOR_MAX_M)
    assert h.flags.c_contiguous == g.flags.c_contiguous == (m > TRIAL_MINOR_MAX_M)
