"""Ergodic capacity estimation: every estimate is a sweep.

run_sweep(spec) is the one estimator. For each axis value of a SweepSpec
and each series (the schemes, then the cut-set bound) it gives a SweepRow
with the mean capacity and its standard error; a one-point estimate is a
sweep of one value. SweepSpec is the one gate for a sweep's input,
from Python or from a scenario file: a value of the wrong type or out of
range is a ConfigError naming its field when the spec is built. A
floating-point overflow, division by zero or invalid operation in a job
is a NumericError naming the point, series and trial range, not a
silently wrong mean.

Every trial is a pure function of (network dimensions, seed, trial
index): workers never share state, and the per-trial capacities are
assembled into one array in trial order before any reduction. Output is
therefore byte-identical for any --workers setting, and all schemes of a
sweep point see common random channels.

Work is shared between the points of a sweep. A trial's stream does
not depend on the relay count: k relays read h from blocks [0, k) and g
from blocks [k, 2k) of it (see channels_for_trials), so one draw at the
largest k holds every smaller k as slices. The beamformers depend only
on the channels and alpha; the powers p and q enter at power control. A
job is one trial range [start, stop) of the whole sweep, at most
TRIAL_CHUNK long and at most 10 TRIAL_CHUNK relay-trials (trials times
the largest k): it draws the range's channels once, at the largest k,
and reduces them once to the relays' m x m Grams g g^H and h^H h (and,
for mf-rzf, to (1 + alpha)(g g^H + alpha I)^-1).
Each k reads its slices of these; only the af cascade g h and each
scheme's per-relay link products are formed per k. What is left per
point is power control, two rho-weighted sums over relays, the QR and
SNR, and the bound. A slice holds exactly the floats that k's own draw
and Grams would, and every operation works trial by trial, so a trial's
capacities depend neither on the other points of its sweep nor on the
range that holds it: every float, and every byte of results.csv, equals
what the point gives on its own, at any range length. So a sweep with
fewer chunks than workers shortens its ranges rather than cutting its
points, and a run uses at most as many processes as there are jobs or
CPUs. A job's memory is linear in its relay-trials, so their budget
bounds it at any k. Each relay stack (h, g, the Grams, D and the
products) is released at its last use, so a job holds at most about
five stacks at once.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import multiprocessing
import numbers
import os
import sys
from collections.abc import Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .beamformers import Scheme, regularized_inverse, relay_grams
from .beamformers import stacked_beamformers, stacked_power_factors
from .channel import ConfigError, channels_for_trials, check_seed
from .linalg import NumericError, matmul
from .link import sic_capacity, stacked_upper_bound

UPPER_BOUND_LABEL = "upper-bound"

# The longest trial range of one job; a range also holds at most
# 10 TRIAL_CHUNK relay-trials (trials times the sweep's largest k), which
# bound a job's memory. Per-trial floats do not depend on the range
# length, so neither do the results.
TRIAL_CHUNK = 512

# axis -> the base network fields that each of its values replaces
AXES = {
    "relay_count": ("k",),
    "pnr_db": ("pnr_db",),
    "qnr_db": ("qnr_db",),
    "pnr_equals_qnr_db": ("pnr_db", "qnr_db"),
}

# SweepSpec field (and run_sweep's workers) -> type; a list is any
# non-string iterable, kept as a tuple
_TYPES = dict(axis=str, values=list, m=int, n=int, k=int, pnr_db=float, qnr_db=float,
              alpha=float, schemes=list, trials=int, seed=int, workers=int)
# the network fields, which are also a scenario file's network section
_NETWORK = ("m", "n", "k", "pnr_db", "qnr_db", "alpha")


def _typed(name: str, value):
    """`value` as field `name`'s type, or a ConfigError naming the field.
    Integral numbers are ints and real numbers floats; a bool is rejected
    for every field."""
    kind = _TYPES[name]
    accepted = {int: numbers.Integral, float: numbers.Real, list: Iterable}.get(kind, kind)
    if (
        isinstance(value, accepted)
        and not isinstance(value, bool)
        and not (kind is list and isinstance(value, (str, bytes, Mapping)))
    ):
        # TypeError: a 0-d array is not iterable; OverflowError: an int too large for a float
        with contextlib.suppress(TypeError, OverflowError):
            return tuple(value) if kind is list else kind(value)
    raise ConfigError(f"key '{name}' must be {kind.__name__}, got {type(value).__name__}")


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


def _check_network(m: int, n: int, k: int, pnr_db: float, qnr_db: float, alpha: float):
    """A ConfigError naming the field unless the network is one: m >= 1
    antennas at source and destination, n >= m per relay, k >= 1 relays,
    powers in dB that give finite positive linear powers, and a finite
    alpha >= 0."""
    _from_db(pnr_db, "pnr_db")
    _from_db(qnr_db, "qnr_db")
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if n < m:
        raise ConfigError(f"relay antennas must satisfy n >= m, got n={n}, m={m}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not 0 <= alpha < math.inf:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep, field for field the keys of a scenario file: an axis,
    its values, the base network the axis perturbs (powers in dB) and the
    run settings. It is the package's one network description and the
    one check of a sweep's input: every field is typed, and the base
    network and every point are checked (_check_network), so a bad value
    is a ConfigError naming its field when the spec is built."""

    axis: str
    values: tuple
    m: int
    n: int
    k: int
    pnr_db: float
    qnr_db: float
    alpha: float = 1.0
    schemes: tuple = (Scheme.AF, Scheme.MF, Scheme.MF_RZF)
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _typed(field.name, getattr(self, field.name)))
        if self.axis not in AXES:
            raise ConfigError(f"sweep axis must be one of {', '.join(AXES)}, got {self.axis!r}")
        if len(self.values) == 0:
            raise ConfigError("sweep values must be non-empty")
        for value in self.values:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"sweep value {value!r} is not a number")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError(f"sweep values must be strictly increasing: {self.values}")
        schemes = []
        for name in self.schemes:
            try:
                schemes.append(Scheme(name))
            except ValueError:
                known = ", ".join(s.value for s in Scheme)
                raise ConfigError(f"unknown scheme '{name}' (known: {known})") from None
        object.__setattr__(self, "schemes", tuple(schemes))
        if len(self.schemes) == 0:
            raise ConfigError("at least one scheme is required")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError(f"duplicate schemes: {self.schemes}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        check_seed(self.seed)
        _check_network(*(getattr(self, name) for name in _NETWORK))
        for value in self.values:
            self.point(value)
        field = AXES[self.axis][0]
        object.__setattr__(self, "values", tuple(_typed(field, v) for v in self.values))

    def point(self, value) -> dict:
        """The network fields m, n, k, pnr_db, qnr_db and alpha of one
        axis value, powers in dB: the base network with the axis's fields
        set to `value`."""
        network = {name: getattr(self, name) for name in _NETWORK}
        try:
            network.update((name, _typed(name, value)) for name in AXES[self.axis])
            _check_network(**network)
        except ConfigError as exc:
            raise ConfigError(f"axis point {value}: {exc}") from None
        return network


@dataclass(frozen=True)
class SweepRow:
    """One (axis value, series) cell of a sweep result table."""

    scheme: str
    axis: str
    axis_value: object
    m: int
    n: int
    k: int
    pnr_db: float
    qnr_db: float
    alpha: float
    trials: int
    seed: int
    capacity_mean_bits: float
    capacity_stderr_bits: float


@np.errstate(over="raise", divide="raise", invalid="raise")
def _capacity_chunk(job) -> np.ndarray:
    """Per-trial capacities (points, T, series) for trials [start, stop)
    of every point of a sweep; the series are the spec's schemes, then
    the cut-set bound. The job (spec, start, stop) comes from
    _capacity_tables, so its range is valid. Each point's powers are
    converted from dB once, here.

    The channels are drawn once, at the largest relay count K, and
    reduced once to B = h^H h of blocks [0, K) and A = g g^H of blocks
    [min k, 2K), which hold every k's g, and right away to the bound's
    sum of B over each k's relays; for mf-rzf, to
    D = (1 + alpha)(A + alpha I)^-1 too. Each k takes its slices of A, B
    and D; the af cascade g h and each scheme's link products are formed
    per k, and power control, the link and the bound per point.

    Every relay stack is released at its last use, so a job holds about
    five at once (fig5: 25.6 MiB in tracemalloc, against 35.3 with A, B,
    D, X, C, P and S all alive): af runs first, h and g go with its top
    k's cascade, D with mf-rzf's top k, A and B with the last scheme's
    top k, and each k's P and S before the next k's. The stacks sit in
    a dict; the work that reads one last pops it and passes its slice
    inline, so stacked_beamformers holds the only reference (CPython
    3.11 moves a call's arguments into the callee's frame) and frees it
    with its del.
    A NumericError, or a floating-point overflow, division by zero or
    invalid operation, is raised as a NumericError naming the point(s)
    whose work failed (all of them for the shared D, those of one k for
    its link products), the series and the trial range, and a MemoryError
    naming the point(s) and the trial range.
    """
    spec, start, stop = job
    schemes, m, n, alpha = spec.schemes, spec.m, spec.n, spec.alpha
    labels = [f"{spec.axis} = {value}" for value in spec.values]
    relays, powers = {}, []  # k -> the indices of its points; linear (PNR, QNR) per point
    for i, point in enumerate(map(spec.point, spec.values)):
        relays.setdefault(point["k"], []).append(i)
        powers.append((_from_db(point["pnr_db"], "pnr_db"), _from_db(point["qnr_db"], "qnr_db")))
    low, top = min(relays), max(relays)
    where = [labels[i] for i in relays[top]], "channels"  # the draw is sized by the top k
    try:
        # g is blocks [low, 2 top): k reads its g blocks [k, 2k) at k - low
        h, g = channels_for_trials(m, n, top, spec.seed, start, stop, low)
        a, b = relay_grams(h, g)
        # the bound's sum of B_i over i < k for every k, added from left
        # to right as fixed_sum adds; the first term is a copy, so that no
        # sum is a view of b
        sums = accumulate((b[:, i] for i in range(1, top)), np.add, initial=np.copy(b[:, 0]))
        b_sums = {k: b_sum for k, b_sum in enumerate(sums, 1) if k in relays}
        order = sorted(enumerate(schemes), key=lambda item: item[1] is not Scheme.AF)
        # the relay stacks, each popped at its last use (see the docstring)
        stacks = {"a": a, "b": b}
        if Scheme.AF in schemes:  # only af's cascade reads h and g
            stacks.update(h=h, g=g)
        del h, g, a, b
        table = np.empty((len(labels), stop - start, len(schemes) + 1))
        for j, scheme in order:
            where = labels, scheme.value
            if scheme is Scheme.MF_RZF:
                stacks["d"] = regularized_inverse(stacks["a"], alpha)
            for k in sorted(relays):
                g_k = slice(k - low, 2 * k - low)
                where = [labels[i] for i in relays[k]], scheme.value
                # the top k pops what no later work reads: h, g and d are
                # read by one scheme each, a and b by every scheme
                own = stacks.pop if k == top else stacks.__getitem__
                grams = stacks.pop if k == top and j == order[-1][0] else stacks.__getitem__
                p, s, fh_sq, f_sq = stacked_beamformers(
                    scheme, grams("a")[:, g_k], grams("b")[:, :k], n=n,
                    d=own("d")[:, g_k] if scheme is Scheme.MF_RZF else None,
                    cascade=(matmul(own("g")[:, g_k], own("h")[:, :k])
                             if scheme is Scheme.AF else None),
                )
                for i in relays[k]:
                    where = labels[i : i + 1], scheme.value
                    pnr, qnr = powers[i]
                    rho = stacked_power_factors(fh_sq, f_sq, pnr, m, qnr)
                    table[i, :, j] = sic_capacity(p, s, rho, pnr)
                del p, s
        for k in sorted(relays):
            for i in relays[k]:
                where = labels[i : i + 1], UPPER_BOUND_LABEL
                table[i, :, -1] = stacked_upper_bound(b_sums[k], powers[i][0])
    except (NumericError, FloatingPointError) as exc:
        failed, series = where
        raise NumericError(
            f"{'; '.join(failed)}: {series} at trials [{start}, {stop}): {exc}"
        ) from exc
    except MemoryError as exc:
        # numpy's _ArrayMemoryError cannot be built from a message
        raise MemoryError(f"{'; '.join(where[0])} at trials [{start}, {stop}): {exc}") from exc
    return table


def _capacity_tables(spec: SweepSpec, workers: int) -> np.ndarray:
    """(points, trials, series) per-trial capacities of every point of
    the sweep, in trial order, with the schemes' series and then the
    bound's, from one map over jobs. A job is one trial range of the
    whole sweep, of at most TRIAL_CHUNK trials, of at most 10 TRIAL_CHUNK
    relay-trials at the sweep's largest k (but at least one trial), and
    short enough that every worker gets one; the map runs in at most one
    process per job and per CPU. A pool's parent loads numpy.random (which
    numpy loads on first use) before it starts the workers, and on Linux
    forks them on every Python (3.14 defaults to forkserver), so they
    inherit it rather than each loading it for its first draw."""
    workers = _typed("workers", workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    trials = spec.trials
    try:  # before the job list, which holds one tuple per trial range
        tables = np.empty((len(spec.values), trials, len(spec.schemes) + 1))
    except MemoryError as exc:
        raise MemoryError(f"trials = {trials}: {exc}") from exc
    top = max(spec.point(value)["k"] for value in spec.values)
    step = min(TRIAL_CHUNK, max(1, 10 * TRIAL_CHUNK // top), -(-trials // workers))
    ranges = [(start, min(start + step, trials)) for start in range(0, trials, step)]
    jobs = [(spec, start, stop) for start, stop in ranges]
    workers = min(workers, len(jobs))
    executor = contextlib.nullcontext()
    if workers > 1:
        importlib.import_module("numpy.random")
        context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
        executor = ProcessPoolExecutor(workers, mp_context=context)
    with executor as pool:
        blocks = (pool.map if pool else map)(_capacity_chunk, jobs)
        for (start, stop), block in zip(ranges, blocks):
            tables[:, start:stop] = block
    return tables


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate every series at every axis point: its mean capacity over
    spec.trials channels, and the standard error of that mean (the sample
    standard deviation over sqrt(trials), or 0.0 for one trial).

    Rows are ordered axis-major, series-minor: each point's schemes, in
    spec order, then the upper bound. All series of one point share the
    same per-trial channel realizations. One map over trial-range jobs,
    and for workers above 1 one process pool, serves the whole sweep.
    `workers` must be an integral number >= 1; it is capped at the CPU
    count.
    """
    rows = []
    labels = [s.value for s in spec.schemes] + [UPPER_BOUND_LABEL]
    trials = spec.trials
    for value, table in zip(spec.values, _capacity_tables(spec, workers)):
        point = spec.point(value)
        for j, label in enumerate(labels):
            col = table[:, j]
            stderr = float(np.std(col, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
            rows.append(
                SweepRow(
                    scheme=label,
                    axis=spec.axis,
                    axis_value=value,
                    **point,
                    trials=trials,
                    seed=spec.seed,
                    capacity_mean_bits=float(np.mean(col)),
                    capacity_stderr_bits=stderr,
                )
            )
    return rows
