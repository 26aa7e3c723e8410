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

Work is shared between the points of a sweep. A trial's stream does not
depend on the relay count: k relays read h from blocks [0, k) and g from
blocks [k, 2k) of it (see channels_for_trials), so one draw at the
largest k holds every smaller k as slices. The beamformers depend only
on the channels and alpha; the powers p and q enter at power control. A
job is the sweep's network head (m, n, seed, alpha, schemes) with the
draw's thread count, its points resolved to (label, k, linear PNR,
linear QNR), and one trial range [start, stop) of the whole sweep, at
most TRIAL_CHUNK long and at most STACK_BYTES in its largest relay
stack. The points are resolved and checked once, in the parent, so a
worker never reads the sweep's axes or converts a dB value. A job draws
the range's channels once, at the largest k, and reduces them once to
the relays' m x m Grams g g^H and h^H h (and, for mf-rzf, to
(1 + alpha)(g g^H + alpha I)^-1). Each k
reads its slices of these; only the af cascade g h and each scheme's
per-relay link products are formed per k. What is left per point is
power control, two rho-weighted sums over relays, the QR and SNR, and
the bound. A slice holds exactly the floats that k's own draw and Grams
would, and every operation works trial by trial, so a trial's capacities
depend neither on the other points of its sweep nor on the range that
holds it: every float, and every byte of results.csv, equals what the
point gives on its own, at any range length. So a sweep with fewer
chunks than workers shortens its ranges rather than cutting its points,
and a run uses at most as many processes as there are jobs or CPUs.
A job draws its channels on min(DRAW_THREADS, CPUs // processes)
threads: the CPUs that the run's processes leave idle (one thread in a
pool that fills them), at most the 2 that have been measured. Only the
draw is split: its fill and copies are long numpy loops that release
the GIL, while the work after it is short calls and BLAS calls, both of
which measured slower on two threads. Every trial keeps its own stream,
so the thread count moves no byte either. A job's memory is
linear in its trials times the bytes of a trial's relay stacks, the
largest of which is g (2K - min k relays of n x m entries), so
STACK_BYTES bounds it at any (m, n, k). Each relay stack (h, g, the
Grams, D and the products) is released at its last use, so a job holds
at most about five stacks at once.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import math
import numbers
import os
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields

import numpy as np

from .beamformers import Scheme, regularized_inverse, relay_grams
from .beamformers import stacked_beamformers, stacked_power_factors
from .channel import channels_for_trials
from .linalg import NumericError, relay_prefix_sums
from .link import sic_capacity, stacked_upper_bound

UPPER_BOUND_LABEL = "upper-bound"
_SEED_LIMIT = 1 << 64

# The longest trial range of one job; a range also holds at most
# STACK_BYTES in its largest relay stack, g, which bounds a job's memory.
# Per-trial floats do not depend on the range length, so neither do the
# results.
TRIAL_CHUNK = 512
STACK_BYTES = 5 << 19  # 2.5 MiB

# glibc's mallopt parameters (malloc.h), and the bytes below which a
# sweep's processes take arrays from the heap and keep freed heap: the cap
# of glibc's own dynamic mmap threshold on 64 bits, above a job's peak
# (about five STACK_BYTES stacks and the raw draw, 12.8 MiB for fig5)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
HEAP_KEEP = 32 << 20

# The most threads a job's draw runs on: the count measured to gain, on a
# 2-CPU host (BENCH_32). More threads than that are untested on CPUs of
# their own; on 2 CPUs they drew a fig5 job more slowly than 2 did.
DRAW_THREADS = 2

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


def __getattr__(name: str):
    """ProcessPoolExecutor, imported on first use: its modules
    (concurrent.futures.process and multiprocessing, about 2 MB) serve
    only a pool, which a one-process run never starts."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _glibc():
    """The running process's C library through ctypes, with mallopt and
    malloc_trim declared, where that library is glibc; else None.
    Both are GNU extensions, and os.confstr names the library only on
    glibc (elsewhere it raises ValueError or OSError, and Windows has no
    confstr)."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None
    if not version or not version.startswith("glibc"):
        return None
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    libc.malloc_trim.argtypes, libc.malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return libc


class ConfigError(ValueError):
    """An input value is invalid; the message names its field."""


def check_seed(seed: int, field: str = "seed") -> int:
    """Return the integer seed if it is in [0, 2**64), else raise
    ConfigError naming `field`. Seeds key the Philox streams, which take
    64-bit words, so any other value would alias a valid one."""
    if not 0 <= seed < _SEED_LIMIT:
        raise ConfigError(f"{field} must be in [0, 2**64), got {seed}")
    return seed


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
    of every point of a job; the series are the job's schemes, then the
    cut-set bound. The job ((m, n, seed, alpha, schemes, threads),
    points, start, stop) comes from _capacity_tables, so its points,
    range and thread count are valid; a point is (label, k, linear PNR,
    linear QNR), and the points are grouped here by k. Nothing is
    resolved or converted here.

    The channels are drawn once, at the largest relay count K, on the
    job's `threads` threads (channels_for_trials), and reduced once to
    B = h^H h of blocks [0, K) and A = g g^H of blocks [min k, 2K),
    which hold every k's g, and right away to the bound's
    sum of B over each k's relays; for mf-rzf, to
    D = (1 + alpha)(A + alpha I)^-1 too, which regularized_inverse, told
    that A is a Gram of n columns, forms without its Cholesky check where
    alpha proves every A + alpha I positive definite. Each k takes its
    slices of A, B and D; the af cascade g h and each scheme's link
    products are formed per k, and power control, the link and the bound
    per point.

    Every relay stack is released at its last use, so a job holds about
    five at once (a 256-trial fig5 job: 12.8 MiB in tracemalloc; a
    512-trial one took 25.6 against 35.3 MiB with A, B, D, X, C, P and S
    all alive): af runs first, h and g go with its top k's cascade, D
    with mf-rzf's top k, A and B with the last scheme's top k, and each
    k's P and S before the next k's. The stacks sit in a dict; the work
    that reads one last pops it and passes its slice inline, so
    stacked_beamformers holds the only reference (CPython 3.11 moves a
    call's arguments into the callee's frame) and frees it with its del.
    A NumericError, or a floating-point overflow, division by zero or
    invalid operation, is raised as a NumericError naming the point(s)
    whose work failed (all of them for the shared D, those of one k for
    its link products), the series and the trial range, and a MemoryError
    naming the point(s) and the trial range.
    """
    (m, n, seed, alpha, schemes, threads), points, start, stop = job
    # k -> the indices of its points; where: the indices of the points and the series at work
    relays = {k: [i for i, point in enumerate(points) if point[1] == k] for _, k, *_ in points}
    low, top = min(relays), max(relays)
    where = relays[top], "channels"  # the draw is sized by the top k
    try:
        # g is blocks [low, 2 top): k reads its g blocks [k, 2k) at k - low
        h, g = channels_for_trials(m, n, top, seed, start, stop, low, threads)
        a, b = relay_grams(h, g)
        b_sums = relay_prefix_sums(b, relays)  # the bound's sum of B over k's relays
        order = sorted(enumerate(schemes), key=lambda item: item[1] is not Scheme.AF)
        # the relay stacks, each popped at its last use (see the docstring)
        stacks = {"a": a, "b": b}
        if Scheme.AF in schemes:  # only af's cascade reads h and g
            stacks.update(h=h, g=g)
        del h, g, a, b
        table = np.empty((len(points), stop - start, len(schemes) + 1))
        for j, scheme in order:
            where = range(len(points)), scheme.value
            if scheme is Scheme.MF_RZF:
                stacks["d"] = regularized_inverse(stacks["a"], alpha, n)
            for k in sorted(relays):
                g_k = slice(k - low, 2 * k - low)
                where = relays[k], scheme.value
                # the top k pops what no later work reads: h, g and d are
                # read by one scheme each, a and b by every scheme
                own = stacks.pop if k == top else stacks.__getitem__
                grams = stacks.pop if k == top and j == order[-1][0] else stacks.__getitem__
                p, s, fh_sq, f_sq = stacked_beamformers(
                    scheme, grams("a")[:, g_k], grams("b")[:, :k],
                    d=own("d")[:, g_k] if scheme is Scheme.MF_RZF else None,
                    h=own("h")[:, :k] if scheme is Scheme.AF else None,
                    g=own("g")[:, g_k] if scheme is Scheme.AF else None,
                )
                for i in relays[k]:
                    where = [i], scheme.value
                    _, _, pnr, qnr = points[i]
                    rho = stacked_power_factors(fh_sq, f_sq, pnr, m, qnr)
                    table[i, :, j] = sic_capacity(p, s, rho, pnr)
                del p, s
        for k in sorted(relays):
            for i in relays[k]:
                where = [i], UPPER_BOUND_LABEL
                table[i, :, -1] = stacked_upper_bound(b_sums[k], points[i][2])
    except (NumericError, FloatingPointError) as exc:
        failed = "; ".join(points[i][0] for i in where[0])
        raise NumericError(f"{failed}: {where[1]} at trials [{start}, {stop}): {exc}") from exc
    except MemoryError as exc:
        # numpy's _ArrayMemoryError cannot be built from a message
        failed = "; ".join(points[i][0] for i in where[0])
        raise MemoryError(f"{failed} at trials [{start}, {stop}): {exc}") from exc
    return table


def _capacity_tables(spec: SweepSpec, workers: int) -> np.ndarray:
    """(points, trials, series) per-trial capacities of every point of
    the sweep, in trial order, with the schemes' series and then the
    bound's, from one map over jobs. Each axis value is resolved here,
    once, into a point (label, k, linear PNR, linear QNR), and a job is
    the head (m, n, seed, alpha, schemes, threads), those points and one
    trial range of the whole sweep, sized from the points' k: of at least
    one trial and otherwise of at most TRIAL_CHUNK trials and STACK_BYTES
    in g (its largest relay stack).
    So a job's memory is bounded at any (m, n, k): 8 x 8 sweeps at k = 10
    (fig5, fig6) run 256-trial jobs, and 4 x 4 ones up to k = 8
    TRIAL_CHUNK. A sweep that fits in one such job per worker is instead
    split evenly into min(workers, trials) jobs. The map runs in at most
    one process per job and per CPU this process may run on, and the
    head carries the thread count of each job's draw,
    min(DRAW_THREADS, CPUs // processes): the CPUs that the processes
    leave idle, at least 1 since there are no more processes than CPUs,
    and at most the count measured to gain. So on 2 CPUs a one-process
    sweep draws on 2 threads, and a 2-process pool on 1 thread in each
    worker, which starts no helper thread; on 8 CPUs a one-process sweep
    still draws on 2. Only a pool's parent loads
    multiprocessing and concurrent.futures.process (relaysim run loads
    them before its sweep when --workers is above 1), so a one-process
    run never imports them. It also loads numpy.random (which numpy
    loads on first use) before it starts the workers, and on Linux forks
    them on every Python (3.14 defaults to forkserver), so they inherit
    it rather than each loading it for its first draw. No draw thread
    outlives its channels_for_trials call, so none runs at the fork.

    Where the C library is glibc (_glibc), the map keeps each process's
    heap between its jobs. By default glibc raises its mmap and trim
    thresholds only as far as the largest array freed so far (twice
    fig5's 5.2 MiB raw draw for trimming), below a job's 12.8 MiB peak,
    so it trims the heap top after each job and the next one faults
    every page in again (fig5 at 1024 trials: about 3050 minor faults
    in each of jobs 2-4). So before the map, and before the pool forks
    its workers, which inherit the setting, both thresholds are set to
    HEAP_KEEP through mallopt; setting the trim threshold alone would
    turn glibc's dynamic mmap threshold off and map every array afresh.
    When the map ends, malloc_trim(0) hands the kept pages back. The
    thresholds stay set for the rest of the process, since glibc cannot
    return to its dynamic ones. Elsewhere nothing is called."""
    workers = _typed("workers", workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    # the CPUs this process may run on: taskset and cpusets narrow its
    # affinity set, where the OS has one
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(workers, cpus)
    trials = spec.trials
    try:  # before the job list, which holds one tuple per trial range
        tables = np.empty((len(spec.values), trials, len(spec.schemes) + 1))
    except (MemoryError, ValueError) as exc:  # ValueError: more entries than numpy can index
        raise MemoryError(f"trials = {trials}: {exc}") from exc
    points = [  # (label, k, linear PNR, linear QNR) per axis value
        (f"{spec.axis} = {value}", net["k"], *(_from_db(net[f], f) for f in ("pnr_db", "qnr_db")))
        for value, net in zip(spec.values, map(spec.point, spec.values))
    ]
    relays = [k for _, k, *_ in points]
    low, top = min(relays), max(relays)
    # g, the largest relay stack: 2 top - low complex n x m blocks a trial
    stack = 16 * (2 * top - low) * spec.n * spec.m
    step = max(1, min(TRIAL_CHUNK, STACK_BYTES // stack))
    if trials <= step * workers:  # a short sweep: one even range per worker
        count = min(workers, trials)
        ranges = [(i * trials // count, (i + 1) * trials // count) for i in range(count)]
    else:
        ranges = [(start, min(start + step, trials)) for start in range(0, trials, step)]
    workers = min(workers, len(ranges))
    # a job draws on the CPUs that the other processes leave idle, up to DRAW_THREADS
    threads = min(DRAW_THREADS, cpus // workers)
    head = spec.m, spec.n, spec.seed, spec.alpha, spec.schemes, threads
    jobs = [(head, points, start, stop) for start, stop in ranges]
    libc = _glibc()
    if libc:  # after the result table, which outlives the jobs, and before any fork
        libc.mallopt(_M_MMAP_THRESHOLD, HEAP_KEEP)
        libc.mallopt(_M_TRIM_THRESHOLD, HEAP_KEEP)
    try:
        executor = contextlib.nullcontext()
        if workers > 1:
            import multiprocessing

            importlib.import_module("numpy.random")
            context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
            # through the module, where tests and tracers replace the class
            executor = sys.modules[__name__].ProcessPoolExecutor(workers, mp_context=context)
        with executor as pool:
            blocks = (pool.map if pool else map)(_capacity_chunk, jobs)
            for (start, stop), block in zip(ranges, blocks):
                tables[:, start:stop] = block
    finally:
        if libc:
            libc.malloc_trim(0)
    return tables


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate every series at every axis point: its mean capacity over
    spec.trials channels, and the standard error of that mean (the sample
    standard deviation over sqrt(trials), or 0.0 for one trial).

    Rows are ordered axis-major, series-minor: each point's schemes, in
    spec order, then the upper bound. All series of one point share the
    same per-trial channel realizations. One map over trial-range jobs,
    and for workers above 1 one process pool, serves the whole sweep.
    `workers` must be an integral number >= 1; it is capped at the CPUs
    this process may run on.
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
