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

Work is shared between the points of a sweep. The channel draw depends
only on (m, n, k, seed, trial), and the beamformers only on the channels
and alpha; the powers p and q enter at power control. Points whose
configs agree on m, n, k and alpha form a group, and a job is one
(group, trial chunk) pair: it draws the chunk's channels once, reduces
them to the relays' m x m Grams g g^H and h^H h (and the cascade g h
for af), and forms each scheme's per-relay link products from those
once. What is left per point of the group is power control, two
rho-weighted sums over relays, the QR and SNR, and the bound. Chunk
bounds, array shapes and each point's sequence of operations are those
of a one-point sweep, so every float, and every byte of results.csv,
equals what the point gives on its own. On a relay count sweep every
group has one point.
"""

from __future__ import annotations

import contextlib
import numbers
from collections.abc import Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beamformers import Scheme, relay_grams, stacked_beamformers, stacked_power_factors
from .channel import ConfigError, NetworkConfig, channels_for_trials, check_seed
from .linalg import NumericError
from .link import stacked_scheme_capacity, stacked_upper_bound

UPPER_BOUND_LABEL = "upper-bound"

# Trials are evaluated in fixed-size batches so the array shapes (and
# therefore every intermediate float) are independent of the worker count.
TRIAL_CHUNK = 1024

# axis -> the base network fields that each of its values replaces
AXES = {
    "relay_count": ("k",),
    "pnr_db": ("pnr_db",),
    "qnr_db": ("qnr_db",),
    "pnr_equals_qnr_db": ("pnr_db", "qnr_db"),
}

# SweepSpec field -> type; a list is any non-string iterable, kept as a tuple
_TYPES = dict(axis=str, values=list, m=int, n=int, k=int, pnr_db=float, qnr_db=float,
              alpha=float, schemes=list, include_upper_bound=bool, trials=int, seed=int)
_NETWORK = ("m", "n", "k", "pnr_db", "qnr_db", "alpha")


def _typed(name: str, value):
    """`value` as field `name`'s type, or a ConfigError naming the field.
    Integral numbers are ints and real numbers floats; only a bool is a bool."""
    kind = _TYPES[name]
    accepted = {int: numbers.Integral, float: numbers.Real, list: Iterable}.get(kind, kind)
    if (
        isinstance(value, accepted)
        and isinstance(value, bool) == (kind is bool)
        and not (kind is list and isinstance(value, (str, bytes, Mapping)))
    ):
        # TypeError: a 0-d array is not iterable; OverflowError: an int too large for a float
        with contextlib.suppress(TypeError, OverflowError):
            return tuple(value) if kind is list else kind(value)
    raise ConfigError(f"key '{name}' must be {kind.__name__}, got {type(value).__name__}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep, field for field the keys of a scenario file: an axis,
    its values, the base network the axis perturbs (powers in dB) and the
    run settings. It is the one check of a sweep's input: every field is
    typed, and the base network and every point are materialized, so a
    bad value is a ConfigError naming its field when the spec is built."""

    axis: str
    values: tuple
    m: int
    n: int
    k: int
    pnr_db: float
    qnr_db: float
    alpha: float = 1.0
    schemes: tuple = (Scheme.AF, Scheme.MF, Scheme.MF_RZF)
    include_upper_bound: bool = True
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in _TYPES:
            object.__setattr__(self, name, _typed(name, getattr(self, name)))
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
        NetworkConfig.from_db(**{name: getattr(self, name) for name in _NETWORK})
        for value in self.values:
            self.point(value)
        field = AXES[self.axis][0]
        object.__setattr__(self, "values", tuple(_typed(field, v) for v in self.values))

    def point(self, value) -> tuple[NetworkConfig, float, float]:
        """Materialize (config, pnr_db, qnr_db) for one axis value: the
        base network with the axis's fields set to `value`."""
        fields = {name: getattr(self, name) for name in _NETWORK}
        try:
            fields.update((name, _typed(name, value)) for name in AXES[self.axis])
            config = NetworkConfig.from_db(**fields)
        except ConfigError as exc:
            raise ConfigError(f"axis point {value}: {exc}") from None
        return config, fields["pnr_db"], fields["qnr_db"]


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
    of one point group: sweep points, given as (label, config) pairs,
    whose configs share m, n, k and alpha.

    The chunk's channels are drawn once and reduced to their Grams, and
    each scheme's link products are formed once; power control, the link
    and the bound then run per point. A scheme's products are released
    before the next scheme starts. A NumericError, or a floating-point
    overflow, division by zero or invalid operation, is raised as a
    NumericError naming the point(s), the series and the trial range, and
    a MemoryError naming the point(s) and the trial range.
    """
    points, schemes, include_upper, seed, start, stop = job
    labels, configs = zip(*points)
    try:
        h, g = channels_for_trials(configs[0], seed, start, stop)
        grams = relay_grams(h, g, cascade=Scheme.AF in schemes)
        del h, g
        table = np.empty((len(points), stop - start, len(schemes) + int(include_upper)))
        for j, scheme in enumerate(schemes):
            where = labels, scheme.value
            p, s, fh_sq, f_sq = stacked_beamformers(scheme, grams, configs[0].alpha)
            for i, config in enumerate(configs):
                where = labels[i : i + 1], scheme.value
                rho = stacked_power_factors(fh_sq, f_sq, config.p, config.m, config.q)
                table[i, :, j] = stacked_scheme_capacity(p, s, rho, config)
            del p, s
        if include_upper:
            b_sum = np.sum(grams.b, axis=-3)
            for i, config in enumerate(configs):
                where = labels[i : i + 1], UPPER_BOUND_LABEL
                table[i, :, -1] = stacked_upper_bound(b_sum, config)
    except (NumericError, FloatingPointError) as exc:
        failed, series = where
        raise NumericError(
            f"{'; '.join(failed)}: {series} at trials [{start}, {stop}): {exc}"
        ) from exc
    except MemoryError as exc:
        # numpy's _ArrayMemoryError cannot be built from a message
        raise MemoryError(f"{'; '.join(labels)} at trials [{start}, {stop}): {exc}") from exc
    return table


def _capacity_tables(spec: SweepSpec, workers: int) -> np.ndarray:
    """(points, trials, series) per-trial capacities of every point of
    the sweep, in trial order, from one map over (point group, trial
    chunk) jobs, run in at most one process per job."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    schemes, include_upper, trials = spec.schemes, spec.include_upper_bound, spec.trials
    try:  # before the job list, which holds trials / TRIAL_CHUNK tuples per group
        tables = np.empty((len(spec.values), trials, len(schemes) + int(include_upper)))
    except MemoryError as exc:
        raise MemoryError(f"trials = {trials}: {exc}") from exc
    points = [(f"{spec.axis} = {value}", spec.point(value)[0]) for value in spec.values]
    groups = {}
    for index, (_, config) in enumerate(points):
        groups.setdefault((config.m, config.n, config.k, config.alpha), []).append(index)
    jobs, owners = [], []
    for indices in groups.values():
        group = tuple(points[i] for i in indices)
        for start in range(0, trials, TRIAL_CHUNK):
            stop = min(start + TRIAL_CHUNK, trials)
            jobs.append((group, schemes, include_upper, spec.seed, start, stop))
            owners.append(indices)
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        blocks = (pool.map if pool else map)(_capacity_chunk, jobs)
        for job, indices, block in zip(jobs, owners, blocks):
            start, stop = job[-2:]
            tables[indices, start:stop] = block
    return tables


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate every series at every axis point: its mean capacity over
    spec.trials channels, and the standard error of that mean (the sample
    standard deviation over sqrt(trials), or 0.0 for one trial).

    Rows are ordered axis-major, series-minor, with the upper bound (if
    requested) last within each point. All series of one point share the
    same per-trial channel realizations. One map over (point group, trial
    chunk) jobs, and for workers above 1 one process pool, serves the
    whole sweep.
    """
    rows = []
    labels = [s.value for s in spec.schemes]
    if spec.include_upper_bound:
        labels.append(UPPER_BOUND_LABEL)
    trials = spec.trials
    for value, table in zip(spec.values, _capacity_tables(spec, workers)):
        config, pnr_db, qnr_db = spec.point(value)
        for j, label in enumerate(labels):
            col = table[:, j]
            stderr = float(np.std(col, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
            rows.append(
                SweepRow(
                    scheme=label,
                    axis=spec.axis,
                    axis_value=value,
                    m=config.m,
                    n=config.n,
                    k=config.k,
                    pnr_db=pnr_db,
                    qnr_db=qnr_db,
                    alpha=config.alpha,
                    trials=trials,
                    seed=spec.seed,
                    capacity_mean_bits=float(np.mean(col)),
                    capacity_stderr_bits=stderr,
                )
            )
    return rows
