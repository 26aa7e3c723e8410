"""Ergodic capacity estimation and parameter sweeps.

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
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beamformers import Scheme, relay_grams, stacked_beamformers, stacked_power_factors
from .channel import NetworkConfig, channels_for_trials, check_seed
from .linalg import NumericError
from .link import stacked_scheme_capacity, stacked_upper_bound

UPPER_BOUND_LABEL = "upper-bound"

# Trials are evaluated in fixed-size batches so the array shapes (and
# therefore every intermediate float) are independent of the worker count.
TRIAL_CHUNK = 1024

AXES = ("relay_count", "pnr_db", "qnr_db", "pnr_equals_qnr_db")


class ConfigError(ValueError):
    """A sweep point or scenario value is invalid."""


@dataclass(frozen=True)
class CapacityEstimate:
    """Monte Carlo mean capacity with its standard error.

    stderr_bits is the sample standard deviation over sqrt(trials); for
    the degenerate single-trial case it is defined as 0.0.
    """

    mean_bits: float
    stderr_bits: float
    trials: int
    scheme: str

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not math.isfinite(self.mean_bits) or self.mean_bits < 0:
            raise ValueError(f"mean_bits must be finite and >= 0, got {self.mean_bits}")
        if not math.isfinite(self.stderr_bits) or self.stderr_bits < 0:
            raise ValueError(f"stderr_bits must be >= 0, got {self.stderr_bits}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, its values, and the base network the axis
    perturbs. base_pnr_db / base_qnr_db mirror base.p / base.q in dB so
    reports can echo the configured values exactly."""

    axis: str
    values: tuple
    base: NetworkConfig
    base_pnr_db: float
    base_qnr_db: float
    schemes: tuple = (Scheme.AF, Scheme.MF, Scheme.MF_RZF)
    include_upper_bound: bool = True
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}, expected one of {AXES}")
        if len(self.values) == 0:
            raise ConfigError("sweep values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError(f"sweep values must be strictly increasing: {self.values}")
        if len(self.schemes) == 0:
            raise ConfigError("at least one scheme is required")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError(f"duplicate schemes: {self.schemes}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        try:
            check_seed(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def point(self, value) -> tuple[NetworkConfig, float, float]:
        """Materialize (config, pnr_db, qnr_db) for one axis value."""
        pnr_db, qnr_db, k = self.base_pnr_db, self.base_qnr_db, self.base.k
        if self.axis == "relay_count":
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigError(f"axis point {value!r}: relay count must be an integer")
            k = int(value)
        elif self.axis == "pnr_db":
            pnr_db = float(value)
        elif self.axis == "qnr_db":
            qnr_db = float(value)
        else:  # pnr_equals_qnr_db
            pnr_db = qnr_db = float(value)
        try:
            cfg = NetworkConfig.from_db(
                m=self.base.m,
                n=self.base.n,
                k=k,
                pnr_db=pnr_db,
                qnr_db=qnr_db,
                alpha=self.base.alpha,
                sigma1_sq=self.base.sigma1_sq,
                sigma2_sq=self.base.sigma2_sq,
            )
        except ValueError as exc:
            raise ConfigError(f"axis point {value!r}: {exc}") from exc
        return cfg, pnr_db, qnr_db


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


def _capacity_chunk(job) -> np.ndarray:
    """Per-trial capacities (points, T, series) for trials [start, stop)
    of one point group: sweep points, given as (label, config) pairs,
    whose configs share m, n, k and alpha.

    The chunk's channels are drawn once and reduced to their Grams, and
    each scheme's link products are formed once; power control, the link
    and the bound then run per point. A scheme's products are released
    before the next scheme starts. A NumericError is re-raised naming the
    point(s), the series and the trial range.
    """
    points, schemes, include_upper, seed, start, stop = job
    labels, configs = zip(*points)
    h, g = channels_for_trials(configs[0], seed, start, stop)
    grams = relay_grams(h, g, cascade=Scheme.AF in schemes)
    del h, g
    table = np.empty((len(points), stop - start, len(schemes) + int(include_upper)))
    try:
        for j, scheme in enumerate(schemes):
            where = labels, scheme.value
            p, s, fh_sq, f_sq = stacked_beamformers(scheme, grams, configs[0].alpha)
            for i, config in enumerate(configs):
                where = labels[i : i + 1], scheme.value
                rho = stacked_power_factors(
                    fh_sq, f_sq, config.p, config.m, config.sigma1_sq, config.q
                )
                table[i, :, j] = stacked_scheme_capacity(p, s, rho, config)
            del p, s
        if include_upper:
            b_sum = np.sum(grams.b, axis=-3)
            for i, config in enumerate(configs):
                where = labels[i : i + 1], UPPER_BOUND_LABEL
                table[i, :, -1] = stacked_upper_bound(b_sum, config)
    except NumericError as exc:
        failed, series = where
        raise NumericError(
            f"{'; '.join(failed)}: {series} at trials [{start}, {stop}): {exc}"
        ) from exc
    return table


def _capacity_tables(
    points: list, schemes: tuple, include_upper: bool, trials: int, seed: int, workers: int
) -> np.ndarray:
    """(points, trials, series) per-trial capacities of every (label,
    config) point, in trial order, from one map over (point group, trial
    chunk) jobs, run in at most one process per job."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    groups = {}
    for index, (_, config) in enumerate(points):
        groups.setdefault((config.m, config.n, config.k, config.alpha), []).append(index)
    jobs, owners = [], []
    for indices in groups.values():
        group = tuple(points[i] for i in indices)
        for start in range(0, trials, TRIAL_CHUNK):
            stop = min(start + TRIAL_CHUNK, trials)
            jobs.append((group, schemes, include_upper, seed, start, stop))
            owners.append(indices)
    tables = np.empty((len(points), trials, len(schemes) + int(include_upper)))
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        blocks = (pool.map if pool else map)(_capacity_chunk, jobs)
        for job, indices, block in zip(jobs, owners, blocks):
            start, stop = job[-2:]
            tables[indices, start:stop] = block
    return tables


def _estimate(values: np.ndarray, trials: int, scheme: str) -> CapacityEstimate:
    stderr = float(np.std(values, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return CapacityEstimate(
        mean_bits=float(np.mean(values)),
        stderr_bits=stderr,
        trials=trials,
        scheme=scheme,
    )


def estimate_ergodic_capacity(
    config: NetworkConfig,
    scheme: Scheme,
    trials: int,
    seed: int,
    workers: int = 1,
) -> CapacityEstimate:
    """Mean instantaneous capacity of one scheme over `trials` channels."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    table = _capacity_tables([(str(config), config)], (scheme,), False, trials, seed, workers)
    return _estimate(table[0, :, 0], trials, scheme.value)


def estimate_upper_bound(
    config: NetworkConfig, trials: int, seed: int, workers: int = 1
) -> CapacityEstimate:
    """Mean cut-set bound over the same channel draws the schemes see."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    table = _capacity_tables([(str(config), config)], (), True, trials, seed, workers)
    return _estimate(table[0, :, 0], trials, UPPER_BOUND_LABEL)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate every series at every axis point.

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
    points = [spec.point(value) for value in spec.values]
    tables = _capacity_tables(
        [(f"{spec.axis} = {v}", config) for v, (config, _, _) in zip(spec.values, points)],
        spec.schemes,
        spec.include_upper_bound,
        spec.trials,
        spec.seed,
        workers,
    )
    for value, (config, pnr_db, qnr_db), table in zip(spec.values, points, tables):
        for j, label in enumerate(labels):
            est = _estimate(table[:, j], spec.trials, label)
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
                    trials=spec.trials,
                    seed=spec.seed,
                    capacity_mean_bits=est.mean_bits,
                    capacity_stderr_bits=est.stderr_bits,
                )
            )
    return rows
