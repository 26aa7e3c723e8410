"""Monte Carlo engine: estimator correctness against an independent
scalar oracle, common random numbers, axis semantics, and bitwise
determinism across seeds and worker counts."""

import dataclasses
import math
import os

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from scipy.special import eval_genlaguerre, gammaln

from relaysim import montecarlo
from relaysim.beamformers import Scheme
from relaysim.channel import NetworkConfig
from relaysim.linalg import NumericError
from relaysim.montecarlo import (
    AXES,
    TRIAL_CHUNK,
    ConfigError,
    SweepSpec,
    _capacity_chunk,
    _capacity_tables,
    run_sweep,
)

from oracle import build_weights, compute_link_metrics, realization_for_trial, upper_bound_capacity


def base_spec(**overrides):
    kwargs = dict(
        axis="relay_count",
        values=(1, 2),
        m=2,
        n=2,
        k=1,
        pnr_db=10.0,
        qnr_db=10.0,
        schemes=(Scheme.AF, Scheme.MF, Scheme.MF_RZF),
        include_upper_bound=True,
        trials=200,
        seed=3,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


# ------------------------------------------------------------ data types


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        base_spec(axis="bandwidth")
    with pytest.raises(ConfigError):
        base_spec(values=())
    with pytest.raises(ConfigError):
        base_spec(values=(2, 2))
    with pytest.raises(ConfigError):
        base_spec(values=(3, 1))
    with pytest.raises(ConfigError):
        base_spec(schemes=())
    with pytest.raises(ConfigError):
        base_spec(schemes=(Scheme.MF, Scheme.MF))
    with pytest.raises(ConfigError, match="duplicate schemes"):
        base_spec(schemes=("mf", Scheme.MF))
    with pytest.raises(ConfigError, match=r"^unknown scheme 'zf' \(known: af, mf, mf-rzf\)$"):
        base_spec(schemes=("mf", "zf"))
    with pytest.raises(ConfigError):
        base_spec(trials=0)
    with pytest.raises(ConfigError, match="seed"):
        base_spec(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        base_spec(seed=2**64)
    assert set(AXES) == {"relay_count", "pnr_db", "qnr_db", "pnr_equals_qnr_db"}


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(m=2.0), "key 'm' must be int, got float"),
        (dict(m="2"), "key 'm' must be int, got str"),
        (dict(trials=16.0), "key 'trials' must be int, got float"),
        (dict(alpha="1"), "key 'alpha' must be float, got str"),
        (dict(pnr_db="10"), "key 'pnr_db' must be float, got str"),
        (dict(include_upper_bound="no"), "key 'include_upper_bound' must be bool, got str"),
        (dict(axis="pnr_db", values=(0.0, 10.0), k=1.5), "key 'k' must be int, got float"),
        (dict(axis="pnr_db", values=("1", "2")), "sweep value '1' is not a number"),
        (dict(axis="pnr_db", values=(True,)), "sweep value True is not a number"),
        (dict(axis="pnr_db", values=5), "key 'values' must be list, got int"),
        (dict(axis="pnr_db", values=np.array(5.0)), "key 'values' must be list, got ndarray"),
        (dict(pnr_db=10**400), "key 'pnr_db' must be float, got int"),
    ],
    ids=["m-float", "m-str", "trials-float", "alpha-str", "pnr_db-str", "bound-str", "k-float",
         "values-str", "values-bool", "values-int", "values-0d-array", "pnr_db-huge-int"],
)
def test_wrong_type_is_a_config_error_naming_the_field(overrides, message):
    # each of these used to fail mid-run with a raw TypeError, or to run
    # and write the string or bool cells to the CSV
    with pytest.raises(ConfigError) as info:
        base_spec(**overrides)
    assert str(info.value) == message


@pytest.mark.parametrize("values", [range(1, 3), np.arange(1, 3), [1, 2]])
def test_values_take_any_iterable_and_are_stored_as_a_tuple_of_ints(values):
    spec = base_spec(values=values)
    assert spec.values == (1, 2) and all(type(v) is int for v in spec.values)
    assert spec == base_spec() and hash(spec) == hash(base_spec())


def test_scheme_names_are_parsed_by_the_spec():
    assert base_spec(schemes=("mf", Scheme.AF)).schemes == (Scheme.MF, Scheme.AF)
    rows = run_sweep(base_spec(values=(1,), schemes=("mf",), trials=16))
    assert [r.scheme for r in rows] == ["mf", "upper-bound"]


def test_axis_point_semantics():
    spec = base_spec()
    cfg, pnr, qnr = spec.point(5)
    assert (cfg.k, pnr, qnr) == (5, 10.0, 10.0)

    spec = base_spec(axis="pnr_db", values=(0.0, 20.0))
    cfg, pnr, qnr = spec.point(20.0)
    assert cfg.p == pytest.approx(100.0)
    assert cfg.q == pytest.approx(10.0)
    assert (pnr, qnr) == (20.0, 10.0)

    spec = base_spec(axis="qnr_db", values=(-5.0, 15.0))
    cfg, pnr, qnr = spec.point(-5.0)
    assert cfg.q == pytest.approx(10.0 ** (-0.5))
    assert (pnr, qnr) == (10.0, -5.0)

    spec = base_spec(axis="pnr_equals_qnr_db", values=(0.0, 30.0))
    cfg, pnr, qnr = spec.point(30.0)
    assert cfg.p == pytest.approx(1000.0)
    assert cfg.q == pytest.approx(1000.0)
    assert (pnr, qnr) == (30.0, 30.0)


def test_bad_point_fails_when_the_spec_is_built():
    with pytest.raises(ConfigError, match="axis point 0: k must be >= 1"):
        base_spec(values=(0, 1))


def test_axis_point_errors_name_the_point():
    spec = base_spec()
    with pytest.raises(ConfigError, match="0"):
        spec.point(0)
    with pytest.raises(ConfigError, match="2.5"):
        spec.point(2.5)


# ------------------------------------------------------------ estimators


@pytest.mark.parametrize("m, n, k", [(4, 4, 4), (2, 3, 2), (8, 8, 10)])
def test_chunk_matches_per_realization_chain(m, n, k):
    # the fused batch kernel on a two-point group against the
    # single-realization API, trial by trial, for every scheme and the bound
    configs = [
        NetworkConfig.from_db(m=m, n=n, k=k, pnr_db=pnr, qnr_db=qnr, alpha=0.7)
        for pnr, qnr in ((10.0, 5.0), (20.0, 15.0))
    ]
    points = tuple((f"point {p}", cfg) for p, cfg in enumerate(configs))
    schemes = (Scheme.AF, Scheme.MF, Scheme.MF_RZF)
    seed, start, stop = 17, 2050, 2066
    block = _capacity_chunk((points, schemes, True, seed, start, stop))
    assert block.shape == (2, stop - start, 4)
    for i, trial in enumerate(range(start, stop)):
        real = realization_for_trial(configs[0], seed, trial)
        for p, cfg in enumerate(configs):
            for j, scheme in enumerate(schemes):
                expected = compute_link_metrics(real, build_weights(scheme, real, cfg), cfg)
                assert block[p, i, j] == pytest.approx(expected.capacity_bits, rel=0, abs=1e-12)
            bound = upper_bound_capacity(real, cfg)
            assert block[p, i, 3] == pytest.approx(bound, rel=0, abs=1e-12)


def one_point(value, scheme, **overrides):
    """A sweep of one axis value and one scheme, without the bound."""
    return base_spec(values=(value,), schemes=(scheme,), include_upper_bound=False, **overrides)


def test_estimate_is_deterministic():
    spec = one_point(2, Scheme.MF, trials=300, seed=11)
    a = run_sweep(spec)
    assert run_sweep(spec) == a  # dataclass equality, bitwise on the floats
    c = run_sweep(dataclasses.replace(spec, seed=12))
    assert c[0].capacity_mean_bits != a[0].capacity_mean_bits


def test_estimate_fields():
    spec = one_point(1, Scheme.AF, trials=50, seed=0)
    (est,) = run_sweep(spec)
    assert est.scheme == "af"
    assert est.trials == 50
    assert est.capacity_mean_bits > 0
    assert est.capacity_stderr_bits > 0
    (single,) = run_sweep(dataclasses.replace(spec, trials=1))
    assert single.capacity_stderr_bits == 0.0


@pytest.mark.parametrize(
    "workers, message",
    [
        ("2", "key 'workers' must be int, got str"),
        (None, "key 'workers' must be int, got NoneType"),
        (2.5, "key 'workers' must be int, got float"),
        (True, "key 'workers' must be int, got bool"),
        (0, "workers must be >= 1, got 0"),
    ],
    ids=["str", "none", "float", "bool", "zero"],
)
def test_bad_workers_is_a_config_error_naming_it(workers, message):
    with pytest.raises(ConfigError) as info:
        run_sweep(base_spec(trials=16), workers=workers)
    assert str(info.value) == message


def test_workers_take_any_integral_number():
    spec = base_spec(trials=16)
    assert run_sweep(spec, workers=np.int64(1)) == run_sweep(spec)


def test_workers_do_not_change_results():
    # three chunks, so workers 3 runs a pool on a machine of two or more CPUs
    spec = one_point(2, Scheme.MF_RZF, n=3, trials=2100, seed=5)
    assert run_sweep(spec, workers=1) == run_sweep(spec, workers=3)


def test_scalar_network_against_independent_oracle():
    # m=n=k=1 with the matched filter has a closed scalar form; estimate it
    # with completely separate random draws and compare means
    p = q = 10.0
    trials = 40_000
    rng = np.random.default_rng(2024)
    h = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / np.sqrt(2)
    g = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / np.sqrt(2)
    ah2, ag2 = np.abs(h) ** 2, np.abs(g) ** 2
    rho2 = q / (ag2 * ah2 * (p * ah2 + 1.0))
    snr = p * rho2 * ag2**2 * ah2**2 / (rho2 * ag2**2 * ah2 + 1.0)
    oracle_caps = 0.5 * np.log2(1.0 + snr)
    oracle_mean = float(np.mean(oracle_caps))
    oracle_se = float(np.std(oracle_caps, ddof=1) / np.sqrt(trials))

    spec = one_point(1, Scheme.MF, m=1, n=1, trials=trials, seed=99)  # p = q = 10 dB
    (est,) = run_sweep(spec)
    gap = abs(est.capacity_mean_bits - oracle_mean)
    assert gap < 3.0 * np.hypot(est.capacity_stderr_bits, oracle_se)


def telatar_bound_bits(m, dof, snr):
    """0.5 E log2 det(I + snr W) for W an m x m complex Wishart matrix of
    `dof` degrees of freedom: Telatar's integral over the density of one
    unordered eigenvalue, sum_i i!/(i+d)! L_i^d(x)^2 x^d e^-x (Eur. Trans.
    Telecommun. 1999), by Gauss-Laguerre quadrature."""
    lo, d = min(m, dof), abs(m - dof)
    x, w = laggauss(100)
    density = sum(
        np.exp(d * np.log(x) + gammaln(i + 1) - gammaln(i + d + 1)) * eval_genlaguerre(i, d, x) ** 2
        for i in range(lo)
    )
    return 0.5 * np.sum(w * np.log1p(snr * x) * density) / math.log(2)


@pytest.mark.parametrize("m, n, relays", [(4, 4, (1, 2, 4, 8)), (8, 8, (10,)), (2, 3, (1, 3))])
def test_upper_bound_matches_telatar_closed_form(m, n, relays):
    # the bound is 0.5 log2 det(I + p/m sum_k h_k^H h_k), whose Gram is a
    # complex Wishart matrix of k n degrees of freedom
    spec = base_spec(values=relays, m=m, n=n, schemes=(Scheme.AF,), trials=4096, seed=1)
    bounds = [r for r in run_sweep(spec) if r.scheme == "upper-bound"]
    assert [r.k for r in bounds] == list(relays)
    p = 10.0  # 10 dB
    for r in bounds:
        expected = telatar_bound_bits(m, r.k * n, p / m)
        assert abs(r.capacity_mean_bits - expected) < 4 * r.capacity_stderr_bits


def test_upper_bound_ignores_qnr_bitwise():
    lo = base_spec(values=(2,), qnr_db=0.0, schemes=(Scheme.MF,), trials=500, seed=8)
    a = run_sweep(lo)[-1]
    b = run_sweep(dataclasses.replace(lo, qnr_db=30.0))[-1]
    assert a.capacity_mean_bits == b.capacity_mean_bits
    assert a.scheme == "upper-bound"


# ------------------------------------------------------------- run_sweep


def test_sweep_row_layout():
    spec = base_spec(values=(1, 3), trials=60)
    rows = run_sweep(spec)
    assert [(r.axis_value, r.scheme) for r in rows] == [
        (1, "af"),
        (1, "mf"),
        (1, "mf-rzf"),
        (1, "upper-bound"),
        (3, "af"),
        (3, "mf"),
        (3, "mf-rzf"),
        (3, "upper-bound"),
    ]
    for r in rows:
        assert r.axis == "relay_count"
        assert (r.m, r.n) == (2, 2)
        assert r.k == r.axis_value
        assert (r.pnr_db, r.qnr_db) == (10.0, 10.0)
        assert r.trials == 60 and r.seed == 3
        assert r.capacity_mean_bits > 0


def test_single_point_sweep_matches_direct_estimate():
    # each series of an all-scheme sweep, and the bound, is bitwise what
    # that scheme swept alone gives, on either kind of axis: the gates
    # read every scheme out of one shared sweep
    for axis, values in (("relay_count", (2,)), ("relay_count", (2, 8)), ("pnr_db", (0.0, 30.0))):
        spec = base_spec(axis=axis, values=values, trials=400, seed=21)
        rows = run_sweep(spec)
        for scheme in spec.schemes:
            alone = run_sweep(dataclasses.replace(spec, schemes=(scheme,)))
            assert alone == [r for r in rows if r.scheme in (scheme.value, "upper-bound")]


def test_sweep_without_upper_bound():
    spec = base_spec(include_upper_bound=False, values=(1,), trials=30)
    rows = run_sweep(spec)
    assert [r.scheme for r in rows] == ["af", "mf", "mf-rzf"]


def test_sweep_is_deterministic_across_workers():
    spec = base_spec(values=(1, 2), trials=500, seed=13)
    a = run_sweep(spec, workers=1)
    b = run_sweep(spec, workers=2)
    assert a == b


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(montecarlo, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, name, counted)
    return calls


def test_power_sweep_draws_and_builds_beamformers_once_per_chunk(monkeypatch):
    draws = _count_calls(monkeypatch, "channels_for_trials")
    beamformers = _count_calls(monkeypatch, "stacked_beamformers")
    spec = base_spec(axis="pnr_equals_qnr_db", values=(0.0, 10.0, 20.0), trials=1030)
    rows = run_sweep(spec)
    assert len(rows) == 3 * 4
    assert len(draws) == 2  # two chunks, shared by the three points
    assert len(beamformers) == 3 * 2  # one call per scheme per chunk
    assert [args[0] for args in beamformers] == list(spec.schemes) * 2
    assert [len(args[1].a) for args in beamformers] == [TRIAL_CHUNK] * 3 + [6] * 3


def test_relay_count_sweep_draws_once_per_chunk(monkeypatch):
    draws = _count_calls(monkeypatch, "channels_for_trials")
    beamformers = _count_calls(monkeypatch, "stacked_beamformers")
    run_sweep(base_spec(values=(1, 2), trials=1030))
    assert len(draws) == 2  # two chunks, each drawn once at the largest k
    assert [args[0].k for args in draws] == [2, 2]
    assert len(beamformers) == 3 * 2 * 2
    # chunk length and relay count of each call's Grams (T, k, m, m)
    assert [args[1].a.shape[:2] for args in beamformers] == (
        [(TRIAL_CHUNK, 1), (TRIAL_CHUNK, 2)] * 3 + [(6, 1), (6, 2)] * 3
    )


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a stand-in that runs the jobs here,
    where the call counters see them and no process starts; returns the
    list of the pool sizes opened."""
    started = []

    class SerialPool:
        def __init__(self, workers):
            started.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    return started


def test_small_relay_sweep_splits_its_chunk_across_workers(monkeypatch, serial_pool):
    # one chunk's worth of trials and two workers: each worker gets a range
    # of 32 trials of every point, drawn once at the sweep's largest k
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    draws = _count_calls(monkeypatch, "channels_for_trials")
    spec = base_spec(values=(2, 3, 4, 5), trials=64)
    rows = run_sweep(spec, workers=2)
    assert serial_pool == [2]
    # (relay count, trial count) of each draw
    assert [(args[0].k, args[3] - args[2]) for args in draws] == [(5, 32), (5, 32)]
    assert rows == run_sweep(spec, workers=1)  # bitwise on the floats


@pytest.mark.parametrize(
    "m, n, relays, alpha, trials",
    [
        (1, 1, (1,), 1.0, 64),
        (2, 3, (1, 2, 5), 0.0, 64),
        (4, 4, tuple(range(1, 9)), 1.0, 64),
        (8, 8, (10,), 1.0, 16),
    ],
)
def test_per_trial_capacities_do_not_depend_on_the_range_length(
    monkeypatch, serial_pool, m, n, relays, alpha, trials
):
    # with the CPUs pinned high, workers 3, 7 and `trials` cut the trials
    # into ranges of ceil(trials / workers), down to one trial a job
    monkeypatch.setattr(os, "cpu_count", lambda: 1000)
    spec = base_spec(values=relays, m=m, n=n, alpha=alpha, trials=trials, seed=6)
    whole = _capacity_tables(spec, 1)
    for workers in (3, 7, trials):
        assert _capacity_tables(spec, workers).tobytes() == whole.tobytes()
    assert len(serial_pool) == 3


def test_pool_never_exceeds_the_cpus(monkeypatch, serial_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    jobs = _count_calls(monkeypatch, "_capacity_chunk")
    run_sweep(one_point(1, Scheme.MF, m=1, n=1, trials=10_000), workers=1000)
    assert serial_pool == [2]
    assert [job[4:] for (job,) in jobs] == [
        (start, min(start + TRIAL_CHUNK, 10_000)) for start in range(0, 10_000, TRIAL_CHUNK)
    ]  # ten jobs of at most TRIAL_CHUNK trials
    jobs.clear()
    run_sweep(one_point(1, Scheme.MF, trials=64), workers=8)
    assert serial_pool == [2, 2]
    assert [job[4:] for (job,) in jobs] == [(0, 32), (32, 64)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
    run_sweep(one_point(1, Scheme.MF, trials=64), workers=8)
    assert serial_pool == [2, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_power_sweep_rows_equal_one_point_sweeps(workers):
    # two chunks per point, so workers 2 runs a pool
    values = (0.0, 10.0, 20.0)
    alone = []
    for value in values:
        one = base_spec(axis="pnr_equals_qnr_db", values=(value,), trials=1030, seed=4)
        alone += run_sweep(one)
    spec = base_spec(axis="pnr_equals_qnr_db", values=values, trials=1030, seed=4)
    assert run_sweep(spec, workers=workers) == alone  # bitwise on the floats


@pytest.mark.parametrize("workers", [1, 2])
def test_relay_count_sweep_rows_equal_one_point_sweeps(workers):
    # each k reads slices of one draw at the largest k, here with gapped
    # relay counts, so g blocks [4, 5) are drawn but no k reads them; its
    # rows are bitwise those of a sweep of that k alone. Two chunks, so
    # workers 2 runs a pool
    values = (1, 2, 5)
    settings = dict(axis="relay_count", m=2, n=3, alpha=0.7, trials=1030, seed=4)
    alone = []
    for value in values:
        alone += run_sweep(base_spec(values=(value,), **settings))
    assert run_sweep(base_spec(values=values, **settings), workers=workers) == alone


def test_numeric_error_names_point_scheme_and_trials(monkeypatch):
    original = montecarlo.stacked_beamformers

    def singular_at_two_relays(scheme, grams, alpha):
        # only at two relays, in the second, short chunk
        if scheme is Scheme.MF_RZF and grams.a.shape[-3] == 2 and len(grams.a) < TRIAL_CHUNK:
            raise NumericError("cholesky_stack: matrix not positive definite")
        return original(scheme, grams, alpha)

    monkeypatch.setattr(montecarlo, "stacked_beamformers", singular_at_two_relays)
    with pytest.raises(NumericError) as info:
        run_sweep(base_spec(values=(1, 2), trials=1030))
    assert str(info.value) == (
        "relay_count = 2: mf-rzf at trials [1024, 1030): "
        "cholesky_stack: matrix not positive definite"
    )


def test_numeric_error_in_shared_beamformers_names_every_point_of_the_group(monkeypatch):
    def singular(scheme, grams, alpha):
        raise NumericError("cholesky_stack: matrix not positive definite")

    monkeypatch.setattr(montecarlo, "stacked_beamformers", singular)
    spec = base_spec(axis="pnr_equals_qnr_db", values=(0.0, 10.0), trials=64)
    with pytest.raises(NumericError) as info:
        run_sweep(spec)
    assert str(info.value).startswith(
        "pnr_equals_qnr_db = 0.0; pnr_equals_qnr_db = 10.0: af at trials [0, 64): "
    )


def test_numeric_error_in_shared_inverse_names_every_point_of_the_chunk(monkeypatch):
    # mf-rzf's (A + alpha I)^-1 is formed once per chunk for all relay counts
    def singular(gram):
        raise NumericError("cholesky_stack: matrix not positive definite")

    monkeypatch.setattr("relaysim.beamformers.cholesky_stack", singular)
    with pytest.raises(NumericError) as info:
        run_sweep(base_spec(values=(1, 2, 3), trials=64))
    assert str(info.value) == (
        "relay_count = 1; relay_count = 2; relay_count = 3: mf-rzf at trials [0, 64): "
        "cholesky_stack: matrix not positive definite"
    )


def test_numeric_error_in_power_control_names_its_point(monkeypatch):
    original = montecarlo.stacked_power_factors

    def failing_at_10db(fh_sq, f_sq, p, m, q):
        if p == 10.0:
            raise NumericError("a relay's output power is not positive")
        return original(fh_sq, f_sq, p, m, q)

    monkeypatch.setattr(montecarlo, "stacked_power_factors", failing_at_10db)
    spec = base_spec(axis="pnr_equals_qnr_db", values=(0.0, 10.0, 20.0), trials=64)
    with pytest.raises(NumericError, match=r"^pnr_equals_qnr_db = 10.0: af at trials \[0, 64\): "):
        run_sweep(spec)


def test_floating_point_overflow_names_point_scheme_and_trials():
    # (p/m) ||FH||^2 overflows between 3060 and 3070 dB, which would set rho to 0
    spec = base_spec(axis="pnr_db", values=(3060.0, 3070.0), schemes=(Scheme.MF,), trials=64)
    with pytest.raises(NumericError, match=r"^pnr_db = 3070.0: mf at trials \[0, 64\): overflow"):
        run_sweep(spec)


def test_mf_capacity_grows_with_relay_count():
    spec = base_spec(
        values=(1, 6), schemes=(Scheme.MF,), include_upper_bound=False, trials=800
    )
    rows = run_sweep(spec)
    assert rows[1].capacity_mean_bits > rows[0].capacity_mean_bits


def mf_rzf_spec(alpha, n=4, schemes=(Scheme.MF, Scheme.MF_RZF)):
    return base_spec(axis="pnr_equals_qnr_db", values=(10.0,), m=4, n=n, k=4, alpha=alpha,
                     schemes=schemes, include_upper_bound=False, trials=64)


@pytest.mark.parametrize("alpha", [1e12, 1e200, 1e300])
def test_mf_rzf_at_large_alpha_is_mf_per_trial(alpha):
    mf, mf_rzf = _capacity_tables(mf_rzf_spec(alpha), 1)[0].T
    np.testing.assert_allclose(mf_rzf, mf, rtol=1e-9, atol=0)


@pytest.mark.parametrize("n, alpha", [(5, 0.0), (4, 1e-3), (4, 1.0), (4, 1e8)])
def test_mf_rzf_runs_at_every_alpha(n, alpha):
    (row,) = run_sweep(mf_rzf_spec(alpha, n, schemes=(Scheme.MF_RZF,)))
    assert np.isfinite(row.capacity_mean_bits) and row.capacity_mean_bits > 0
