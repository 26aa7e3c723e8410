"""Monte Carlo engine: estimator correctness against an independent
scalar oracle, common random numbers, axis semantics, and bitwise
determinism across seeds and worker counts."""

import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.laguerre import laggauss
from scipy.special import eval_genlaguerre, gammaln

from relaysim import montecarlo
from relaysim.beamformers import Scheme
from relaysim.linalg import NumericError
from relaysim.montecarlo import (
    AXES,
    STACK_BYTES,
    TRIAL_CHUNK,
    ConfigError,
    SweepSpec,
    _capacity_chunk,
    _capacity_tables,
    run_sweep,
)
from relaysim.scenario import load_bundled

from oracle import (
    Network,
    build_weights,
    compute_link_metrics,
    mutual_information,
    realization_for_trial,
    upper_bound_capacity,
)


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
        (dict(axis="pnr_db", values=(0.0, 10.0), k=1.5), "key 'k' must be int, got float"),
        (dict(axis="pnr_db", values=("1", "2")), "sweep value '1' is not a number"),
        (dict(axis="pnr_db", values=(True,)), "sweep value True is not a number"),
        (dict(axis="pnr_db", values=5), "key 'values' must be list, got int"),
        (dict(axis="pnr_db", values=np.array(5.0)), "key 'values' must be list, got ndarray"),
        (dict(pnr_db=10**400), "key 'pnr_db' must be float, got int"),
    ],
    ids=["m-float", "m-str", "trials-float", "alpha-str", "pnr_db-str", "k-float",
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
    # a point is the base network, powers in dB, with the axis's fields set
    network = dict(m=2, n=2, k=1, pnr_db=10.0, qnr_db=10.0, alpha=1.0)
    assert base_spec().point(5) == {**network, "k": 5}
    spec = base_spec(axis="pnr_db", values=(0.0, 20.0))
    assert spec.point(20.0) == {**network, "pnr_db": 20.0}
    spec = base_spec(axis="qnr_db", values=(-5.0, 15.0))
    assert spec.point(-5.0) == {**network, "qnr_db": -5.0}
    spec = base_spec(axis="pnr_equals_qnr_db", values=(0.0, 30.0))
    assert spec.point(30.0) == {**network, "pnr_db": 30.0, "qnr_db": 30.0}


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(m=0), "m must be >= 1, got 0"),
        (dict(m=3, n=2), "relay antennas must satisfy n >= m, got n=2, m=3"),
        (dict(axis="pnr_db", values=(0.0,), k=0), "k must be >= 1, got 0"),
        (dict(alpha=-0.5), "alpha must be >= 0, got -0.5"),
        (dict(alpha=math.inf), "alpha must be >= 0, got inf"),
        (dict(alpha=math.nan), "alpha must be >= 0, got nan"),
    ],
    ids=["m-zero", "n-below-m", "k-zero", "alpha-negative", "alpha-inf", "alpha-nan"],
)
def test_bad_network_is_a_config_error_naming_the_field(overrides, message):
    with pytest.raises(ConfigError) as info:
        base_spec(**overrides)
    assert str(info.value) == message


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
    # the fused batch kernel on a two-point sweep against the
    # single-realization API, trial by trial, for every scheme and the bound
    seed, start, stop = 17, 2050, 2066
    spec = SweepSpec("pnr_db", (10.0, 20.0), m=m, n=n, k=k, pnr_db=10.0, qnr_db=5.0,
                     alpha=0.7, seed=seed)
    configs = [
        Network(m=m, n=n, k=k, p=10.0 ** (pnr / 10.0), q=10.0 ** 0.5, alpha=0.7)
        for pnr in spec.values
    ]
    schemes = spec.schemes
    block = _capacity_chunk((*_jobs(spec, 1)[0][:-2], start, stop))
    assert block.shape == (2, stop - start, 4)
    for i, trial in enumerate(range(start, stop)):
        real = realization_for_trial(configs[0], seed, trial)
        for p, cfg in enumerate(configs):
            for j, scheme in enumerate(schemes):
                expected = compute_link_metrics(real, build_weights(scheme, real, cfg), cfg)
                assert block[p, i, j] == pytest.approx(expected.capacity_bits, rel=0, abs=1e-12)
            bound = upper_bound_capacity(real, cfg)
            assert block[p, i, 3] == pytest.approx(bound, rel=0, abs=1e-12)


@pytest.mark.parametrize("m, n, k", [(2, 2, 1), (2, 4, 4), (5, 5, 2), (6, 6, 3)])
def test_sic_capacity_is_below_the_mutual_information_and_that_below_the_bound(m, n, k):
    # per trial and scheme, ZF-SIC <= I(s; y) <= cut-set bound, with
    # I(s; y) from the explicit F of the reference chain; the smallest
    # margins here are about 6e-6 bits below I(s; y) and 2e-2 bits above
    slack = 1e-9
    for pnr_db, qnr_db in [(5.0, 20.0), (30.0, 5.0)]:
        spec = SweepSpec("pnr_db", (pnr_db,), m=m, n=n, k=k, pnr_db=pnr_db, qnr_db=qnr_db,
                         trials=32, seed=8)
        table = _capacity_tables(spec, 1)[0]
        cfg = Network(m=m, n=n, k=k, p=10.0 ** (pnr_db / 10.0), q=10.0 ** (qnr_db / 10.0))
        for trial, row in enumerate(table):
            real = realization_for_trial(cfg, spec.seed, trial)
            for j, scheme in enumerate(spec.schemes):
                info = mutual_information(real, build_weights(scheme, real, cfg), cfg)
                assert row[j] <= info + slack, (pnr_db, qnr_db, trial, scheme)
                assert info <= row[-1] + slack, (pnr_db, qnr_db, trial, scheme)


def one_point(value, scheme, **overrides):
    """A sweep of one axis value and one scheme: its rows are the
    scheme's, then the bound's."""
    return base_spec(values=(value,), schemes=(scheme,), **overrides)


def test_estimate_is_deterministic():
    spec = one_point(2, Scheme.MF, trials=300, seed=11)
    a = run_sweep(spec)
    assert run_sweep(spec) == a  # dataclass equality, bitwise on the floats
    c = run_sweep(dataclasses.replace(spec, seed=12))
    assert c[0].capacity_mean_bits != a[0].capacity_mean_bits


def test_estimate_fields():
    spec = one_point(1, Scheme.AF, trials=50, seed=0)
    est, _ = run_sweep(spec)
    assert est.scheme == "af"
    assert est.trials == 50
    assert est.capacity_mean_bits > 0
    assert est.capacity_stderr_bits > 0
    single, _ = run_sweep(dataclasses.replace(spec, trials=1))
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
    # at least three chunks, so workers 3 runs a pool on a machine of two
    # or more CPUs
    spec = one_point(2, Scheme.MF_RZF, n=3, trials=2100, seed=5)
    assert run_sweep(spec, workers=1) == run_sweep(spec, workers=3)


def test_coherent_relays_gain_m_over_2_bits_per_doubling_of_k():
    """The distributed-array-gain law at large K (Boelcskei, Nabar, Oyman
    and Paulraj, IEEE Trans. Wireless Commun. 2006): coherent relays (mf,
    mf-rzf) gain m/2 bits per doubling of K, and af saturates.

    At m = n = 2, 10 dB and 1024 trials, the paired gain from K = 64 to
    128 read, at seeds 1/2/3: mf +1.010/+1.009/+1.000 and mf-rzf
    +1.016/+1.019/+1.006, each +- 0.004; af +0.068/-0.042/-0.000, each
    +- 0.031. mf-rzf approaches m/2 from above and is still 4-5 paired
    stderrs off at seed 2, so mf and mf-rzf are held to a relative band
    of 5% around m/2, and af to 4 paired stderrs around 0."""
    m, trials = 2, 1024
    spec = SweepSpec("relay_count", (16, 32, 64, 128), m=m, n=m, k=16, pnr_db=10.0,
                     qnr_db=10.0, trials=trials, seed=1)
    tables = _capacity_tables(spec, 1)
    gain = tables[3] - tables[2]  # per trial and series, K = 64 -> 128
    mean = dict(zip(spec.schemes, gain.mean(axis=0)))
    stderr = dict(zip(spec.schemes, gain.std(axis=0, ddof=1) / np.sqrt(trials)))
    for scheme in (Scheme.MF, Scheme.MF_RZF):
        assert abs(mean[scheme] / (m / 2) - 1) < 0.05, (scheme, mean[scheme])
    assert abs(mean[Scheme.AF]) < 4 * stderr[Scheme.AF], (mean[Scheme.AF], stderr[Scheme.AF])


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
    est, _ = run_sweep(spec)
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
    inverses = _count_calls(monkeypatch, "regularized_inverse")
    beamformers = _count_calls(monkeypatch, "stacked_beamformers")
    spec = base_spec(axis="pnr_equals_qnr_db", values=(0.0, 10.0, 20.0), trials=TRIAL_CHUNK + 6)
    rows = run_sweep(spec)
    assert len(rows) == 3 * 4
    assert len(draws) == 2  # two chunks, shared by the three points
    assert len(inverses) == 2  # mf-rzf's D, once per chunk at one relay count
    assert len(beamformers) == 3 * 2  # one call per scheme per chunk
    assert [args[0] for args in beamformers] == list(spec.schemes) * 2
    assert [len(args[1]) for args in beamformers] == [TRIAL_CHUNK] * 3 + [6] * 3


def test_relay_count_sweep_draws_once_per_chunk(monkeypatch):
    draws = _count_calls(monkeypatch, "channels_for_trials")
    inverses = _count_calls(monkeypatch, "regularized_inverse")
    beamformers = _count_calls(monkeypatch, "stacked_beamformers")
    run_sweep(base_spec(values=(1, 2), trials=TRIAL_CHUNK + 6))
    assert len(draws) == 2  # two chunks, each drawn once at the largest k
    assert [args[2] for args in draws] == [2, 2]
    assert len(inverses) == 2  # mf-rzf's D, once per chunk for both relay counts
    assert len(beamformers) == 3 * 2 * 2
    # chunk length and relay count of each call's Grams (T, k, m, m)
    assert [args[1].shape[:2] for args in beamformers] == (
        [(TRIAL_CHUNK, 1), (TRIAL_CHUNK, 2)] * 3 + [(6, 1), (6, 2)] * 3
    )


def _jobs(spec, workers):
    """The jobs that _capacity_tables makes of `spec` on 64 CPUs, in
    order; no job runs and no process starts. A job's trial range is
    job[-2:], and (*job[:-2], start, stop) is the same job over another
    range."""
    jobs = []
    with pytest.MonkeyPatch.context() as patch:
        _pin_cpus(patch, 64)
        patch.setattr(montecarlo, "_capacity_chunk", lambda job: jobs.append(job) or 0.0)
        # a pool that yields None, so the jobs run through the builtin map
        patch.setattr(montecarlo, "ProcessPoolExecutor", lambda *a, **kw: contextlib.nullcontext())
        _capacity_tables(spec, workers)
    return jobs


@pytest.mark.parametrize(
    "name, bound_mib, stop",
    [("fig5", 15, 256), ("fig6", 15, 256), ("fig2", 10, TRIAL_CHUNK), ("k128", 9.5, 40),
     ("m16", 15, 64), ("m2", 15, 322)],
    ids=["fig5-15", "fig6-15", "fig2-10", "k128-9.5", "m16-15", "m2-15"],
)
def test_trial_chunk_bounds_a_jobs_memory(name, bound_mib, stop):
    # the traced peak of the first job that the scheduler makes of a
    # sweep, over every point, scheme and the bound. The 2.5 MiB budget
    # for g, the largest relay stack, cuts a job to 256 trials for fig5
    # and fig6 ((8, 8, 10) at 7 points), to 2.5 MiB / (16 * 254 * 16 B)
    # = 40 trials for k128 ((4, 4, 2..128)), to 64 trials for m16
    # ((16, 16, 10) at 3 points) and to 322 trials for m2 ((2, 2, 1..64)),
    # while fig2 ((4, 4, 1..8)) runs TRIAL_CHUNK trials. Each bound but
    # m2's is below the peak plus one relay stack of the top k (fig5, fig6
    # and m16 2.5 MiB, fig2 1.0, k128 1.25), so h kept alive past af's top
    # k fails each; m2 is held to the 15 MiB that fig5 and m16 run at
    if name == "k128":
        spec = SweepSpec("relay_count", (2, 4, 8, 16, 32, 64, 128), m=4, n=4, k=2,
                         pnr_db=10.0, qnr_db=10.0, seed=1)
    elif name == "m2":
        spec = SweepSpec("relay_count", (1, *range(8, 65, 8)), m=2, n=2, k=1,
                         pnr_db=10.0, qnr_db=10.0, seed=1)
    elif name == "m16":
        spec = SweepSpec("pnr_equals_qnr_db", (0.0, 10.0, 20.0), m=16, n=16, k=10,
                         pnr_db=10.0, qnr_db=10.0, seed=1)
    else:
        spec = load_bundled(name)
    job = _jobs(spec, 1)[0]
    assert job[-2:] == (0, stop)
    tracemalloc.start()
    try:
        _capacity_chunk(job)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"{name}: {peak / 2**20:.1f} MiB")
    assert peak < bound_mib * 2**20


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 16), st.integers(0, 16), st.integers(1, 200), st.integers(0, 200),
    st.integers(1, 5000), st.integers(1, 64),
)
def test_job_ranges_tile_the_trials_within_every_budget(m, extra, low, more, trials, workers):
    # a power sweep at k = low, or a relay sweep from low to low + more
    n, top = m + extra, low + more
    axis = "relay_count" if more else "pnr_equals_qnr_db"
    values = (low, top) if more else (0.0, 10.0)
    spec = SweepSpec(axis, values, m=m, n=n, k=low, pnr_db=10.0, qnr_db=10.0, trials=trials)
    ranges = [job[-2:] for job in _jobs(spec, workers)]
    assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
    assert ranges[-1][1] == trials
    for start, stop in ranges:
        length = stop - start
        assert 1 <= length <= min(TRIAL_CHUNK, -(-trials // workers))
        # the bytes of g, the largest relay stack (relays [low, 2 top) of
        # n x m complex entries), unless a single trial exceeds them
        assert length * 16 * (2 * top - low) * n * m <= STACK_BYTES or length == 1
    # a sweep that fits in one job per worker is spread over them all
    budget = max(1, min(TRIAL_CHUNK, STACK_BYTES // (16 * (2 * top - low) * n * m)))
    if trials <= budget * workers:
        assert len(ranges) == min(workers, trials)
    else:
        assert len(ranges) == -(-trials // budget)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "k128"])
def test_the_job_ranges_of_4x4_relay_sweeps_are_the_relay_trial_budgets(name, workers):
    # fig2-fig4 (4, 4, 1..8) run TRIAL_CHUNK trials a job, and the bytes of
    # g, the largest relay stack, cut (4, 4, 2..128) to
    # 2.5 MiB / (16 * 254 * 16 B) = 40
    if name == "k128":
        spec = SweepSpec("relay_count", (2, 4, 8, 16, 32, 64, 128), m=4, n=4, k=2,
                         pnr_db=10.0, qnr_db=10.0, trials=1024)
    else:
        spec = dataclasses.replace(load_bundled(name), trials=1024)
    step = 40 if name == "k128" else TRIAL_CHUNK
    assert [job[-2:] for job in _jobs(spec, workers)] == [
        (start, min(start + step, 1024)) for start in range(0, 1024, step)
    ]


def test_an_array_popped_into_a_call_is_freed_at_the_callees_del():
    # the mechanism that test_trial_chunk_bounds_a_jobs_memory relies on:
    # _capacity_chunk pops a relay stack from its dict and passes a slice
    # of it inline, and stacked_beamformers' del frees the stack, because
    # CPython (3.11 on) moves a call's arguments into the callee's frame
    stacks = {"a": np.ones((4, 3))}
    stack = weakref.ref(stacks["a"])

    def callee(a):
        del a
        return stack() is None

    freed = callee(stacks.pop("a")[:, 1:])  # not in the assert, whose rewrite keeps it
    assert freed


# Runs one sweep in a fresh interpreter with a stub pool; prints whether
# numpy.random was loaded when each pool was built, the pool's start
# method, and whether it was loaded when the first job began.
POOL_START = """
import json, os, sys
from relaysim import montecarlo

pools, first_job = [], []

class StubPool:
    def __init__(self, workers, mp_context=None):
        method = mp_context.get_start_method() if mp_context else None
        pools.append(["numpy.random" in sys.modules, method])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)

chunk = montecarlo._capacity_chunk

def job(args):
    first_job.append("numpy.random" in sys.modules)
    return chunk(args)

os.cpu_count = lambda: 2
os.sched_getaffinity = lambda pid: {0, 1}
montecarlo.ProcessPoolExecutor = StubPool
montecarlo._capacity_chunk = job
spec = montecarlo.SweepSpec("relay_count", (1, 2), m=2, n=2, k=1, pnr_db=10.0,
                            qnr_db=10.0, trials=64)
montecarlo.run_sweep(spec, int(sys.argv[1]))
print(json.dumps([pools, first_job[0]]))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_a_pool_forks_from_a_parent_that_has_loaded_numpy_random(workers):
    # a fresh interpreter, because scipy has loaded numpy.random in this one
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", POOL_START, str(workers)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    pools, loaded_at_first_job = json.loads(proc.stdout)
    if workers == 1:  # no pool, and the first draw loads numpy.random
        assert pools == [] and loaded_at_first_job is False
    else:  # the workers inherit it, forked on Linux on every Python
        assert pools == [[True, "fork" if sys.platform == "linux" else None]]


def _pin_cpus(monkeypatch, count):
    """Let this process run on `count` CPUs, by affinity and by count;
    None: no affinity and an unknown count."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a stand-in that runs the jobs here,
    where the call counters see them and no process starts; returns the
    list of the pool sizes opened."""
    started = []

    class SerialPool:
        def __init__(self, workers, mp_context=None):
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
    _pin_cpus(monkeypatch, 2)
    draws = _count_calls(monkeypatch, "channels_for_trials")
    spec = base_spec(values=(2, 3, 4, 5), trials=64)
    rows = run_sweep(spec, workers=2)
    assert serial_pool == [2]
    # (relay count, trial count) of each draw
    assert [(args[2], args[5] - args[4]) for args in draws] == [(5, 32), (5, 32)]
    assert rows == run_sweep(spec, workers=1)  # bitwise on the floats


@pytest.mark.parametrize(
    "m, n, relays, alpha, trials",
    [
        (1, 1, (1,), 1.0, 64),
        (2, 3, (1, 2, 5), 0.0, 64),
        (4, 4, tuple(range(1, 9)), 1.0, 64),
        (8, 8, (10,), 1.0, 16),
        (3, 4, (1, 2, 6), 1.0, 64),  # the last trial-minor m
        (5, 5, (1, 3), 0.5, 32),  # the first trial-major m
    ],
)
def test_per_trial_capacities_do_not_depend_on_the_range_length(
    monkeypatch, serial_pool, m, n, relays, alpha, trials
):
    # with the CPUs pinned high, workers 3, 7 and `trials` cut the trials
    # into that many even ranges, down to one trial a job
    _pin_cpus(monkeypatch, 1000)
    spec = base_spec(values=relays, m=m, n=n, alpha=alpha, trials=trials, seed=6)
    whole = _capacity_tables(spec, 1)
    for workers in (3, 7, trials):
        assert _capacity_tables(spec, workers).tobytes() == whole.tobytes()
    assert len(serial_pool) == 3


def test_trial_minor_and_trial_major_stacks_give_the_same_capacities(monkeypatch):
    # at m = 4 the draw is trial-minor; the same draw copied into C order
    # must give every series' per-trial capacities to rounding
    spec = base_spec(values=(1, 3, 4), m=4, n=4, alpha=0.5, trials=256, seed=9)
    job = (*_jobs(spec, 1)[0][:-2], 0, 256)
    minor = _capacity_chunk(job)
    draw = montecarlo.channels_for_trials

    def trial_major(*args):
        h, g = draw(*args)
        assert h.strides[0] == g.strides[0] == h.itemsize  # trial-minor
        return np.ascontiguousarray(h), np.ascontiguousarray(g)

    monkeypatch.setattr(montecarlo, "channels_for_trials", trial_major)
    np.testing.assert_allclose(_capacity_chunk(job), minor, rtol=1e-13, atol=0)


def test_pool_never_exceeds_the_cpus(monkeypatch, serial_pool):
    # each job carries its draw's thread count: the CPUs that the sweep's
    # processes leave idle, at least one
    def drawn(jobs):
        return [(head[-1], start, stop) for ((head, _, start, stop),) in jobs]

    _pin_cpus(monkeypatch, 2)
    jobs = _count_calls(monkeypatch, "_capacity_chunk")
    run_sweep(one_point(1, Scheme.MF, m=1, n=1, trials=10_000), workers=1000)
    assert serial_pool == [2]
    assert drawn(jobs) == [
        (1, start, min(start + TRIAL_CHUNK, 10_000)) for start in range(0, 10_000, TRIAL_CHUNK)
    ]  # jobs of at most TRIAL_CHUNK trials
    jobs.clear()
    run_sweep(one_point(1, Scheme.MF, trials=64), workers=8)
    assert serial_pool == [2, 2]
    assert drawn(jobs) == [(1, 0, 32), (1, 32, 64)]
    jobs.clear()
    draws = _count_calls(monkeypatch, "channels_for_trials")
    run_sweep(one_point(1, Scheme.MF, trials=64), workers=1)  # one process, two CPUs
    assert serial_pool == [2, 2]
    assert drawn(jobs) == [(2, 0, 64)]
    assert [args[-1] for args in draws] == [2]  # the job's draw runs on both
    _pin_cpus(monkeypatch, None)  # unknown: one process
    jobs.clear()
    run_sweep(one_point(1, Scheme.MF, trials=64), workers=8)
    assert serial_pool == [2, 2]
    assert drawn(jobs) == [(1, 0, 64)]
    # pinned to one CPU of eight (taskset, a cpuset): one process, one job
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    jobs.clear()
    run_sweep(one_point(1, Scheme.MF, trials=64), workers=8)
    assert serial_pool == [2, 2]
    assert drawn(jobs) == [(1, 0, 64)]
    # eight CPUs and one process: the draw stays on the 2 threads measured
    _pin_cpus(monkeypatch, 8)
    jobs.clear()
    run_sweep(one_point(1, Scheme.MF, trials=64), workers=1)
    assert serial_pool == [2, 2]
    assert drawn(jobs) == [(2, 0, 64)]


class StubLibc:
    """mallopt and malloc_trim that record their calls."""

    def __init__(self, events):
        self.events = events

    def mallopt(self, param, value):
        self.events.append(("mallopt", param, value))
        return 1

    def malloc_trim(self, pad):
        self.events.append(("malloc_trim", pad))
        return 1


@pytest.mark.parametrize("workers", [1, 2])
def test_heap_policy_is_set_before_the_jobs_and_the_fork_and_trimmed_after(monkeypatch, workers):
    events = []

    class ForkingPool:
        def __init__(self, workers, mp_context=None):
            events.append(("fork",))  # the pool's workers fork from here on

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    def job(args):
        start, _ = args[-2:]
        if start == fail_at:
            raise NumericError("a relay's output power is not positive")
        events.append(("job", start))
        return 0.0

    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(montecarlo, "_glibc", lambda: StubLibc(events))
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", ForkingPool)
    monkeypatch.setattr(montecarlo, "_capacity_chunk", job)
    spec = one_point(1, Scheme.MF, trials=2 * TRIAL_CHUNK)
    fail_at = None
    _capacity_tables(spec, workers)
    keep = montecarlo.HEAP_KEEP
    assert events == [
        ("mallopt", montecarlo._M_MMAP_THRESHOLD, keep),
        ("mallopt", montecarlo._M_TRIM_THRESHOLD, keep),
        *[("fork",)] * (workers > 1),
        ("job", 0),
        ("job", TRIAL_CHUNK),
        ("malloc_trim", 0),
    ]
    events.clear()
    fail_at = TRIAL_CHUNK  # a failed sweep hands its pages back too
    with pytest.raises(NumericError):
        _capacity_tables(spec, workers)
    assert events[-2:] == [("job", 0), ("malloc_trim", 0)]


@pytest.mark.parametrize("confstr", [ValueError, OSError, None], ids=["raises", "oserror", "missing"])
def test_heap_policy_calls_nothing_without_glibc(monkeypatch, confstr):
    # musl raises OSError, other libcs ValueError, and Windows has no confstr
    opened = []
    monkeypatch.setattr(montecarlo.ctypes, "CDLL", lambda *args: opened.append(args))
    if confstr is None:
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        def unknown(name):
            raise confstr(22, "Invalid argument")

        monkeypatch.setattr(os, "confstr", unknown)
    assert montecarlo._glibc() is None
    rows = run_sweep(one_point(1, Scheme.MF, trials=16))
    monkeypatch.undo()
    assert opened == []
    assert rows == run_sweep(one_point(1, Scheme.MF, trials=16))


HEAP_FAULTS = r"""
import dataclasses, json, resource
from relaysim import montecarlo
from relaysim.scenario import load_bundled

chunk, faults = montecarlo._capacity_chunk, []

def job(args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    table = chunk(args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return table

montecarlo._capacity_chunk = job
spec = dataclasses.replace(load_bundled("fig5"), values=(0.0, 30.0), trials=1024)
montecarlo.run_sweep(spec, 1)
print(json.dumps(faults))
"""


@pytest.mark.skipif(montecarlo._glibc() is None, reason="the heap policy needs glibc")
def test_later_jobs_reuse_the_pages_of_the_first():
    # a fresh interpreter, whose heap no other test has grown or set: an
    # 8 x 8, k = 10 sweep runs four 256-trial jobs, and without the policy
    # glibc trims the heap after each, so every job faults its ~12 MiB in
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", HEAP_FAULTS], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert len(faults) == 4
    assert all(later <= 0.05 * faults[0] for later in faults[1:]), faults


def test_nan_in_an_8x8_gram_raises_naming_mf_rzf_and_the_trials(monkeypatch):
    # a NaN makes the bound's sum NaN, so regularized_inverse runs its check
    grams = montecarlo.relay_grams

    def nan_gram(h, g):
        a, b = grams(h, g)
        a[5, 1, 0, 7] = a[5, 1, 7, 0] = np.nan
        return a, b

    monkeypatch.setattr(montecarlo, "relay_grams", nan_gram)
    spec = base_spec(values=(2,), m=8, n=8, schemes=(Scheme.MF_RZF,), trials=64)
    with pytest.raises(NumericError, match=(
        r"^relay_count = 2: mf-rzf at trials \[0, 64\): cholesky_stack: matrix not positive"
    )):
        run_sweep(spec)


@pytest.mark.parametrize("workers, m, n", [(1, 2, 2), (2, 2, 2), (1, 5, 5), (2, 5, 5)],
                         ids=["1", "2", "1-m5", "2-m5"])
def test_power_sweep_rows_equal_one_point_sweeps(workers, m, n):
    # two chunks per point, so workers 2 runs a pool; m = 5 runs the
    # stacked kernels, m = 2 the trial-minor ones. Bitwise at k = 4, so
    # the points cannot share one product for their rho-sums over the
    # relays: its rounding would depend on how many points it holds
    values = (0.0, 10.0, 20.0)
    settings = dict(axis="pnr_equals_qnr_db", m=m, n=n, k=4, trials=TRIAL_CHUNK + 6, seed=4)
    alone = []
    for value in values:
        alone += run_sweep(base_spec(values=(value,), **settings))
    spec = base_spec(values=values, **settings)
    assert run_sweep(spec, workers=workers) == alone  # bitwise on the floats


@pytest.mark.parametrize("workers, m, n", [(1, 2, 3), (2, 2, 3), (1, 5, 5), (2, 5, 5)],
                         ids=["1", "2", "1-m5", "2-m5"])
def test_relay_count_sweep_rows_equal_one_point_sweeps(workers, m, n):
    # each k reads slices of one draw at the largest k, here with gapped
    # relay counts, so g blocks [4, 5) are drawn but no k reads them; its
    # rows are bitwise those of a sweep of that k alone. Two chunks, so
    # workers 2 runs a pool
    values = (1, 2, 5)
    settings = dict(axis="relay_count", m=m, n=n, alpha=0.7, trials=TRIAL_CHUNK + 6, seed=4)
    alone = []
    for value in values:
        alone += run_sweep(base_spec(values=(value,), **settings))
    assert run_sweep(base_spec(values=values, **settings), workers=workers) == alone


@pytest.mark.parametrize("m, n, k", [(2, 3, 3), (4, 4, 4), (5, 5, 2)])
def test_a_jobs_tables_depend_only_on_its_points(m, n, k):
    # one point, k relays at 20/20 dB, reached through each axis among
    # other points: its per-trial table is bitwise the same every time
    base = dict(m=m, n=n, k=k, pnr_db=20.0, qnr_db=20.0, alpha=0.7, trials=300, seed=4)
    sweeps = [("pnr_db", (0.0, 20.0), 1), ("pnr_equals_qnr_db", (20.0,), 0),
              ("qnr_db", (20.0, 30.0), 0), ("relay_count", (1, k), 1)]
    tables = [_capacity_tables(SweepSpec(axis, values, **base), 1)[i]
              for axis, values, i in sweeps]
    for table in tables[1:]:
        assert table.tobytes() == tables[0].tobytes()


def test_numeric_error_names_point_scheme_and_trials(monkeypatch):
    original = montecarlo.stacked_beamformers

    def singular_at_two_relays(scheme, a, *arrays, **kwargs):
        # only at two relays, in the second, short chunk
        if scheme is Scheme.MF_RZF and a.shape[-3] == 2 and len(a) < TRIAL_CHUNK:
            raise NumericError("cholesky_stack: matrix not positive definite")
        return original(scheme, a, *arrays, **kwargs)

    monkeypatch.setattr(montecarlo, "stacked_beamformers", singular_at_two_relays)
    with pytest.raises(NumericError) as info:
        run_sweep(base_spec(values=(1, 2), trials=TRIAL_CHUNK + 6))
    assert str(info.value) == (
        f"relay_count = 2: mf-rzf at trials [{TRIAL_CHUNK}, {TRIAL_CHUNK + 6}): "
        "cholesky_stack: matrix not positive definite"
    )


def test_numeric_error_in_shared_beamformers_names_every_point_of_the_group(monkeypatch):
    def singular(scheme, *arrays, **kwargs):
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
    def singular(gram, alpha, n):
        raise NumericError("cholesky_stack: matrix not positive definite")

    monkeypatch.setattr(montecarlo, "regularized_inverse", singular)
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
    spec = base_spec(values=(1, 6), schemes=(Scheme.MF,), trials=800)
    mf_1, _, mf_6, _ = run_sweep(spec)
    assert mf_6.capacity_mean_bits > mf_1.capacity_mean_bits


@pytest.mark.parametrize("m, k, antennas", [(2, 2, (2, 4, 8)), (4, 4, (4, 8, 16))])
def test_mf_and_mf_rzf_gain_from_more_antennas_per_relay(m, k, antennas):
    # the abstract's intranode array gain: every doubling of the relay
    # antennas n raises MF and MF-RZF by more than 3 combined standard
    # errors; AF, for which the abstract claims no such gain, is printed
    rows = {}
    for n in antennas:
        spec = base_spec(axis="pnr_equals_qnr_db", values=(10.0,), m=m, n=n, k=k,
                         trials=4096, seed=1)
        rows.update(((row.scheme, n), row) for row in run_sweep(spec))
    for scheme in ("af", "mf", "mf-rzf"):
        means = " -> ".join(f"{rows[scheme, n].capacity_mean_bits:.3f}" for n in antennas)
        print(f"(m, k) = ({m}, {k}), n = {antennas}: {scheme} {means}")
    for scheme in ("mf", "mf-rzf"):
        for small, large in zip(antennas, antennas[1:]):
            before, after = rows[scheme, small], rows[scheme, large]
            stderr = math.hypot(before.capacity_stderr_bits, after.capacity_stderr_bits)
            assert after.capacity_mean_bits - before.capacity_mean_bits > 3 * stderr


def mf_rzf_spec(alpha, n=4, schemes=(Scheme.MF, Scheme.MF_RZF)):
    return base_spec(axis="pnr_equals_qnr_db", values=(10.0,), m=4, n=n, k=4, alpha=alpha,
                     schemes=schemes, trials=64)


@pytest.mark.parametrize("alpha", [1e12, 1e200, 1e300])
def test_mf_rzf_at_large_alpha_is_mf_per_trial(alpha):
    mf, mf_rzf, _ = _capacity_tables(mf_rzf_spec(alpha), 1)[0].T
    np.testing.assert_allclose(mf_rzf, mf, rtol=1e-9, atol=0)


@pytest.mark.parametrize("n, alpha", [(5, 0.0), (4, 1e-3), (4, 1.0), (4, 1e8)])
def test_mf_rzf_runs_at_every_alpha(n, alpha):
    row, _ = run_sweep(mf_rzf_spec(alpha, n, schemes=(Scheme.MF_RZF,)))
    assert np.isfinite(row.capacity_mean_bits) and row.capacity_mean_bits > 0
