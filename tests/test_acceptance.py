"""Release gates: eleven end-to-end checks, one test and one printed
PASS/FAIL line each (run with -s to see the lines for passing gates).

Gates 8 and 9 currently report honest failures: the model this package
implements, with per-relay power held exactly at its budget, gives the
plain amplify-and-forward scheme a ~1 bit lift from K=2 to K=8 at
QNR=10 dB (17-18% of the matched-filter gain, contract allows 10%), and
the matched-filter curve at N=M=8, K=10, QNR=10 dB still climbs 29-30%
of its low-power slope between PNR=20 and 30 dB (contract allows 25%).
Both quantities are seed-robust and the underlying per-stream SNR path
is validated physically by gate 4, so the thresholds, not the
implementation, are what these two gates contradict.
"""

import shutil
import subprocess
import sys
import time

import numpy as np

from relaysim.beamformers import Scheme
from relaysim.montecarlo import SweepSpec, _capacity_tables, run_sweep

from oracle import (
    Network,
    build_weights,
    compute_link_metrics,
    effective_channel,
    qr_decompose,
    realization_for_trial,
    simulate_transmission,
)

ALL_SCHEMES = (Scheme.AF, Scheme.MF, Scheme.MF_RZF)


def _gate(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float) -> str:
    on_time = elapsed < budget
    status = "PASS" if (ok and on_time) else "FAIL"
    line = f"[{status}] gate {num:02d} {name}: {detail} [{elapsed:.1f}s, budget {budget:.0f}s]"
    print(line)
    assert ok and on_time, line
    return line


def _combined_stderr(a, b) -> float:
    return float(np.hypot(a.capacity_stderr_bits, b.capacity_stderr_bits))


def test_01_per_relay_power_meets_budget_exactly():
    start = time.perf_counter()
    worst = 0.0
    realizations = 0
    for m in (2, 4):
        for k in (1, 4):
            cfg = Network(m=m, n=m, k=k, p=10.0, q=10.0)
            for trial in range(250):
                real = realization_for_trial(cfg, seed=10 * m + k, trial=trial)
                for scheme in ALL_SCHEMES:
                    w = build_weights(scheme, real, cfg)
                    for i in range(k):
                        fw = w.rho[i] * w.f[i]
                        h = real.h[i]
                        cov = (cfg.p / cfg.m) * (h @ h.conj().T) + np.eye(cfg.n)
                        power = float(np.trace(fw @ cov @ fw.conj().T).real)
                        worst = max(worst, abs(power / cfg.q - 1.0))
                realizations += 1
    _gate(
        1,
        "per-relay transmit power",
        worst < 1e-9,
        f"worst relative power error {worst:.2e} over {realizations} realizations x 3 schemes (allowed 1e-9)",
        time.perf_counter() - start,
        5.0,
    )


def test_02_effective_channel_qr_contract():
    start = time.perf_counter()
    worst_orth = 0.0
    worst_recon = 0.0
    shape_ok = True
    checked = 0
    for m, k in ((2, 1), (4, 2), (8, 3)):
        cfg = Network(m=m, n=m, k=k, p=10.0, q=10.0)
        eye = np.eye(m)
        for trial in range(334):
            real = realization_for_trial(cfg, seed=20 + m, trial=trial)
            h_sd = effective_channel(real, build_weights(Scheme.MF, real, cfg))
            qr = qr_decompose(h_sd)
            worst_orth = max(worst_orth, float(np.linalg.norm(qr.q.conj().T @ qr.q - eye)))
            worst_recon = max(
                worst_recon,
                float(np.linalg.norm(qr.q @ qr.r - h_sd) / np.linalg.norm(h_sd)),
            )
            diag = np.diagonal(qr.r)
            shape_ok = shape_ok and bool(
                np.all(np.tril(qr.r, -1) == 0)
                and np.all(diag.imag == 0)
                and np.all(diag.real >= 0)
            )
            checked += 1
    _gate(
        2,
        "phase-normalized QR",
        worst_orth < 1e-10 and worst_recon <= 1e-10 and shape_ok,
        f"{checked} channels: worst orthogonality {worst_orth:.2e}, worst reconstruction {worst_recon:.2e}, "
        f"triangular/real-diagonal {'ok' if shape_ok else 'VIOLATED'}",
        time.perf_counter() - start,
        5.0,
    )


def test_03_capacity_never_exceeds_cutset_bound():
    start = time.perf_counter()
    grid = [(m, k, snr) for m in (2, 4) for k in (1, 2, 4, 8) for snr in (5.0, 10.0, 20.0)]
    per_config = -(-10_000 // len(grid))
    violations = 0
    total = 0
    worst_margin = -np.inf
    for m, k, snr in grid:
        spec = SweepSpec(
            "relay_count", (k,), m=m, n=m, k=k, pnr_db=snr, qnr_db=snr, trials=per_config, seed=30
        )
        # per trial: the three schemes' capacities, then that trial's bound
        table = _capacity_tables(spec, 1)[0]
        caps, bound = table[:, :-1], table[:, -1:]
        worst_margin = max(worst_margin, float(np.max(caps - bound)))
        violations += int(np.count_nonzero(caps > bound + 1e-9))
        total += per_config
    _gate(
        3,
        "cut-set dominance",
        violations == 0,
        f"{violations} violations over {total} realizations x 3 schemes "
        f"(closest approach to the bound {worst_margin:+.3e} bits)",
        time.perf_counter() - start,
        60.0,
    )


def test_04_measured_snr_matches_analytic_formula():
    start = time.perf_counter()
    cfg = Network(m=2, n=2, k=2, p=10.0, q=10.0)
    worst = 0.0
    for trial in range(10):
        real = realization_for_trial(cfg, seed=40, trial=trial)
        for scheme in (Scheme.MF, Scheme.MF_RZF):
            w = build_weights(scheme, real, cfg)
            metrics = compute_link_metrics(real, w, cfg)
            rng = np.random.default_rng(4000 + trial)
            measured = simulate_transmission(real, w, metrics.qr, cfg, 100_000, rng)
            worst = max(worst, float(np.max(np.abs(measured / metrics.snr_per_stream - 1.0))))
    _gate(
        4,
        "measured vs analytic SNR",
        worst < 0.02,
        f"worst per-stream deviation {worst:.4f} over 10 realizations x 2 schemes x 1e5 draws (allowed 0.02)",
        time.perf_counter() - start,
        60.0,
    )


def test_05_matches_independent_scalar_oracle():
    start = time.perf_counter()
    trials = 100_000
    spec = SweepSpec(
        "relay_count", (1,), m=1, n=1, k=1, pnr_db=10.0, qnr_db=10.0,
        schemes=(Scheme.MF,), trials=trials, seed=50,
    )
    est, _ = run_sweep(spec)

    # Closed-form single-antenna chain, written out from scratch: the
    # beamformer is conj(g) conj(h), the composite channel is real, and
    # every quantity reduces to moduli of the two fading coefficients.
    rng = np.random.default_rng(5050)
    h = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / np.sqrt(2.0)
    g = (rng.standard_normal(trials) + 1j * rng.standard_normal(trials)) / np.sqrt(2.0)
    p = q = 10.0
    h2 = np.abs(h) ** 2
    g2 = np.abs(g) ** 2
    f2 = g2 * h2
    rho_sq = q / (f2 * (p * h2 + 1.0))
    snr = p * rho_sq * g2**2 * h2**2 / (rho_sq * g2**2 * h2 + 1.0)
    caps = 0.5 * np.log2(1.0 + snr)
    oracle_mean = float(caps.mean())
    oracle_se = float(caps.std(ddof=1) / np.sqrt(trials))

    gap = abs(est.capacity_mean_bits - oracle_mean)
    limit = 3.0 * float(np.hypot(est.capacity_stderr_bits, oracle_se))
    _gate(
        5,
        "independent scalar oracle",
        gap < limit,
        f"simulator {est.capacity_mean_bits:.5f} vs oracle {oracle_mean:.5f} bits, gap {gap:.5f} < {limit:.5f}",
        time.perf_counter() - start,
        10.0,
    )


def test_06_huge_regularizer_recovers_matched_filter():
    start = time.perf_counter()
    cfg_mf = Network(m=4, n=4, k=4, p=10.0, q=10.0)
    cfg_big = Network(m=4, n=4, k=4, p=10.0, q=10.0, alpha=1e8)
    worst = 0.0
    for trial in range(100):
        real = realization_for_trial(cfg_mf, seed=60, trial=trial)
        snr_mf = compute_link_metrics(real, build_weights(Scheme.MF, real, cfg_mf), cfg_mf).snr_per_stream
        snr_big = compute_link_metrics(
            real, build_weights(Scheme.MF_RZF, real, cfg_big), cfg_big
        ).snr_per_stream
        worst = max(worst, float(np.max(np.abs(snr_big / snr_mf - 1.0))))
    _gate(
        6,
        "large-regularizer limit",
        worst < 1e-5,
        f"worst per-stream relative gap {worst:.2e} over 100 realizations (allowed 1e-5)",
        time.perf_counter() - start,
        2.0,
    )


def test_07_capacity_ordering_with_clear_gaps():
    start = time.perf_counter()
    # af, mf, mf-rzf, then the bound
    spec = SweepSpec(
        "relay_count", (4,), m=4, n=4, k=4, pnr_db=10.0, qnr_db=10.0, trials=10_000, seed=70
    )
    chain = run_sweep(spec)
    gaps = [
        (hi.capacity_mean_bits - lo.capacity_mean_bits) / (3.0 * _combined_stderr(lo, hi))
        for lo, hi in zip(chain, chain[1:])
    ]
    means = " < ".join(f"{e.capacity_mean_bits:.3f}" for e in chain)
    _gate(
        7,
        "scheme ordering",
        all(g > 1.0 for g in gaps),
        f"means {means} bits; each gap / (3 stderr) = "
        + ", ".join(f"{g:.0f}" for g in gaps),
        time.perf_counter() - start,
        30.0,
    )


def test_08_relay_scaling_gains():
    start = time.perf_counter()
    spec = SweepSpec(
        "relay_count", (2, 8), m=4, n=4, k=2, pnr_db=10.0, qnr_db=10.0,
        trials=10_000, seed=80,
    )
    est = {(row.k, row.scheme): row for row in run_sweep(spec)}
    mf_gain = est[(8, "mf")].capacity_mean_bits - est[(2, "mf")].capacity_mean_bits
    rzf_gain = est[(8, "mf-rzf")].capacity_mean_bits - est[(2, "mf-rzf")].capacity_mean_bits
    mf_limit = 3.0 * _combined_stderr(est[(2, "mf")], est[(8, "mf")])
    rzf_limit = 3.0 * _combined_stderr(est[(2, "mf-rzf")], est[(8, "mf-rzf")])
    af_change = abs(est[(8, "af")].capacity_mean_bits - est[(2, "af")].capacity_mean_bits)
    gains_ok = mf_gain > mf_limit and rzf_gain > rzf_limit
    af_ok = af_change < 0.10 * mf_gain
    _gate(
        8,
        "relay scaling",
        gains_ok and af_ok,
        f"K=2->8 gains: MF +{mf_gain:.3f}, MF-RZF +{rzf_gain:.3f} bits (both > 3 stderr: {gains_ok}); "
        f"AF changed {af_change:.3f} bits = {100 * af_change / mf_gain:.1f}% of the MF gain (allowed < 10%)",
        time.perf_counter() - start,
        60.0,
    )


def test_09_capacity_saturates_at_fixed_relay_power():
    start = time.perf_counter()
    spec = SweepSpec(
        "pnr_db", (0.0, 10.0, 20.0, 30.0), m=8, n=8, k=10, pnr_db=0.0, qnr_db=10.0,
        schemes=(Scheme.MF,), trials=2000, seed=90,
    )
    rows = run_sweep(spec)
    mf = {row.pnr_db: row.capacity_mean_bits for row in rows if row.scheme == "mf"}
    ub = {row.pnr_db: row.capacity_mean_bits for row in rows if row.scheme == "upper-bound"}
    mf_ratio = (mf[30.0] - mf[20.0]) / (mf[10.0] - mf[0.0])
    ub_dev = abs((ub[30.0] - ub[20.0]) / (ub[20.0] - ub[10.0]) - 1.0)
    _gate(
        9,
        "high-power saturation",
        mf_ratio < 0.25 and ub_dev < 0.15,
        f"MF increase 20->30 dB is {100 * mf_ratio:.1f}% of its 0->10 dB increase (allowed < 25%); "
        f"upper-bound step 20->30 dB deviates {100 * ub_dev:.1f}% from its 10->20 dB step (allowed < 15%)",
        time.perf_counter() - start,
        300.0,
    )


def test_10_cli_output_is_deterministic(tmp_path):
    start = time.perf_counter()
    exe = shutil.which("relaysim")
    base = [exe] if exe else [sys.executable, "-m", "relaysim"]

    def run(tag: str, workers: int) -> bytes:
        out = tmp_path / tag
        proc = subprocess.run(
            base + ["run", "fig2", "--seed", "7", "--workers", str(workers), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return (out / "results.csv").read_bytes()

    first = run("a", 1)
    second = run("b", 1)
    wide = run("c", 8)
    _gate(
        10,
        "byte-identical reruns",
        first == second == wide,
        f"rerun identical: {first == second}; workers 1 vs 8 identical: {first == wide} "
        f"({len(first)} CSV bytes)",
        time.perf_counter() - start,
        60.0,
    )


def test_11_weak_first_hop_keeps_proposed_schemes_ahead():
    start = time.perf_counter()
    spec = SweepSpec(
        "relay_count", (4,), m=4, n=4, k=4, pnr_db=5.0, qnr_db=20.0,
        trials=10_000, seed=110,
    )
    af, mf, rzf, _ = run_sweep(spec)
    mf_margin = mf.capacity_mean_bits - af.capacity_mean_bits
    rzf_margin = rzf.capacity_mean_bits - af.capacity_mean_bits
    mf_limit = 3.0 * _combined_stderr(af, mf)
    rzf_limit = 3.0 * _combined_stderr(af, rzf)
    _gate(
        11,
        "weak first hop",
        mf_margin > mf_limit and rzf_margin > rzf_limit,
        f"margins over AF: MF +{mf_margin:.3f} (limit {mf_limit:.3f}), "
        f"MF-RZF +{rzf_margin:.3f} (limit {rzf_limit:.3f}) bits",
        time.perf_counter() - start,
        30.0,
    )
