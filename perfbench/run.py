#!/usr/bin/env python3
"""perfbench: the relaysim benchmark.

    python3 perfbench/run.py --workload power-sweep-8x8 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout of the repository; the program is taken from its
`src/` tree. With --trace 0 the benchmark starts `relaysim run` as a
fresh process again and again for --seconds and reports the median of
each end-to-end metric. With --trace 1 it runs the same sweep inside its
own process with span wrappers around the layer calls (see spans.py) and
reports per-layer metrics. Every run's results.csv is checked (check.py);
the last line of standard output is one JSON object with the verdict and
the metrics. Details of the run land in .perfbench/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import launch  # noqa: E402
import spans  # noqa: E402

# One BLAS thread per process: with at most two processes busy (workers 2)
# the benchmark fits a two-core host without oversubscription.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
REFERENCE_SEED = 1
RUN_SECONDS = 55
MIN_LAUNCHES = 3
MIN_TRACED = 2
LAUNCH_TIMEOUT_S = 120.0
IMPORT_SAMPLES = 3
SERIES = ("af", "mf", "mf-rzf", "upper-bound")


@dataclass(frozen=True)
class Workload:
    scenario: str  # bundled scenario name, or a scenario file path
    trials: int  # per sweep point, a multiple of 1024 (one chunk)
    workers: int
    points: tuple  # the scenario's sweep axis values
    reference: str  # reference results.csv at REFERENCE_SEED, under reference/


FIG2_POINTS = (1, 2, 3, 4, 5, 6, 7, 8)
FIG5_POINTS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

WORKLOADS = {
    # 4x4 antennas, K = 1..8, three schemes plus the bound, one process.
    # The matrices are tiny, so per-trial Python overhead dominates: the
    # per-trial channel draw is the largest layer and the mf-rzf loop
    # makes 4608 separate triangular solves per 1024 trials. Changes to
    # channel draw and to per-trial overhead show most here. Not listed in
    # BENCHMARK.json: on a shared two-core host its run-to-run spread went
    # past the 25% bound, and the time limit for all runs leaves room for only
    # two workloads of 55 s. relay-sweep-4x4-w2 runs the same compute, and
    # its traced run measures these layers at --workers 1.
    "relay-sweep-4x4": Workload("fig2", 2048, 1, FIG2_POINTS, "fig2-t2048-s1.csv"),
    # 8x8 antennas, K = 10, PNR = QNR swept 0..30 dB, one process. Time
    # moves into the batched products (beamformer, power, effective
    # channel, SNR, bound), so a fused batch kernel shows most here and a
    # change to channel draw alone shows proportionally less.
    "power-sweep-8x8": Workload("fig5", 1024, 1, FIG5_POINTS, "fig5-t1024-s1.csv"),
    # The first workload's sweep through the process pool with two
    # workers. Two chunks per point, so the pool really runs, and the
    # serial compute matches the first workload; only process start-up,
    # pool creation and pickling differ. Per-worker set-up costs show
    # here and nowhere else. Its CSV must equal the workers-1 CSV.
    "relay-sweep-4x4-w2": Workload("fig2", 2048, 2, FIG2_POINTS, "fig2-t2048-s1.csv"),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{metric: spans.unit_of(metric) for metric in spans.LAYER_METRICS},
    "import_ms": "ms",
    "trace.overhead_pct": "%",
    "machine.ref_kernel_ms": "ms",
    "error_rate": "ratio",
}


now = launch.now


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------- machine


def ref_kernel_ms() -> float:
    """Median time of a fixed 300x300 float64 matmul, in ms.

    A diagnostic of host speed, sampled around every run so that drift of
    the host shows next to the figures; it is never gated.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((300, 300))
    times = []
    for _ in range(5):
        start = now()
        a @ a
        times.append(now() - start)
    return 1e3 * statistics.median(times)


def machine_facts() -> dict:
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = None
    src = hashlib.sha256()
    for path in sorted((SRC / "relaysim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in sorted(THREAD_ENV)},
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
    }


def host_steal_s():
    """Seconds of CPU time the hypervisor has given to other guests, summed
    over this host's CPUs (Linux only, else None). A diagnostic of host
    contention, like the reference kernel."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# -------------------------------------------------------------- launches


@dataclass
class Launch:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    marks: dict
    problems: list
    steal_s: float | None  # host CPU time stolen from this VM meanwhile


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RELAYSIM_SEED")}
    env.update(THREAD_ENV)
    return env


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def _end_group(pgid: int, timeout: float = 10.0) -> None:
    """SIGKILL what is left of a process group and wait until it is gone."""
    _kill_group(pgid)
    deadline = now() + timeout
    while now() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def cli_args(wl: Workload, seed: int, workers: int, out: Path) -> list:
    return [
        "run", wl.scenario,
        "--trials", str(wl.trials),
        "--workers", str(workers),
        "--seed", str(seed),
        "--out", str(out),
    ]  # fmt: skip


def run_process(wl: Workload, seed: int, workers: int, out: Path) -> Launch:
    """One `relaysim run` in a fresh process, timed from launch to exit.

    The child leads its own process group, so a hung run is killed with
    its pool workers. wait4 reports CPU time and peak RSS of the child
    together with every descendant it waited for (its pool workers).
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    marks_path = out / "marks.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(marks_path)]
    argv += cli_args(wl, seed, workers, out)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out / "stdout.log"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out / "stderr.log"), flags, 0o644),
    ]
    steal = host_steal_s()
    start = now()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions, setsid=True)
    timer = threading.Timer(LAUNCH_TIMEOUT_S, _kill_group, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = now() - start
    if steal is not None:
        steal = host_steal_s() - steal
    _end_group(pid)
    code = os.waitstatus_to_exitcode(status)
    try:
        marks = json.loads(marks_path.read_text())
    except (OSError, ValueError):
        marks = {}
    problems = []
    if code != 0:
        err = (out / "stderr.log").read_text(errors="replace").strip().splitlines()
        problems.append(f"exit code {code}: {err[-1] if err else 'no stderr'}")
    elif "sweep_start" not in marks:
        problems.append("the sweep never ran")
    return Launch(
        code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        marks={k: v - start if k.startswith("sweep_") else v for k, v in marks.items()},
        problems=problems,
        steal_s=steal,
    )


def reference_text(wl: Workload, seed: int):
    if seed != REFERENCE_SEED:
        return None
    return (HERE / "reference" / wl.reference).read_text()


def check_output(wl: Workload, seed: int, out: Path, same_as: str | None) -> tuple:
    """(problems, csv text) of the results in `out`."""
    try:
        text = (out / "results.csv").read_text()
    except OSError as exc:
        return [f"no results.csv: {exc}"], None
    problems = check.check_results(
        text, list(wl.points), list(SERIES), wl.trials, seed, reference_text(wl, seed)
    )
    if same_as is not None and text != same_as:
        problems.append("results.csv is not byte-identical to the first run's")
    svg = out / f"{Path(wl.scenario).stem}.svg"
    if not svg.is_file() or svg.stat().st_size == 0:
        problems.append(f"no chart {svg.name}")
    return problems, text


def end_to_end(name: str, wl: Workload, seed: int, seconds: int, log: dict) -> dict:
    """Fresh-process runs for `seconds`; returns the result line fields.

    The first run is untimed: it fills the file caches and compiles
    bytecode, and it runs at --workers 1, so its results.csv is the bytes
    every timed run must reproduce, whatever its worker count.
    """
    work = WORK / name
    kernel = [ref_kernel_ms()]
    first = run_process(wl, seed, 1, work / "first")
    problems, baseline = check_output(wl, seed, work / "first", None)
    first.problems += problems
    runs, step = [], 0.0
    start = now()
    # Start another run only if it should end within `seconds`.
    while len(runs) < MIN_LAUNCHES or now() - start + step <= seconds:
        began = now()
        out = work / "timed"
        run = run_process(wl, seed, wl.workers, out)
        if run.code == 0:
            run.problems += check_output(wl, seed, out, baseline)[0]
        runs.append(run)
        kernel.append(ref_kernel_ms())
        step = now() - began
    every = [first] + runs
    # A run that completed is timed even if its output is wrong; the
    # verdict travels separately in `correct` and `failed`.
    good = [r for r in runs if r.code == 0 and "sweep_end" in r.marks]
    samples = {
        "wall_s": [r.wall_s for r in good],
        "setup_s": [r.marks["sweep_start"] for r in good],
        "trials_per_s": [
            r.marks["points"] * r.marks["trials"] / (r.marks["sweep_end"] - r.marks["sweep_start"])
            for r in good
        ],
        "cpu_s": [r.cpu_s for r in good],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
    }
    failed = sum(1 for r in every if r.problems)
    log["runs"] = [vars(r) for r in every]
    log["machine.ref_kernel_ms"] = kernel
    log["error_rate"] = failed / len(every)
    metrics = {}
    if good:
        for metric, unit in END_TO_END.items():
            metrics[metric] = {"value": statistics.median(samples[metric]), "unit": unit}
            log.setdefault("quartiles", {})[metric] = quartiles(samples[metric])
    report(name, metrics, log.get("quartiles", {}), len(good))
    kernel_ms = statistics.median(kernel)
    steal = sum(r.steal_s or 0.0 for r in runs)
    print(f"# {name}: error_rate {failed}/{len(every)}, machine.ref_kernel_ms {kernel_ms:.3f} ms, "
          f"host steal {steal:.2f} s over the timed runs")  # fmt: skip
    report_problems(name, [r.problems for r in every])
    return {"correct": failed == 0, "attempted": len(every), "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------- trace


def import_ms() -> float:
    """Median time to import relaysim.cli in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import relaysim.cli\n"
        "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=LAUNCH_TIMEOUT_S,
            check=True,
        )
        times.append(1e3 * float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_in_process(cli, wl, seed, workers, out, targets) -> tuple:
    """One `relaysim run` in this process under a tracer; (tracer, problems)."""
    shutil.rmtree(out, ignore_errors=True)
    tracer = spans.Tracer().install(targets)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli_args(wl, seed, workers, out))
    finally:
        tracer.uninstall()
    problems = [f"exit code {code}"] if code != 0 else check_output(wl, seed, out, None)[0]
    return tracer, problems


def traced(name: str, wl: Workload, seed: int, seconds: int, log: dict) -> dict:
    """Per-layer metrics from in-process runs at --workers 1.

    Untraced and traced runs alternate for `seconds`; the traced ones give
    the layer figures (median over runs), each adjacent pair one sample of
    the tracing overhead. On a pooled workload one more run at its worker count
    counts pool starts.
    """
    work = WORK / name / "trace"
    imports = import_ms()
    cli = launch.import_cli()
    kernel = [ref_kernel_ms()]
    sweep_only = [t for t in spans.TARGETS if t[2] == spans.SWEEP_SPAN]
    _, warm = run_in_process(cli, wl, seed, 1, work, sweep_only)
    problems = [warm]
    plain, timed, layers, last, step = [], [], [], None, 0.0
    start = now()
    while len(timed) < MIN_TRACED or now() - start + step <= seconds:
        began = now()
        base, p1 = run_in_process(cli, wl, seed, 1, work, sweep_only)
        last, p2 = run_in_process(cli, wl, seed, 1, work, spans.TARGETS)
        problems += [p1, p2]
        plain.append(base.sweep_seconds())
        timed.append(last.sweep_seconds())
        layers.append(spans.layer_values(last.totals(), wl.trials, len(wl.points)))
        kernel.append(ref_kernel_ms())
        step = now() - began
    last.write_csv(WORK / name / "spans.csv")
    values = {m: statistics.median(v[m] for v in layers) for m in spans.LAYER_METRICS}
    if wl.workers > 1:
        pool_target = [t for t in spans.TARGETS if t[2] in ("montecarlo.pool", spans.SWEEP_SPAN)]
        pooled, p3 = run_in_process(cli, wl, seed, wl.workers, work, pool_target)
        problems.append(p3)
        values["montecarlo.pool_starts"] = pooled.totals().get("montecarlo.pool", (0, 0))[1]
    values["import_ms"] = imports
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(t / p for t, p in zip(timed, plain)) - 1.0
    )
    values["machine.ref_kernel_ms"] = statistics.median(kernel)
    failed = sum(1 for p in problems if p)
    values["error_rate"] = failed / len(problems)

    absent = [m for m, (span, _) in spans.LAYER_METRICS.items() if last.is_absent(span)]
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER.items()}
    log.update(absent=absent, absent_targets=last.absent, untraced_sweep_s=plain, traced_sweep_s=timed)
    report(name, metrics, {}, len(timed), absent)
    report_problems(name, problems)
    return {"correct": failed == 0, "attempted": len(problems), "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------- output


def report(name: str, metrics: dict, spread: dict, n: int, absent=()) -> None:
    for metric, m in metrics.items():
        line = f"# {name}: {metric:32s} {m['value']:14.6g} {m['unit']}"
        if metric in spread:
            q1, _, q3 = spread[metric]
            line += f"  (median of {n}; quartiles {q1:.6g} .. {q3:.6g})"
        if metric in absent:
            line += "  (absent: its layer no longer exists)"
        print(line)


def report_problems(name: str, per_run: list, shown: int = 5) -> None:
    """The first few problems of each failed run."""
    for i, problems in enumerate(per_run):
        for p in problems[:shown]:
            print(f"# {name}: FAIL run {i}: {p}")
        if len(problems) > shown:
            print(f"# {name}: FAIL run {i}: ... and {len(problems) - shown} more")


def run_workload(name: str, seed: int, seconds: int, tracing: bool) -> dict:
    wl = WORKLOADS[name]
    (WORK / name).mkdir(parents=True, exist_ok=True)
    log = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(tracing)}
    log["machine"] = machine_facts()
    print(f"# {name}: machine {json.dumps(log['machine'])}")
    run = traced if tracing else end_to_end
    result = run(name, wl, seed, seconds, log)
    log["result"] = result
    (WORK / name / f"result-trace{int(tracing)}.json").write_text(
        json.dumps(log, indent=1, default=str)
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relaysim" / "__init__.py").is_file():
        print(f"perfbench: no relaysim sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"perfbench: --seed must be in [0, 2**64), got {args.seed}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print(f"perfbench: --seconds must be >= 1, got {args.seconds}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported here

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    if any(len(r["metrics"]) == 0 for r in results.values()):
        print("perfbench: no run succeeded, nothing was measured", file=sys.stderr)
        return 1
    if not all(math.isfinite(v["value"]) for v in line["metrics"].values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
