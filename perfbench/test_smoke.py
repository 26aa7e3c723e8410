"""Smoke test of the benchmark harness at a few trials.

    python3 -m pytest perfbench/test_smoke.py

Runs `relaysim run` the way the benchmark does, then feeds the output
checks corrupted copies of the CSV it wrote and expects each to fail.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import check
import run
import spans

SMALL = dataclasses.replace(run.WORKLOADS["relay-sweep-4x4"], trials=64, points=(1, 2, 3))
SCENARIO = "description: smoke\n" + (
    "network: {m: 4, n: 4, k: 1, pnr_db: 10.0, qnr_db: 10.0}\n"
    "sweep: {axis: relay_count, values: [1, 2, 3]}\n"
    "run: {schemes: [af, mf, mf-rzf], seed: 1}\n"
)


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    """A real run of a three-point sweep at 64 trials and seed 7."""
    base = tmp_path_factory.mktemp("smoke")
    scenario = base / "fig2.yaml"  # a path wins over the bundled name
    scenario.write_text(SCENARIO)
    wl = dataclasses.replace(SMALL, scenario=str(scenario))
    out = base / "out"
    launch = run.run_process(wl, 7, 1, out)
    assert launch.problems == []
    assert launch.marks["points"] == 3 and launch.marks["trials"] == 64
    assert 0 < launch.marks["sweep_start"] < launch.marks["sweep_end"] < launch.wall_s
    return wl, out, (out / "results.csv").read_text()


def rows_of(text):
    return [line.split(",") for line in text.splitlines()]


def text_of(rows):
    return "\n".join(",".join(r) for r in rows) + "\n"


def problems(text):
    return check.check_results(text, [1, 2, 3], list(run.SERIES), 64, 7)


def test_real_output_passes_and_must_repeat_byte_for_byte(good_run):
    wl, out, text = good_run
    assert run.check_output(wl, 7, out, text)[0] == []
    found, _ = run.check_output(wl, 7, out, text.replace("\n", "\r\n", 1))
    assert found == ["results.csv is not byte-identical to the first run's"]


def test_corrupted_csv_fails(good_run):
    wl, out, text = good_run
    rows = rows_of(text)
    (out / "results.csv").write_text(text_of(rows[:-1]))
    found, _ = run.check_output(wl, 7, out, text)
    assert any("rows, expected 12" in p for p in found)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda rows: rows.__setitem__(0, rows[0][::-1]), "header"),
        (lambda rows: rows[2].__setitem__(11, "nan"), "non-finite"),
        (lambda rows: rows[2].__setitem__(12, "-0.5"), "< 0"),
        (lambda rows: rows[3].__setitem__(11, "99.0"), "exceeds the upper bound"),
        (lambda rows: rows[1].__setitem__(0, "mf"), "series"),
        (lambda rows: rows[5].__setitem__(10, "8"), "trials/seed"),
        (lambda rows: rows[5].__setitem__(2, "9"), "axis value"),
        (lambda rows: rows[5].append("1"), "fields"),
    ],
)
def test_each_corruption_is_caught(good_run, corrupt, message):
    rows = rows_of(good_run[2])
    corrupt(rows)
    found = problems(text_of(rows))
    assert any(message in p for p in found), found


def test_missing_final_newline_is_caught(good_run):
    assert problems(good_run[2].rstrip("\n")) != []


def test_reference_match_tolerance():
    wl = run.WORKLOADS["relay-sweep-4x4"]
    ref = run.reference_text(wl, run.REFERENCE_SEED)
    assert run.reference_text(wl, run.REFERENCE_SEED + 1) is None

    def with_first_mean_scaled(factor):
        rows = rows_of(ref)
        rows[1][11] = repr(float(rows[1][11]) * factor)
        return text_of(rows)

    def verdict(text):
        return check.check_results(
            text, list(wl.points), list(run.SERIES), wl.trials, run.REFERENCE_SEED, ref
        )

    assert verdict(ref) == []
    assert verdict(with_first_mean_scaled(1 + 1e-12)) == []
    assert any("reference" in p for p in verdict(with_first_mean_scaled(1 + 1e-7)))


def test_absent_target_is_reported_not_raised(good_run):
    targets = spans.TARGETS + (
        ("relaysim.montecarlo", "no_such_function", "gone.layer"),
        ("relaysim.no_such_module", "f", "gone.module"),
    )
    cli = run.launch.import_cli()
    wl, _, _ = good_run
    tracer, found = run.run_in_process(cli, wl, 7, 1, good_run[1].parent / "trace", targets)
    assert found == []
    assert tracer.absent == ["relaysim.montecarlo.no_such_function", "relaysim.no_such_module.f"]
    assert tracer.is_absent("gone.layer") and not tracer.is_absent("channel.draw")
    values = spans.layer_values(tracer.totals(), wl.trials, len(wl.points))
    assert values["channel.draw_calls"] == 1024
    assert values["montecarlo.pool_starts"] == 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [run.HERE.name]
    assert spec["run_seconds"] == run.RUN_SECONDS
