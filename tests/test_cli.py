"""End-to-end CLI behavior: files written, seed precedence, exit codes."""

import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from relaysim import cli, montecarlo
from relaysim.beamformers import Scheme
from relaysim.cli import CSV_COLUMNS, main
from relaysim.linalg import NumericError

TINY = """\
network:
  m: 2
  n: 2
  k: 1
  pnr_db: 10
  qnr_db: 10
sweep:
  axis: relay_count
  values: [1, 2]
run:
  schemes: [mf]
  seed: 5
  trials: 64
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return path


def _run(args):
    return main([str(a) for a in args])


def test_run_writes_csv_and_svg(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert _run(["run", tiny_scenario, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "results.csv" in captured.out and "tiny.svg" in captured.out

    csv_text = (out / "results.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # 2 axis values x (mf + upper bound)
    assert len(lines) == 1 + 4
    assert csv_text.endswith("\n")
    assert (out / "tiny.svg").exists()

    first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert first["scheme"] == "mf"
    assert first["axis"] == "relay_count"
    assert first["axis_value"] == "1"
    assert first["trials"] == "64"
    assert first["seed"] == "5"
    assert float(first["capacity_mean_bits"]) > 0


def test_rerun_is_byte_identical(tiny_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["run", tiny_scenario, "--out", out_a]) == 0
    assert _run(["run", tiny_scenario, "--out", out_b]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "tiny.svg").read_bytes() == (out_b / "tiny.svg").read_bytes()


def test_worker_count_does_not_change_bytes(tiny_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["run", tiny_scenario, "--out", out_a, "--workers", 1]) == 0
    assert _run(["run", tiny_scenario, "--out", out_b, "--workers", 2]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_seed_and_trials_overrides(tiny_scenario, tmp_path):
    out = tmp_path / "out"
    assert _run(["run", tiny_scenario, "--out", out, "--seed", 11, "--trials", 32]) == 0
    line = (out / "results.csv").read_text().splitlines()[1]
    row = dict(zip(CSV_COLUMNS, line.split(",")))
    assert row["seed"] == "11"
    assert row["trials"] == "32"


def test_seed_flag_beats_environment(tiny_scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("RELAYSIM_SEED", "99")
    out = tmp_path / "out"
    assert _run(["run", tiny_scenario, "--out", out, "--seed", 7]) == 0
    line = (out / "results.csv").read_text().splitlines()[1]
    assert line.split(",")[CSV_COLUMNS.index("seed")] == "7"


def test_environment_seed_beats_scenario(tiny_scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("RELAYSIM_SEED", "99")
    out = tmp_path / "out"
    assert _run(["run", tiny_scenario, "--out", out]) == 0
    line = (out / "results.csv").read_text().splitlines()[1]
    assert line.split(",")[CSV_COLUMNS.index("seed")] == "99"


def test_invalid_environment_seed_is_an_error(tiny_scenario, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RELAYSIM_SEED", "not-a-number")
    assert _run(["run", tiny_scenario, "--out", tmp_path / "out"]) == 2
    assert "RELAYSIM_SEED" in capsys.readouterr().err


def test_unknown_scenario_exits_2_and_lists_bundled(capsys, tmp_path):
    assert _run(["run", "nope", "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "nope" in err
    assert "fig2" in err and "fig6" in err


def test_malformed_scenario_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(TINY.replace("n: 2", "n: 0"))
    assert _run(["run", bad, "--out", tmp_path / "out"]) == 2
    assert "bad.yaml" in capsys.readouterr().err


def test_bundled_name_resolves(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run(["run", "fig2", "--out", out, "--trials", 8]) == 0
    assert (out / "fig2.svg").exists()
    lines = (out / "results.csv").read_text().splitlines()
    # 8 relay counts x (af, mf, mf-rzf, upper bound)
    assert len(lines) == 1 + 32


def test_list_scenarios_names_all_bundled(capsys):
    assert _run(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6"):
        assert name in out


@pytest.mark.parametrize(
    "flag, env, scenario_seed, field",
    [
        (-1, None, 5, "--seed"),
        (2**64, None, 5, "--seed"),
        (None, "-1", 5, "RELAYSIM_SEED"),
        (None, str(2**64), 5, "RELAYSIM_SEED"),
        (None, None, -1, "'seed' in section 'run'"),
        (None, None, 2**64, "'seed' in section 'run'"),
    ],
)
def test_seed_outside_64_bits_exits_2(
    tmp_path, capsys, monkeypatch, flag, env, scenario_seed, field
):
    # -1 used to alias 2**64 - 1 silently; every seed source now rejects it
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY.replace("seed: 5", f"seed: {scenario_seed}"))
    if env is None:
        monkeypatch.delenv("RELAYSIM_SEED", raising=False)
    else:
        monkeypatch.setenv("RELAYSIM_SEED", env)
    args = ["run", path, "--out", tmp_path / "out"]
    if flag is not None:
        args += ["--seed", flag]
    assert _run(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert field in err and "2**64" in err


def test_largest_seed_is_accepted(tiny_scenario, tmp_path):
    out = tmp_path / "out"
    assert _run(["run", tiny_scenario, "--out", out, "--seed", 2**64 - 1, "--trials", 4]) == 0
    line = (out / "results.csv").read_text().splitlines()[1]
    assert line.split(",")[CSV_COLUMNS.index("seed")] == str(2**64 - 1)


@pytest.mark.parametrize("workers", [0, -2])
def test_nonpositive_workers_exit_2(tiny_scenario, tmp_path, capsys, workers):
    assert _run(["run", tiny_scenario, "--out", tmp_path / "out", "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err == f"error: workers must be >= 1, got {workers}\n"


@pytest.mark.parametrize(
    "edits, field",
    [
        ({"pnr_db: 10": "pnr_db: 4000"}, "pnr_db"),  # network value
        ({"axis: relay_count": "axis: qnr_db", "values: [1, 2]": "values: [1, 4000]"}, "qnr_db"),
    ],
)
def test_overflowing_power_exits_2_naming_the_field(tmp_path, capsys, edits, field):
    text = TINY
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "big.yaml"
    path.write_text(text)
    assert _run(["run", path, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: big.yaml: ")
    assert f"{field} = 4000" in err


def test_numeric_error_exits_1_naming_point_scheme_and_trials(
    tiny_scenario, tmp_path, capsys, monkeypatch
):
    original = montecarlo.stacked_beamformers

    def singular_at_two_relays(scheme, grams, alpha):
        if scheme is Scheme.MF and grams.a.shape[-3] == 2:
            raise NumericError("cholesky_stack: matrix not positive definite")
        return original(scheme, grams, alpha)

    monkeypatch.setattr(montecarlo, "stacked_beamformers", singular_at_two_relays)
    assert _run(["run", tiny_scenario, "--out", tmp_path / "out", "--workers", 1]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: relay_count = 2: mf at trials [0, 64): "
        "cholesky_stack: matrix not positive definite\n"
    )
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("target", ["write_results_csv", "emit_plot"])
def test_failed_write_keeps_earlier_files(tiny_scenario, tmp_path, capsys, monkeypatch, target):
    out = tmp_path / "out"
    assert _run(["run", tiny_scenario, "--out", out]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["results.csv", "tiny.svg"]

    def write_half_then_fail(rows, path, **kwargs):
        path.write_text("scheme,axis,axi")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, target, write_half_then_fail)
    assert _run(["run", tiny_scenario, "--out", out, "--seed", 6]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_svg_title_with_markup_characters_is_escaped(tmp_path):
    # the chart title is the scenario file's stem
    path = tmp_path / "a&b<c.yaml"
    path.write_text(TINY)
    assert _run(["run", path, "--out", tmp_path / "out"]) == 0
    root = ET.parse(tmp_path / "out" / "a&b<c.svg").getroot()
    assert "a&b<c" in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


WITHOUT_SCIPY = """
import sys

class HideScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is hidden")

sys.meta_path.insert(0, HideScipy())
from relaysim import NetworkConfig, Scheme, estimate_ergodic_capacity
from relaysim.cli import main

assert main(["run", "fig2", "--trials", "16", "--out", sys.argv[1]]) == 0
cfg = NetworkConfig.from_db(m=4, n=4, k=4, pnr_db=10.0, qnr_db=10.0)
assert estimate_ergodic_capacity(cfg, Scheme.MF_RZF, trials=64, seed=1).mean_bits > 0
assert "scipy" not in sys.modules
"""


def test_product_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: the CLI and the estimators never import it
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results.csv").is_file() and (tmp_path / "fig2.svg").is_file()
