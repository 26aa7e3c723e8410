"""End-to-end CLI behavior: files written, seed precedence, exit codes."""

import contextlib
import errno
import io
import json
import os
import resource
import runpy
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from relaysim import cli, montecarlo
from relaysim.beamformers import Scheme
from relaysim.cli import CSV_COLUMNS, main
from relaysim.linalg import NumericError

TINY = """\
[network]
m = 2
n = 2
k = 1
pnr_db = 10
qnr_db = 10

[sweep]
axis = "relay_count"
values = [1, 2]

[run]
schemes = ["mf"]
seed = 5
trials = 64
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.toml"
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
    bad = tmp_path / "bad.toml"
    bad.write_text(TINY.replace("n = 2", "n = 0"))
    assert _run(["run", bad, "--out", tmp_path / "out"]) == 2
    assert "bad.toml" in capsys.readouterr().err


def test_bundled_name_resolves(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run(["run", "fig2", "--out", out, "--trials", 8]) == 0
    assert (out / "fig2.svg").exists()
    lines = (out / "results.csv").read_text().splitlines()
    # 8 relay counts x (af, mf, mf-rzf, upper bound)
    assert len(lines) == 1 + 32


def test_a_directory_does_not_hide_a_bundled_scenario(tmp_path, monkeypatch, capsys):
    # `relaysim run fig2 --out fig2` leaves a fig2/ directory behind; a
    # second `relaysim run fig2` from there still runs the bundled fig2
    (tmp_path / "fig2").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["run", "fig2", "--trials", "2", "--out", "fig2"]) == 0
    assert (tmp_path / "fig2" / "results.csv").is_file()
    capsys.readouterr()
    for name in (".", ""):
        assert main(["run", name, "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fig2" in err  # the bundled names, no traceback


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
        (None, None, -1, "tiny.toml: seed"),
        (None, None, 2**64, "tiny.toml: seed"),
    ],
)
def test_seed_outside_64_bits_exits_2(
    tmp_path, capsys, monkeypatch, flag, env, scenario_seed, field
):
    # -1 used to alias 2**64 - 1 silently; every seed source now rejects it
    path = tmp_path / "tiny.toml"
    path.write_text(TINY.replace("seed = 5", f"seed = {scenario_seed}"))
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
    "edits, field, value",
    [
        # network values, then axis values
        pytest.param({"pnr_db = 10": "pnr_db = 4000"}, "pnr_db", "4000.0", id="edits0-pnr_db"),
        pytest.param({"pnr_db = 10": "pnr_db = inf"}, "pnr_db", "inf", id="pnr_db-inf"),
        pytest.param({"qnr_db = 10": "qnr_db = -inf"}, "qnr_db", "-inf", id="qnr_db-minus-inf"),
        pytest.param({"qnr_db = 10": "qnr_db = -4000"}, "qnr_db", "-4000.0", id="qnr_db-underflow"),
        pytest.param(
            {'axis = "relay_count"': 'axis = "qnr_db"', "values = [1, 2]": "values = [1, 4000]"},
            "qnr_db",
            "4000.0",
            id="edits1-qnr_db",
        ),
        pytest.param(
            {'axis = "relay_count"': 'axis = "pnr_db"', "values = [1, 2]": "values = [1, nan]"},
            "pnr_db",
            "nan",
            id="pnr_db-axis-nan",
        ),
    ],
)
def test_overflowing_power_exits_2_naming_the_field(tmp_path, capsys, edits, field, value):
    text = TINY
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / "big.toml"
    path.write_text(text)
    assert _run(["run", path, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: big.toml: ")
    assert f"{field} = {value} dB" in err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("m = 2\n", "m = 0\n", "m must be >= 1, got 0"),
        ("n = 2\n", "n = 1\n", "relay antennas must satisfy n >= m, got n=1, m=2"),
        ("qnr_db = 10\n", "qnr_db = 10\nalpha = -1\n", "alpha must be >= 0, got -1.0"),
    ],
    ids=["m-zero", "n-below-m", "alpha-negative"],
)
def test_bad_network_exits_2_naming_the_file_and_field(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad.toml"
    path.write_text(TINY.replace(old, new))
    assert _run(["run", path, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: bad.toml: {message}\n"


def test_non_utf8_scenario_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.toml"
    path.write_bytes(TINY.replace("seed = 5", "seed = 5  # caf\xe9").encode("latin-1"))
    assert _run(["run", path, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: latin1.toml: ")
    assert "0xe9" in err


def test_numeric_error_exits_1_naming_point_scheme_and_trials(
    tiny_scenario, tmp_path, capsys, monkeypatch
):
    original = montecarlo.stacked_beamformers

    def singular_at_two_relays(scheme, a, *arrays, **kwargs):
        if scheme is Scheme.MF and a.shape[-3] == 2:
            raise NumericError("cholesky_stack: matrix not positive definite")
        return original(scheme, a, *arrays, **kwargs)

    monkeypatch.setattr(montecarlo, "stacked_beamformers", singular_at_two_relays)
    assert _run(["run", tiny_scenario, "--out", tmp_path / "out", "--workers", 1]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: relay_count = 2: mf at trials [0, 64): "
        "cholesky_stack: matrix not positive definite\n"
    )
    assert not (tmp_path / "out" / "results.csv").exists()


def test_floating_point_overflow_exits_1_with_one_line(tmp_path):
    # at 3080 dB (p/m) ||FH||^2 overflows, and so would the bound
    path = tmp_path / "loud.toml"
    path.write_text(
        TINY.replace('"relay_count"', '"pnr_db"').replace("[1, 2]", "[3060.0, 3080.0]")
    )
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim", "run", path, "--out", tmp_path / "out"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: pnr_db = 3080.0: mf at trials [0, 64): overflow")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
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


@pytest.mark.parametrize("below", [True, False], ids=["below-a-file", "a-file"])
def test_unusable_out_exits_2_before_the_sweep(tiny_scenario, tmp_path, capsys, monkeypatch, below):
    swept = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: swept.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if below else blocker
    assert _run(["run", tiny_scenario, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert swept == [] and blocker.read_text() == ""


def test_svg_title_with_markup_characters_is_escaped(tmp_path):
    # the chart title is the scenario file's stem
    path = tmp_path / "a&b<c.toml"
    path.write_text(TINY)
    assert _run(["run", path, "--out", tmp_path / "out"]) == 0
    root = ET.parse(tmp_path / "out" / "a&b<c.svg").getroot()
    assert "a&b<c" in [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]


def test_non_ascii_scenario_name_runs_under_an_ascii_locale(tmp_path):
    # under the C locale without UTF-8 mode the stem arrives as surrogate
    # escapes of its UTF-8 bytes; both files must still come out as they
    # do under the default locale, byte for byte
    path = tmp_path / "fïg.toml"
    path.write_text(TINY, encoding="utf-8")
    outs = []
    for name, env in (("default", {}), ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0"})):
        outs.append(tmp_path / name)
        proc = subprocess.run(
            [sys.executable, "-m", "relaysim", "run", path, "--out", outs[-1]],
            capture_output=True,
            env=dict(os.environ, **env),
        )
        assert proc.returncode == 0, proc.stderr
    for file in ("results.csv", "fïg.svg"):
        assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()


def test_error_line_names_a_non_ascii_file_by_its_bytes_under_an_ascii_locale(tmp_path):
    # the error line is UTF-8 like the output files, so the file's own
    # name appears under the C locale rather than its surrogate escapes
    path = tmp_path / "bäd.toml"
    path.write_text("network = [\n", encoding="utf-8")
    errors = []
    for env in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0"}):
        proc = subprocess.run(
            [sys.executable, "-m", "relaysim", "run", path, "--out", tmp_path / "out"],
            capture_output=True,
            env=dict(os.environ, **env),
        )
        assert proc.returncode == 2
        errors.append(proc.stderr)
    assert errors[0] == errors[1]
    assert errors[1].startswith("error: bäd.toml: not valid TOML".encode())
    assert errors[1].count(b"\n") == 1


def test_os_error_line_names_a_non_ascii_path_by_its_bytes_under_an_ascii_locale(tmp_path):
    # OSError's own text quotes the path with repr, which spells a name
    # that the C locale decoded to surrogate escapes as those escapes
    (tmp_path / "plain").write_text("")
    out = tmp_path / "plain" / "bäd"
    errors = []
    for env in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0"}):
        proc = subprocess.run(
            [sys.executable, "-m", "relaysim", "run", "fig2", "--trials", "4", "--out", out],
            capture_output=True,
            env=dict(os.environ, **env),
        )
        assert proc.returncode == 2
        errors.append(proc.stderr)
    assert errors[0] == errors[1]
    strerror = os.strerror(errno.ENOTDIR)
    assert errors[1] == f"error: [Errno {errno.ENOTDIR}] {strerror}: '{out}'\n".encode()


def test_error_line_goes_to_a_text_only_stderr(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", "nöne", "--out", str(tmp_path)]) == 2
    assert err.getvalue().startswith("error: unknown scenario 'nöne' (bundled: ")


def _cap_address_space():
    # 2 GiB: a normal run fits, and a run that tries to fill the host fails fast
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "values, extra, message",
    [
        # a job's budgets cut it to one trial here, but never to less
        ("[1, 1000000000000000]", [], "relay_count = 1000000000000000 at trials [0, 1): "),
        ("[1, 2]", ["--trials", "1000000000000000"], "trials = 1000000000000000: "),
        # past numpy's index range, np.empty raises ValueError, not MemoryError
        (
            "[1, 100000000000000000000]", [],
            "relay_count = 100000000000000000000 at trials [0, 1): ",
        ),
        ("[1, 2]", ["--trials", "100000000000000000000"], "trials = 100000000000000000000: "),
        ("[1, 2]", [], None),
    ],
    ids=["relay-count", "trials", "relay-count-past-index-range", "trials-past-index-range",
         "fits"],
)
def test_run_too_large_for_memory_exits_1_with_one_line(tmp_path, values, extra, message):
    path = tmp_path / "big.toml"
    path.write_text(TINY.replace("[1, 2]", values).replace("trials = 64", "trials = 4"))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim", "run", path, "--out", tmp_path / "out", *extra],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_cap_address_space,
    )
    if message is None:
        assert proc.returncode == 0, proc.stderr
        return
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "results.csv").exists()


# Hides the package named by the first argument from every import
HIDE = """
import sys

class Hide:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == sys.argv[1]:
            raise ImportError(f"{name} is hidden")

sys.meta_path.insert(0, Hide())
"""

WITHOUT_SCIPY = HIDE + """
from relaysim import Scheme, SweepSpec, run_sweep
from relaysim.cli import main

assert main(["run", "fig2", "--trials", "16", "--out", sys.argv[2]]) == 0
spec = SweepSpec("relay_count", (4,), m=4, n=4, k=4, pnr_db=10.0, qnr_db=10.0,
                 schemes=(Scheme.MF_RZF,), trials=64, seed=1)
assert run_sweep(spec)[0].capacity_mean_bits > 0
assert "scipy" not in sys.modules
"""


def test_product_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: the CLI and run_sweep never import it
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, "scipy", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results.csv").is_file() and (tmp_path / "fig2.svg").is_file()


WITHOUT_YAML = HIDE + """
from relaysim.cli import main

out, scenario = sys.argv[2:]
assert main(["run", "fig2", "--trials", "16", "--out", out + "/fig2"]) == 0
assert main(["run", scenario, "--out", out + "/tiny"]) == 0
assert main(["list-scenarios"]) == 0
assert "yaml" not in sys.modules
"""


def test_product_runs_without_yaml(tiny_scenario, tmp_path):
    # scenario files are TOML, read by the standard library's tomllib
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_YAML, "yaml", str(tmp_path), str(tiny_scenario)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fig6" in proc.stdout
    assert (tmp_path / "fig2" / "fig2.svg").is_file() and (tmp_path / "tiny" / "tiny.svg").is_file()


# Runs fig2 through the CLI in a fresh interpreter at the given workers;
# prints whether the pool's module was loaded when the sweep began, which
# of the pool's and html's modules the run loaded, and whether montecarlo
# still has its ProcessPoolExecutor.
POOL_IMPORTS = """
import json, sys
from relaysim import cli, montecarlo

sweep, loaded = cli.run_sweep, []

def run_sweep(*args, **kwargs):
    loaded.append("concurrent.futures.process" in sys.modules)
    return sweep(*args, **kwargs)

cli.run_sweep = run_sweep
workers, out = sys.argv[1:]
assert cli.main(["run", "fig2", "--trials", "16", "--workers", workers, "--out", out]) == 0
names = ("concurrent.futures", "multiprocessing", "html")
print(json.dumps([loaded, [name for name in names if name in sys.modules],
                  hasattr(montecarlo, "ProcessPoolExecutor")]))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_only_a_pool_run_loads_the_pools_modules(tmp_path, workers):
    # a one-process run loads neither the pool's modules nor html; a run
    # at --workers 2 loads the pool's before its sweep begins
    proc = subprocess.run(
        [sys.executable, "-c", POOL_IMPORTS, str(workers), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, modules, has_pool = json.loads(proc.stdout.splitlines()[-1])
    if workers == 1:
        assert loaded == [False] and modules == []
    else:
        assert loaded == [True] and modules == ["concurrent.futures", "multiprocessing"]
    assert has_pool


def test_reproduce_figures_script_runs_every_bundled_scenario(tmp_path, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
    reproduce = runpy.run_path(str(script))["main"]
    assert reproduce(["--out", str(tmp_path), "--trials", "16"]) == 0
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6"):
        lines = (tmp_path / name / "results.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert {dict(zip(CSV_COLUMNS, line.split(",")))["trials"] for line in lines[1:]} == {"16"}
    capsys.readouterr()
    assert reproduce(["--out", str(tmp_path / "zero"), "--trials", "0"]) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"
