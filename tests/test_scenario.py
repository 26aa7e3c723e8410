"""Scenario file parsing, round trips, and the bundled registry."""

import dataclasses
import json

import numpy as np
import pytest

from relaysim.beamformers import Scheme
from relaysim.cli import write_results_csv
from relaysim.montecarlo import SweepSpec, run_sweep
from relaysim.scenario import (
    ScenarioError,
    bundled_description,
    list_bundled,
    load_bundled,
    parse_scenario,
    parse_scenario_text,
)

MINIMAL = """\
[network]
m = 2
n = 3
k = 4
pnr_db = 10
qnr_db = 10

[sweep]
axis = "relay_count"
values = [1, 2, 4]

[run]
schemes = ["mf", "mf-rzf"]
seed = 3
"""


def _toml_value(value):
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_toml_value, value)) + "]"
    if isinstance(value, str):
        # JSON's escapes are TOML's, but JSON leaves DEL bare and TOML does not
        return json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007f")
    return repr(value)  # an int, or a float such as 1e-05 or inf


def scenario_text(spec, description=None):
    """A scenario document holding every field of `spec`: parsing it must
    give back an equal spec."""
    network = {key: getattr(spec, key) for key in ("m", "n", "k", "pnr_db", "qnr_db", "alpha")}
    run = dict(schemes=[s.value for s in spec.schemes], trials=spec.trials, seed=spec.seed)
    sections = dict(network=network, sweep=dict(axis=spec.axis, values=spec.values), run=run)
    lines = [f"description = {_toml_value(description)}"] if description else []
    for name, section in sections.items():
        lines += [f"[{name}]"] + [f"{key} = {_toml_value(v)}" for key, v in section.items()]
    return "\n".join(lines) + "\n"


def test_minimal_scenario_parses_with_defaults():
    spec = parse_scenario_text(MINIMAL)
    assert spec.m == 2 and spec.n == 3 and spec.k == 4
    assert spec.axis == "relay_count"
    assert spec.values == (1, 2, 4)
    assert spec.schemes == (Scheme.MF, Scheme.MF_RZF)
    assert spec.seed == 3
    # a missing optional key takes SweepSpec's own default
    defaults = {field.name: field.default for field in dataclasses.fields(SweepSpec)}
    assert spec.trials == defaults["trials"] == 10_000
    assert spec.alpha == defaults["alpha"] == 1.0


def test_pnr_values_stored_in_db():
    spec = parse_scenario_text(MINIMAL)
    assert spec.pnr_db == 10.0
    assert spec.qnr_db == 10.0
    point = spec.point(1)
    assert (point["pnr_db"], point["qnr_db"]) == (10.0, 10.0)


def test_unknown_section_key_names_file_and_section():
    text = MINIMAL.replace("qnr_db = 10", "qnr_db = 10\nbogus = 1")
    with pytest.raises(ScenarioError, match=r"my\.toml.*'bogus'.*'network'"):
        parse_scenario_text(text, source="my.toml")
    # every sweep reports the bound, so no key turns it off
    text = MINIMAL.replace("seed = 3", "seed = 3\ninclude_upper_bound = false")
    with pytest.raises(ScenarioError) as info:
        parse_scenario_text(text, source="my.toml")
    assert str(info.value) == "my.toml: unknown key 'include_upper_bound' in section 'run'"


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown top-level key 'extra'"):
        parse_scenario_text(MINIMAL + "[extra]\n")


def test_missing_section_rejected():
    text = "\n".join(
        line for line in MINIMAL.splitlines() if line not in ("[run]", 'schemes = ["mf", "mf-rzf"]', "seed = 3")
    )
    with pytest.raises(ScenarioError, match="missing section 'run'"):
        parse_scenario_text(text)


def test_fewer_relay_antennas_than_source_rejected():
    text = MINIMAL.replace("n = 3", "n = 1")
    with pytest.raises(ScenarioError, match="relay antennas"):
        parse_scenario_text(text)


def test_unknown_scheme_lists_known_ones():
    text = MINIMAL.replace('["mf", "mf-rzf"]', '["mf", "zf"]')
    with pytest.raises(ScenarioError, match="unknown scheme 'zf'.*af, mf, mf-rzf"):
        parse_scenario_text(text)


def test_unknown_axis_lists_known_ones():
    text = MINIMAL.replace('axis = "relay_count"', 'axis = "bandwidth"')
    with pytest.raises(ScenarioError, match="axis must be one of.*got 'bandwidth'"):
        parse_scenario_text(text)


def test_bad_axis_point_rejected_at_parse_time():
    # relay_count points must be positive integers; 0 only fails when the
    # point is materialized, which must happen during parsing.
    text = MINIMAL.replace("values = [1, 2, 4]", "values = [0, 2, 4]")
    with pytest.raises(ScenarioError, match="0"):
        parse_scenario_text(text)


def test_non_numeric_sweep_value_rejected():
    text = MINIMAL.replace("values = [1, 2, 4]", 'values = [1, "two", 4]')
    with pytest.raises(ScenarioError, match="'two' is not a number"):
        parse_scenario_text(text)


def test_exponent_numbers_are_floats():
    # TOML reads an exponent without a dot, such as 1e1 and 1e-3, as a float
    text = MINIMAL.replace('axis = "relay_count"', 'axis = "pnr_db"').replace(
        "values = [1, 2, 4]", "values = [1e1, 1.5E+1, 2e1]"
    )
    spec = parse_scenario_text(text.replace("qnr_db = 10", "qnr_db = 10\nalpha = 1e-3"))
    assert spec.values == (10.0, 15.0, 20.0)
    assert spec.alpha == 0.001
    assert parse_scenario_text(scenario_text(spec)) == spec


def test_wrong_type_reports_key_and_expectation():
    text = MINIMAL.replace("m = 2", "m = 2.5")
    with pytest.raises(ScenarioError, match="key 'm'.*must be int, got float"):
        parse_scenario_text(text)


def test_non_string_description_is_rejected():
    text = "description = [1, 2]\n" + MINIMAL
    with pytest.raises(ScenarioError, match="top-level key 'description' must be str, got list"):
        parse_scenario_text(text)


def test_duplicated_key_is_rejected_naming_its_line():
    # tomllib names the line of a repeated key, and a repeated table by name
    text = MINIMAL.replace("m = 2", "m = 2\nm = 3")
    with pytest.raises(ScenarioError) as info:
        parse_scenario_text(text, source="my.toml")
    assert str(info.value) == (
        "my.toml: not valid TOML: Cannot overwrite a value (at line 3, column 6)"
    )
    with pytest.raises(ScenarioError, match=r"Cannot declare \('run',\) twice \(at line 16, "):
        parse_scenario_text(MINIMAL + "\n[run]\nseed = 4\n")


def test_toml_syntax_error_reports_line():
    text = MINIMAL.replace("values = [1, 2, 4]", "values = [1, 2, 4")
    # the array opened on line 10 runs into [run], the table on line 12
    with pytest.raises(ScenarioError) as info:
        parse_scenario_text(text)
    assert str(info.value).endswith("not valid TOML: Unclosed array (at line 12, column 1)")


def test_non_mapping_document_rejected():
    # a TOML document is always a table, so a bare array is a syntax error
    with pytest.raises(ScenarioError, match=r"not valid TOML: .* \(at line 1, column \d+\)$"):
        parse_scenario_text("[1, 2]\n")
    network = MINIMAL[: MINIMAL.index("[sweep]")]
    with pytest.raises(ScenarioError, match="section 'network' must be a table"):
        parse_scenario_text(MINIMAL.replace(network, "network = 1\n"))


def test_round_trip_is_identity():
    spec = parse_scenario_text(MINIMAL)
    assert parse_scenario_text(scenario_text(spec)) == spec


def test_round_trip_preserves_description():
    text = scenario_text(parse_scenario_text(MINIMAL), description="demo sweep")
    assert "demo sweep" in text
    assert parse_scenario_text(text) == parse_scenario_text(MINIMAL)


INTEGER_DB = """\
network = {m = 2, n = 2, k = 2, pnr_db = 10, qnr_db = 10, alpha = 1}
sweep = {axis = "pnr_db", values = [0, 10]}
run = {schemes = ["mf"], seed = 3, trials = 16}
"""


@pytest.mark.parametrize(
    "values, network",
    [
        ((0, 10), dict(pnr_db=10, qnr_db=10, alpha=1)),
        ([0, 10], dict(pnr_db=10, qnr_db=10, alpha=1)),
        (np.array([0, 10]), dict(pnr_db=np.int64(10), qnr_db=10.0, alpha=np.float32(1))),
        ((0.0, 10.0), dict(pnr_db=10.0, qnr_db=10.0, alpha=1.0)),
    ],
    ids=["ints", "list", "ndarray", "floats"],
)
def test_python_spec_equals_file_spec_and_writes_equal_rows(tmp_path, values, network):
    # an int dB value or alpha is stored as a float, so the rows and the
    # CSV bytes do not depend on how the spec was built
    from_file = parse_scenario_text(INTEGER_DB)
    spec = SweepSpec(
        axis="pnr_db", values=values, m=2, n=2, k=2, schemes=["mf"], seed=3, trials=16, **network
    )
    assert spec == from_file and hash(spec) == hash(from_file)
    assert repr(spec) == repr(from_file)
    assert spec.values == (0.0, 10.0) and spec.alpha == 1.0
    write_results_csv(run_sweep(spec), tmp_path / "a.csv")
    write_results_csv(run_sweep(from_file), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert "pnr_db,0.0,2,2,2,0.0,10.0,1.0,16,3," in (tmp_path / "a.csv").read_text()


def test_parse_scenario_reads_file_and_names_it_in_errors(tmp_path):
    good = tmp_path / "ok.toml"
    good.write_text(MINIMAL)
    assert parse_scenario(good) == parse_scenario_text(MINIMAL)

    bad = tmp_path / "bad.toml"
    bad.write_text(MINIMAL.replace("n = 3", "n = 0"))
    with pytest.raises(ScenarioError, match="bad.toml"):
        parse_scenario(bad)


def test_bundled_registry_lists_all_five():
    assert list_bundled() == ["fig2", "fig3", "fig4", "fig5", "fig6"]


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6"])
def test_bundled_scenarios_parse_and_describe(name):
    spec = load_bundled(name)
    assert spec.trials == 10_000
    assert spec.seed == 1
    assert spec.schemes == (Scheme.AF, Scheme.MF, Scheme.MF_RZF)
    assert bundled_description(name)


def test_bundled_relay_sweeps_share_axis():
    for name in ("fig2", "fig3", "fig4"):
        spec = load_bundled(name)
        assert spec.axis == "relay_count"
        assert spec.values == tuple(range(1, 9))
        assert spec.m == spec.n == 4


def test_bundled_power_sweeps():
    fig5 = load_bundled("fig5")
    assert fig5.axis == "pnr_equals_qnr_db"
    fig6 = load_bundled("fig6")
    assert fig6.axis == "pnr_db"
    for spec in (fig5, fig6):
        assert spec.m == spec.n == 8
        assert spec.k == 10
        assert spec.values == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6"])
def test_bundled_scenarios_round_trip(name):
    spec = load_bundled(name)
    assert parse_scenario_text(scenario_text(spec)) == spec


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError, match="unknown scenario 'fig9'"):
        load_bundled("fig9")


def test_bundled_lookup_cannot_reach_a_file_outside_the_package(tmp_path):
    (tmp_path / "outside.toml").write_text(MINIMAL)
    for name in (str(tmp_path / "outside"), "../scenarios/fig2", "fig2.toml"):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            load_bundled(name)
