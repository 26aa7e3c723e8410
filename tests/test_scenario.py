"""Scenario file parsing, round trips, and the bundled registry."""

import pytest
import yaml

from relaysim.beamformers import Scheme
from relaysim.scenario import (
    DEFAULT_ALPHA,
    DEFAULT_TRIALS,
    ScenarioError,
    bundled_description,
    list_bundled,
    load_bundled,
    parse_scenario,
    parse_scenario_text,
)

MINIMAL = """\
network:
  m: 2
  n: 3
  k: 4
  pnr_db: 10
  qnr_db: 10
sweep:
  axis: relay_count
  values: [1, 2, 4]
run:
  schemes: [mf, mf-rzf]
  seed: 3
"""


def scenario_text(spec, description=None):
    """A scenario document holding every field of `spec`, written by
    PyYAML's emitter: parsing it must give back an equal spec."""
    base = spec.base
    network = dict(m=base.m, n=base.n, k=base.k, alpha=base.alpha)
    network.update(pnr_db=spec.base_pnr_db, qnr_db=spec.base_qnr_db)
    run = dict(schemes=[s.value for s in spec.schemes], trials=spec.trials, seed=spec.seed)
    run.update(include_upper_bound=spec.include_upper_bound)
    data = dict(network=network, sweep=dict(axis=spec.axis, values=list(spec.values)), run=run)
    if description:
        data["description"] = description
    return yaml.safe_dump(data)


def test_minimal_scenario_parses_with_defaults():
    spec = parse_scenario_text(MINIMAL)
    assert spec.base.m == 2 and spec.base.n == 3 and spec.base.k == 4
    assert spec.axis == "relay_count"
    assert spec.values == (1, 2, 4)
    assert spec.schemes == (Scheme.MF, Scheme.MF_RZF)
    assert spec.seed == 3
    assert spec.trials == DEFAULT_TRIALS
    assert spec.base.alpha == DEFAULT_ALPHA
    assert spec.include_upper_bound is True


def test_pnr_values_stored_in_db():
    spec = parse_scenario_text(MINIMAL)
    assert spec.base_pnr_db == 10.0
    assert spec.base_qnr_db == 10.0
    assert spec.base.p == pytest.approx(10.0)
    assert spec.base.q == pytest.approx(10.0)


def test_unknown_section_key_names_file_and_section():
    text = MINIMAL.replace("  qnr_db: 10", "  qnr_db: 10\n  bogus: 1")
    with pytest.raises(ScenarioError, match=r"my\.yaml.*'bogus'.*'network'"):
        parse_scenario_text(text, source="my.yaml")


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown top-level key 'extra'"):
        parse_scenario_text(MINIMAL + "extra: {}\n")


def test_missing_section_rejected():
    text = "\n".join(
        line for line in MINIMAL.splitlines() if line not in ("run:", "  schemes: [mf, mf-rzf]", "  seed: 3")
    )
    with pytest.raises(ScenarioError, match="missing section 'run'"):
        parse_scenario_text(text)


def test_fewer_relay_antennas_than_source_rejected():
    text = MINIMAL.replace("n: 3", "n: 1")
    with pytest.raises(ScenarioError, match="relay antennas"):
        parse_scenario_text(text)


def test_unknown_scheme_lists_known_ones():
    text = MINIMAL.replace("[mf, mf-rzf]", "[mf, zf]")
    with pytest.raises(ScenarioError, match="unknown scheme 'zf'.*af, mf, mf-rzf"):
        parse_scenario_text(text)


def test_unknown_axis_lists_known_ones():
    text = MINIMAL.replace("axis: relay_count", "axis: bandwidth")
    with pytest.raises(ScenarioError, match="axis must be one of.*got 'bandwidth'"):
        parse_scenario_text(text)


def test_bad_axis_point_rejected_at_parse_time():
    # relay_count points must be positive integers; 0 only fails when the
    # point is materialized, which must happen during parsing.
    text = MINIMAL.replace("values: [1, 2, 4]", "values: [0, 2, 4]")
    with pytest.raises(ScenarioError, match="0"):
        parse_scenario_text(text)


def test_non_numeric_sweep_value_rejected():
    text = MINIMAL.replace("values: [1, 2, 4]", "values: [1, two, 4]")
    with pytest.raises(ScenarioError, match="'two' is not a number"):
        parse_scenario_text(text)


def test_exponent_numbers_are_floats():
    # YAML 1.1 reads 1e1 and 1e-3 as strings; scenarios follow YAML 1.2
    text = MINIMAL.replace("axis: relay_count", "axis: pnr_db").replace(
        "values: [1, 2, 4]", "values: [1e1, 1.5E+1, 2e1]"
    )
    spec = parse_scenario_text(text.replace("  qnr_db: 10", "  qnr_db: 10\n  alpha: 1e-3"))
    assert spec.values == (10.0, 15.0, 20.0)
    assert spec.base.alpha == 0.001
    assert parse_scenario_text(scenario_text(spec)) == spec


def test_wrong_type_reports_key_and_expectation():
    text = MINIMAL.replace("m: 2", "m: 2.5")
    with pytest.raises(ScenarioError, match="key 'm'.*must be int, got float"):
        parse_scenario_text(text)


def test_yaml_syntax_error_reports_line():
    with pytest.raises(ScenarioError, match=r"not valid YAML \(line \d+, column \d+\)"):
        parse_scenario_text("network:\n  m: [unclosed\n")


def test_non_mapping_document_rejected():
    with pytest.raises(ScenarioError, match="top level must be a mapping"):
        parse_scenario_text("- 1\n- 2\n")


def test_round_trip_is_identity():
    spec = parse_scenario_text(MINIMAL)
    assert parse_scenario_text(scenario_text(spec)) == spec


def test_round_trip_preserves_description():
    text = scenario_text(parse_scenario_text(MINIMAL), description="demo sweep")
    assert "demo sweep" in text
    assert parse_scenario_text(text) == parse_scenario_text(MINIMAL)


def test_parse_scenario_reads_file_and_names_it_in_errors(tmp_path):
    good = tmp_path / "ok.yaml"
    good.write_text(MINIMAL)
    assert parse_scenario(good) == parse_scenario_text(MINIMAL)

    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace("n: 3", "n: 0"))
    with pytest.raises(ScenarioError, match="bad.yaml"):
        parse_scenario(bad)


def test_bundled_registry_lists_all_five():
    assert list_bundled() == ["fig2", "fig3", "fig4", "fig5", "fig6"]


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6"])
def test_bundled_scenarios_parse_and_describe(name):
    spec = load_bundled(name)
    assert spec.trials == DEFAULT_TRIALS
    assert spec.seed == 1
    assert spec.schemes == (Scheme.AF, Scheme.MF, Scheme.MF_RZF)
    assert spec.include_upper_bound is True
    assert bundled_description(name)


def test_bundled_relay_sweeps_share_axis():
    for name in ("fig2", "fig3", "fig4"):
        spec = load_bundled(name)
        assert spec.axis == "relay_count"
        assert spec.values == tuple(range(1, 9))
        assert spec.base.m == spec.base.n == 4


def test_bundled_power_sweeps():
    fig5 = load_bundled("fig5")
    assert fig5.axis == "pnr_equals_qnr_db"
    fig6 = load_bundled("fig6")
    assert fig6.axis == "pnr_db"
    for spec in (fig5, fig6):
        assert spec.base.m == spec.base.n == 8
        assert spec.base.k == 10
        assert spec.values == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6"])
def test_bundled_scenarios_round_trip(name):
    spec = load_bundled(name)
    assert parse_scenario_text(scenario_text(spec)) == spec


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError, match="unknown scenario 'fig9'"):
        load_bundled("fig9")
