"""README examples run as written, and its API lists match the code."""

import dataclasses
import re
from pathlib import Path

import relaysim
from relaysim import SweepSpec
from relaysim.scenario import load_bundled, parse_scenario_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs_as_written(capsys):
    section = README.read_text().split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    mean, stderr, bound = map(float, capsys.readouterr().out.split())
    assert 0 < mean < bound and stderr > 0


def test_export_sentence_names_exactly_the_package_exports():
    text = README.read_text()
    sentence = re.search(r"The package exports \w+ names: (.*?)\.\n", text, re.DOTALL)
    names = re.findall(r"`(\w+)`", sentence.group(1))
    assert sorted(names) == sorted(relaysim.__all__)


def test_sweep_spec_field_list_matches_the_dataclass():
    listed = re.search(
        r"`SweepSpec` has the scenario file's keys as its fields, one for one:\s*`([^`]*)`",
        README.read_text(),
    )
    assert listed.group(1).split(", ") == [field.name for field in dataclasses.fields(SweepSpec)]


def test_scenario_block_parses_as_written():
    section = README.read_text().split("\n## Scenario files\n", 1)[1]
    text = re.search(r"```toml\n(.*?)```", section, re.DOTALL).group(1)
    assert parse_scenario_text(text, source="README.md") == load_bundled("fig2")
