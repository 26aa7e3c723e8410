"""Scenario files: a small TOML schema describing one sweep.

A scenario has three tables plus an optional top-level description:

    description = "one line shown by list-scenarios"   (optional)
    [network]  m, n, k, pnr_db, qnr_db, alpha (optional)
    [sweep]    axis, values
    [run]      schemes, seed, trials (optional)

The keys are the fields of SweepSpec, one for one, and a missing optional
key takes SweepSpec's default. This module only finds and reads files:
it checks the file format (UTF-8, TOML, sections, unknown or missing
keys, and that the description is a string) and hands the keys to
SweepSpec, which types and checks every value. A ConfigError from
SweepSpec comes back as a ScenarioError naming the file. tomllib
rejects a duplicated key and reads 1e-3 as a float, as TOML says.
"""

from __future__ import annotations

import importlib.resources
import tomllib
from pathlib import Path

from .montecarlo import _NETWORK, ConfigError, SweepSpec


class ScenarioError(ConfigError):
    """A scenario is malformed or unknown; the message names file and field."""


# section -> its keys; every key is a SweepSpec field
_SECTIONS = {
    "network": _NETWORK,
    "sweep": ("axis", "values"),
    "run": ("schemes", "trials", "seed"),
}
_OPTIONAL = ("alpha", "trials")


def _require_section(data: dict, name: str, source: str) -> dict:
    if name not in data:
        raise ScenarioError(f"{source}: missing section '{name}'")
    section = data[name]
    if not isinstance(section, dict):
        raise ScenarioError(f"{source}: section '{name}' must be a table")
    for key in section:
        if key not in _SECTIONS[name]:
            raise ScenarioError(f"{source}: unknown key '{key}' in section '{name}'")
    return section


def parse_scenario_text(text: str, source: str = "<scenario>") -> SweepSpec:
    """Parse and fully validate one scenario document."""
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"{source}: not valid TOML: {exc}") from exc
    for key in data:
        if key not in _SECTIONS and key != "description":
            raise ScenarioError(f"{source}: unknown top-level key '{key}'")
    if not isinstance(data.get("description", ""), str):
        kind = type(data["description"]).__name__
        raise ScenarioError(f"{source}: top-level key 'description' must be str, got {kind}")

    sections = {name: _require_section(data, name, source) for name in _SECTIONS}
    for name, keys in _SECTIONS.items():
        for key in keys:
            if key not in sections[name] and key not in _OPTIONAL:
                raise ScenarioError(f"{source}: missing key '{key}' in section '{name}'")
    try:
        return SweepSpec(**sections["network"], **sections["sweep"], **sections["run"])
    except ConfigError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def parse_scenario(path: str | Path) -> SweepSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"{path.name}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start})"
        ) from None
    return parse_scenario_text(text, source=path.name)


def _bundled_dir():
    return importlib.resources.files("relaysim").joinpath("scenarios")


def list_bundled() -> list:
    """Names of the scenarios shipped with the package."""
    return sorted(
        entry.name[: -len(".toml")]
        for entry in _bundled_dir().iterdir()
        if entry.name.endswith(".toml")
    )


def bundled_description(name: str) -> str:
    return tomllib.loads(_load_bundled_text(name)).get("description", "")


def _load_bundled_text(name: str) -> str:
    """The text of a bundled scenario; only a name that list_bundled()
    gives is looked up, so no name reaches a file outside the package."""
    known = list_bundled()
    if name not in known:
        raise ScenarioError(f"unknown scenario '{name}' (bundled: {', '.join(known)})")
    return _bundled_dir().joinpath(f"{name}.toml").read_text(encoding="utf-8")


def load_bundled(name: str) -> SweepSpec:
    """Parse one of the shipped scenarios by bare name."""
    return parse_scenario_text(_load_bundled_text(name), source=f"{name}.toml")
