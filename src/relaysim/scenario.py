"""Scenario files: a small YAML schema describing one sweep.

A scenario has three sections plus an optional top-level description:

    description: one line shown by list-scenarios   (optional)
    network:  m, n, k, pnr_db, qnr_db, alpha (default 1.0)
    sweep:    axis, values
    run:      schemes, seed, trials (default 10000),
              include_upper_bound (default true)

Unknown keys anywhere are rejected with the file and section named, and
every axis value is materialized once at parse time so a bad point fails
here, not mid-run. Numbers follow YAML 1.2, so 1e-3 is a float.
"""

from __future__ import annotations

import importlib.resources
import re
from pathlib import Path

import yaml

from .beamformers import Scheme
from .channel import NetworkConfig, check_seed
from .montecarlo import AXES, ConfigError, SweepSpec


class ScenarioError(ValueError):
    """A scenario file is malformed; the message names file and field."""


_NETWORK_KEYS = ("m", "n", "k", "pnr_db", "qnr_db", "alpha")
_SWEEP_KEYS = ("axis", "values")
_RUN_KEYS = ("schemes", "trials", "seed", "include_upper_bound")

DEFAULT_TRIALS = 10_000
DEFAULT_ALPHA = 1.0


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats such as 1e1 and
    1.0e-3, which YAML 1.1 leaves as strings (it wants a dot and a signed
    exponent)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\d+(?:\.\d*)?|\.\d+)[eE][-+]?\d+$"),
    list("-+0123456789."),
)


def _require_section(data: dict, name: str, keys: tuple, source: str) -> dict:
    if name not in data:
        raise ScenarioError(f"{source}: missing section '{name}'")
    section = data[name]
    if not isinstance(section, dict):
        raise ScenarioError(f"{source}: section '{name}' must be a mapping")
    for key in section:
        if key not in keys:
            raise ScenarioError(f"{source}: unknown key '{key}' in section '{name}'")
    return section


def _get(section: dict, key: str, kind, source: str, ctx: str, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ScenarioError(f"{source}: missing key '{key}' in section '{ctx}'")
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ScenarioError(
            f"{source}: key '{key}' in section '{ctx}' must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def parse_scenario_text(text: str, source: str = "<scenario>") -> SweepSpec:
    """Parse and fully validate one scenario document."""
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ScenarioError(f"{source}: not valid YAML{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: top level must be a mapping of sections")
    for key in data:
        if key not in ("description", "network", "sweep", "run"):
            raise ScenarioError(f"{source}: unknown top-level key '{key}'")

    network = _require_section(data, "network", _NETWORK_KEYS, source)
    sweep = _require_section(data, "sweep", _SWEEP_KEYS, source)
    run = _require_section(data, "run", _RUN_KEYS, source)

    m = _get(network, "m", int, source, "network")
    n = _get(network, "n", int, source, "network")
    k = _get(network, "k", int, source, "network")
    pnr_db = _get(network, "pnr_db", float, source, "network")
    qnr_db = _get(network, "qnr_db", float, source, "network")
    alpha = _get(network, "alpha", float, source, "network", default=DEFAULT_ALPHA)

    axis = _get(sweep, "axis", str, source, "sweep")
    if axis not in AXES:
        raise ScenarioError(
            f"{source}: sweep axis must be one of {', '.join(AXES)}, got '{axis}'"
        )
    values = _get(sweep, "values", list, source, "sweep")
    if not values:
        raise ScenarioError(f"{source}: sweep values must be a non-empty list")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ScenarioError(f"{source}: sweep value {v!r} is not a number")

    scheme_names = _get(run, "schemes", list, source, "run")
    schemes = []
    for name in scheme_names:
        try:
            schemes.append(Scheme(name))
        except ValueError:
            known = ", ".join(s.value for s in Scheme)
            raise ScenarioError(
                f"{source}: unknown scheme '{name}' (known: {known})"
            ) from None
    trials = _get(run, "trials", int, source, "run", default=DEFAULT_TRIALS)
    seed = _get(run, "seed", int, source, "run")
    try:
        check_seed(seed, "key 'seed' in section 'run'")
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from None
    include_upper = _get(run, "include_upper_bound", bool, source, "run", default=True)

    try:
        base = NetworkConfig.from_db(
            m=m, n=n, k=k, pnr_db=pnr_db, qnr_db=qnr_db, alpha=alpha
        )
        spec = SweepSpec(
            axis=axis,
            values=tuple(values),
            base=base,
            base_pnr_db=pnr_db,
            base_qnr_db=qnr_db,
            schemes=tuple(schemes),
            include_upper_bound=include_upper,
            trials=trials,
            seed=seed,
        )
        for v in spec.values:
            spec.point(v)
    except (ValueError, ConfigError) as exc:
        raise ScenarioError(f"{source}: {exc}") from exc
    return spec


def parse_scenario(path: str | Path) -> SweepSpec:
    path = Path(path)
    return parse_scenario_text(path.read_text(), source=path.name)


def _bundled_dir():
    return importlib.resources.files("relaysim").joinpath("scenarios")


def list_bundled() -> list:
    """Names of the scenarios shipped with the package."""
    return sorted(
        entry.name[: -len(".yaml")]
        for entry in _bundled_dir().iterdir()
        if entry.name.endswith(".yaml")
    )


def bundled_description(name: str) -> str:
    data = yaml.load(_load_bundled_text(name), Loader=_Loader)
    return data.get("description", "") if isinstance(data, dict) else ""


def _load_bundled_text(name: str) -> str:
    resource = _bundled_dir().joinpath(f"{name}.yaml")
    if not resource.is_file():
        known = ", ".join(list_bundled())
        raise ScenarioError(f"unknown scenario '{name}' (bundled: {known})")
    return resource.read_text()


def load_bundled(name: str) -> SweepSpec:
    """Parse one of the shipped scenarios by bare name."""
    return parse_scenario_text(_load_bundled_text(name), source=f"{name}.yaml")
