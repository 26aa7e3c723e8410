"""Command line front end.

    relaysim run <scenario> [--out DIR] [--workers N] [--trials T] [--seed S]
    relaysim list-scenarios

<scenario> is a path to a scenario file, or the bare name of a bundled
one. Results land in DIR (default ./results) as results.csv plus an SVG
chart named after the scenario. Both are written beside their final
names and then moved into place, so a failed run leaves earlier files
intact. The seed resolution order is: --seed flag, then the
RELAYSIM_SEED environment variable, then the scenario file. Output is
byte-identical for any --workers value. Bad input exits 2 and a
numerical failure exits 1, each with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .channel import check_seed
from .linalg import NumericError
from .montecarlo import ConfigError, run_sweep
from .plotting import emit_plot
from .scenario import (
    ScenarioError,
    bundled_description,
    list_bundled,
    load_bundled,
    parse_scenario,
)

CSV_COLUMNS = (
    "scheme",
    "axis",
    "axis_value",
    "m",
    "n",
    "k",
    "pnr_db",
    "qnr_db",
    "alpha",
    "trials",
    "seed",
    "capacity_mean_bits",
    "capacity_stderr_bits",
)


def write_results_csv(rows: list, path: str | Path) -> None:
    """Fixed-schema CSV, one line per (axis value, series), axis-major.

    Floats are written with repr precision so equal results give equal
    bytes; every line including the last ends with a newline.
    """
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(getattr(row, col)) for col in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def _replace_atomically(writers: dict) -> None:
    """Run each write(tmp) of {path: write} on a temporary file beside its
    path, then move every file into place: a failed write leaves all the
    earlier files intact and no partial file behind."""
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in writers}
    try:
        for path, write in writers.items():
            write(temps[path])
        for path, tmp in temps.items():
            os.replace(tmp, path)
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)


def _resolve_scenario(name: str):
    """A path wins over a bundled name; returns (spec, stem)."""
    path = Path(name)
    if path.exists():
        return parse_scenario(path), path.stem
    if path.suffix == "" and name in list_bundled():
        return load_bundled(name), name
    known = ", ".join(list_bundled())
    raise ScenarioError(
        f"scenario '{name}' is neither a file nor a bundled name (bundled: {known})"
    )


def _resolve_seed(args_seed, env: dict):
    if args_seed is not None:
        seed, field = args_seed, "--seed"
    else:
        raw = env.get("RELAYSIM_SEED")
        if raw is None:
            return None
        try:
            seed, field = int(raw), "RELAYSIM_SEED"
        except ValueError:
            raise ScenarioError(f"RELAYSIM_SEED must be an integer, got '{raw}'") from None
    try:
        return check_seed(seed, field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_run(args) -> int:
    spec, stem = _resolve_scenario(args.scenario)
    seed = _resolve_seed(args.seed, os.environ)
    replacements = {}
    if seed is not None:
        replacements["seed"] = seed
    if args.trials is not None:
        replacements["trials"] = args.trials
    if replacements:
        spec = dataclasses.replace(spec, **replacements)

    rows = run_sweep(spec, workers=args.workers)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    svg_path = out / f"{stem}.svg"
    _replace_atomically(
        {
            csv_path: lambda tmp: write_results_csv(rows, tmp),
            svg_path: lambda tmp: emit_plot(rows, tmp, title=stem),
        }
    )
    print(f"wrote {csv_path} ({len(rows)} rows)")
    print(f"wrote {svg_path}")
    return 0


def cmd_list_scenarios(_args) -> int:
    for name in list_bundled():
        desc = bundled_description(name)
        print(f"{name:8s} {desc}" if desc else name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Monte Carlo capacity simulator for dual-hop relay networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one sweep scenario")
    run_p.add_argument("scenario", help="scenario file path or bundled name")
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.add_argument("--workers", type=int, default=1, help="worker processes")
    run_p.add_argument("--trials", type=int, default=None, help="override trial count")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.set_defaults(func=cmd_run)

    list_p = sub.add_parser("list-scenarios", help="show bundled scenarios")
    list_p.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
