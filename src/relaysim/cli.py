"""Command line front end.

    relaysim run <scenario> [--out DIR] [--workers N] [--trials T] [--seed S]
    relaysim list-scenarios

<scenario> is a path to a scenario file, or the bare name of a bundled
one. Results land in DIR (default ./results), which is created before
the sweep starts, as results.csv plus an SVG chart named after the
scenario, both in UTF-8 under any locale. Both
are written beside their final names and then moved into place, so a
failed run leaves earlier files intact. The seed resolution order is:
--seed flag, then the RELAYSIM_SEED environment variable, then the
scenario file. Output is byte-identical for any --workers value. Bad
input exits 2, and a numerical failure or a run too large for memory
exits 1, each with one `error:` line on stderr, also in UTF-8.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import sys
from pathlib import Path

from .linalg import NumericError
from .montecarlo import ConfigError, SweepRow, check_seed, run_sweep
from .plotting import emit_plot
from .scenario import bundled_description, list_bundled, load_bundled, parse_scenario

CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(SweepRow))


def write_results_csv(rows: list, path: str | Path) -> None:
    """Fixed-schema CSV, one line per (axis value, series), axis-major.

    Floats are written with repr precision so equal results give equal
    bytes; every line including the last ends with a newline.
    """
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(getattr(row, col)) for col in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    """An existing file wins over a bundled name; returns (spec, stem)."""
    path = Path(name)
    if path.is_file():
        return parse_scenario(path), path.stem
    return load_bundled(name), name


def _resolve_seed(args_seed, env: dict, scenario_seed: int) -> int:
    if args_seed is not None:
        return check_seed(args_seed, "--seed")
    raw = env.get("RELAYSIM_SEED")
    if raw is None:
        return scenario_seed
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"RELAYSIM_SEED must be an integer, got '{raw}'") from None
    return check_seed(seed, "RELAYSIM_SEED")


def cmd_run(args) -> int:
    spec, stem = _resolve_scenario(args.scenario)
    spec = dataclasses.replace(
        spec,
        seed=_resolve_seed(args.seed, os.environ, spec.seed),
        trials=spec.trials if args.trials is None else args.trials,
    )
    if args.workers > 1:  # the pool's modules load at start-up, not in the sweep
        importlib.import_module("concurrent.futures.process")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before the sweep: an unusable --out fails at once

    rows = run_sweep(spec, workers=args.workers)

    csv_path = out / "results.csv"
    svg_path = out / f"{stem}.svg"
    # the file name's bytes as UTF-8, whatever the locale decoded them to
    title = os.fsencode(stem).decode("utf-8", "replace")
    _replace_atomically(
        {
            csv_path: lambda tmp: write_results_csv(rows, tmp),
            svg_path: lambda tmp: emit_plot(rows, tmp, title=title),
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


def _message(exc: Exception) -> str:
    """str(exc), except that an OSError names its files as they are
    rather than by repr, which would spell a name that the locale
    decoded to surrogate escapes as those escapes."""
    if isinstance(exc, OSError) and isinstance(exc.filename, str):
        names = " -> ".join(f"'{name}'" for name in (exc.filename, exc.filename2)
                           if name is not None)
        return f"[Errno {exc.errno}] {exc.strerror}: {names}"
    return str(exc)


def _print_error(exc: Exception) -> None:
    """One `error:` line on stderr in UTF-8, like the output files: a
    file name that the locale decoded to surrogate escapes is written as
    its own bytes."""
    line = f"error: {_message(exc)}\n"
    stream = getattr(sys.stderr, "buffer", None)
    if stream is None:  # a text-only stream, such as an io.StringIO
        sys.stderr.write(line)
    else:
        sys.stderr.flush()
        stream.write(line.encode("utf-8", "surrogateescape"))
        stream.flush()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        _print_error(exc)
        return 2
    except (NumericError, MemoryError) as exc:
        _print_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
