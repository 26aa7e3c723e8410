"""Run `relaysim` from the source tree and record when its sweep ran.

    python3 perfbench/launch.py MARKS_FILE run fig2 --trials 2048 ...

Everything after MARKS_FILE is passed to `relaysim.cli.main`, exactly
as the `relaysim` command would. The only addition is a wrapper around
the `run_sweep` name the CLI calls, which reads CLOCK_MONOTONIC when the
sweep starts and ends and writes both to MARKS_FILE as JSON. That clock
is shared by all processes on the host, so the harness can subtract
its own launch time from them.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_cli():
    """relaysim.cli from SRC, refusing a copy installed anywhere else."""
    if not (SRC / "relaysim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no relaysim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relaysim.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported relaysim from {cli.__file__}, not {SRC}")
    return cli


def main(argv: list) -> int:
    marks_path, cli_args = argv[0], argv[1:]
    cli = import_cli()
    sweep = cli.run_sweep
    marks = {}

    def timed_sweep(spec, *args, **kwargs):
        marks["sweep_start"] = now()
        rows = sweep(spec, *args, **kwargs)
        marks["sweep_end"] = now()
        marks["points"] = len(spec.values)
        marks["trials"] = spec.trials
        return rows

    cli.run_sweep = timed_sweep
    code = cli.main(cli_args)
    Path(marks_path).write_text(json.dumps(marks))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
