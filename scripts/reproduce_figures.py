#!/usr/bin/env python3
"""Run every bundled sweep scenario and collect the CSV/SVG outputs.

Each scenario lands in its own subdirectory of --out. Every other
argument is passed on to `relaysim run` (--trials, --workers, --seed).
With default trial counts (10^4) fig2-fig6 take about 10 s on one core
of a 2-vCPU machine with one BLAS thread; pass --trials for a quick
look.
"""

import argparse
import sys
import time

from relaysim.cli import main as relaysim_main
from relaysim.scenario import list_bundled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="parent output directory")
    args, run_args = parser.parse_known_args(argv)

    for name in list_bundled():
        started = time.perf_counter()
        code = relaysim_main(["run", name, "--out", f"{args.out}/{name}", *run_args])
        if code != 0:
            return code
        print(f"{name} finished in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
