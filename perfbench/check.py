"""Output checks for one `relaysim run`: the results.csv it wrote.

Stdlib only, so the harness can check outputs without importing the
program it measures. `check_results` returns a list of problems; an
empty list means the output is correct.

Checks that hold for any seed:
  * the header is the fixed CSV schema;
  * one row per (sweep point, series), axis-major, series in order;
  * every value parses and every float is finite, means and stderrs >= 0;
  * the trials and seed columns echo what the run was asked for;
  * at every point each scheme's mean is at most the upper-bound mean.
    The cut-set bound caps every trial's capacity, and rounding is
    monotone, so the mean obeys it too whatever the seed.

At the reference seed the rows must also match a reference captured
from the program: every non-float column byte for byte, and means and
stderrs within REL_TOL. That lets last-bit reorders of the arithmetic
through and fails any change of the model.
"""

from __future__ import annotations

import math

COLUMNS = (
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
FLOAT_COLUMNS = ("axis_value", "pnr_db", "qnr_db", "alpha")
STAT_COLUMNS = ("capacity_mean_bits", "capacity_stderr_bits")
INT_COLUMNS = ("m", "n", "k", "trials", "seed")
UPPER_BOUND = "upper-bound"
REL_TOL = 1e-9


def parse_csv(text: str) -> tuple[list, list]:
    """(header, rows) of a results.csv; rows are lists of strings."""
    if not text.endswith("\n"):
        raise ValueError("file does not end with a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_results(
    text: str,
    points: list,
    series: list,
    trials: int,
    seed: int,
    reference: str | None = None,
) -> list:
    """Problems found in one results.csv, as one-line strings.

    points are the sweep's axis values, series the expected scheme labels
    (upper bound last). reference is the reference CSV text, given only
    when the run used the reference seed.
    """
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    if tuple(header) != COLUMNS:
        return [f"header {header} != {list(COLUMNS)}"]
    expected = len(points) * len(series)
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected} (points x series)"]

    problems = []
    records = []
    for i, row in enumerate(rows):
        where = f"row {i + 1}"
        if len(row) != len(COLUMNS):
            problems.append(f"{where}: {len(row)} fields, expected {len(COLUMNS)}")
            continue
        rec = dict(zip(COLUMNS, row))
        try:
            nums = {c: float(rec[c]) for c in FLOAT_COLUMNS + STAT_COLUMNS}
            ints = {c: int(rec[c]) for c in INT_COLUMNS}
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        bad = [c for c, v in nums.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite {', '.join(bad)}")
            continue
        point, label = points[i // len(series)], series[i % len(series)]
        if rec["scheme"] != label:
            problems.append(f"{where}: series {rec['scheme']!r}, expected {label!r}")
        if nums["axis_value"] != float(point):
            problems.append(f"{where}: axis value {rec['axis_value']}, expected {point}")
        if ints["trials"] != trials or ints["seed"] != seed:
            problems.append(
                f"{where}: trials/seed {ints['trials']}/{ints['seed']}, "
                f"expected {trials}/{seed}"
            )
        for c in STAT_COLUMNS:
            if nums[c] < 0:
                problems.append(f"{where}: {c} {nums[c]} < 0")
        records.append((i, rec, nums))
    if problems:
        return problems

    for start in range(0, len(records), len(series)):
        block = records[start : start + len(series)]
        bound = {r["scheme"]: n for _, r, n in block}.get(UPPER_BOUND)
        if bound is None:
            continue
        for i, rec, nums in block:
            mean = nums["capacity_mean_bits"]
            if mean > bound["capacity_mean_bits"]:
                problems.append(
                    f"row {i + 1}: {rec['scheme']} mean {mean} exceeds the upper "
                    f"bound {bound['capacity_mean_bits']} at {rec['axis_value']}"
                )

    if reference is not None:
        problems += _match_reference(rows, reference)
    return problems


def _match_reference(rows: list, reference: str) -> list:
    _, ref_rows = parse_csv(reference)
    if len(ref_rows) != len(rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, got, want in zip(COLUMNS, row, ref):
            if col in STAT_COLUMNS:
                g, w = float(got), float(want)
                if abs(g - w) > REL_TOL * abs(w):
                    problems.append(
                        f"row {i + 1}: {col} {got} differs from reference {want} "
                        f"by more than {REL_TOL:g} relative"
                    )
            elif got != want:
                problems.append(f"row {i + 1}: {col} {got!r} != reference {want!r}")
    return problems
