"""scripts/count_lines.py, the executable-line count of the package."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAIN = runpy.run_path(str(ROOT / "scripts" / "count_lines.py"))["main"]

# 11 executable lines: docstrings, comments and blank lines do not
# count, and a multi-line expression or string counts every line it spans
SOURCE = '''\
"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def total(x):
    """A function docstring."""

    # a comment inside the body
    value = (x +
             1)
    return value


class Holder:
    """A class docstring
    over two lines."""

    value = total(
        2,
    )
    text = """one
two"""
'''


def test_counts_the_executable_lines_of_a_file(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert MAIN([str(path)]) == 0
    assert capsys.readouterr().out == f"    11  {path}\n    11  total\n"


def test_no_paths_counts_the_package(capsys):
    assert MAIN([]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(line.split(maxsplit=1)[0]) for line in lines]
    names = [line.split(maxsplit=1)[1] for line in lines]
    assert names == [str(p) for p in sorted((ROOT / "src" / "relaysim").glob("*.py"))] + ["total"]
    assert counts[-1] == sum(counts[:-1]) > 0
