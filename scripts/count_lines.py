#!/usr/bin/env python3
"""Print each Python file's executable-line count and their total.

A line is executable when a token other than a comment starts on it or
a multi-line token spans it; blank lines, comments and the docstrings of
modules, classes and functions do not count. With no paths the files
are src/relaysim/*.py.

    python3 scripts/count_lines.py [paths]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers that the docstrings of the module and of each
    class and function span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            string = node.body[0]
            lines.update(range(string.lineno, string.end_lineno + 1))
    return lines


def executable_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    if not paths:
        paths = sorted(Path(__file__).resolve().parents[1].glob("src/relaysim/*.py"))
    total = 0
    for path in paths:
        count = executable_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
