"""README examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs_as_written(capsys):
    section = README.read_text().split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    mean, stderr, bound = map(float, capsys.readouterr().out.split())
    assert 0 < mean < bound and stderr > 0
