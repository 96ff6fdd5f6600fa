"""The README's Python blocks run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
