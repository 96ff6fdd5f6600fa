"""The README's Python blocks run as written, and its config example loads."""

import pathlib
import re

import pytest

from grclab.cli import load_config, main
from grclab.model import Design

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
CONFIGS = re.findall(r"```ini\n(.*?)```", TEXT, re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md block {index}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_readme_config_loads(tmp_path, capsys):
    assert len(CONFIGS) == 1
    out = tmp_path / "sweep.csv"
    text, count = re.subn(r"^output = \S+", f"output = {out}", CONFIGS[0], flags=re.M)
    assert count == 1
    path = tmp_path / "sweep.cfg"
    path.write_text(text, encoding="utf-8")
    config = load_config(str(path))
    assert config.instance.design is Design.GAUSSIAN
    assert config.instance.d == 200
    assert config.n_values == (100, 316, 1000, 5000)
    assert config.n == 5000
    assert config.k_values == (0, 1, 2, 5, 10, 15)
    assert [a.label for a in config.algorithms] == ["ocl", "joint", "l2rcl:0.1", "grcl:topk:5"]
    assert (config.reps, config.seed, config.output_path) == (20, 1, str(out))
    assert main(["verify", "--config", str(path), "--suite", "lemmas"]) == 0
    assert capsys.readouterr().out.endswith("OK: 0 failing check(s)\n")
