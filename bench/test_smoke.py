"""Smoke test of the benchmark at tiny sizes (under a minute).

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run(workload, trace, *extra, cwd=ROOT, runner=os.path.join(BENCH, "run.py")):
    proc = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    result = last_json(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_corrupted_reference_cell_counts_as_failed_op(tmp_path):
    shutil.copytree(os.path.join(BENCH, "reference"), tmp_path, dirs_exist_ok=True)
    path = tmp_path / "figure-b.tiny.json"
    reference = json.loads(path.read_text())
    row = reference["rows"][1]  # first data row; column 4 is excess_mean
    row[4] = repr(float(row[4]) * 1.01)
    path.write_text(json.dumps(reference))
    result = last_json(run("figure-b", 0, "--reference-dir", str(tmp_path)))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("figure-b", 0, cwd=tmp_path, runner=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
