"""Smoke test of the benchmark itself.

Kept out of the default test collection because it starts about twenty
interpreters and takes half a minute. Run it from the repository root:

    python3 -m pytest -q perfbench/smoke_check.py
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run

    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_bundle_counts_as_failed_op(bench, monkeypatch, workload):
    import indexlab
    import workloads

    reproduce_all = indexlab.reproduce_all

    def corrupted(*args, **kwargs):
        bundle = reproduce_all(*args, **kwargs)
        bundle.tables["T4"]["r"][1][0] += 0.01
        return bundle

    monkeypatch.setattr(indexlab, "reproduce_all", corrupted)
    loop = bench.measure(workloads.WORKLOADS[workload], seed=7, seconds=0, min_ops=2)
    assert len(loop.times) == 2
    assert [index for index, _ in loop.failures] == [0, 1]
    assert all("T4" in " ".join(errors) or "golden" in " ".join(errors)
               for _, errors in loop.failures)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
