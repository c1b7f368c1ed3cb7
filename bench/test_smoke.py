"""Smoke test of the benchmark itself: a tiny run of every workload,
untraced and traced. It checks the output schema, the metric names and
units against BENCHMARK.json, and the repeatability of the traced counts;
it sets no timing bounds. Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess

import pytest

from tracing import COUNTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(SPEC["command"] + args, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_reports_every_metric(workload, trace):
    out = _result(_run(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    for name, metric in out["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"]), name


def test_traced_counts_repeat_across_runs():
    first, second = (_result(_run("predict", 1))["metrics"] for _ in range(2))
    assert {c: first[c] for c in COUNTS} == {c: second[c] for c in COUNTS}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("predict", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
