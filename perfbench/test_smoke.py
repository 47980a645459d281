"""Smoke test of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py

Each workload runs on a 0.5 s clip in both modes. The test asserts that
every metric BENCHMARK.json names is printed with its unit, that the
correctness checks ran and passed, and that the benchmark refuses to run
without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

EXPECTED_CHECKS = {
    "far_field": {"reference_finite", "reference_length", "timed_renders_equal_reference"},
    "brute_force": {"brute_force_equals_decimation_1"},
    "dense_images": {"workers_bit_identical"},
}


def run_bench(cwd, workload, trace):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_checks_pass(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        assert any(line.startswith(f"{name} ") for line in lines), name
    checks = {
        line.split()[1].rstrip(":"): line.split()[2]
        for line in lines
        if line.startswith("check ")
    }
    if trace:
        assert checks == {
            "staged_equals_render": "ok",
            "staged_length": "ok",
            "restore_split_matches": "ok",
        }
    else:
        assert EXPECTED_CHECKS[workload] <= set(checks)
        assert set(checks.values()) == {"ok"}


def test_predictions_name_known_metrics():
    with open(os.path.join(HERE, "predictions.json")) as fh:
        rows = json.load(fh)["predictions"]
    layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for row in rows:
        assert set(row["layer"]) <= layer, row
        for workload, metric in row["moves"]:
            assert workload in workloads and metric in e2e, row
    assert layer == {name for row in rows for name in row["layer"]}


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    for trace in (0, 1):
        proc = run_bench(str(tmp_path), "far_field", trace)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
