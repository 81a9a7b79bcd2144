"""The benchmark's own tests: a smoke run of every workload at small N.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import LAYER_UNITS, Span, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def smoke(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                "--scale", "smoke")
    assert out.returncode == 0, out.stderr
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    assert "environment" in lines[0]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out.stderr
    return result["metrics"]


def test_per_layer_names_match_spec():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = smoke(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_metrics(workload):
    metrics = smoke(workload, 1)
    assert {k: v["unit"] for k, v in metrics.items()} == LAYER_UNITS
    value = {k: v["value"] for k, v in metrics.items()}
    assert 0 < value["trace.self_sum_s"] <= value["trace.wall_s"]
    assert value["trace.coverage"] <= 1.0
    runs_kernel = workload != "search"
    assert (value["propagate.kernel.steps"] > 0) == runs_kernel
    assert (value["optimizer.scan.calls"] > 0) == (workload == "search")
    assert (value["noise.traj"] > 0) == (workload == "noise")
    assert (value["opensystem.traj"] > 0) == (workload == "loss")


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "outer", 0.0, 10.0, None, 0),
        Span(1, "mid", 1.0, 6.0, 0, 0),
        Span(2, "inner", 2.0, 5.0, 1, 0),
        Span(3, "mid", 7.0, 8.0, 0, 0),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "ramp", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
