"""Smoke test of the benchmark at a tiny size.

    python -m pytest perfbench/test_smoke.py

Every workload runs for one second on the default seed, untraced and traced.
Each run must print every metric that BENCHMARK.json names, with its unit,
and no item may fail its oracle or its committed digest.
"""

import json
import os
import subprocess

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, trace):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_unit_and_no_errors(workload, trace):
    run, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, [item for item in run["items"] if not item["ok"]][:3]
    assert result["correct"] is True
    assert run["error_rate"] == 0
    assert run["seed"] == 0 and run["nproc"] >= 1 and run["python"]
    assert all({"class", "size", "ms"} <= set(item) for item in run["items"])
