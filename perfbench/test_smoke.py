"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced at ``--scale 0.05`` and checks that
each metric BENCHMARK.json names is emitted, that each stage rate is
positive on the workloads that run its stage, and the layer activity each
workload is built to show.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# per-layer stage rates and the workloads that run their stages
STAGE_RATES = {
    "fetch_first_urls_per_s": {"pipeline-lan", "fetch-wan"},
    "fetch_urls_per_s": {"pipeline-lan", "fetch-wan"},
    "rehydrate_records_per_s": {"pipeline-lan", "fetch-wan"},
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, 0)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = run(workload, 1)
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    value = {k: v["value"] for k, v in metrics.items()}
    for name, workloads in STAGE_RATES.items():
        assert (value[name] > 0) == (workload in workloads), name
    assert value["cli.startup_s"] > 0
    assert "trace_overhead_share" in value
    if workload == "index-offline":
        assert value["client.requests"] == 0
        assert value["mockserver.requests"] == 0
        assert value["error_share"] == 0
    if workload == "fetch-wan":
        assert value["client.retries"] > 0
        assert value["mockserver.faults_served"] > 0
        assert value["error_share"] > 0
    if workload == "pipeline-lan":
        assert value["client.retries"] == 0
        assert value["error_share"] == 0
