"""The benchmark's own test: every workload at tiny size, through the real command.

    python3 -m pytest -q bench/test_bench.py

It checks that each end-to-end metric is printed by name with its unit, that
the traced run prints every per-layer metric BENCHMARK.json lists and that
its wrapped calls cover nearly all of the traced wall time, that a
perturbed recorded value is caught as failed_share > 0, and that the command
refuses to print numbers when the package is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# The end-to-end metrics each workload prints, with their units.
PRINTED = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}
LATENCY = {
    "search_deep": {"item_p50_ms": "ms"},
    "fuzz_campaign": {},
    "audit_export": {"item_p50_ms": "ms", "item_p90_ms": "ms"},
}


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["metric"]:
            out[parts[1]] = parts[3]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = bench(workload, "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert printed_metrics(proc.stdout) == {**PRINTED, **LATENCY[workload]}
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_trace_prints_every_per_layer_metric(workload):
    proc = bench(workload, "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    layer_sum = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert layer_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    # The sum holds by construction; coverage shows in how little is left to
    # `bench`, the time no wrapped call accounts for, and in no absent layer.
    assert metrics["bench.share"] < 0.05
    assert "trace absent layers: none; missing names: none" in proc.stdout
    assert "tracing overhead" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_record_counts_as_failed(workload):
    proc = bench(workload, "--trace", "0", "--smoke", "--perturb")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    share = [line.split() for line in proc.stdout.splitlines() if line.startswith("metric failed_share ")]
    assert float(share[0][2]) > 0
    assert "first difference: item 0" in proc.stdout


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
