"""Smoke run of every workload at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Checks the output contract (every metric named in BENCHMARK.json, with
its unit), that fail_frac and wrong_frac are 0, that traced counts
repeat for a seed, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert report["metrics"]["fail_frac"]["value"] == 0.0
    assert report["metrics"]["wrong_frac"]["value"] == 0.0
    return result, report


def assert_metrics(metrics: dict, spec: list) -> None:
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in metrics.values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, report = parse(bench(ROOT, workload, 0))
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    assert report["rounds"] * report["distinct_requests"] == result["attempted"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_counts_repeat(workload):
    first, report = parse(bench(ROOT, workload, 1))
    assert_metrics(first["metrics"], SPEC["per_layer"])
    assert report["counts_repeat"] is True
    second, _ = parse(bench(ROOT, workload, 1))
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert second["metrics"][name]["value"] == m["value"], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
