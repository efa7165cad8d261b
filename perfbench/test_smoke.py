"""Smoke test for the benchmark: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.  It
checks that one command emits every metric named in ``BENCHMARK.json``
with its unit, that no reply is wrong, that simulated metrics and program
counters repeat exactly for a seed, and that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    out = _run(workload, trace)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    assert "error_rate = 0.0 failed/attempted" in out.stdout
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _exact(result: dict) -> dict:
    """The metrics a deterministic simulation must repeat bit for bit."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes", "kcycles")
            or name.startswith("sim.share.") or name.endswith("hit_ratio")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    first = _result(workload, 0)
    assert _units(first) == {m["name"]: m["unit"]
                             for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert _exact(_result(workload, 0)) == _exact(first)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    first = _result(workload, 1)
    assert _units(first) == {m["name"]: m["unit"]
                             for m in BENCHMARK["per_layer"]}
    assert first["metrics"]["sdk.ecall.calls"]["value"] > 0
    assert _exact(_result(workload, 1)) == _exact(first)


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
