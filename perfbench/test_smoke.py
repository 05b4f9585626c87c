"""Smoke test for the benchmark: every workload at about 30 frames.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FRAMES = 30
SEED = 0  # the default seed, so the recorded output digests are checked too


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--frames", str(FRAMES)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        return
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    spans = [json.loads(line)
             for line in (ROOT / detail["spans"]["path"]).read_text().splitlines()]
    assert len(spans) == detail["spans"]["count"] > 0
    names = {s["name"] for s in spans}
    for module in ("io", "model", "tracker", "assignment", "metrics", "losses",
                   "report", "synth", "cli"):
        assert any(n.split(".", 1)[0] == module for n in names), module
    for span in spans:
        assert {"name", "start_ns", "end_ns", "parent"} <= set(span)
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
