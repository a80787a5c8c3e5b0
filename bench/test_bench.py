"""The benchmark's own test: every workload on small inputs, all checks on.

    python3 -m pytest -q bench/test_bench.py

Each workload runs once untraced and once traced.  A run must pass every
check with no failed operation, and print exactly the metric names that
BENCHMARK.json lists.  desk-trg keeps its full size: its slot-accuracy
checks need models trained that far.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0, out.stderr
    assert result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    """With only the benchmark's files present it exits non-zero, silently."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-trg", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
