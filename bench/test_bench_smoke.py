"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

Runs ``bench/run.py`` in a subprocess, so the benchmark's fresh imports and
rebinding never touch this test process.  Asserts metric names, units and
that every cover passes; asserts no timings.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # fail_frac == 0
    assert result["correct"] is True
    if trace == 0:
        assert "fail_frac" in proc.stdout


def test_bare_directory_exits_nonzero(tmp_path):
    """Without src/ next to it the benchmark must refuse to run."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cli-routes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
