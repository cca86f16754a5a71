"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs its smoke jobs once per trace setting; the test checks
that every metric named in BENCHMARK.json is emitted with its unit, that a
corrupted output is counted as a failed job, and that the benchmark refuses
to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert "error_rate" in proc.stdout


def test_corrupted_output_is_counted_in_error_rate():
    import run

    run.pin_blas_threads()
    run.load_invpack()
    sys.path.insert(0, str(run.BENCH))

    def drop_a_circle(output):
        output.packing.circles.pop()

    result = run.run_workload("atlas", 2, 1.0, False, smoke=True, corrupt=drop_a_circle)
    assert result.runs[0].problems
    assert not result.correct
    assert result.failed >= 1
    assert result.details["error_rate"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
