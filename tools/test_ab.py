"""Smoke test of ``tools/ab.py``; not part of the unit tests.

    python3 -m pytest -q tools/test_ab.py

A tree compared with itself (A/A) must give a ratio interval that holds 1,
and a median and interval for every job.
It takes about half a minute on one CPU.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ab(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_a_jobs_interval_holds_one():
    result = _ab("--workload", "atlas", "--rounds", "10")
    assert set(result) == {"ratio", "interval", "rounds", "failed", "jobs"}
    lo, hi = result["interval"]
    assert lo <= 1.0 <= hi
    assert result["rounds"] == 10 and result["failed"] == 0
    # each job has its own interval; with 50 jobs a few A/A intervals miss 1
    # by chance, so only their shape is checked
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    assert list(result["jobs"]) == [job.key for job in workloads.job_list("atlas", 1)]
    assert all(job_lo <= median <= job_hi for median, job_lo, job_hi in result["jobs"].values())


def test_a_a_setup_probe_runs():
    result = _ab("--workload", "certify", "--setup", "--rounds", "3")
    lo, hi = result["interval"]
    assert lo <= result["ratio"] <= hi
    assert result["rounds"] == 3 and result["failed"] == 0
    assert list(result["jobs"]) == ["setup"]
