"""Smoke test of ``tools/ab.py``; not part of the unit tests.

    python3 -m pytest -q tools/test_ab.py

A tree compared with itself (A/A) must give a ratio interval that holds 1,
and a median and interval for every job.  A copy of the tree whose one job
busy-waits 5% longer must be resolved as slower on that job alone.
It takes about a minute and a half on one CPU.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# appended to a copy's perfbench/workloads.py: the job keyed SLOW waits,
# after its own work, 5% of the time that work took
DELAY = """
def _delayed(run):
    def timed(self, cfgs):
        t0 = time.perf_counter()
        out = run(self, cfgs)
        end = time.perf_counter() + 0.05 * (time.perf_counter() - t0)
        while self.key == SLOW and time.perf_counter() < end:
            pass
        return out
    return timed


SLOW = {key!r}
GenJob.run = _delayed(GenJob.run)
"""


def _ab(*args: str, change: Path = ROOT) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(change), *args],
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


def test_seeded_delay_is_resolved_on_its_job(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    keys = [job.key for job in workloads.job_list("lattice_deep", 1)]
    slow = keys[0]
    copy = tmp_path / "tree"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", "results"))
    with open(copy / "perfbench" / "workloads.py", "a") as f:
        f.write(DELAY.format(key=slow))
    result = _ab("--workload", "lattice_deep", "--rounds", "20", change=copy)
    assert result["failed"] == 0 and list(result["jobs"]) == keys
    slower = [key for key, (_, lo, _) in result["jobs"].items() if lo > 1.0]
    assert slower == [slow], result["jobs"]
