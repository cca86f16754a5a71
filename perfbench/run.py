"""Benchmark of the ``invpack`` library: one command per workload run.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

Runs the workload's seeded job list back to back in this process (a closed
loop with one client, ``generate(threads=1)``), as many times as its
estimated pass time fits in ``--seconds``, and checks every job's output,
right after the job, against the generate contract and the record in
``perfbench/expected.json``.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the list once plain and once with every traced ``invpack`` function
wrapped, and reports the per-layer metrics and the tracing overhead.  A
human-readable report comes first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the host and every job, is written to
``perfbench/results/``.  See ``perfbench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
EXPECTED = BENCH / "expected.json"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# never start another pass once this much of a run has gone
RUN_CAP_S = 120.0

# Time, in a fresh interpreter, to import invpack and build the named
# configurations; prints the seconds.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import invpack
from invpack import arithmetic, configs, engine, render, symmetry, wallpaper
for name in sys.argv[2:]:
    configs.make_config(name)
print(time.perf_counter() - t0)
"""


def pin_blas_threads() -> None:
    """One BLAS thread: the load is one client."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def pin_cpu() -> None:
    """Keep the process and its children on the first usable CPU.  On a
    two-vCPU host the vCPUs can run at different speeds, so a process that
    migrates between them has bimodal run times."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_invpack() -> None:
    """Import invpack from this checkout's src/, or fail."""
    if not (SRC / "invpack" / "__init__.py").is_file():
        raise SystemExit(f"error: no invpack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import invpack

    if Path(invpack.__file__).resolve().parent != SRC / "invpack":
        raise SystemExit(f"error: imported invpack from {invpack.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# host


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_info() -> Dict[str, object]:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# running


@dataclass
class JobRun:
    """What a run keeps of one job: its time, its size and its problems.
    The output itself is checked and dropped before the next job starts, so
    that the process's peak memory is the library's, not the benchmark's."""

    key: str
    seconds: float
    gen_s: float = 0.0
    circles: int = 0
    error: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


def measure_setup(config_names: List[str], probes: int) -> List[float]:
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), *config_names],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_job(job, records: Dict[str, dict], seed: int, tracer=None,
            corrupt: Optional[Callable[[object], None]] = None) -> JobRun:
    """Run one job on fresh configurations, then check its output outside
    the timed region (and outside the trace)."""
    import workloads

    if tracer is not None:
        tracer.install()
    try:
        inputs = workloads.job_inputs(job)
        t0 = time.perf_counter()
        try:
            out = job.run(inputs)
            error = out.rt_error
        except Exception as err:  # a failing job is counted, not fatal
            out = None
            error = "".join(traceback.format_exception_only(type(err), err)).strip()
        seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    run = JobRun(job.key, seconds, error=error)
    if out is not None:
        if corrupt is not None:
            corrupt(out)
        run.gen_s, run.circles = out.gen_s, out.circles
        run.problems = workloads.check_output(
            job, out, inputs[job.configs[0]], records.get(job.key), seed
        )
    return run


def run_pass(jobs, records: Dict[str, dict], seed: int, tracer=None,
             corrupt: Optional[Callable[[object], None]] = None):
    """Run and check every job once; returns the job runs and the wall time
    of the jobs alone.  ``corrupt``, if given, alters the first output."""
    runs = []
    for job in jobs:
        runs.append(run_job(job, records, seed, tracer, corrupt))
        corrupt = None
    return runs, sum(r.seconds for r in runs)


def percentile(values: List[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    runs: List[JobRun]
    metrics: Dict[str, Dict[str, object]]
    details: Dict[str, object]

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.runs)

    @property
    def correct(self) -> bool:
        """No output was wrong.  Jobs that raised (such as a from_json that
        rejects its own to_json) are failures, but not wrong outputs."""
        return not any(r.problems for r in self.runs)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False,
                 corrupt: Optional[Callable[[object], None]] = None) -> Result:
    started = time.perf_counter()
    import workloads

    records = json.loads(EXPECTED.read_text())["jobs"]
    jobs = workloads.job_list(workload, seed)
    if smoke:
        jobs = workloads.smoke_jobs(workload, jobs)
    setup = measure_setup(workloads.configs_used(jobs), 1 if smoke else SETUP_PROBES)

    # The pass count comes from a fixed estimate of the pass time, not from
    # this run's speed, so that neither a slow moment nor the code under test
    # can change it.
    planned = 1 if trace or smoke else max(1, round(seconds / workloads.PASS_S[workload]))
    passes: List[List[JobRun]] = []
    walls: List[float] = []
    peak_rss_mb = None
    while len(passes) < planned and time.perf_counter() - started < RUN_CAP_S:
        pass_runs, wall = run_pass(jobs, records, seed, corrupt=corrupt)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        corrupt = None
        passes.append(pass_runs)
        walls.append(wall)
    runs = [r for p in passes for r in p]

    details: Dict[str, object] = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_probe_s": setup,
        "jobs_per_pass": len(jobs),
    }
    if trace:
        import numpy as np
        import tracing

        tracer = tracing.Tracer()
        traced_runs, traced_wall = run_pass(jobs, records, seed, tracer)
        runs += traced_runs
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = {"value": traced_wall - walls[0], "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.start), "unit": "count"}
        details.update(traced_wall_s=traced_wall, untraced_wall_s=walls[0])
        RESULTS.mkdir(exist_ok=True)
        np.savez_compressed(
            RESULTS / f"{workload}-seed{seed}-spans.npz",
            names=np.array(tracer.names), **tracer.arrays(),
        )
    else:
        # each job's time is its median over the passes
        job_times = [statistics.median(p[i].seconds for p in passes) for i in range(len(jobs))]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "circles_per_s": {"value": statistics.median(_circle_rate(p) for p in passes), "unit": "1/s"},
            "job_p50_s": {"value": percentile(job_times, 50), "unit": "s"},
            "job_p80_s": {"value": percentile(job_times, 80), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    details["error_rate"] = sum(r.failed for r in runs) / len(runs)
    return Result(workload, seed, trace, runs, metrics, details)


def _circle_rate(runs: List[JobRun]) -> float:
    """Circles returned by generate per second spent inside it."""
    gen_s = sum(r.gen_s for r in runs)
    return sum(r.circles for r in runs) / gen_s if gen_s > 0 else 0.0


# ---------------------------------------------------------------------------
# reporting


def report(result: Result, host: Dict[str, object]) -> None:
    d = result.details
    print(f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}  "
          f"passes {d['passes']}  jobs/pass {d['jobs_per_pass']}")
    print("host " + json.dumps(host, sort_keys=True))
    width = max(len(m) for m in result.metrics)
    for name, m in result.metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<{width}}  {d['error_rate']:.4f} ratio "
          f"({result.failed}/{result.attempted} jobs failed)")
    if not result.trace:
        print(f"  job percentiles over {d['jobs_per_pass']} jobs, each the median "
              f"of its {d['passes']} pass(es)")
    shown = 0
    for run in result.runs:
        if run.failed and shown < 12:
            why = run.error or "; ".join(run.problems[:3])
            print(f"  failed {run.key}: {why[:200]}")
            shown += 1


def write_result(result: Result, host: Dict[str, object]) -> None:
    RESULTS.mkdir(exist_ok=True)
    doc = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "host": host,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
        "details": result.details,
        "jobs": [
            {
                "key": r.key,
                "seconds": r.seconds,
                "circles": r.circles,
                "error": r.error,
                "problems": r.problems,
            }
            for r in result.runs
        ],
    }
    path = RESULTS / f"{result.workload}-seed{result.seed}-trace{int(result.trace)}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lattice_deep", "atlas", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one pass of one or two small jobs (for the smoke test)")
    args = parser.parse_args(argv)

    pin_blas_threads()
    pin_cpu()
    load_invpack()
    sys.path.insert(0, str(BENCH))
    host = host_info()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    report(result, host)
    write_result(result, host)
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
