"""Paired, interleaved A/B timing of two source trees on one CPU.

    python3 tools/ab.py PARENT CHANGE --workload certify --rounds 20 [--seed 1]
    python3 tools/ab.py PARENT CHANGE --workload certify --setup --rounds 30

PARENT and CHANGE are checkouts, each with ``src/`` and ``perfbench/``.  One
worker process per tree imports that tree's ``invpack`` and benchmark, and
both are pinned to the same CPU (``--cpu``, by default the first usable one).
Each worker first runs one untimed warm-up pass of the job list.  Then a
round runs every job of the workload's seeded list once on each side, one
job at a time, alternating between the workers; which side goes first flips
with every job and every round, so drift in the host's speed falls on both
sides alike.  A job is ``perfbench/run.py``'s ``run_job``: fresh
configurations built outside the job's clock, and the output checked with
``workloads.check_output`` after it.  With ``--setup`` a round is instead one
run of ``run.py``'s set-up probe per side, on the configurations the job list
uses.

Each round gives the ratio change/parent of its summed times.  The report is
the median of those ratios with a bootstrap 95% interval, each side's median
round time, and with jobs, the median ratio of each job over the rounds with
its own bootstrap 95% interval.  The last line of standard output is one JSON
object with the keys ``ratio``, ``interval``, ``rounds``, ``failed`` and
``jobs``, which maps each job key (or "setup") to [median, lo, hi].  The exit
status is 1 when any output fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BOOTSTRAP = 2000


def _problems(job) -> List[str]:
    return ([job.error] if job.error else []) + job.problems


def worker(tree: Path, workload: str, seed: int) -> None:
    """Serve one tree: run a warm-up pass and print the job keys and the
    pass's failed outputs, then answer each request line ("setup", or a
    job index) with a JSON line of its seconds and problems."""
    sys.path.insert(0, str(tree / "perfbench"))
    import run

    run.pin_blas_threads()
    run.load_invpack()
    import workloads

    records = json.loads(run.EXPECTED.read_text())["jobs"]
    jobs = workloads.job_list(workload, seed)
    warm, _ = run.run_pass(jobs, records, seed)
    failed = [f"{j.key}: {'; '.join(_problems(j))}" for j in warm if j.failed]
    print(json.dumps({"keys": [j.key for j in jobs], "failed": failed}), flush=True)
    for line in sys.stdin:
        if line.strip() == "setup":
            reply = {"s": run.measure_setup(workloads.configs_used(jobs), 1)[0], "problems": []}
        else:
            job = run.run_job(jobs[int(line)], records, seed)
            reply = {"s": job.seconds, "problems": _problems(job)}
        print(json.dumps(reply), flush=True)


class Side:
    """A worker process serving one tree."""

    def __init__(self, tree: Path, workload: str, seed: int) -> None:
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree), "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        hello = json.loads(self._read())
        self.keys, self.warm_failed = hello["keys"], hello["failed"]
        for problem in self.warm_failed:
            print(f"  FAIL {tree} warm-up {problem[:200]}")

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: the worker for {self.tree} stopped")
        return line

    def ask(self, request: str) -> Tuple[float, List[str]]:
        self.proc.stdin.write(request + "\n")
        reply = json.loads(self._read())
        return reply["s"], reply["problems"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def interval(ratios: Sequence[float]) -> Tuple[float, float]:
    """Bootstrap 95% interval of the median of the ratios, on a fixed seed."""
    rng = random.Random(0)
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP))
    return meds[int(0.025 * BOOTSTRAP)], meds[int(0.975 * BOOTSTRAP) - 1]


def compare(sides: Sequence[Side], requests: Sequence[str], rounds: int):
    """Per-round (parent, change) times, per-request ratios and failed
    outputs."""
    totals_by_round: List[Tuple[float, float]] = []
    per_request: Dict[str, List[float]] = {r: [] for r in requests}
    failed = 0
    for r in range(rounds):
        totals = [0.0, 0.0]
        for i, request in enumerate(requests):
            times = [0.0, 0.0]
            for side in ((0, 1) if (i + r) % 2 == 0 else (1, 0)):
                times[side], problems = sides[side].ask(request)
                if problems:
                    failed += 1
                    print(f"  FAIL {sides[side].tree} {request}: {'; '.join(problems)[:200]}")
            totals = [totals[0] + times[0], totals[1] + times[1]]
            per_request[request].append(times[1] / times[0])
        totals_by_round.append((totals[0], totals[1]))
        print(f"round {r + 1}: parent {totals[0]:.4f} s  change {totals[1]:.4f} s  "
              f"ratio {totals[1] / totals[0]:.4f}", flush=True)
    return totals_by_round, per_request, failed


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--workload", required=True, choices=("lattice_deep", "atlas", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--setup", action="store_true", help="alternate the set-up probe, not the jobs")
    parser.add_argument("--cpu", type=int, default=min(os.sched_getaffinity(0)))
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker.resolve(), args.workload, args.seed)
        return 0
    if args.parent is None or args.change is None or args.rounds < 1:
        parser.error("give the PARENT and CHANGE trees and at least one round")

    os.sched_setaffinity(0, {args.cpu})  # the workers and their probes inherit it
    sides: List[Side] = []
    try:
        for tree in (args.parent, args.change):
            sides.append(Side(tree.resolve(), args.workload, args.seed))
        if sides[0].keys != sides[1].keys:
            raise SystemExit("error: the two trees draw different job lists")
        requests = ["setup"] if args.setup else [str(i) for i in range(len(sides[0].keys))]
        totals, per_request, failed = compare(sides, requests, args.rounds)
        failed += sum(len(side.warm_failed) for side in sides)
    finally:
        for side in sides:
            side.close()

    ratios = [c / p for p, c in totals]
    lo, hi = interval(ratios)
    what = "set-up probe" if args.setup else f"{len(requests)} jobs a round"
    print(f"{args.workload} seed {args.seed}, {what}, CPU {args.cpu}")
    keys = ["setup"] if args.setup else sides[0].keys
    jobs = {key: [statistics.median(per_request[r]), *interval(per_request[r])]
            for key, r in zip(keys, requests)}
    if not args.setup:
        for key, (median, job_lo, job_hi) in jobs.items():
            print(f"  {median:.4f} [{job_lo:.4f}, {job_hi:.4f}]  {key}")
    print(f"round medians: parent {statistics.median(p for p, _ in totals):.4f} s, "
          f"change {statistics.median(c for _, c in totals):.4f} s")
    print(f"change/parent: median {statistics.median(ratios):.4f}, bootstrap 95% interval "
          f"[{lo:.4f}, {hi:.4f}], {len(ratios)} rounds, {failed} failed outputs")
    print(json.dumps({"ratio": statistics.median(ratios), "interval": [lo, hi],
                      "rounds": len(ratios), "failed": failed, "jobs": jobs}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
