"""Record the expected output of every job any seed can draw.

    python3 perfbench/record.py

For each job it stores the circle count and the sha256 of its output (the
``to_json`` text of a packing, or the summary of a checking routine) in
``perfbench/expected.json``.  Jobs run one at a time, pinned to one CPU as
in a benchmark run.  Re-run this only at a commit whose outputs are known to
be right, since the benchmark counts every later difference as a failed job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main() -> int:
    run.pin_blas_threads()
    run.pin_cpu()
    run.load_invpack()
    import workloads

    jobs = [job for w in workloads.WORKLOADS for job in workloads.universe(w)]
    records = {}
    for done, job in enumerate(jobs, 1):
        inputs = workloads.job_inputs(job)
        out = job.run(inputs)
        problems = workloads.check_output(job, out, inputs[job.configs[0]],
                                          {"sha256": out.digest()}, 0)
        if out.rt_error:
            problems.append(out.rt_error)
        records[job.key] = {
            "circles": out.circles if isinstance(job, workloads.GenJob) else None,
            "sha256": out.digest(),
        }
        note = f"  PROBLEMS: {problems[:3]}" if problems else ""
        print(f"[{done}/{len(jobs)}] {job.key}{note}", flush=True)
    doc = {"host": run.host_info(), "jobs": dict(sorted(records.items()))}
    run.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
