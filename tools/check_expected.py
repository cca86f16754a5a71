"""Check every benchmark job's output against ``perfbench/expected.json``.

    python3 tools/check_expected.py [WORKLOAD ...]

Runs the universe of each named workload (``lattice_deep``, ``atlas``,
``certify``; all three when none is named), every job any seed can draw,
and applies ``workloads.check_output`` to each: the generate contract, the
JSON round trip, and the recorded circle count and sha256.  Prints each
failing job key with its problems and exits 1 if any job fails.  A full run
takes about a minute on one CPU, so it is not part of the unit tests.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


def main(argv: list) -> int:
    run.pin_blas_threads()
    run.load_invpack()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; expected some of {workloads.WORKLOADS}")
        return 2
    records = json.loads(run.EXPECTED.read_text())["jobs"]
    t0 = time.perf_counter()
    checked = failed = 0
    for name in names:
        for job in workloads.universe(name):
            inputs = workloads.job_inputs(job)
            try:
                out = job.run(inputs)
            except Exception as err:  # a raising job is a failure, not the end
                problems = [f"raised {type(err).__name__}: {err}"]
            else:
                problems = workloads.check_output(
                    job, out, inputs[job.configs[0]], records.get(job.key), 0
                )
                if out.rt_error:
                    problems.append(out.rt_error)
            checked += 1
            if problems:
                failed += 1
                print(f"FAIL {job.key}: {'; '.join(problems[:3])}", flush=True)
    print(f"{checked - failed}/{checked} jobs match {run.EXPECTED.name} "
          f"({time.perf_counter() - t0:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
