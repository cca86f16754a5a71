"""A tier-1 sample of the benchmark's recorded outputs.

Every job of the ``certify``, ``atlas`` and ``lattice_deep`` workloads at
window offset (0, 0) runs as the benchmark runs it and is checked by
``workloads.check_output`` against its count and sha256 in
``perfbench/expected.json``.  ``certify`` gives the relation sweeps, whose
instances come from ``Configuration.circle_from_id``, wallpaper
classification, validation, trivial intersection and the integrality
packing; ``atlas`` gives every built-in and wallpaper cell on both lanes,
exact and float; ``lattice_deep`` gives the four deep cells, exact and
float.  ``tools/check_expected.py`` checks every job of every workload.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    """``perfbench/workloads.py`` as the module ``workloads``, which its
    dataclasses look up while it loads."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = sys.modules.setdefault("workloads", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
CERTIFY, ATLAS, DEEP = ({job.key: job for job in workloads.universe(workload)
                         if getattr(job, "offset", (0, 0)) == (0, 0)}
                        for workload in ("certify", "atlas", "lattice_deep"))
JOBS = {**CERTIFY, **ATLAS, **DEEP}


@pytest.fixture(scope="module")
def records():
    return json.loads((BENCH / "expected.json").read_text())["jobs"]


def test_sample_covers_every_certify_check():
    heads = {key.split("|")[0] for key in CERTIFY}
    assert heads == {"sweep", "classify", "validate", "trivial", "integrality"}


def test_sample_covers_every_atlas_cell():
    assert {job.cell for job in workloads.universe("atlas")} == {job.cell for job in ATLAS.values()}
    assert {job.exact for job in ATLAS.values()} == {True, False}


def test_sample_covers_every_deep_cell():
    assert {job.cell for job in workloads.universe("lattice_deep")} == {job.cell for job in DEEP.values()}
    assert len(DEEP) == 4 and {job.exact for job in DEEP.values()} == {True, False}


@pytest.mark.parametrize("key", sorted(JOBS))
def test_job_matches_its_record(key, records):
    job = JOBS[key]
    inputs = workloads.job_inputs(job)
    out = job.run(inputs)
    problems = workloads.check_output(job, out, inputs[job.configs[0]], records.get(key), 0)
    assert problems == []
    assert out.rt_error is None
