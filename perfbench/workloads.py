"""Job lists of the three benchmark workloads, how a job runs, and how its
output is checked.

A job is one call sequence a user of ``invpack`` makes: a ``generate``
query followed by ``to_json`` and ``from_json`` (save and reload), or one
checking routine (relation sweep, wallpaper classification, validation,
trivial intersection, integrality).  Every job has a key; the expected
output recorded for that key lives in ``expected.json``.

The benchmark calls ``invpack`` through module attributes
(``engine.generate``, not a name bound at import) so that the traced run,
which re-binds those attributes, sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from invpack import arithmetic, configs, engine, render, symmetry
from invpack.configs import Window
from invpack.engine import GenerationLimits
from invpack.exact import QuadExt

WORKLOADS = ("lattice_deep", "atlas", "certify")
BUILTINS = ("square", "triangular", "hexagonal", "apollonian")
MODES = ("packing", "dual", "super")

# A seeded window offset is a lattice vector m*v1 + n*v2 with |m|, |n| <= 1
# whose components stay within this reach.  Moving a window by a lattice
# vector changes every coordinate but not the local structure, so the cost
# of a job does not depend on the seed.
OFFSET_REACH = 4.0

# lattice_deep: (config, mode, exact, max_height, min_radius, window half side)
LATTICE_DEEP = (
    ("square", "packing", True, 6, 0.007, 2.0),
    ("hexagonal", "dual", True, 4, 0.01, 3.0),
    ("square", "super", True, 3, 0.02, 2.0),
    ("square", "packing", False, 5, 0.005, 2.0),
)

ATLAS_RHO = 0.05
ATLAS_HALF = 1.0
# Seeded wallpaper draws, all at H=1: (label, exact, strata).  A cell is
# "group/mode"; the draw takes one cell from each stratum.  The strata cut the
# candidate cells, in order of their time at the origin on the reference host
# (the faster of two runs on one CPU, shown beside each stratum), into groups
# of near-equal cost, so that every seed gives a pass of about the same size.
# The order is frozen here so that the job list of a seed never depends on
# timings.  The exact cells of cm, pg and cmm are left out: each takes 2-8 s,
# and one of them would take a sixth of the pass.
ATLAS_DRAWS = (
    ("exact", True, (
        # 0.25-0.66 s
        ("p6m/packing", "p6m/dual", "p4m/dual", "p4m/packing", "p1/dual", "p6/dual", "p4/packing"),
        # 0.69-1.02 s
        ("p3/dual", "p4/dual", "p2/dual", "p4g/packing", "p1/packing", "p3m1/dual", "p4g/dual"),
        # 1.06-1.44 s
        ("p31m/dual", "p2/packing", "pm/packing", "pgg/packing", "p3m1/packing", "pmg/packing",
         "p6/packing"),
        # 1.45-2.34 s
        ("p31m/packing", "pmm/packing", "pm/dual", "pgg/dual", "pmm/dual", "pmg/dual",
         "p3/packing"),
    )),
    ("float-packing", False, (
        ("p4m/packing",),  # 0.04 s
        ("p6m/packing", "p1/packing"),  # 0.06-0.11 s
        ("p3m1/packing", "pm/packing"),  # 0.13-0.15 s
        ("p4/packing",),  # 0.20 s
        ("pgg/packing", "p2/packing"),  # 0.23-0.24 s
        ("pg/packing", "p3/packing"),  # 0.26-0.29 s
        ("pmg/packing",),  # 0.30 s
        ("p6/packing", "p31m/packing"),  # 0.30-0.33 s
        ("pmm/packing", "cmm/packing"),  # 0.33-0.37 s
        ("cm/packing", "p4g/packing"),  # 0.38-0.52 s
    )),
    ("float-dual", False, (
        ("p4m/dual",),  # 0.05 s
        ("p6m/dual", "p3m1/dual"),  # 0.06-0.11 s
        ("p1/dual", "pm/dual"),  # 0.19-0.21 s
        ("p4/dual",),  # 0.24 s
        ("p6/dual", "pgg/dual"),  # 0.25-0.27 s
        ("p2/dual", "p3/dual"),  # 0.28-0.31 s
        ("pmm/dual",),  # 0.36 s
        ("cmm/dual", "pg/dual"),  # 0.37-0.37 s
        ("pmg/dual", "p4g/dual"),  # 0.38-0.51 s
        ("p31m/dual", "cm/dual"),  # 0.56-0.64 s
    )),
    ("float-super", False, (
        # 0.21-0.75 s
        ("p4m/super", "p6m/super", "pm/super", "pgg/super", "p3m1/super", "pmg/super",
         "cmm/super", "pg/super"),
        # 0.76-2.17 s
        ("p1/super", "pmm/super", "p4/super", "p2/super", "cm/super", "p31m/super", "p4g/super",
         "p6/super", "p3/super"),
    )),
)

CERTIFY_SWEEPS = (("square", 4.0, 4), ("triangular", 3.0, 4))
CERTIFY_VALIDATE_HALF = 6.0
CERTIFY_TRIVIAL = ("square", 3.0, 3)
# the exact packing behind integrality_report and the JSON round trip, run
# at this many distinct seeded offsets
CERTIFY_PACKING = ("square", "packing", True, 4, 0.01, 2.0)
CERTIFY_PACKINGS = 5

# Estimated seconds of one pass on the reference host.  A run makes
# max(1, round(seconds / PASS_S)) passes; the count is fixed so that the code
# under test cannot change how many samples a run takes.
PASS_S = {"lattice_deep": 22.0, "atlas": 15.0, "certify": 27.0}

# The smoke size of each workload: the first job of each of these cells.
SMOKE_CELLS = {
    "lattice_deep": ("gen|square|packing|exact|H6|rho0.007|W2.0",),
    "atlas": ("gen|apollonian|packing|float|H2|rho0.05|W1.0",),
    "certify": ("integrality|square|packing|exact|H4|rho0.01|W2.0", "sweep|square|W4.0|L4"),
}

# exact packings: apply_word(word, source) is replayed on this many circles
WORD_SAMPLE = 6
# float slack when testing window contact and the radius floor
GEOM_TOL = 1e-9


def wallpaper_names() -> List[str]:
    return [f"wallpaper:{g}" for g in configs.WALLPAPER_GROUPS]


# ---------------------------------------------------------------------------
# jobs


@dataclass(frozen=True)
class GenJob:
    """generate, then to_json and from_json of the packing."""

    config: str
    mode: str
    exact: bool
    max_height: int
    min_radius: float
    half: float
    offset: Tuple[int, int]
    center: Tuple[float, float]
    integrality: bool = False

    @property
    def cell(self) -> str:
        lane = "exact" if self.exact else "float"
        head = "integrality" if self.integrality else "gen"
        return (
            f"{head}|{self.config}|{self.mode}|{lane}|H{self.max_height}"
            f"|rho{self.min_radius}|W{self.half}"
        )

    @property
    def key(self) -> str:
        return f"{self.cell}|t{self.offset[0]},{self.offset[1]}"

    @property
    def configs(self) -> Tuple[str, ...]:
        return (self.config,)

    def window(self) -> Window:
        (x, y), h = self.center, self.half
        return Window(x - h, y - h, x + h, y + h)

    def run(self, cfgs: Dict[str, configs.Configuration]) -> "Output":
        limits = GenerationLimits(self.max_height, self.min_radius, self.window())
        t0 = time.perf_counter()
        packing = engine.generate(cfgs[self.config], self.mode, limits, exact=self.exact)
        gen_s = time.perf_counter() - t0
        report = arithmetic.integrality_report(packing) if self.integrality else None
        text = render.to_json(packing)
        back, rt_error = None, None
        try:
            back = render.from_json(text)
        except ValueError as err:
            rt_error = f"from_json: {err}"
        return Output(gen_s, packing, text, back, rt_error, report)


@dataclass(frozen=True)
class OpJob:
    """One checking routine; its summary is compared with the record."""

    key: str
    configs: Tuple[str, ...]
    call: Callable[[Dict[str, configs.Configuration]], object]
    summarize: Callable[[object], object]
    passed: Callable[[object], bool]
    relations: bool = False

    @property
    def cell(self) -> str:
        return self.key

    def run(self, cfgs: Dict[str, configs.Configuration]) -> "Output":
        result = self.call(cfgs)
        return Output(0.0, summary=self.summarize(result), passed=self.passed(result))


@dataclass
class Output:
    gen_s: float
    packing: Optional[engine.Packing] = None
    text: Optional[str] = None
    back: object = None
    rt_error: Optional[str] = None
    report: Optional[arithmetic.IntegralityReport] = None
    summary: object = None
    passed: bool = True

    @property
    def circles(self) -> int:
        return len(self.packing) if self.packing is not None else 0

    def digest(self) -> str:
        h = hashlib.sha256()
        if self.text is not None:
            h.update(self.text.encode())
        if self.report is not None:
            h.update("\n".join(self.report.lines()).encode())
        if self.summary is not None:
            h.update(json.dumps(self.summary, sort_keys=True).encode())
        return h.hexdigest()


Job = Union[GenJob, OpJob]


# ---------------------------------------------------------------------------
# seeded inputs


def translates(cfg: configs.Configuration) -> List[Tuple[Tuple[int, int], Tuple[float, float]]]:
    """Lattice offsets (m, n) -> window centre, within OFFSET_REACH."""
    if cfg.lattice is None:
        return [((0, 0), (0.0, 0.0))]
    (ax, ay), (bx, by) = [(float(x), float(y)) for x, y in cfg.lattice]
    out = []
    for m in (-1, 0, 1):
        for n in (-1, 0, 1):
            x, y = m * ax + n * bx, m * ay + n * by
            if abs(x) <= OFFSET_REACH + 1e-9 and abs(y) <= OFFSET_REACH + 1e-9:
                out.append(((m, n), (x, y)))
    return out


def _gen(cfgs, spec, integrality=False) -> List[GenJob]:
    """One job per window offset of the configuration."""
    name, mode, exact, height, rho, half = spec
    return [
        GenJob(name, mode, exact, height, rho, half, mn, xy, integrality)
        for mn, xy in translates(cfgs[name])
    ]


def _pick(rng: random.Random, jobs: List[GenJob]) -> GenJob:
    return jobs[rng.randrange(len(jobs))]


def _lattice_deep(cfgs, rng, everything):
    jobs = []
    for spec in LATTICE_DEEP:
        options = _gen(cfgs, spec)
        jobs.extend(options if everything else [_pick(rng, options)])
    return jobs


def _atlas_builtins(cfgs, rng, everything):
    jobs = []
    for name in BUILTINS:
        for mode in MODES:
            for exact in (True, False):
                height = 1 if mode == "super" else 2
                options = _gen(cfgs, (name, mode, exact, height, ATLAS_RHO, ATLAS_HALF))
                jobs.extend(options if everything else [_pick(rng, options)])
    return jobs


def _atlas(cfgs, rng, everything):
    jobs = _atlas_builtins(cfgs, rng, everything)
    for _, exact, strata in ATLAS_DRAWS:
        for stratum in strata:
            for cell in stratum if everything else [rng.choice(stratum)]:
                group, mode = cell.split("/")
                spec = (f"wallpaper:{group}", mode, exact, 1, ATLAS_RHO, ATLAS_HALF)
                options = _gen(cfgs, spec)
                jobs.extend(options if everything else [_pick(rng, options)])
    return jobs


def _sweep_job(name: str, half: float, length: int) -> OpJob:
    def call(cfgs):
        rels = [r for r in cfgs["@relations"] if r.config == name]
        return arithmetic.sweep_relation_words(cfgs[name], rels, length, Window.square(half))

    return OpJob(
        f"sweep|{name}|W{half}|L{length}",
        (name,),
        call,
        lambda reps: [[r.relation, r.generators, r.words_checked, r.max_curvature, r.ok] for r in reps],
        lambda reps: bool(reps) and all(r.ok for r in reps),
        relations=True,
    )


def _classify_job(names: Sequence[str]) -> OpJob:
    def call(cfgs):
        return {n: symmetry.classify_wallpaper(cfgs[n]) for n in names}

    return OpJob(
        "classify|all",
        tuple(names),
        call,
        lambda found: found,
        lambda found: all(n.split(":", 1)[1] == g for n, g in found.items()),
    )


def _validate_job(names: Sequence[str], half: float) -> OpJob:
    def call(cfgs):
        w = Window.square(half)
        return {n: (configs.validate_base_dual(cfgs[n], w), configs.check_duality(cfgs[n], w))
                for n in names}

    return OpJob(
        f"validate|builtins|W{half}",
        tuple(names),
        call,
        lambda reps: {n: [r.lines() for r in pair] for n, pair in reps.items()},
        lambda reps: all(r.ok for pair in reps.values() for r in pair),
    )


def _trivial_job(name: str, half: float, length: int) -> OpJob:
    return OpJob(
        f"trivial|{name}|W{half}|L{length}",
        (name,),
        lambda cfgs: symmetry.trivial_intersection(cfgs[name], Window.square(half), length),
        lambda ok: ok,
        lambda ok: ok is True,
    )


def _certify(cfgs, rng, everything):
    checks: List[Job] = [_sweep_job(*s) for s in CERTIFY_SWEEPS]
    checks.append(_classify_job(wallpaper_names()))
    checks.append(_validate_job(BUILTINS, CERTIFY_VALIDATE_HALF))
    checks.append(_trivial_job(*CERTIFY_TRIVIAL))
    options = _gen(cfgs, CERTIFY_PACKING, integrality=True)
    if everything:
        return checks + options
    # alternate packings with checks, so that the few seconds spent inside
    # generate are spread over the pass rather than taken in one stretch
    packings = rng.sample(options, CERTIFY_PACKINGS)
    jobs: List[Job] = []
    for pair in itertools.zip_longest(packings, checks):
        jobs.extend(j for j in pair if j is not None)
    return jobs


def all_config_names() -> List[str]:
    return list(BUILTINS) + wallpaper_names()


def make_configs(names: Sequence[str], relations: bool = False) -> Dict[str, object]:
    """Fresh configurations by name; with ``relations``, also the stock
    curvature relations that the relation sweeps need, under '@relations'."""
    cfgs: Dict[str, object] = {n: configs.make_config(n) for n in names}
    if relations:
        cfgs["@relations"] = arithmetic.builtin_relations()
    return cfgs


def _build(workload: str, rng: random.Random, everything: bool) -> List[Job]:
    cfgs = make_configs(all_config_names())
    if workload == "lattice_deep":
        return _lattice_deep(cfgs, rng, everything)
    if workload == "atlas":
        return _atlas(cfgs, rng, everything)
    if workload == "certify":
        return _certify(cfgs, rng, everything)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def job_list(workload: str, seed: int) -> List[Job]:
    """The seeded job list of one workload."""
    return _build(workload, random.Random(f"{workload}:{seed}"), False)


def smoke_jobs(workload: str, jobs: Sequence[Job]) -> List[Job]:
    """The first job of each of the workload's smoke cells."""
    return [next(j for j in jobs if j.cell == cell) for cell in SMOKE_CELLS[workload]]


def universe(workload: str) -> List[Job]:
    """Every job any seed can draw for the workload (what record.py records)."""
    return _build(workload, random.Random(0), True)


def job_inputs(job: Job) -> Dict[str, object]:
    """Fresh configurations for one job, built outside its timed region, so
    that every job pays its own first-use costs whatever ran before it."""
    return make_configs(job.configs, isinstance(job, OpJob) and job.relations)


def configs_used(jobs: Sequence[Job]) -> List[str]:
    names = {n for j in jobs for n in j.configs}
    return [n for n in all_config_names() if n in names]


# ---------------------------------------------------------------------------
# checks


def _meets_window(c, w: Window) -> bool:
    b, h1, h2 = float(c.curvature), float(c.h1), float(c.h2)
    if b == 0.0:
        # line n.x = bt/2 meets the window when the corners straddle it
        off = float(c.co_curvature) / 2.0
        vals = [h1 * x + h2 * y - off for x in (w.x0, w.x1) for y in (w.y0, w.y1)]
        return min(vals) <= GEOM_TOL and max(vals) >= -GEOM_TOL
    cx, cy, r = h1 / b, h2 / b, abs(1.0 / b)
    dx = max(w.x0 - cx, 0.0, cx - w.x1)
    dy = max(w.y0 - cy, 0.0, cy - w.y1)
    return math.hypot(dx, dy) <= r + GEOM_TOL * max(1.0, r, abs(cx), abs(cy))


def _same_circle(a, b, quotient: bool) -> bool:
    if a.key() == b.key():
        return True
    return quotient and tuple(-x for x in a.key()) == b.key()


def check_packing(job: GenJob, out: Output, cfg, seed: int) -> List[str]:
    """The generate contract, exact invariants and the JSON round trip."""
    problems: List[str] = []
    p = out.packing
    w = job.window()
    quotient = job.mode != "packing"
    for i, pc in enumerate(p.circles):
        c = pc.circle
        where = f"circle {i}"
        if c.is_exact != job.exact:
            problems.append(f"{where}: lane mismatch")
        if not _meets_window(c, w):
            problems.append(f"{where}: misses the window")
        b = float(c.curvature)
        if b != 0.0 and abs(1.0 / b) < job.min_radius * (1 - GEOM_TOL):
            problems.append(f"{where}: radius {abs(1.0 / b)} < {job.min_radius}")
        if pc.height > job.max_height:
            problems.append(f"{where}: height {pc.height} > {job.max_height}")
        if job.mode != "super" and pc.height != len(pc.word):
            problems.append(f"{where}: height {pc.height} != word length {len(pc.word)}")
        if job.exact:
            residual = c.h1 * c.h1 + c.h2 * c.h2 - c.curvature * c.co_curvature - 1
            if not (isinstance(residual, QuadExt) and residual.sign() == 0):
                problems.append(f"{where}: quadric residual {residual}")
        if len(problems) >= 5:
            break
    if job.exact and p.circles:
        rng = random.Random(f"{seed}:{job.key}")
        picks = rng.sample(range(len(p.circles)), min(WORD_SAMPLE, len(p.circles)))
        for i in sorted(picks):
            pc = p.circles[i]
            source = cfg.circle_from_id(pc.source)
            image = engine.apply_word(cfg, pc.word, source)
            if not _same_circle(image, pc.circle, quotient):
                problems.append(f"circle {i}: apply_word(word, source) differs")
    if out.back is not None and render.to_json(out.back) != out.text:
        problems.append("round trip: to_json(from_json(text)) differs")
    if out.report is not None and not out.report.ok:
        problems.append(f"integrality: {out.report.lines()[0]}")
    return problems


def check_output(job: Job, out: Output, cfg, record: Optional[dict], seed: int) -> List[str]:
    """Every problem with a job's output; empty when it is correct."""
    if isinstance(job, GenJob):
        problems = check_packing(job, out, cfg, seed)
    else:
        problems = [] if out.passed else [f"result fails its own check: {out.summary!r:.200}"]
    if record is None:
        problems.append("no expected record for this job")
        return problems
    if record.get("circles") is not None and record["circles"] != out.circles:
        problems.append(f"{out.circles} circles, expected {record['circles']}")
    if record["sha256"] != out.digest():
        problems.append("output digest differs from the record")
    return problems
