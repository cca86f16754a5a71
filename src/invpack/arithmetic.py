"""Integrality and curvature-relation checks for exact packings.

Three families of arithmetic claims are decided here: curvature
integrality of generated packings (per-circle class tallies with
failure witnesses), membership of triangular-configuration orbits in
their Eisenstein coordinate lattices, and polynomial curvature
relations that persist along reflection orbits.

Relation sweeps enumerate every reduced word up to a length bound over
the dual mirrors meeting a window.  Orbit states are int64 rows of the
configuration's integer lattice, moved by the int64 mirror matrices the
engine uses, with a magnitude guard before every level that raises
LatticeOverflowError instead of wrapping.  A relation's residual on a word
is decided exactly from two cheap evaluations, as in the modular exact
predicates of Broennimann, Emiris, Pan and Pion (SoCG 1997): in int64,
which gives it modulo 2^64, and in float64, which pins it to within a
proven error bound smaller than 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configs import Configuration, Window, make_config
from .engine import GroupWord, Packing, _row_lattice, apply_word
from .exact import FieldMismatchError, QuadExt, Scalar, as_float
from .inversive import InversiveCircle, PairClass, classify_pair
from .lattice import _abs_f, _guard

Term = Tuple[int, Tuple[int, ...]]
MotifEntry = Tuple[int, int, PairClass]

_SQRT3 = QuadExt.sqrt_d(3)

# a residual known modulo 2^64 and to within tol is pinned while 2 tol < 2^64;
# stopping a factor two short absorbs the rounding of tol itself
_RESIDUE_LIMIT = 2.0**62


# ---------------------------------------------------------------------------
# curvature relations


@dataclass(frozen=True)
class CurvatureRelation:
    """Integer polynomial in the curvatures of a small circle motif.

    ``terms`` lists (coefficient, exponent vector) monomials over the
    curvatures b1..bn; the relation asserts the polynomial vanishes.
    ``motif`` pins the pairwise geometry the instance must have, and
    ``instance`` holds the canonical circles the relation was stated
    for (images of that instance under the reflection group satisfy the
    same relation).
    """

    name: str
    arity: int
    terms: Tuple[Term, ...]
    motif: Tuple[MotifEntry, ...]
    config: Optional[str] = None
    instance: Tuple[InversiveCircle, ...] = ()

    def __post_init__(self) -> None:
        for _, exps in self.terms:
            if len(exps) != self.arity:
                raise ValueError("exponent vector length must equal the arity")
        for i, j, _ in self.motif:
            if not (0 <= i < self.arity and 0 <= j < self.arity and i != j):
                raise ValueError("motif indices out of range")
        if self.instance and len(self.instance) != self.arity:
            raise ValueError("instance size must equal the arity")

    @property
    def degree(self) -> int:
        return max(sum(exps) for _, exps in self.terms)

    def coefficient_sum(self) -> int:
        return sum(abs(c) for c, _ in self.terms)

    def evaluate(self, curvatures: Sequence[Scalar]) -> Scalar:
        """Exact polynomial value on the given curvatures."""
        if len(curvatures) != self.arity:
            raise ValueError(f"expected {self.arity} curvatures")
        zero = curvatures[0] * 0
        value = zero
        for coeff, exps in self.terms:
            term = zero + coeff
            for b, e in zip(curvatures, exps):
                for _ in range(e):
                    term = term * b
            value = value + term
        return value

    def check_instance(self, circles: Sequence[InversiveCircle]) -> None:
        """Raise unless the circles realize the required pair classes."""
        if len(circles) != self.arity:
            raise ValueError(f"relation {self.name} needs {self.arity} circles")
        for i, j, want in self.motif:
            got = classify_pair(circles[i], circles[j])
            if got is not want:
                raise ValueError(
                    f"relation {self.name}: circles {i},{j} classify as "
                    f"{got.value}, motif requires {want.value}"
                )

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "arity": self.arity,
            "terms": [[c, list(e)] for c, e in self.terms],
            "motif": [[i, j, cls.value] for i, j, cls in self.motif],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CurvatureRelation":
        return cls(
            name=data["name"],
            arity=int(data["arity"]),
            terms=tuple((int(c), tuple(int(x) for x in e)) for c, e in data["terms"]),
            motif=tuple(
                (int(i), int(j), PairClass(v)) for i, j, v in data["motif"]
            ),
        )


def _instance(cfg: Configuration, idents: Sequence[str]) -> Tuple[InversiveCircle, ...]:
    return tuple(cfg.circle_from_id(i) for i in idents)


def builtin_relations() -> List[CurvatureRelation]:
    """The six stock curvature relations with their canonical instances.

    Three live in the square configuration (a quadratic on a tangent
    4-chain and two linear relations, on a plus of four circles around
    a fifth and on a tangent 2x2 block) and three in the triangular one
    (quadratics on a tangent rhombus and on a 3-star, and a linear
    relation on a staircase strip).
    """
    t, d = PairClass.EXTERNALLY_TANGENT, PairClass.DISJOINT_EXTERIORS
    sq = make_config("square")
    tri = make_config("triangular")
    return [
        # (b1-3b2)^2 + (b4-3b3)^2 - 2(b1+b2)(b3+b4)
        CurvatureRelation(
            name="square-chain-quadratic",
            arity=4,
            terms=(
                (1, (2, 0, 0, 0)), (-6, (1, 1, 0, 0)), (9, (0, 2, 0, 0)),
                (9, (0, 0, 2, 0)), (-6, (0, 0, 1, 1)), (1, (0, 0, 0, 2)),
                (-2, (1, 0, 1, 0)), (-2, (1, 0, 0, 1)),
                (-2, (0, 1, 1, 0)), (-2, (0, 1, 0, 1)),
            ),
            motif=((0, 1, t), (1, 2, t), (2, 3, t), (0, 2, d), (1, 3, d), (0, 3, d)),
            config="square",
            instance=_instance(sq, ["b0@-1,0", "b0@0,0", "b0@0,-1", "b0@1,-1"]),
        ),
        # b1 - b2 + b3 - b4 on the arms of a plus, b5 the center
        CurvatureRelation(
            name="square-plus-linear",
            arity=5,
            terms=(
                (1, (1, 0, 0, 0, 0)), (-1, (0, 1, 0, 0, 0)),
                (1, (0, 0, 1, 0, 0)), (-1, (0, 0, 0, 1, 0)),
            ),
            motif=(
                (0, 4, t), (1, 4, t), (2, 4, t), (3, 4, t),
                (0, 1, d), (1, 2, d), (2, 3, d), (0, 3, d), (0, 2, d), (1, 3, d),
            ),
            config="square",
            instance=_instance(sq, ["b0@-1,0", "b0@0,1", "b0@1,0", "b0@0,-1", "b0@0,0"]),
        ),
        # b1 - b2 + b3 - b4 around a tangent 2x2 block
        CurvatureRelation(
            name="square-block-linear",
            arity=4,
            terms=(
                (1, (1, 0, 0, 0)), (-1, (0, 1, 0, 0)),
                (1, (0, 0, 1, 0)), (-1, (0, 0, 0, 1)),
            ),
            motif=((0, 1, t), (1, 2, t), (2, 3, t), (0, 3, t), (0, 2, d), (1, 3, d)),
            config="square",
            instance=_instance(sq, ["b0@0,0", "b0@1,0", "b0@1,-1", "b0@0,-1"]),
        ),
        # (3b1-b2+3b3-b4)^2 - 12 b1 b3 - 4 b2 b4
        CurvatureRelation(
            name="triangular-rhombus-quadratic",
            arity=4,
            terms=(
                (9, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (9, (0, 0, 2, 0)),
                (1, (0, 0, 0, 2)), (-6, (1, 1, 0, 0)), (6, (1, 0, 1, 0)),
                (-6, (1, 0, 0, 1)), (-6, (0, 1, 1, 0)), (-2, (0, 1, 0, 1)),
                (-6, (0, 0, 1, 1)),
            ),
            motif=((0, 1, t), (0, 2, t), (0, 3, t), (1, 2, t), (2, 3, t), (1, 3, d)),
            config="triangular",
            instance=_instance(tri, ["b0@0,0", "b0@1,0", "b0@1,-1", "b0@0,-1"]),
        ),
        # 2b1^2+2b2^2+2b3^2+10b4^2 - (b1+b2+b3+b4)^2, b4 the star center
        CurvatureRelation(
            name="triangular-star-quadratic",
            arity=4,
            terms=(
                (1, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (1, (0, 0, 2, 0)),
                (9, (0, 0, 0, 2)), (-2, (1, 1, 0, 0)), (-2, (1, 0, 1, 0)),
                (-2, (1, 0, 0, 1)), (-2, (0, 1, 1, 0)), (-2, (0, 1, 0, 1)),
                (-2, (0, 0, 1, 1)),
            ),
            motif=((0, 3, t), (1, 3, t), (2, 3, t), (0, 1, d), (0, 2, d), (1, 2, d)),
            config="triangular",
            instance=_instance(tri, ["b0@-1,0", "b0@0,1", "b0@1,-1", "b0@0,0"]),
        ),
        # 2b1 - 2b2 + b3 - b4 on a staircase strip
        CurvatureRelation(
            name="triangular-strip-linear",
            arity=4,
            terms=(
                (2, (1, 0, 0, 0)), (-2, (0, 1, 0, 0)),
                (1, (0, 0, 1, 0)), (-1, (0, 0, 0, 1)),
            ),
            motif=((0, 1, t), (0, 3, t), (1, 2, t), (0, 2, d), (1, 3, d), (2, 3, d)),
            config="triangular",
            instance=_instance(tri, ["b0@0,0", "b0@1,0", "b0@2,-1", "b0@0,-1"]),
        ),
    ]


# ---------------------------------------------------------------------------
# orbit verification


@dataclass
class RelationOrbitReport:
    relation: str
    words_checked: int
    max_abs_residual: float
    exact: bool
    failures: List[Tuple[Tuple[str, ...], float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_relation_orbit(
    cfg: Configuration,
    rel: CurvatureRelation,
    instance: Sequence[InversiveCircle],
    words: Sequence[GroupWord],
) -> RelationOrbitReport:
    """Evaluate the relation on every word image of the instance.

    The instance must realize the relation's motif.  In exact mode a
    nonzero residual is a failure; in float mode residuals are compared
    against 1e-9 relative to the monomial magnitude.
    """
    rel.check_instance(instance)
    exact = all(c.is_exact for c in instance)
    report = RelationOrbitReport(rel.name, 0, 0.0, exact)
    for word in words:
        images = [apply_word(cfg, word, c) for c in instance]
        curvatures = [c.curvature for c in images]
        residual = rel.evaluate(curvatures)
        value = abs(as_float(residual))
        report.words_checked += 1
        report.max_abs_residual = max(report.max_abs_residual, value)
        if exact:
            bad = residual != 0
        else:
            scale = sum(
                abs(coeff) * float(np.prod([abs(b) ** e for b, e in zip(curvatures, exps)]))
                for coeff, exps in rel.terms
            )
            bad = value > 1e-9 * max(1.0, scale)
        if bad and len(report.failures) < 10:
            report.failures.append((tuple(word), value))
    return report


# ---------------------------------------------------------------------------
# exhaustive word sweep


@dataclass
class RelationSweepReport:
    relation: str
    generators: int
    words_checked: int
    max_curvature: float
    ok: bool


def _vanishing(rel: CurvatureRelation, b: np.ndarray, peak: float) -> np.ndarray:
    """Whether the relation's polynomial is exactly zero on each row of the
    int64 curvatures ``b`` (rows x arity), every one at most ``peak`` in
    absolute value.

    The polynomial is evaluated twice: in int64, whose wraparound gives the
    residual r modulo 2^64 exactly, and in float64, within
    tol = (2 deg + terms + 2) 2^-52 sum|c| max(1, peak)^deg of r (each
    monomial has deg roundings of its factors and deg of its products, the
    sum one per term).  A zero residue leaves r a multiple of 2^64, and a
    float value within tol of 0 leaves |r| <= 2 tol < 2^64, so r = 0.
    Raises ArithmeticError where tol reaches 2^62 or a coefficient is not
    exact in float64.
    """
    tol = (2 * rel.degree + len(rel.terms) + 2) * 2.0**-52 * rel.coefficient_sum()
    for _ in range(rel.degree):
        tol *= max(1.0, peak)
    if not tol < _RESIDUE_LIMIT or max(abs(c) for c, _ in rel.terms) > 2**53:
        raise ArithmeticError(
            "residual bound exceeds the exact residue test; shrink the window"
        )
    bi = np.ascontiguousarray(b.T)
    bf = bi.astype(np.float64)
    residue = np.zeros(len(b), dtype=np.int64)
    approx = np.zeros(len(b))
    ti, tf = np.empty_like(residue), np.empty_like(approx)
    for coeff, exps in rel.terms:
        ti.fill(coeff)
        tf.fill(coeff)
        for i, e in enumerate(exps):
            for _ in range(e):
                ti *= bi[i]
                tf *= bf[i]
        residue += ti
        approx += tf
    return (residue == 0) & (np.abs(approx) <= tol)


def sweep_relation_words(
    cfg: Configuration,
    relations: Sequence[CurvatureRelation],
    max_len: int = 4,
    window: Window = Window(-6, -6, 6, 6),
) -> List[RelationSweepReport]:
    """Certify the relations on all reduced dual words up to ``max_len``.

    Enumerates reduced words over the dual mirrors meeting the window,
    acting on the stacked canonical instances as int64 rows of the
    packing-mode base lattice, one of whose entries is the curvature.  Each
    level is bounded before it is taken and raises LatticeOverflowError,
    naming the mirror, where a coordinate could leave int64; the last level
    forms the curvature entry of its images only.  Every relation is
    decided exactly on every word by ``_vanishing``.
    """
    for rel in relations:
        if rel.config != cfg.name:
            raise ValueError(f"relation {rel.name} belongs to {rel.config!r}")
        if not rel.instance:
            raise ValueError(f"relation {rel.name} has no canonical instance")
    lat, mlat = _row_lattice(cfg, "packing", "base"), _row_lattice(cfg, "packing", "dual")
    (cols,) = np.nonzero(lat.basis[:, 1])
    if lat.q[1] != 1 or lat.basis[:, 5].any() or len(cols) != 1 or lat.basis[cols[0], 1] != 1:
        raise ValueError("relation sweep needs an integer-lattice configuration")
    col = int(cols[0])
    gens = cfg.catalog("dual", window)
    if not gens:
        raise ValueError("no dual mirrors meet the window")
    rows = mlat.rows_at(gens.index, gens.shift, gens.idents)
    mats = lat.reflections(mlat, rows, gens.idents)
    colmax = _abs_f(mats).max(axis=1)
    stack = lat.rows_of([c for rel in relations for c in rel.instance]).T
    spans: List[slice] = []
    for rel in relations:
        start = sum(s.stop - s.start for s in spans)
        spans.append(slice(start, start + rel.arity))

    ok = [True] * len(relations)
    max_curv = 0.0
    words = 0

    def check(curv: np.ndarray) -> None:
        nonlocal max_curv, words
        words += len(curv)
        chunk_max = float(np.abs(curv).max())
        max_curv = max(max_curv, chunk_max)
        for k, rel in enumerate(relations):
            if not _vanishing(rel, curv[:, spans[k]], chunk_max).all():
                ok[k] = False

    # states coordinate-major, (W, words, circles), so that a mirror acts on
    # one contiguous (W, words x circles) block
    frontier = stack[:, None]
    last = np.array([-1])
    check(frontier[col])
    for level in range(max_len):
        final = level == max_len - 1
        peak = np.maximum(frontier.max(axis=(1, 2)), -frontier.min(axis=(1, 2)))
        _guard(colmax @ peak.astype(np.float64), gens.idents)
        blocks, lasts = [], []
        for gi, mat in enumerate(mats):
            keep = last != gi
            if not keep.any():
                continue
            if final:
                curv = mat[col] @ frontier.reshape(lat.width, -1)
                check(curv.reshape(len(last), -1)[keep])
                continue
            images = mat @ frontier[:, keep].reshape(lat.width, -1)
            images = images.reshape(lat.width, -1, stack.shape[1])
            check(images[col])
            blocks.append(images)
            lasts.append(np.full(images.shape[1], gi))
        if final or not blocks:
            break
        frontier = np.concatenate(blocks, axis=1)
        last = np.concatenate(lasts)

    return [
        RelationSweepReport(rel.name, len(gens), words, max_curv, ok[k])
        for k, rel in enumerate(relations)
    ]


# ---------------------------------------------------------------------------
# integrality


@dataclass
class IntegralityReport:
    config: str
    mode: str
    total: int
    integral: int
    tallies: Dict[str, int]
    witnesses: List[Tuple[int, Tuple[float, float, float, float]]]
    coordinates: bool

    @property
    def ok(self) -> bool:
        return self.integral == self.total

    def lines(self) -> List[str]:
        kind = "coordinate" if self.coordinates else "curvature"
        out = [
            f"{self.config} {self.mode}: {self.integral}/{self.total} "
            f"{kind}-integral circles"
        ]
        for label in sorted(self.tallies):
            out.append(f"  {label}: {self.tallies[label]}")
        for height, key in self.witnesses:
            out.append(f"  witness at height {height}: {key}")
        return out


_ALLOWED_CLASSES = {
    ("square", "packing"): {"integer"},
    ("square", "dual"): {"integer"},
    ("square", "super"): {"integer"},
    ("hexagonal", "packing"): {"integer"},
    ("triangular", "packing"): {"integer"},
    ("triangular", "dual"): {"sqrt3-integer"},
    ("triangular", "super"): {"integer", "sqrt3-integer"},
}


def _curvature_class(b: Scalar) -> str:
    if not isinstance(b, QuadExt):
        raise ValueError("integrality requires exact scalars")
    if b.is_integer():
        return "integer"
    try:
        if (b / _SQRT3).is_integer():
            return "sqrt3-integer"
    except FieldMismatchError:
        pass
    return "other"


def integrality_report(p: Packing, coordinates: bool = False) -> IntegralityReport:
    """Classify every curvature (or with ``coordinates``, all four
    coordinates) of an exact packing.

    A circle counts as integral when its curvature class is allowed for
    the packing's configuration and mode; unknown combinations default
    to plain integers.  The first ten failures are kept as witnesses.
    """
    allowed = _ALLOWED_CLASSES.get((p.config.name, p.mode), {"integer"})
    tallies: Dict[str, int] = {}
    witnesses: List[Tuple[int, Tuple[float, float, float, float]]] = []
    integral = 0
    membership_kind = None
    if p.config.name == "triangular" and p.mode in ("packing", "dual"):
        membership_kind = f"triangular-{'base' if p.mode == 'packing' else 'dual'}"
    for rec in p.circles:
        c = rec.circle
        if not c.is_exact:
            raise ValueError("integrality requires an exact-mode packing")
        cls = _curvature_class(c.curvature)
        tallies[cls] = tallies.get(cls, 0) + 1
        good = cls in allowed
        if coordinates:
            good = all(
                isinstance(x, QuadExt) and x.is_integer() for x in c.key()
            )
            label = "integer-coordinates"
            if good:
                tallies[label] = tallies.get(label, 0) + 1
        if membership_kind is not None and lattice_membership(membership_kind, c):
            tallies[membership_kind] = tallies.get(membership_kind, 0) + 1
        if good:
            integral += 1
        elif len(witnesses) < 10:
            witnesses.append(
                (rec.height, tuple(round(as_float(x), 6) for x in c.key()))
            )
    return IntegralityReport(
        config=p.config.name,
        mode=p.mode,
        total=len(p.circles),
        integral=integral,
        tallies=tallies,
        witnesses=witnesses,
        coordinates=coordinates,
    )


# ---------------------------------------------------------------------------
# lattice membership


def _is_even_integer(x: QuadExt) -> bool:
    half = x / 2
    return half.is_integer()


def lattice_membership(kind: str, v: InversiveCircle) -> bool:
    """Decide membership in the triangular coordinate lattices.

    ``triangular-base``: curvature and co-curvature are integers and
    h1 + i h2 lies in 2Z[w] for w = (1 + i sqrt(3))/2.
    ``triangular-dual``: curvature and co-curvature are in sqrt(3) Z and
    h1 + i h2 lies in 2i Z[w] but outside 2 sqrt(3) Z[w].
    """
    if kind not in ("triangular-base", "triangular-dual"):
        raise ValueError(f"unknown lattice kind {kind!r}")
    if not v.is_exact:
        raise ValueError("lattice membership requires exact coordinates")
    b, bt, h1, h2 = v.curvature, v.co_curvature, v.h1, v.h2
    if kind == "triangular-base":
        if not (b.is_integer() and bt.is_integer()):
            return False
        # 2Z[w] = {(2a + m) + i m sqrt(3)}
        m = h2 / _SQRT3
        return m.is_integer() and _is_even_integer(h1 - m)
    if not ((b / _SQRT3).is_integer() and (bt / _SQRT3).is_integer()):
        return False
    # 2iZ[w] = {-m sqrt(3) + i (2a + m)}
    m = -h1 / _SQRT3
    if not (m.is_integer() and _is_even_integer(h2 - m)):
        return False
    # 2 sqrt(3) Z[w] = {sqrt(3)(2a + m) + i 3m}: excluded
    m3 = h2 / 3
    if m3.is_integer() and _is_even_integer(h1 / _SQRT3 - m3):
        return False
    return True
