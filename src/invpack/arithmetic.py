"""Integrality and curvature-relation checks for exact packings.

Two families of arithmetic claims are decided here: curvature integrality
of generated packings (class tallies with failure witnesses), and
polynomial curvature relations that persist along reflection orbits.  A
circle is integral when its curvature (or each of its coordinates) is an
algebraic integer of the configuration's field Q(sqrt d), as in the
integral packings of Kontorovich and Nakamura (*Geometry and arithmetic of
crystallographic sphere packings*, PNAS 2019).

Relations are derived from their instance circles by ``relation_of``, and
a relation applies wherever its instance lies: a sweep checks that each
instance circle is a circle of the configuration, never the name.

Relation sweeps enumerate every reduced word up to a length bound over
the dual mirrors meeting a window.  Orbit states are int64 rows of the
configuration's integer lattice, moved along the reduced words of
``lattice.Mirrors.walk``, which guards every level and raises
LatticeOverflowError instead of wrapping.  A relation's residual on a word
is decided exactly from two cheap evaluations, as in the modular exact
predicates of Broennimann, Emiris, Pan and Pion (SoCG 1997): in int64,
which gives it modulo 2^64, and in float64, which pins it to within a
proven error bound smaller than 2^63.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configs import Configuration, Window, _locate, _row_lattice, make_config
from .engine import Packing
from .exact import QuadExt, Scalar, reduce_terms
from .inversive import InversiveCircle, PairClass, classify_pair, inversive_product
from .lattice import LatticeOverflowError, Mirrors, as_floats

Term = Tuple[int, Tuple[int, ...]]
MotifEntry = Tuple[int, int, PairClass]

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
    same relation); a given instance is checked against the motif.
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
        if self.instance:
            self.check_instance(self.instance)

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


def _reduced(rows: List[List[Scalar]]) -> Tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form of an exact matrix, and its pivot columns."""
    m = [list(r) for r in rows]
    pivots: List[int] = []
    for col in range(len(m[0])):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][col]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i, f in enumerate([row[col] for row in m]):
            if i != r and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def relation_of(name: str, config: str, instance: Sequence[InversiveCircle]) -> CurvatureRelation:
    """The curvature relation of the instance circles, read off their exact
    vectors v_i = (bt, b, h1, h2).

    Exactly one linear dependency sum c_i v_i = 0 gives sum c_i b_i = 0.
    Four independent circles give sum_{i <= j} (2 - delta_ij) (G^-1)_ij
    b_i b_j = 0, G the Gram matrix of their inversive products (Lagarias,
    Mallows and Wilks, *Beyond the Descartes circle theorem*, 2002).
    Proof: with W the matrix whose rows are the v_i and Q the inversive
    form, G = W Q W^T and b = W e_b, so b^T G^-1 b = e_b^T Q^-1 e_b = 0,
    because Q^-1 has a zero (b, b) entry.  A reflection is linear and
    preserves Q, so it keeps G and every linear dependency: the relation
    holds on every image of the instance, in any configuration that holds
    the instance.

    Coefficients are primitive integers, positive on the term with the
    largest exponent vector; terms run by exponent vector, descending, and
    the motif is the ``classify_pair`` class of every pair i < j.  Any
    other instance raises ValueError naming the relation: fewer than four
    independent circles, two or more dependencies, a coefficient outside
    Q, or a circle that is not exact.
    """
    n = len(instance)
    if not n or not all(c.is_exact for c in instance):
        raise ValueError(f"relation {name} needs exact instance circles")
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    ech, pivots = _reduced([list(col) for col in zip(*(c.key() for c in instance))])
    free = [k for k in range(n) if k not in pivots]
    if len(free) == 1:
        coeff = [QuadExt(int(k in free)) for k in range(n)]
        for row, p in zip(ech, pivots):
            coeff[p] = -row[free[0]]
        found = [(c, unit[k]) for k, c in enumerate(coeff)]
    elif n == 4 and not free:
        gram = [[inversive_product(u, v) for v in instance] + list(unit[i])
                for i, u in enumerate(instance)]
        inv = [row[n:] for row in _reduced(gram)[0]]
        found = [((2 - (i == j)) * inv[i][j], tuple(a + b for a, b in zip(unit[i], unit[j])))
                 for i in range(n) for j in range(i, n)]
    else:
        raise ValueError(
            f"relation {name}: {n} circles with {len(free)} linear dependencies; "
            "a relation needs exactly one, or four independent circles"
        )
    found = sorted(((c, e) for c, e in found if c), key=lambda t: t[1], reverse=True)
    ratios = [c / found[0][0] for c, _ in found]
    if any(r.b for r in ratios):
        raise ValueError(f"relation {name}: a coefficient lies outside Q")
    den = math.lcm(*(r.q for r in ratios))
    nums = [r.a * (den // r.q) for r in ratios]
    g = math.gcd(*nums)
    terms = tuple((x // g, e) for x, (_, e) in zip(nums, found))
    motif = tuple((i, j, classify_pair(u, v)) for i, u in enumerate(instance)
                  for j, v in enumerate(instance) if i < j)
    return CurvatureRelation(name, n, terms, motif, config, tuple(instance))


def builtin_relations() -> List[CurvatureRelation]:
    """The six stock curvature relations, each derived by ``relation_of``
    from its canonical instance.

    Three live in the square configuration (a quadratic on a tangent
    4-chain and two linear relations, on a plus of four circles around
    a fifth and on a tangent 2x2 block) and three in the triangular one
    (quadratics on a tangent rhombus and on a 3-star, and a linear
    relation on a staircase strip).
    """
    stated = [
        ("square-chain-quadratic", "square", ["b0@-1,0", "b0@0,0", "b0@0,-1", "b0@1,-1"]),
        ("square-plus-linear", "square", ["b0@-1,0", "b0@0,1", "b0@1,0", "b0@0,-1", "b0@0,0"]),
        ("square-block-linear", "square", ["b0@0,0", "b0@1,0", "b0@1,-1", "b0@0,-1"]),
        ("triangular-rhombus-quadratic", "triangular", ["b0@0,0", "b0@1,0", "b0@1,-1", "b0@0,-1"]),
        ("triangular-star-quadratic", "triangular", ["b0@-1,0", "b0@0,1", "b0@1,-1", "b0@0,0"]),
        ("triangular-strip-linear", "triangular", ["b0@0,0", "b0@1,0", "b0@2,-1", "b0@0,-1"]),
    ]
    cfgs = {label: make_config(label) for label in dict.fromkeys(s[1] for s in stated)}
    return [relation_of(name, label, [cfgs[label].circle_from_id(i) for i in ids])
            for name, label, ids in stated]


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
    """Whether the relation's polynomial is exactly zero on each column of
    the int64 curvatures ``b`` (arity x columns, one row per argument),
    every one at most ``peak`` in absolute value.

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
    bf = b.astype(np.float64)
    residue = np.zeros(b.shape[1], dtype=np.int64)
    approx = np.zeros(b.shape[1])
    ti, tf = np.empty_like(residue), np.empty_like(approx)
    for coeff, exps in rel.terms:
        ti.fill(coeff)
        tf.fill(coeff)
        for i, e in enumerate(exps):
            for _ in range(e):
                ti *= b[i]
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
    packing-mode base lattice, one of whose entries is the curvature, along
    ``Mirrors.walk``: each level is guarded before it is taken and raises
    LatticeOverflowError, naming the mirror, where a coordinate could leave
    int64, and the last level forms the curvature entry of its images
    only.  Every relation is decided exactly on every word by
    ``_vanishing``.  A relation applies wherever its instance lies: each
    instance circle must be a base circle of ``cfg``, found by one
    ``configs._locate`` of the instance rows, or ValueError names the
    relation and the first circle that is not.  ValueError too for no
    relations or a negative ``max_len``.
    """
    if not relations:
        raise ValueError("no relations to sweep")
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    lat = _row_lattice(cfg, "packing", "base")
    (cols,) = np.nonzero(lat.basis[:, 1])
    if lat.q[1] != 1 or lat.basis[:, 5].any() or len(cols) != 1 or lat.basis[cols[0], 1] != 1:
        raise ValueError("relation sweep needs an integer-lattice configuration")
    col = int(cols[0])
    rows: List[np.ndarray] = []
    spans: List[slice] = []
    for rel in relations:
        if not rel.instance:
            raise ValueError(f"relation {rel.name} has no canonical instance")
        try:
            rows.append(lat.rows_of(rel.instance))
        except LatticeOverflowError:
            raise
        except (ArithmeticError, ValueError) as err:
            raise ValueError(f"relation {rel.name}: its instance is off the base lattice") from err
        start = spans[-1].stop if spans else 0
        spans.append(slice(start, start + rel.arity))
    stack = np.concatenate(rows)
    found = _locate(cfg, lat, stack)[0]
    if not found.all():
        k = int(np.argmin(found))
        rel, span = next((r, s) for r, s in zip(relations, spans) if k < s.stop)
        raise ValueError(
            f"relation {rel.name}: instance circle {k - span.start} is not a base circle here"
        )
    gens = cfg.catalog(("dual",), window)
    if not gens:
        raise ValueError("no dual mirrors meet the window")
    mirrors = Mirrors(lat.reflections(gens.lat, gens.rows, gens.idents), gens.idents)
    stack = stack.T

    ok = [True] * len(relations)
    max_curv = 0.0
    words = 0

    def check(curv: np.ndarray) -> None:
        nonlocal max_curv, words
        words += len(curv)
        chunk_max = float(np.abs(curv).max())
        max_curv = max(max_curv, chunk_max)
        # one copy per check, with each argument's curvatures contiguous
        by_arg = np.ascontiguousarray(curv.T)
        for k, rel in enumerate(relations):
            if not _vanishing(rel, by_arg[spans[k]], chunk_max).all():
                ok[k] = False

    check(stack[col][None])
    for i, states, keep in mirrors.walk(stack, max_len):
        if keep is None:
            check(states[col])
        else:
            curv = mirrors.mats[i][col] @ states.reshape(lat.width, -1)
            check(curv.reshape(len(keep), -1)[keep])

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


def _algebraic_integers(a, b, q, d) -> np.ndarray:
    """Which (a + b sqrt d) / q, reduced as ``exact.reduce_terms`` leaves
    them, are algebraic integers of Q(sqrt d), d squarefree: q = 1, or q = 2
    and a = b (mod 2) where d = 1 (mod 4).  For d = 1, b is folded into a,
    so only q = 1 counts."""
    return (q == 1) | ((d % 4 == 1) & (q == 2) & ((a - b) % 2 == 0))


def integrality_report(p: Packing, coordinates: bool = False) -> IntegralityReport:
    """Tally the curvatures of an exact packing as ``integer`` (in Z),
    ``algebraic-integer`` (an algebraic integer of Q(sqrt d) not in Z) or
    ``other``, and count its integral circles: those whose curvature, or
    with ``coordinates`` all four coordinates, are algebraic integers.

    The field alone decides, never the configuration's name: hexagonal
    dual, with curvatures in (1/sqrt 3) Z, is integral only after a scaling
    that is not tried here.  The first ten failures are kept as witnesses.
    The report reads the packing's columns and builds no circle objects.
    """
    cols = p.columns()
    if not cols.exact:
        raise ValueError("integrality requires an exact-mode packing")
    # one row per circle in InversiveCircle.key order: curvature is column 1
    a, b, q = (x.reshape(-1, 4) for x in reduce_terms(*cols.terms))
    ring = _algebraic_integers(a, b, q, cols.terms[3].reshape(-1, 4))
    # 0 in Z, 1 algebraic integer, 2 other
    kind = 2 - ring[:, 1] - ((b[:, 1] == 0) & (q[:, 1] == 1))
    counts = np.bincount(kind, minlength=3)
    tallies = {k: int(n) for k, n in zip(("integer", "algebraic-integer", "other"), counts) if n}
    good = ring.all(axis=1) if coordinates else ring[:, 1]
    integral = int(np.count_nonzero(good))
    if coordinates and integral:
        tallies["integer-coordinates"] = integral
    bad = np.flatnonzero(~good)[:10]
    keys = as_floats(a[bad], b[bad], q[bad], p.config.d).tolist()
    witnesses = [(cols.heights[i], tuple(round(x, 6) for x in key))
                 for i, key in zip(bad.tolist(), keys)]
    return IntegralityReport(p.config.name, p.mode, len(cols), integral, tallies, witnesses,
                             coordinates)
