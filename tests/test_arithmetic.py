"""Tests for integrality reports, lattice membership, and curvature
relations, including the exhaustive reduced-word sweeps.

Two object routes are kept here as references: ``verify_relation_orbit``,
which evaluates a relation on each word image of its instance, for the
row sweep, and ``lattice_membership``, the hand-written triangular
coordinate lattices, for the lattices ``derive_lattice`` derives."""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from invpack.arithmetic import (
    CurvatureRelation,
    IntegralityReport,
    RelationSweepReport,
    _algebraic_integers,
    _vanishing,
    builtin_relations,
    integrality_report,
    relation_of,
    sweep_relation_words,
)
from invpack.configs import Configuration, Window, _row_lattice, config_names, make_config
from invpack.engine import (
    MODES, GenerationLimits, PackedCircle, PackedColumns, Packing, apply_word, generate,
)
from invpack.exact import QuadExt, as_float, int_array, reduce_terms
from invpack.inversive import InversiveCircle, PairClass, from_center_radius
from invpack.lattice import LatticeOverflowError
from invpack.render import from_json, to_json

SQRT3 = QuadExt.sqrt_d(3)


def icirc(a, b, c, d):
    return InversiveCircle(QuadExt(a), QuadExt(b), QuadExt(c), QuadExt(d))


@dataclass
class RelationOrbitReport:
    relation: str
    words_checked: int
    max_abs_residual: float
    exact: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def verify_relation_orbit(cfg, rel, instance, words):
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


def _is_even_integer(x):
    half = x / 2
    return half.is_integer()


def lattice_membership(kind, v):
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
        m = h2 / SQRT3
        return m.is_integer() and _is_even_integer(h1 - m)
    if not ((b / SQRT3).is_integer() and (bt / SQRT3).is_integer()):
        return False
    # 2iZ[w] = {-m sqrt(3) + i (2a + m)}
    m = -h1 / SQRT3
    if not (m.is_integer() and _is_even_integer(h2 - m)):
        return False
    # 2 sqrt(3) Z[w] = {sqrt(3)(2a + m) + i 3m}: excluded
    m3 = h2 / 3
    if m3.is_integer() and _is_even_integer(h1 / SQRT3 - m3):
        return False
    return True


def _in_ring(a, b, q, d):
    """Is (a + b sqrt d) / q an algebraic integer: are its trace 2a/q and
    norm (a^2 - d b^2)/q^2 integers?"""
    return (Fraction(2 * a, q).denominator == 1
            and Fraction(a * a - d * b * b, q * q).denominator == 1)


def _reference_report(p, coordinates=False):
    """``integrality_report`` circle by circle, on the circle objects."""
    def ring(x):
        return _in_ring(x.a, x.b, x.q, x.d)

    tallies, witnesses, integral = {}, [], 0
    for rec in p.circles:
        c = rec.circle
        label = ("integer" if c.curvature.is_integer()
                 else "algebraic-integer" if ring(c.curvature) else "other")
        tallies[label] = tallies.get(label, 0) + 1
        if all(ring(x) for x in c.key()) if coordinates else ring(c.curvature):
            integral += 1
        elif len(witnesses) < 10:
            witnesses.append((rec.height, tuple(round(as_float(x), 6) for x in c.key())))
    if coordinates and integral:
        tallies["integer-coordinates"] = integral
    return IntegralityReport(p.config.name, p.mode, len(p.circles), integral, tallies,
                             witnesses, coordinates)


@pytest.fixture(scope="module")
def relations():
    return {r.name: r for r in builtin_relations()}


_T, _D = PairClass.EXTERNALLY_TANGENT, PairClass.DISJOINT_EXTERIORS

# the six stock relations as stated by hand: instance ids, terms and
# motif; ``relation_of`` must derive the terms and motif from the instance
# circles alone
STATED = {
    # (b1-3b2)^2 + (b4-3b3)^2 - 2(b1+b2)(b3+b4)
    "square-chain-quadratic": (
        ["b0@-1,0", "b0@0,0", "b0@0,-1", "b0@1,-1"],
        (
            (1, (2, 0, 0, 0)), (-6, (1, 1, 0, 0)), (9, (0, 2, 0, 0)),
            (9, (0, 0, 2, 0)), (-6, (0, 0, 1, 1)), (1, (0, 0, 0, 2)),
            (-2, (1, 0, 1, 0)), (-2, (1, 0, 0, 1)),
            (-2, (0, 1, 1, 0)), (-2, (0, 1, 0, 1)),
        ),
        ((0, 1, _T), (1, 2, _T), (2, 3, _T), (0, 2, _D), (1, 3, _D), (0, 3, _D)),
    ),
    # b1 - b2 + b3 - b4 on the arms of a plus, b5 the center
    "square-plus-linear": (
        ["b0@-1,0", "b0@0,1", "b0@1,0", "b0@0,-1", "b0@0,0"],
        (
            (1, (1, 0, 0, 0, 0)), (-1, (0, 1, 0, 0, 0)),
            (1, (0, 0, 1, 0, 0)), (-1, (0, 0, 0, 1, 0)),
        ),
        (
            (0, 4, _T), (1, 4, _T), (2, 4, _T), (3, 4, _T),
            (0, 1, _D), (1, 2, _D), (2, 3, _D), (0, 3, _D), (0, 2, _D), (1, 3, _D),
        ),
    ),
    # b1 - b2 + b3 - b4 around a tangent 2x2 block
    "square-block-linear": (
        ["b0@0,0", "b0@1,0", "b0@1,-1", "b0@0,-1"],
        ((1, (1, 0, 0, 0)), (-1, (0, 1, 0, 0)), (1, (0, 0, 1, 0)), (-1, (0, 0, 0, 1))),
        ((0, 1, _T), (1, 2, _T), (2, 3, _T), (0, 3, _T), (0, 2, _D), (1, 3, _D)),
    ),
    # (3b1-b2+3b3-b4)^2 - 12 b1 b3 - 4 b2 b4
    "triangular-rhombus-quadratic": (
        ["b0@0,0", "b0@1,0", "b0@1,-1", "b0@0,-1"],
        (
            (9, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (9, (0, 0, 2, 0)),
            (1, (0, 0, 0, 2)), (-6, (1, 1, 0, 0)), (6, (1, 0, 1, 0)),
            (-6, (1, 0, 0, 1)), (-6, (0, 1, 1, 0)), (-2, (0, 1, 0, 1)),
            (-6, (0, 0, 1, 1)),
        ),
        ((0, 1, _T), (0, 2, _T), (0, 3, _T), (1, 2, _T), (2, 3, _T), (1, 3, _D)),
    ),
    # 2b1^2+2b2^2+2b3^2+10b4^2 - (b1+b2+b3+b4)^2, b4 the star center
    "triangular-star-quadratic": (
        ["b0@-1,0", "b0@0,1", "b0@1,-1", "b0@0,0"],
        (
            (1, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (1, (0, 0, 2, 0)),
            (9, (0, 0, 0, 2)), (-2, (1, 1, 0, 0)), (-2, (1, 0, 1, 0)),
            (-2, (1, 0, 0, 1)), (-2, (0, 1, 1, 0)), (-2, (0, 1, 0, 1)),
            (-2, (0, 0, 1, 1)),
        ),
        ((0, 3, _T), (1, 3, _T), (2, 3, _T), (0, 1, _D), (0, 2, _D), (1, 2, _D)),
    ),
    # 2b1 - 2b2 + b3 - b4 on a staircase strip
    "triangular-strip-linear": (
        ["b0@0,0", "b0@1,0", "b0@2,-1", "b0@0,-1"],
        ((2, (1, 0, 0, 0)), (-2, (0, 1, 0, 0)), (1, (0, 0, 1, 0)), (-1, (0, 0, 0, 1))),
        ((0, 1, _T), (0, 3, _T), (1, 2, _T), (0, 2, _D), (1, 3, _D), (2, 3, _D)),
    ),
}


class TestRelationOf:
    """``relation_of`` derives each stock relation from its instance."""

    @pytest.mark.parametrize("name", sorted(STATED))
    def test_derived_equals_stated(self, name, relations):
        rel = relations[name]
        _, terms, motif = STATED[name]
        assert set(rel.terms) == set(terms) and len(rel.terms) == len(terms)
        assert set(rel.motif) == set(motif) and len(rel.motif) == len(motif)
        assert rel.arity == len(rel.instance)

    def test_builtins_keep_their_labels_and_instances(self, relations):
        assert list(relations) == list(STATED)
        for rel in relations.values():
            assert rel.config == rel.name.split("-")[0]
            cfg = make_config(rel.config)
            assert [cfg.contains_circle(c, "base") for c in rel.instance] == STATED[rel.name][0]

    def test_normal_form(self, relations):
        for rel in relations.values():
            exps = [e for _, e in rel.terms]
            assert exps == sorted(exps, reverse=True)
            assert rel.terms[0][0] > 0
            assert np.gcd.reduce([c for c, _ in rel.terms]) == 1
            assert [(i, j) for i, j, _ in rel.motif] == [
                (i, j) for i in range(rel.arity) for j in range(i + 1, rel.arity)
            ]

    @pytest.mark.parametrize("name", sorted(STATED))
    def test_invariant_under_words(self, name, relations):
        rel = relations[name]
        cfg = make_config(rel.config)
        for word in (["d0@0,0"], ["d0@1,0", "d0@0,0"], ["d0@0,-1", "d0@1,0", "d0@0,0"]):
            image = [apply_word(cfg, word, c) for c in rel.instance]
            derived = relation_of(name, rel.config, image)
            assert (derived.terms, derived.motif) == (rel.terms, rel.motif)

    def test_refuses_three_circles(self, relations):
        chain = relations["square-chain-quadratic"]
        with pytest.raises(ValueError, match="relation short: 3 circles with 0"):
            relation_of("short", "square", chain.instance[:3])

    def test_refuses_two_dependencies(self, square):
        row = [square.circle_from_id(f"b0@{m},0") for m in range(5)]
        with pytest.raises(ValueError, match="relation row: 5 circles with 2"):
            relation_of("row", "square", row)


@pytest.fixture(scope="module")
def square():
    return make_config("square")


@pytest.fixture(scope="module")
def triangular():
    return make_config("triangular")


class TestCurvatureRelation:
    def test_all_instances_vanish(self, relations):
        for rel in relations.values():
            rel.check_instance(rel.instance)
            value = rel.evaluate([c.curvature for c in rel.instance])
            assert value == 0

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            CurvatureRelation("bad", 3, ((1, (1, 0)),), ())
        with pytest.raises(ValueError):
            CurvatureRelation("bad", 2, ((1, (1, 0)),), ((0, 2, PairClass.NESTED),))

    def test_evaluate_rejects_wrong_count(self, relations):
        rel = relations["square-block-linear"]
        with pytest.raises(ValueError):
            rel.evaluate([QuadExt(1)] * 3)

    def test_motif_mismatch_detected(self, relations):
        chain = relations["square-chain-quadratic"]
        block = relations["square-block-linear"]
        with pytest.raises(ValueError, match="classif"):
            chain.check_instance(block.instance)

    def test_instance_checked_when_built(self, relations):
        chain = relations["square-chain-quadratic"]
        shuffled = (chain.instance[0], chain.instance[2], chain.instance[1], chain.instance[3])
        with pytest.raises(ValueError, match="classif"):
            replace(chain, instance=shuffled)
        with pytest.raises(ValueError, match="needs 4 circles"):
            replace(chain, instance=chain.instance[:3])
        assert [r.name for r in builtin_relations()] == list(relations)

    def test_relabeling_symmetry(self, square, relations):
        """Reversing the chain maps the relation onto itself."""
        chain = relations["square-chain-quadratic"]
        reversed_instance = tuple(reversed(chain.instance))
        chain.check_instance(reversed_instance)
        report = verify_relation_orbit(
            square, chain, reversed_instance, [[], ["d0@0,0"], ["d0@1,0", "d0@0,0"]]
        )
        assert report.ok and report.max_abs_residual == 0.0


class TestFrozenQuadruples:
    def test_chain_reaches_360(self, square, relations):
        chain = relations["square-chain-quadratic"]
        b1, b2, b3, b4 = [
            apply_word(square, ["d0@0,0"], c).curvature for c in chain.instance
        ]
        assert (b1, b2, b3, b4) == (QuadExt(9), QuadExt(1), QuadExt(9), QuadExt(9))
        lhs = (b1 - 3 * b2) ** 2 + (b4 - 3 * b3) ** 2
        rhs = 2 * (b1 + b2) * (b3 + b4)
        assert lhs == rhs == QuadExt(360)

    def test_plus_shape_balances(self, square, relations):
        plus = relations["square-plus-linear"]
        curvatures = [
            apply_word(square, ["d0@0,0"], c).curvature for c in plus.instance
        ]
        assert curvatures[:4] == [QuadExt(9), QuadExt(1), QuadExt(1), QuadExt(9)]
        assert curvatures[0] + curvatures[2] == curvatures[1] + curvatures[3]

    def test_strip_balances(self, triangular, relations):
        strip = relations["triangular-strip-linear"]
        b1, b2, b3, b4 = [
            apply_word(triangular, ["d0@1,0"], c).curvature for c in strip.instance
        ]
        assert (b1, b2, b3, b4) == (
            QuadExt(25), QuadExt(1), QuadExt(13), QuadExt(61),
        )
        assert 2 * b1 - 2 * b2 == b4 - b3

    def test_star_squares(self, triangular, relations):
        star = relations["triangular-star-quadratic"]
        b1, b2, b3, b4 = [
            apply_word(triangular, ["d0@0,0"], c).curvature for c in star.instance
        ]
        total = b1 + b2 + b3 + b4
        assert 2 * (b1**2 + b2**2 + b3**2) + 10 * b4**2 == total**2 == QuadExt(1600)


def _broken_late(relations):
    """(b1 - b2)(b3 - b4) on the square chain.  It vanishes on the chain and
    on its images under the four mirrors meeting the unit window (b1 = b2
    on the chain and two images, b3 = b4 on the other two), but not on
    every image of length two."""
    return replace(
        relations["square-chain-quadratic"],
        name="broken-late",
        terms=((1, (1, 0, 1, 0)), (-1, (1, 0, 0, 1)), (-1, (0, 1, 1, 0)), (1, (0, 1, 0, 1))),
    )


class TestVerifyRelationOrbit:
    def test_exact_orbit_is_clean(self, square, relations):
        rel = relations["square-chain-quadratic"]
        words = [[], ["d0@0,0"], ["d0@-1,0"], ["d0@0,0", "d0@-1,-1"]]
        report = verify_relation_orbit(square, rel, rel.instance, words)
        assert report.ok
        assert report.exact
        assert report.words_checked == 4
        assert report.max_abs_residual == 0.0

    def test_float_instance_uses_tolerance(self, square, relations):
        rel = relations["square-plus-linear"]
        instance = [c.as_floats() for c in rel.instance]
        report = verify_relation_orbit(square, rel, instance, [["d0@0,0"]])
        assert report.ok and not report.exact

    def test_motif_gate(self, square, relations):
        rel = relations["square-chain-quadratic"]
        shuffled = (rel.instance[0], rel.instance[2], rel.instance[1], rel.instance[3])
        with pytest.raises(ValueError):
            verify_relation_orbit(square, rel, shuffled, [[]])

    @pytest.mark.parametrize("name", [r.name for r in builtin_relations()] + ["broken-late"])
    def test_agrees_with_the_sweep(self, name, relations):
        """The object route and the row sweep give one verdict on every
        reduced word of length <= 2 over the sweep's dual mirrors."""
        if name == "broken-late":
            rel = _broken_late(relations)
        else:
            rel = relations[name]
        cfg, window = make_config(rel.config), Window.square(1.0)
        (sweep,) = sweep_relation_words(cfg, [rel], max_len=2, window=window)
        ids = cfg.catalog(("dual",), window).idents
        words = [[]] + [[a] for a in ids] + [[a, b] for a, b in product(ids, ids) if a != b]
        oracle = verify_relation_orbit(cfg, rel, rel.instance, words)
        assert oracle.words_checked == sweep.words_checked
        assert oracle.ok == sweep.ok
        assert sweep.ok == (name != "broken-late")


class TestSweep:
    def test_square_relations_certify(self, square, relations):
        rels = [r for r in relations.values() if r.config == "square"]
        reports = sweep_relation_words(
            square, rels, max_len=3, window=Window(-4, -4, 4, 4)
        )
        assert all(r.ok for r in reports)
        assert {r.words_checked for r in reports} == {31777}

    def test_no_relations_is_named(self, square):
        # numpy used to raise "need at least one array to concatenate"
        with pytest.raises(ValueError, match="no relations to sweep"):
            sweep_relation_words(square, [])

    def test_negative_length_rejected(self, square, relations):
        rels = [r for r in relations.values() if r.config == "square"]
        with pytest.raises(ValueError, match="max_len must be nonnegative"):
            sweep_relation_words(square, rels, max_len=-1)
        (report, *_) = sweep_relation_words(square, rels, max_len=0, window=Window.square(2.0))
        assert report.ok and report.words_checked == 1

    def test_triangular_relations_certify(self, triangular, relations):
        rels = [r for r in relations.values() if r.config == "triangular"]
        reports = sweep_relation_words(
            triangular, rels, max_len=3, window=Window(-3, -3, 3, 3)
        )
        assert all(r.ok for r in reports)

    def test_detects_broken_relation(self, square, relations):
        chain = relations["square-chain-quadratic"]
        broken = CurvatureRelation(
            name="broken",
            arity=4,
            terms=((1, (1, 0, 0, 0)), (-1, (0, 1, 0, 0))),
            motif=chain.motif,
            config="square",
            instance=chain.instance,
        )
        reports = sweep_relation_words(
            square, [broken], max_len=1, window=Window(-2, -2, 2, 2)
        )
        assert not reports[0].ok

    def test_config_mismatch_rejected(self, triangular, relations):
        with pytest.raises(ValueError):
            sweep_relation_words(triangular, [relations["square-plus-linear"]])

    def test_relations_apply_wherever_their_instances_lie(self, square, triangular, relations):
        rels = [r for r in relations.values() if r.config == "square"]
        window = Window.square(2.0)
        got = sweep_relation_words(make_config("wallpaper:p4m"), rels, 2, window)
        assert all(r.ok for r in got)
        assert got == sweep_relation_words(square, rels, 2, window)
        with pytest.raises(ValueError, match="square-chain-quadratic: its instance is off"):
            sweep_relation_words(triangular, rels, 2, window)

    def test_instance_must_be_configuration_circles(self, square, relations):
        # the images lie on the packing lattice, but one is no base circle
        chain = relations["square-chain-quadratic"]
        moved = relation_of("moved", "square", [apply_word(square, ["d0@0,0"], c) for c in chain.instance])
        with pytest.raises(ValueError, match="relation moved: instance circle 0 is not a base circle"):
            sweep_relation_words(square, [chain, moved], 1)

    def test_needs_integer_lattice(self, relations):
        apo = make_config("apollonian")
        rel = relations["square-plus-linear"]
        fake = CurvatureRelation(
            rel.name, rel.arity, rel.terms, rel.motif, "apollonian", rel.instance
        )
        with pytest.raises(ValueError):
            sweep_relation_words(apo, [fake])

    def test_detects_break_past_length_one(self, square, relations):
        broken = _broken_late(relations)
        window = Window.square(1.0)
        (early,) = sweep_relation_words(square, [broken], max_len=1, window=window)
        (late,) = sweep_relation_words(square, [broken], max_len=2, window=window)
        assert early.generators == 4 and early.ok
        assert not late.ok
        assert late == _float_sweep(square, [broken], 2, window)[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_float_sweep(self, seed, relations):
        cfg, rels, window = _mutated(seed, relations)
        got = sweep_relation_words(cfg, rels, max_len=3, window=window)
        assert got == _float_sweep(cfg, rels, 3, window)

    def test_mutations_cover_both_verdicts(self, relations):
        verdicts = []
        for seed in range(8):
            cfg, rels, window = _mutated(seed, relations)
            verdicts += [r.ok for r in sweep_relation_words(cfg, rels, 3, window)]
        assert True in verdicts and False in verdicts

    # seed 2 is square, seed 3 triangular; both break some relations
    @pytest.mark.parametrize("seed, half, max_len", [(2, 1.0, 10), (3, 0.5, 9)])
    def test_matches_prime_certificate(self, seed, half, max_len, relations):
        # deep words in a four-mirror window: residual bounds pass 2^53, so
        # the reference certifies modulo its primes
        cfg, rels, _ = _mutated(seed, relations)
        window = Window.square(half)
        got = sweep_relation_words(cfg, rels, max_len, window)
        assert max(r.max_curvature for r in got) ** 2 > 2**53
        assert got == _float_sweep(cfg, rels, max_len, window)

    def test_overflow_names_a_mirror(self, square, relations):
        # far along the x axis the mirrors' rows are large, and the exact
        # rows of some words of length 5 leave int64 (near the origin the
        # curvatures grow by about 3 + 2 sqrt 2 a level, and would leave it
        # only past length 24, beyond any enumerable sweep)
        window = Window(1e4 - 1, -1, 1e4 + 1, 1)
        rels = [r for r in relations.values() if r.config == "square"]
        assert _peak_entry(square, rels, 5, window) > 2**63
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LatticeOverflowError) as info:
                sweep_relation_words(square, rels, max_len=5, window=window)
        assert info.value.mirror in square.catalog(("dual",), window).idents


class TestVanishing:
    """``_vanishing`` decides r = 0 from r mod 2^64 and a float64 bound;
    Python integers are the reference."""

    @pytest.mark.parametrize("index", range(6))
    def test_builtin_relations_on_large_curvatures(self, index):
        rel = builtin_relations()[index]
        rng = np.random.default_rng(index)
        cfg = make_config(rel.config)
        lat, mlat = _row_lattice(cfg, "packing", "base"), _row_lattice(cfg, "packing", "dual")
        (col,) = np.nonzero(lat.basis[:, 1])
        gens = cfg.catalog(("dual",), Window.square(2.0))
        mats = lat.reflections(mlat, mlat.rows_at(gens.index, gens.shift, gens.idents),
                               gens.idents)
        # curvatures of the instance under random words of length 3, scaled:
        # the relations are homogeneous, so these vanish, and a unit change
        # of one entry leaves a residual tiny against the monomials
        words = rng.integers(0, len(mats), size=(200, 3))
        orbit = np.stack([(mats[i] @ mats[j] @ mats[k] @ lat.rows_of(rel.instance).T)[col[0]]
                          for i, j, k in words])
        scaled = orbit * rng.integers(1, 2**28, size=(200, 1))
        nudged = scaled.copy()
        used = [i for i in range(rel.arity) if any(e[i] for _, e in rel.terms)]
        nudged[np.arange(200), rng.choice(used, size=200)] += 1
        noise = rng.integers(-(2**40), 2**40, size=(200, rel.arity))
        b = np.concatenate([scaled, nudged, noise])
        got = _vanishing(rel, b.T, float(np.abs(b).max()))
        assert got.tolist() == [rel.evaluate(row) == 0 for row in b.tolist()]
        assert got[:200].all() and not got[200:].any()

    @pytest.mark.parametrize(
        "terms, row, r",
        [
            (((1, (1, 1)),), (2**32, 2**32), 2**64),
            (((-1, (1, 1)),), (2**32, 2**32), -(2**64)),
            (((1, (1, 1)),), (2**31, 2**32), 2**63),
            (((-1, (1, 1)),), (2**31, 2**32), -(2**63)),
            # a difference of large squares whose residue mod 2^64 is 0
            (((1, (2, 0)), (-1, (0, 2))), (2**47 + 2**15, 2**47 - 2**15), 2**64),
        ],
    )
    def test_multiples_of_the_word_size(self, terms, row, r):
        rel = CurvatureRelation("r", 2, terms, ())
        assert rel.evaluate(list(row)) == r
        assert not _vanishing(rel, np.array([row]).T, float(max(row)))[0]

    def test_zero_near_the_limit(self):
        # tol just below 2^62: a vanishing row is still recognised
        rel = CurvatureRelation("r", 2, ((1, (2, 0)), (-1, (0, 2))), ())
        x = 3 * 2**53
        b = np.array([[x, x], [x, x - 1]])
        assert _vanishing(rel, b.T, float(x)).tolist() == [True, False]
        with pytest.raises(ArithmeticError):
            _vanishing(rel, b.T, 2.0**55)

    def test_past_the_limit_raises(self):
        with pytest.raises(ArithmeticError):
            _vanishing(CurvatureRelation("r", 2, ((1, (1, 1)),), ()),
                       np.array([[2**57], [1]]), 2.0**57)
        with pytest.raises(ArithmeticError):
            _vanishing(CurvatureRelation("r", 2, ((1, (3, 0)),), ()),
                       np.array([[2**40], [1]]), 2.0**40)


# ---------------------------------------------------------------------------
# the float64 sweep with a four-prime certificate, kept as the reference


def _mutated(seed, relations):
    """A configuration, its relations with random +-1 coefficient changes
    (which break some and keep the others) and a small window."""
    rng = random.Random(seed)
    name, half = [("square", 2.0), ("triangular", 1.5)][seed % 2]
    rels = []
    for rel in relations.values():
        if rel.config != name:
            continue
        terms = list(rel.terms)
        if rng.random() < 0.6:
            k = rng.randrange(len(terms))
            terms[k] = (terms[k][0] + rng.choice((-1, 1)), terms[k][1])
        rels.append(replace(rel, terms=tuple(terms)))
    return make_config(name), rels, Window.square(half + rng.choice((0.0, 0.5)))


# four largest primes below 2^26: residues of p^2 scale fit in float64,
# and the product ~2.0e31 exceeds any residual the sweep guard admits
_CERT_PRIMES = (67108859, 67108837, 67108819, 67108777)


def _float_sweep(cfg, relations, max_len, window):
    """Reduced-word sweep on float64 states kept below 2^53, with residuals
    evaluated directly while they stay exact and certified modulo the
    primes beyond that."""
    lat, mlat = _row_lattice(cfg, "packing", "base"), _row_lattice(cfg, "packing", "dual")
    (col,) = np.nonzero(lat.basis[:, 1])
    gens = cfg.catalog(("dual",), window)
    rows = mlat.rows_at(gens.index, gens.shift, gens.idents)
    mats = lat.reflections(mlat, rows, gens.idents).astype(np.float64)
    stack = lat.rows_of([c for rel in relations for c in rel.instance]).astype(np.float64).T
    spans = []
    for rel in relations:
        start = sum(s.stop - s.start for s in spans)
        spans.append(slice(start, start + rel.arity))

    max_entry = float(np.abs(mats).max())
    ok = [True] * len(relations)
    max_curv = 0.0
    words = 0

    def check(states):
        nonlocal max_curv, words
        words += states.shape[0]
        curv = states[:, col[0], :]
        chunk_max = float(np.abs(curv).max())
        max_curv = max(max_curv, chunk_max)
        for k, rel in enumerate(relations):
            b = curv[:, spans[k]]
            bound = rel.coefficient_sum() * max(1.0, chunk_max) ** rel.degree
            if 2.0 * bound < 2.0**53:
                acc = np.zeros(states.shape[0])
                for coeff, exps in rel.terms:
                    term = np.full(states.shape[0], float(coeff))
                    for i, e in enumerate(exps):
                        for _ in range(e):
                            term = term * b[:, i]
                    acc += term
                if acc.any():
                    ok[k] = False
                continue
            residue = 2.0 * bound
            for p in _CERT_PRIMES:
                if residue < 1.0:
                    break
                residue /= p
                bm = np.mod(b, p)
                acc = np.zeros(states.shape[0])
                for coeff, exps in rel.terms:
                    term = np.ones(states.shape[0])
                    for i, e in enumerate(exps):
                        for _ in range(e):
                            term = np.mod(term * bm[:, i], p)
                    acc += coeff * term
                if np.mod(acc, p).any():
                    ok[k] = False
            if residue >= 1.0:
                raise ArithmeticError("residual bound exceeds the prime certificate")

    frontier = stack[None]
    last = np.array([-1])
    check(frontier)
    for level in range(max_len):
        final = level == max_len - 1
        if 4.0 * max_entry * float(np.abs(frontier).max()) >= 2.0**53:
            raise ArithmeticError("coordinates would leave the exact float64 range")
        blocks, lasts = [], []
        for gi in range(len(gens)):
            keep = last != gi
            if not keep.any():
                continue
            images = np.einsum("ij,njk->nik", mats[gi], frontier[keep])
            check(images)
            if not final:
                blocks.append(images)
                lasts.append(np.full(images.shape[0], gi))
        if final or not blocks:
            break
        frontier = np.concatenate(blocks)
        last = np.concatenate(lasts)

    return [
        RelationSweepReport(rel.name, len(gens), words, max_curv, ok[k])
        for k, rel in enumerate(relations)
    ]


def _peak_entry(cfg, relations, max_len, window):
    """Largest |row entry| over the sweep's words, on Python integers."""
    lat, mlat = _row_lattice(cfg, "packing", "base"), _row_lattice(cfg, "packing", "dual")
    gens = cfg.catalog(("dual",), window)
    mats = lat.reflections(mlat, mlat.rows_at(gens.index, gens.shift, gens.idents),
                           gens.idents).astype(object)
    frontier = [(lat.rows_of([c for r in relations for c in r.instance]).T.astype(object), -1)]
    peak = 0
    for _ in range(max_len):
        frontier = [(m.dot(s), i) for s, last in frontier
                    for i, m in enumerate(mats) if i != last]
        peak = max(peak, max(abs(int(x)) for s, _ in frontier for x in s.flat))
    return peak


class TestIntegralityReport:
    def test_square_packing_integral(self, square):
        p = generate(
            square,
            "packing",
            GenerationLimits(max_height=2, min_radius=0.01, window=Window(-3, -3, 3, 3)),
        )
        report = integrality_report(p)
        assert report.ok
        assert report.tallies == {"integer": report.total}
        assert not report.witnesses
        assert "curvature-integral" in report.lines()[0]

    def test_square_superpacking_coordinates(self, square):
        p = generate(
            square,
            "super",
            GenerationLimits(max_height=2, min_radius=0.02, window=Window(-2, -2, 2, 2)),
        )
        report = integrality_report(p, coordinates=True)
        assert report.ok
        assert report.tallies["integer-coordinates"] == report.total

    def test_triangular_memberships_tallied(self, triangular):
        p = generate(
            triangular,
            "packing",
            GenerationLimits(max_height=2, min_radius=0.01, window=Window(-3, -3, 3, 3)),
        )
        report = integrality_report(p)
        assert report.ok
        assert all(lattice_membership("triangular-base", rec.circle) for rec in p.circles)
        d = generate(
            triangular,
            "dual",
            GenerationLimits(max_height=1, min_radius=0.01, window=Window(-3, -3, 3, 3)),
        )
        dreport = integrality_report(d)
        assert dreport.ok
        assert dreport.tallies["algebraic-integer"] == dreport.total
        assert all(lattice_membership("triangular-dual", rec.circle) for rec in d.circles)

    def test_rejects_float_packings(self, square):
        p = generate(
            square,
            "packing",
            GenerationLimits(max_height=1, min_radius=0.05, window=Window(-2, -2, 2, 2)),
            exact=False,
        )
        with pytest.raises(ValueError):
            integrality_report(p)

    def test_scaled_lattice_reports_witnesses(self):
        three = QuadExt(3)
        base = [from_center_radius((QuadExt(0), QuadExt(0)), three)]
        dual = [from_center_radius((three, three), three)]
        lattice = ((QuadExt(6), QuadExt(0)), (QuadExt(0), QuadExt(6)))
        cfg = Configuration("square-x3", 1, base, dual, lattice)
        p = generate(
            cfg,
            "packing",
            GenerationLimits(max_height=1, min_radius=0.05, window=Window(-7, -7, 7, 7)),
        )
        report = integrality_report(p)
        assert not report.ok
        # the seeds have curvature 1/3; reflections may land individual
        # images back on integers, but never the whole packing
        assert report.integral < report.total
        assert 0 < len(report.witnesses) <= 10
        assert report.tallies["other"] > 0
        assert any("witness" in line for line in report.lines())

    def test_witness_partition(self, square):
        # tallies partition the total into curvature classes
        p = generate(
            square,
            "packing",
            GenerationLimits(max_height=1, min_radius=0.01, window=Window(-3, -3, 3, 3)),
        )
        report = integrality_report(p)
        assert sum(
            v for k, v in report.tallies.items()
            if k in ("integer", "algebraic-integer", "other")
        ) == report.total


    @pytest.mark.parametrize("name", config_names())
    def test_columns_match_reference(self, name):
        cfg = make_config(name)
        for mode in MODES:
            p = generate(cfg, mode, GenerationLimits(1, 0.05, Window.square(1.5)))
            reports = [integrality_report(p, coordinates) for coordinates in (False, True)]
            assert reports == [_reference_report(p, coordinates) for coordinates in (False, True)]

    def test_round_trip_reports_alike(self):
        p = generate(make_config("hexagonal"), "dual", GenerationLimits(2, 0.05, Window.square(2.0)))
        report = integrality_report(p)
        assert report.witnesses and report.tallies["other"]
        back = from_json(to_json(p))
        assert integrality_report(back) == report == _reference_report(back)

    def test_empty_packing(self, square):
        limits = GenerationLimits(1, 0.05, Window.square(1.0))
        for p in (Packing(square, "packing", limits, []),
                  Packing(square, "packing", limits, columns=PackedColumns.of([]))):
            report = integrality_report(p, coordinates=True)
            assert (report.total, report.integral, report.tallies, report.witnesses) == (0, 0, {}, [])
            assert report.ok

    def test_terms_past_int64(self, triangular):
        big = 2**70
        keys = [
            (QuadExt(big), QuadExt(-big + 1), QuadExt(big, 3, 1, 3), QuadExt(0)),
            (QuadExt(big, 1, 1, 3), QuadExt(big + 1, 0, 3, 3), QuadExt(0), QuadExt(1)),
            (QuadExt(1, 0, 2), QuadExt(3, big, 1, 3), QuadExt(big, 0, 1, 3), QuadExt(2)),
        ]
        circles = [PackedCircle(InversiveCircle(*k), "base", i, (), "b0") for i, k in enumerate(keys)]
        limits = GenerationLimits(1, 0.05, Window.square(1.0))
        p = Packing(triangular, "packing", limits, columns=PackedColumns.of(circles))
        assert p.columns().terms[0].dtype == object
        reports = [integrality_report(p, coordinates) for coordinates in (False, True)]
        assert reports == [_reference_report(p, coordinates) for coordinates in (False, True)]
        assert reports[0].integral == 2 and reports[1].integral == 1
        assert reports[0].tallies == {"integer": 1, "algebraic-integer": 1, "other": 1}

    def test_rule_on_d_one_mod_four(self):
        # the ring of Q(sqrt 5) is Z[(1 + sqrt 5)/2]; Q(sqrt 3) has no halves
        cases = [(1, 1, 2, 5), (3, 1, 2, 5), (1, 2, 2, 5), (0, 1, 2, 5), (5, 0, 2, 5),
                 (1, 1, 4, 5), (2, 1, 1, 5), (1, 1, 2, 3), (0, 1, 1, 2), (1, 1, 2, 1),
                 (1, 0, 2, 1), (-6, 4, -2, 5)]
        a, b, q, d = (int_array(x) for x in zip(*cases))
        got = _algebraic_integers(*reduce_terms(a, b, q, d), d).tolist()
        assert got == [_in_ring(*t) for t in cases]
        assert got == [True, True, False, False, False, False, True, False, True, True, False, True]

    @pytest.mark.parametrize("mode", MODES)
    def test_renamed_configurations_report_alike(self, mode):
        limits = GenerationLimits(2, 0.05, Window.square(2.0))
        for name, twin in (("triangular", "wallpaper:p6m"), ("square", "wallpaper:p4m")):
            reports = [integrality_report(generate(make_config(n), mode, limits)) for n in (name, twin)]
            assert replace(reports[0], config="") == replace(reports[1], config="")
            assert reports[0].ok

    def test_builds_no_exact_scalars(self, monkeypatch):
        limits = GenerationLimits(2, 0.05, Window.square(2.0))
        packings = [generate(make_config(name), mode, limits)
                    for name in ("square", "hexagonal", "apollonian") for mode in MODES]
        init = QuadExt.__init__
        count = [0]

        def counted(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuadExt, "__init__", counted)
        reports = [integrality_report(p, coordinates) for p in packings for coordinates in (False, True)]
        monkeypatch.setattr(QuadExt, "__init__", init)
        assert count[0] == 0
        # irrational witnesses are converted to floats without objects too
        assert any(x != round(x) for r in reports for _, key in r.witnesses for x in key)


class TestLatticeMembership:
    def test_origin_base_circle(self):
        assert lattice_membership("triangular-base", icirc(-1, 1, 0, 0))

    def test_canonical_dual_circle(self):
        v = InversiveCircle(SQRT3, SQRT3, SQRT3, QuadExt(1))
        assert lattice_membership("triangular-dual", v)

    def test_off_lattice_base(self):
        assert not lattice_membership("triangular-base", icirc(0, 1, 1, 0))

    def test_dual_sublattice_exclusion(self):
        # synthetic 4-vector (not on the quadric): h = 2 sqrt(3) lies in
        # the excluded sublattice even though every other test passes
        v = InversiveCircle(SQRT3, SQRT3, 2 * SQRT3, QuadExt(0))
        assert not lattice_membership("triangular-dual", v)

    def test_orbit_circles_stay_in_lattice(self, triangular):
        p = generate(
            triangular,
            "packing",
            GenerationLimits(max_height=2, min_radius=0.01, window=Window(-2, -2, 2, 2)),
        )
        assert all(
            lattice_membership("triangular-base", rec.circle) for rec in p.circles
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            lattice_membership("hexagonal-base", icirc(-1, 1, 0, 0))

    def test_requires_exact(self):
        v = icirc(-1, 1, 0, 0).as_floats()
        with pytest.raises(ValueError):
            lattice_membership("triangular-base", v)
