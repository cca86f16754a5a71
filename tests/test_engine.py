"""Orbit enumeration tests.

Covers the word helpers, frozen small runs of every mode, witness-word
validity, the height adjacency structure (reflecting through the
containing dual lowers height by one, through any other non-orthogonal
dual raises it by one), agreement with an independent mask-free
brute-force oracle, completeness over the closed window, the level join
against dense pairs, the stored rows of the descending modes against
super mode's deduplication key (kept here), the chain words against a
reference object peel (kept here), the host check's named errors, and the
named error for integer rows and float grid values beyond int64.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpack import configs
from invpack.configs import Configuration, Window, make_config
from invpack.engine import (
    _MIRROR_KINDS,
    _SEED_KINDS,
    MODES,
    GenerationLimits,
    LatticeOverflowError,
    Packing,
    _ArrayLane,
    _canonical_sign,
    _margin_schedule,
    apply_word,
    commuting_letters,
    generate,
    normal_form,
    reduce_word,
)
from invpack.exact import QuadExt, as_float
from invpack.lattice import as_floats
from invpack.inversive import (
    InversiveCircle,
    PlanarIsometry,
    apply_isometry,
    from_center_radius,
    inversive_product,
    reflect,
)


def icirc(a, b, c, d):
    return InversiveCircle(QuadExt(a), QuadExt(b), QuadExt(c), QuadExt(d))


@pytest.fixture(scope="module")
def square():
    return make_config("square")


@pytest.fixture(scope="module")
def square_h2(square):
    lim = GenerationLimits(max_height=2, min_radius=0.01, window=Window(-1, -3, 5, 3))
    return generate(square, "packing", lim)


# ---------------------------------------------------------------------------
# word helpers


class TestReduceWord:
    def test_adjacent_cancellation(self):
        assert reduce_word(["a", "a"]) == []
        assert reduce_word(["a", "b", "b", "a"]) == []
        assert reduce_word(["a", "b", "a"]) == ["a", "b", "a"]

    def test_fixpoint_requires_repeated_scans(self):
        assert reduce_word(["x", "a", "b", "b", "a", "x"]) == []

    def test_commutation_surfaces_cancellation(self):
        commutes = lambda a, b: {a, b} == {"a", "b"}
        assert reduce_word(["b", "a", "b"], commutes) == ["a"]
        assert reduce_word(["b", "a", "b"]) == ["b", "a", "b"]

    def test_commuting_letters_sorted_canonically(self):
        commutes = lambda a, b: True
        assert reduce_word(["c", "a", "b"], commutes) == ["a", "b", "c"]

    @given(st.lists(st.sampled_from("abcd"), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_reduction_is_idempotent(self, letters):
        once = reduce_word(letters)
        assert reduce_word(once) == once
        assert all(x != y for x, y in zip(once, once[1:]))

    @given(st.lists(st.sampled_from("abcd"), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_word_times_inverse_reduces_to_identity(self, letters):
        assert reduce_word(letters + letters[::-1]) == []


class TestCommutingLetters:
    def test_orthogonal_pair_commutes(self, square):
        commutes = commuting_letters(square)
        # the dual at (1,1) is orthogonal to the base at (2,0)
        assert commutes("d0@0,0", "b0@1,0")
        assert commutes("b0@1,0", "d0@0,0")

    def test_disjoint_pair_does_not_commute(self, square):
        commutes = commuting_letters(square)
        assert not commutes("d0@0,0", "b0@-1,0")

    def test_reflections_of_orthogonal_mirrors_commute(self, square):
        d = square.circle_from_id("d0@0,0")
        b = square.circle_from_id("b0@1,0")
        probe = icirc(15, 1, 4, 0)
        assert reflect(d, reflect(b, probe)).key() == reflect(b, reflect(d, probe)).key()


class TestApplyWord:
    def test_leftmost_letter_acts_last(self, square):
        v = square.circle_from_id("b0@2,0")
        w1 = apply_word(square, ["d0@1,0", "d0@0,0"], v)
        d10 = square.circle_from_id("d0@1,0")
        d00 = square.circle_from_id("d0@0,0")
        assert w1.key() == reflect(d10, reflect(d00, v)).key()

    def test_empty_word_is_identity(self, square):
        v = square.circle_from_id("b0@0,0")
        assert apply_word(square, [], v).key() == v.key()

    def test_negative_index_is_rejected(self, square):
        with pytest.raises(ValueError, match="bad circle id 'd-1'"):
            apply_word(square, ["d-1"], square.circle_from_id("b0@0,0"))


class TestNormalForm:
    def test_translation_conjugates_mirror(self, square):
        t = square.translation(1, 0)
        word, gamma = normal_form(square, [t, "d0@0,0"])
        assert word == ["d0@1,0"]
        assert gamma.a == t.a and gamma.t == t.t and gamma.conj == t.conj

    def test_output_acts_like_input(self, square):
        t = square.translation(0, 1)
        items = ["d0@0,0", t, "d0@1,-1", t, "d0@0,0"]
        word, gamma = normal_form(square, items)
        probes = [square.circle_from_id(f"b0@{m},{n}") for m in range(3) for n in range(2)]
        for p in probes:
            lhs = p
            for item in reversed(items):
                if isinstance(item, PlanarIsometry):
                    lhs = apply_isometry(item, lhs)
                else:
                    lhs = reflect(square.circle_from_id(item), lhs)
            rhs = apply_isometry(gamma, p)
            rhs = apply_word(square, word, rhs)
            assert lhs.key() == rhs.key()

    def test_rejects_isometry_outside_symmetry_group(self, square):
        half = PlanarIsometry.translation((QuadExt(1), QuadExt(0)))
        with pytest.raises(ValueError):
            normal_form(square, [half, "d0@0,0"])

    def test_negative_index_is_rejected(self, square):
        with pytest.raises(ValueError, match="bad circle id 'd-1@0,0'"):
            normal_form(square, ["d-1@0,0"])

    def test_pure_isometry_input(self, square):
        t = square.translation(2, -1)
        word, gamma = normal_form(square, [t])
        assert word == []
        assert gamma.t == t.t


# ---------------------------------------------------------------------------
# generation limits


class TestGenerationLimits:
    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            GenerationLimits(max_height=-1)

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            GenerationLimits(min_radius=0.0)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="min_radius must be positive"):
            GenerationLimits(2, float("nan"), Window.square(1.0))

    @pytest.mark.parametrize("height", [2.0, True, False, "2", None])
    def test_rejects_a_height_that_is_not_an_integer(self, height):
        # 2.0 used to build and then fail in ``range``, and True ran as H=1
        with pytest.raises(ValueError, match="max_height must be an integer"):
            GenerationLimits(height, 0.05, Window.square(1.0))

    def test_height_takes_what_operator_index_takes(self, square):
        want = GenerationLimits(1, 0.05, Window.square(1.0))
        lim = GenerationLimits(np.int64(1), 0.05, Window.square(1.0))
        assert type(lim.max_height) is int and lim == want
        assert generate(square, "packing", lim).circles == generate(square, "packing", want).circles

    @pytest.mark.parametrize("radius", [float("inf"), 10**400], ids=["inf", "10**400"])
    def test_rejects_an_infinite_radius(self, radius):
        # an infinite floor used to be written as the non-JSON ``Infinity``
        with pytest.raises(ValueError, match="min_radius must be finite"):
            GenerationLimits(2, radius, Window.square(1.0))

    def test_unknown_mode_rejected(self, square):
        with pytest.raises(ValueError):
            generate(square, "orbit")

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_nothing_to_store_gives_an_empty_packing(self, mode, exact):
        # a radius floor above every seed stores no row, and a window far
        # from the finite Apollonian configuration catalogs no mirror
        apo = make_config("apollonian")
        for lim in (GenerationLimits(2, 100.0, Window.square(1.0)),
                    GenerationLimits(2, 0.05, Window(500, 500, 501, 501))):
            assert len(generate(apo, mode, lim, exact)) == 0


# ---------------------------------------------------------------------------
# frozen square runs


class TestSquarePacking:
    def test_height_zero_is_the_window_bases(self, square):
        w = Window(-1, -3, 5, 3)
        lim = GenerationLimits(max_height=0, min_radius=0.01, window=w)
        p = generate(square, "packing", lim)
        expected = {g.circle.key() for g in square.circles_in_window("base", w)}
        assert {c.circle.key() for c in p.circles} == expected
        assert all(c.height == 0 and c.word == () for c in p.circles)
        assert all(c.kind == "base" for c in p.circles)

    def test_frozen_counts_and_heights(self, square_h2):
        by_height = {}
        for c in square_h2.circles:
            by_height[c.height] = by_height.get(c.height, 0) + 1
        assert by_height == {0: 21, 1: 708, 2: 882}

    def test_frozen_reflection_chain(self, square, square_h2):
        c1 = icirc(23, 9, 12, 8)
        rec = square_h2.find(c1)
        assert rec is not None
        assert rec.height == 1
        assert rec.word == ("d0@0,0",)
        assert rec.source == "b0@2,0"
        c2 = reflect(square.circle_from_id("d0@1,0"), c1)
        assert c2.key() == (QuadExt(167), QuadExt(25), QuadExt(60), QuadExt(24))
        rec2 = square_h2.find(c2)
        assert rec2.height == 2
        assert rec2.word == ("d0@1,0", "d0@0,0")
        assert rec2.source == "b0@2,0"

    def test_every_witness_word_reproduces_its_circle(self, square, square_h2):
        for rec in square_h2.circles:
            src = square.circle_from_id(rec.source)
            img = apply_word(square, rec.word, src)
            assert img.key() == rec.circle.key()
            assert len(rec.word) == rec.height

    def test_every_circle_on_the_quadric(self, square_h2):
        for rec in square_h2.circles:
            assert rec.circle.quadric_residual().sign() == 0

    def test_output_sorted_by_height_then_curvature(self, square_h2):
        keys = [
            (c.height, as_float(c.circle.curvature))
            for c in square_h2.circles
        ]
        assert keys == sorted(keys)

    def test_height_of_and_find(self, square_h2):
        c1 = icirc(23, 9, 12, 8)
        assert square_h2.height_of(c1) == 1
        with pytest.raises(KeyError):
            square_h2.height_of(icirc(-1, 1, 0, 0).reversed())

    def test_find_follows_edits_to_the_list(self, square):
        lim = GenerationLimits(max_height=2, min_radius=0.01, window=Window(-1, -3, 5, 3))
        p = generate(square, "packing", lim)
        last = p.circles[-1]
        assert p.find(last.circle) is last
        p.circles.pop()
        assert p.find(last.circle) is None
        with pytest.raises(KeyError):
            p.height_of(last.circle)
        p.circles.append(last)
        assert p.find(last.circle) is last
        assert p.find(last.circle.as_floats()) is last

    def test_min_curvature_per_height_is_odd_square(self, square):
        lim = GenerationLimits(
            max_height=3, min_radius=0.015, window=Window(-4, -4, 4, 4)
        )
        p = generate(square, "packing", lim)
        best = {}
        for c in p.circles:
            b = as_float(c.circle.curvature)
            best[c.height] = min(best.get(c.height, b), b)
        assert best == {0: 1.0, 1: 9.0, 2: 25.0, 3: 49.0}


class TestHeightAdjacency:
    """Reflecting a packing circle through its containing dual lowers the
    height by exactly one; through any other non-orthogonal dual raises it
    by exactly one; orthogonal duals fix the circle."""

    def test_adjacent_heights(self, square):
        w = Window(-2, -2, 2, 2)
        p3 = generate(
            square,
            "packing",
            GenerationLimits(max_height=3, min_radius=0.008, window=w),
        )
        core = w.shrunk(0.9)
        inner = [
            rec
            for rec in p3.circles
            if 1 <= rec.height <= 2 and core.contains_circle(rec.circle)
        ]
        assert len(inner) >= 10
        duals = square.circles_in_window("dual", Window(-4, -4, 4, 4))
        checked_down = checked_up = 0
        for rec in inner[:40]:
            host = rec.word[0]
            for g in duals:
                prod = inversive_product(rec.circle, g.circle)
                image = reflect(g.circle, rec.circle)
                hit = p3.find(image)
                if g.ident == host:
                    if hit is not None:
                        assert hit.height == rec.height - 1
                        checked_down += 1
                elif prod.sign() == 0:
                    assert image.key() == rec.circle.key()
                elif hit is not None:
                    assert hit.height == rec.height + 1
                    checked_up += 1
        assert checked_down >= 10 and checked_up >= 10


# ---------------------------------------------------------------------------
# dual and super modes


class TestDualMode:
    def test_smallest_reflection(self, square):
        w = Window(-4, -4, 4, 4)
        p = generate(
            square, "dual", GenerationLimits(max_height=1, min_radius=0.01, window=w)
        )
        assert all(c.kind == "dual" for c in p.circles)
        assert all(as_float(c.circle.curvature) > 0 for c in p.circles)
        # tangent duals at (1,1) and (3,1): the image has curvature 3
        d_a = square.circle_from_id("d0@0,0")
        d_b = square.circle_from_id("d0@1,0")
        img = reflect(d_b, d_a)
        assert img.curvature == QuadExt(3)
        rec = p.find(img)
        assert rec is not None and rec.height == 1
        assert rec.word == ("d0@1,0",) and rec.source == "d0@0,0"

    def test_orientation_quotient_lookup(self, square):
        w = Window(-2, -2, 2, 2)
        p = generate(
            square, "dual", GenerationLimits(max_height=1, min_radius=0.05, window=w)
        )
        seed = square.circle_from_id("d0@0,0")
        assert p.find(seed).height == 0
        assert p.find(seed.reversed()).height == 0

    def test_seed_layer_is_window_duals(self, square):
        w = Window(-3, -3, 3, 3)
        p = generate(
            square, "dual", GenerationLimits(max_height=0, min_radius=0.01, window=w)
        )
        expected = {g.circle.key() for g in square.circles_in_window("dual", w)}
        assert {c.circle.key() for c in p.circles} == expected


@pytest.fixture(scope="module")
def super_h2(square):
    w = Window(-2, -2, 2, 2)
    return generate(
        square, "super", GenerationLimits(max_height=2, min_radius=0.02, window=w)
    )


class TestSuperMode:
    def test_kinds_and_words(self, super_h2):
        assert all(c.kind == "super" for c in super_h2.circles)
        assert all(len(c.word) == c.height for c in super_h2.circles)

    def test_frozen_counts(self, super_h2):
        by_height = {}
        for c in super_h2.circles:
            by_height[c.height] = by_height.get(c.height, 0) + 1
        assert by_height == {0: 21, 1: 648, 2: 1744}

    def test_base_letters_appear(self, super_h2):
        letters = {letter for c in super_h2.circles for letter in c.word}
        assert any(l.startswith("b") for l in letters)
        assert any(l.startswith("d") for l in letters)

    def test_witness_words_reproduce_circles(self, square, super_h2):
        # stored circles are normalized to positive curvature, so a witness
        # may land on the opposite orientation of the same circle
        for rec in super_h2.circles:
            src = square.circle_from_id(rec.source)
            img = apply_word(square, rec.word, src)
            if img.key() != rec.circle.key():
                assert img.reversed().key() == rec.circle.key()

    def test_seed_reflection_in_own_mirror_is_orientation_flip(self, square, super_h2):
        d = square.circle_from_id("d0@0,0")
        flipped = reflect(d, d)
        assert flipped.key() == d.reversed().key()
        rec = super_h2.find(d)
        assert rec is not None and rec.height == 0

    def test_all_coordinates_integral(self, super_h2):
        for rec in super_h2.circles:
            assert all(x.is_integer() for x in rec.circle.key())

    def test_quotient_key_reads_every_column(self):
        # hexagonal's super lattice has width 8 and d0 is the row
        # [0, 0, 0, 0, -1, 1, 0, 0]: its sign sits past column 3, and a
        # sign read off columns 0-3 alone kept it and its reversal apart
        row = np.array([[0, 0, 0, 0, -1, 1, 0, 0]], dtype=np.int64)
        both = np.vstack([row, -row])
        canon = both * _canonical_sign(both)[:, None]
        assert (canon[0] == canon[1]).all()
        cfg = make_config("hexagonal")
        packing = generate(cfg, "super", GenerationLimits(1, 0.01, Window.square(1.0)))
        keys = [c.circle.key() for c in packing.circles]
        assert len(set(keys)) == len(keys)
        assert [c.height for c in packing.circles if c.circle == cfg.circle_from_id("d0@0,0")] == [0]


# ---------------------------------------------------------------------------
# independent brute-force oracle


def brute_force_orbit(seeds, gens, max_len):
    """Mask-free breadth-first orbit search.

    Reflects every frontier circle across every generator with no
    descent, radius or window pruning, deduplicating on a rounded float
    grid.  Independent of the engine's margin, prefilter and peeling
    logic.  Returns one array of newly reached 4-vectors per level.
    """
    mats = []
    for g in gens:
        m = np.array([as_float(x) for x in g.circle.key()])
        qm = np.array([-m[1] / 2.0, -m[0] / 2.0, m[2], m[3]])
        mats.append(np.eye(4) - 2.0 * np.outer(m, qm))
    frontier = np.array([[as_float(x) for x in g.circle.key()] for g in seeds])
    # adding 0.0 folds -0.0 into +0.0 so byte keys are orientation stable
    seen = {(np.round(row, 7) + 0.0).tobytes() for row in frontier}
    layers = [frontier]
    for _ in range(max_len):
        batch = np.vstack([frontier @ m.T for m in mats])
        grid = np.round(batch, 7) + 0.0
        _, first = np.unique(grid, axis=0, return_index=True)
        fresh = []
        for i in np.sort(first):
            kb = grid[i].tobytes()
            if kb not in seen:
                seen.add(kb)
                fresh.append(batch[i])
        if not fresh:
            break
        frontier = np.array(fresh)
        layers.append(frontier)
    return layers


def oracle_heights(layers, window, min_radius):
    """Level map of the orbit members the engine is required to report."""
    out = {}
    for lvl, rows in enumerate(layers):
        b = rows[:, 1]
        safe = np.where(b == 0.0, 1.0, b)
        cx, cy, r = rows[:, 2] / safe, rows[:, 3] / safe, np.abs(1.0 / safe)
        keep = (b != 0.0) & (r >= min_radius)
        dx = np.maximum(np.maximum(window.x0 - cx, 0.0), cx - window.x1)
        dy = np.maximum(np.maximum(window.y0 - cy, 0.0), cy - window.y1)
        keep &= dx * dx + dy * dy <= r * r
        for row in rows[keep]:
            out.setdefault(tuple(round(v, 7) for v in row), lvl)
    return out


def packing_key_heights(packing, window, min_radius):
    out = {}
    for rec in packing.circles:
        c = rec.circle
        (cx, cy), r = c.center(), abs(c.radius())
        if r >= min_radius and window.meets_disk(cx, cy, r):
            out[tuple(round(as_float(x), 7) for x in c.key())] = rec.height
    return out


class TestOracleApollonian:
    def test_complete_agreement(self):
        cfg = make_config("apollonian")
        w = Window(-8, -8, 8, 8)
        rho = 0.01
        p = generate(
            cfg, "packing", GenerationLimits(max_height=4, min_radius=rho, window=w)
        )
        seeds = cfg.circles_in_window("base", w)
        gens = cfg.circles_in_window("dual", w)
        layers = brute_force_orbit(seeds, gens, 4)
        assert packing_key_heights(p, w, rho) == oracle_heights(layers, w, rho)

    def test_engine_counts(self):
        cfg = make_config("apollonian")
        p = generate(
            cfg,
            "packing",
            GenerationLimits(max_height=4, min_radius=0.01, window=Window(-8, -8, 8, 8)),
        )
        by_height = {}
        for c in p.circles:
            by_height[c.height] = by_height.get(c.height, 0) + 1
        assert by_height == {0: 4, 1: 4, 2: 12, 3: 36, 4: 84}


class TestOracleSquare:
    def test_local_agreement(self, square):
        w = Window(-1, -1, 1, 1)
        rho = 0.015
        p = generate(
            square, "packing", GenerationLimits(max_height=3, min_radius=rho, window=w)
        )
        engine = packing_key_heights(p, w, rho)
        pad = Window(-5, -5, 5, 5)
        seeds = square.circles_in_window("base", pad)
        gens = square.circles_in_window("dual", pad)
        layers = brute_force_orbit(seeds, gens, 3)
        compared = 0
        for key, lvl in oracle_heights(layers, w, rho).items():
            # chains through mirrors beyond the oracle's catalog can beat
            # its first-found level, so only its certified heights compare
            assert key in engine
            assert engine[key] <= lvl
            if engine[key] == lvl:
                compared += 1
        assert compared >= 100


class TestOracleWallpaper:
    def test_complete_agreement(self):
        # every chain of two reflections that lands on the unit window
        # starts and turns within the pad; a wider pad lets the oracle's
        # rounded float keys split a seed it reaches again at level 2
        cfg = make_config("wallpaper:p4")
        w = Window(-1, -1, 1, 1)
        rho = 0.02
        p = generate(cfg, "packing", GenerationLimits(max_height=2, min_radius=rho, window=w))
        pad = Window(-4, -4, 4, 4)
        seeds = cfg.circles_in_window("base", pad)
        gens = cfg.circles_in_window("dual", pad)
        layers = brute_force_orbit(seeds, gens, 2)
        engine = packing_key_heights(p, w, rho)
        assert engine == oracle_heights(layers, w, rho)
        assert {h for h in engine.values()} == {0, 1, 2}


# ---------------------------------------------------------------------------
# other configurations and lanes


class TestOtherConfigs:
    def test_triangular_heights_and_quadric(self):
        cfg = make_config("triangular")
        p = generate(
            cfg,
            "packing",
            GenerationLimits(max_height=2, min_radius=0.01, window=Window(-3, -3, 3, 3)),
        )
        assert {c.height for c in p.circles} == {0, 1, 2}
        for rec in p.circles:
            assert rec.circle.quadric_residual().sign() == 0

    def test_hexagonal_heights_and_witnesses(self):
        cfg = make_config("hexagonal")
        p = generate(
            cfg,
            "packing",
            GenerationLimits(max_height=2, min_radius=0.01, window=Window(-3, -3, 3, 3)),
        )
        assert {c.height for c in p.circles} == {0, 1, 2}
        for rec in p.circles:
            if rec.height:
                src = cfg.circle_from_id(rec.source)
                assert apply_word(cfg, rec.word, src).key() == rec.circle.key()

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("mode", ["dual", "super"])
    def test_quotient_modes_report_bounded_orientation(self, mode, exact):
        # the enclosing base circle has negative curvature as given
        cfg = make_config("apollonian")
        lim = GenerationLimits(max_height=1, min_radius=0.05, window=Window.square(1))
        p = generate(cfg, mode, lim, exact=exact)
        assert all(as_float(c.circle.curvature) > 0 for c in p.circles)

    def test_wallpaper_lane_runs(self):
        cfg = make_config("wallpaper:p4m")
        p = generate(
            cfg,
            "packing",
            GenerationLimits(max_height=1, min_radius=0.01, window=Window(-2, -2, 2, 2)),
        )
        heights = {c.height for c in p.circles}
        assert heights == {0, 1}
        for rec in p.circles:
            if rec.height:
                src = cfg.circle_from_id(rec.source)
                assert apply_word(cfg, rec.word, src).key() == rec.circle.key()


class TestFloatMode:
    def test_matches_exact_lane(self, square):
        lim = GenerationLimits(
            max_height=1, min_radius=0.01, window=Window(-1, -3, 5, 3)
        )
        exact = generate(square, "packing", lim, exact=True)
        approx = generate(square, "packing", lim, exact=False)
        assert len(exact.circles) == len(approx.circles)
        for a, b in zip(exact.circles, approx.circles):
            assert a.height == b.height
            for x, y in zip(a.circle.key(), b.circle.key()):
                assert abs(as_float(x) - y) < 1e-9
            assert not b.circle.is_exact


class TestWindowCompleteness:
    """Every circle of a larger window's run that meets the window must be
    found, with the same height, word and source, by the window's own run:
    the per-row pads lose nothing."""

    @pytest.mark.parametrize("mode", ["packing", "dual"])
    @pytest.mark.parametrize("name", ["square", "triangular", "hexagonal"])
    def test_closed_window(self, name, mode):
        cfg = make_config(name)
        w = Window.square(1.5)

        def run(window):
            lim = GenerationLimits(max_height=3, min_radius=0.02, window=window)
            return generate(cfg, mode, lim)

        def summary(circles):
            return sorted(
                (tuple(str(x) for x in p.circle.key()), p.height, p.word, p.source)
                for p in circles
            )

        small = run(w).circles
        inside = [p for p in run(Window.square(3.0)).circles if w.meets_circle(p.circle)]
        assert len(small) > 100
        assert summary(inside) == summary(small)


class TestCatalogs:
    """``generate`` builds one catalog where the seed kinds are the mirror
    kinds, and derives one lattice per catalog, a tie included."""

    @staticmethod
    def seed_tie(cfg, mode):
        """Limits whose padded window has a seed translate on its edge: the
        first seed motif circle moved by k v1 = (2k, 0) on the square."""
        lim = GenerationLimits(1, 0.05, Window.square(1.0))
        pad = _margin_schedule(cfg, mode, lim)[0]
        seed = cfg.motif(_SEED_KINDS[mode][0])[0]
        (cx, cy), r = seed.center(), seed.radius()
        x = cx + 2 * (int((r + pad) / 2) + 2)
        w = Window(cx - 1.0, cy - 1.0, x - r - pad, cy + 1.0)
        assert abs((x - w.x1) - (r + pad)) < 1e-12
        return GenerationLimits(1, 0.05, w)

    @pytest.mark.parametrize("mode, builds", [("packing", 2), ("dual", 1), ("super", 1)])
    def test_one_catalog_and_lattice_where_seeds_mirror(self, mode, builds, monkeypatch):
        made, derived = [], []
        catalog, derive = Configuration.catalog, configs.derive_lattice
        monkeypatch.setattr(Configuration, "catalog", lambda *a, **k: made.append(a[1]) or catalog(*a, **k))
        monkeypatch.setattr(configs, "derive_lattice", lambda *a: derived.append(a) or derive(*a))
        cfg = make_config("square")
        packing = generate(cfg, mode, self.seed_tie(cfg, mode))
        assert len(packing) > 0
        assert len(made) == len(derived) == builds
        assert made[0] == _SEED_KINDS[mode] and made[-1] == _MIRROR_KINDS[mode]


def _lane(cfg, mode, lim, exact=True):
    pads = _margin_schedule(cfg, mode, lim)
    mirrors = cfg.catalog(_MIRROR_KINDS[mode], lim.window, pads[0], mode)
    seeds = cfg.catalog(_SEED_KINDS[mode], lim.window, pads[0], mode)
    lane = _ArrayLane(cfg, mode, lim, mirrors, seeds, exact, pads)
    lane.run()
    return lane


def _reference_keys(lane, chunk):
    """The key super mode deduplicates on, for any lane's rows, kept here as
    the reference: the kind index, then the row on integers or its 1e-9 grid
    on floats, canonically signed in the quotient modes."""
    canon = chunk.rows if lane.exact else np.round(chunk.rows * 1e9)
    if lane.quotient:
        canon = canon * _canonical_sign(canon)[:, None]
    return [(k, *row) for k, row in zip(chunk.kind.tolist(), canon.astype(np.int64).tolist())]


def _offset_window(cfg, where):
    """A unit window at the origin, moved by the lattice vector 3 v1 - 2 v2,
    or moved off the lattice by (0.41, -0.23)."""
    ox = oy = 0.0
    if where == "lattice":
        (v1, v2) = cfg.lattice
        ox, oy = as_float(3 * v1[0] - 2 * v2[0]), as_float(3 * v1[1] - 2 * v2[1])
    elif where == "off-lattice":
        ox, oy = 0.41, -0.23
    return Window(ox - 1.0, oy - 1.0, ox + 1.0, oy + 1.0)


class TestStoredLevels:
    """Packing and dual mode store every level as found: no row is reached
    twice (see the engine module), so no row is dropped, no key is built,
    and no two stored rows share the reference key.  Super mode still drops
    the rows its key set has seen."""

    @staticmethod
    def admitted(monkeypatch):
        """Record each batch the lanes admit, before any deduplication."""
        batches = []
        admit = _ArrayLane._admit

        def record(lane, batch):
            batches.append(_reference_keys(lane, batch))
            admit(lane, batch)

        monkeypatch.setattr(_ArrayLane, "_admit", record)
        return batches

    @pytest.mark.parametrize("mode", ["packing", "dual"])
    @pytest.mark.parametrize("name", configs.config_names())
    def test_no_row_is_reached_twice(self, name, mode, monkeypatch):
        cfg = make_config(name)
        places = ["origin", "off-lattice"] + (["lattice"] if cfg.lattice is not None else [])
        batches = self.admitted(monkeypatch)
        for exact in (True, False):
            for where in places:
                batches.clear()
                lane = _lane(cfg, mode, GenerationLimits(2, 0.02, _offset_window(cfg, where)), exact)
                assert lane.seen is None
                assert [len(c.rows) > 0 for c in lane.chunks] == [True] * 3, (exact, where)
                stored = [key for c in lane.chunks for key in _reference_keys(lane, c)]
                assert len(stored) == sum(map(len, batches))
                assert len(set(stored)) == len(stored)

    @pytest.mark.parametrize("exact", [True, False])
    def test_overlapping_duals_store_a_row_twice(self, square, exact):
        # the premise fails where duals overlap: the reference key then
        # sees repeats among the stored rows, which the host check names
        extra = from_center_radius((QuadExt(1), QuadExt(0)), QuadExt(1))
        cfg = Configuration("square+edge dual", 1, square.motif_base,
                            square.motif_dual + [extra], square.lattice)
        lane = _lane(cfg, "packing", GenerationLimits(2, 0.05, Window.square(2.0)), exact)
        stored = [key for c in lane.chunks for key in _reference_keys(lane, c)]
        assert len(set(stored)) < len(stored)
        with pytest.raises(ArithmeticError, match="the dual family is not disjoint"):
            lane.finals()

    @pytest.mark.parametrize("exact", [True, False])
    def test_super_drops_repeats(self, square, exact, monkeypatch):
        batches = self.admitted(monkeypatch)
        lane = _lane(square, "super", GenerationLimits(3, 0.05, Window.square(1.0)), exact)
        stored = [key for c in lane.chunks for key in _reference_keys(lane, c)]
        candidates = [key for keys in batches for key in keys]
        assert len(set(stored)) == len(stored) == len(lane.seen) == len(set(candidates))
        assert len(candidates) > len(stored)


class TestLevelJoin:
    """The join of a level's frontier to the mirror centers must keep every
    (row, mirror) pair that the dense product of all rows with all live
    mirrors would turn into a kept image."""

    @pytest.mark.parametrize(
        "name, mode, height, half, rho",
        [("square", "packing", 3, 2.0, 0.02), ("square", "super", 2, 1.0, 0.05),
         ("hexagonal", "dual", 3, 2.0, 0.02)],
    )
    def test_join_covers_dense_pairs(self, name, mode, height, half, rho):
        cfg = make_config(name)
        lim = GenerationLimits(max_height=height, min_radius=rho, window=Window.square(half))
        lane = _lane(cfg, mode, lim)
        level = 2
        live = lane._live_mirrors(level)
        checked = 0
        (chunk,) = [c for c in lane.chunks if c.level == level - 1]
        for k in range(len(lane.kinds)):
            front = chunk.rows[chunk.kind == k]
            fv = lane._float_view(front)
            # dense: every frontier row against every live mirror
            p = fv @ lane.mirror_q[live].T
            mask = np.abs(p) > 1e-7 if mode == "super" else p <= -1.0 + 1e-6
            src, col = np.nonzero(mask)
            via = live[col]
            kept = lane._kept(lane.reflect.images(front[src], via), level)
            dense = set(zip(src[kept].tolist(), via[kept].tolist()))
            joined = set(zip(*(x.tolist() for x in lane._pairs(fv, live))))
            assert dense <= joined
            checked += len(dense)
        assert checked > 100


_PEEL_STEPS = 96


def _seed_id(cfg, c, kind, quotient):
    ident = cfg.contains_circle(c, kind)
    if ident is None and quotient:
        ident = cfg.contains_circle(c.reversed(), kind)
    return ident


class _PeelIndex:
    """Spatial lookup over the cataloged duals for the reference peel.

    Peeling retraces discovery chains, and every circle on such a chain
    sits inside its discovery mirror, so the containing dual is always in
    the mirror catalog; a float center/radius prefilter narrows the
    candidates before the exact containment test.
    """

    def __init__(self, duals):
        self.duals = [
            g for g in duals if not g.circle.is_line and as_float(g.circle.curvature) > 0
        ]
        geo = [(g.circle.center(), abs(g.circle.radius())) for g in self.duals]
        self.d_cx = np.array([c[0] for c, _ in geo] or [0.0])
        self.d_cy = np.array([c[1] for c, _ in geo] or [0.0])
        self.d_r = np.array([r for _, r in geo] or [0.0])

    def host(self, c):
        """The unique dual whose disk contains c, or None."""
        if c.is_line or as_float(c.curvature) <= 0 or not self.duals:
            return None
        (cx, cy), r = c.center(), abs(c.radius())
        slack = self.d_r - r + 1e-6
        cand = (slack > 0) & ((self.d_cx - cx) ** 2 + (self.d_cy - cy) ** 2 <= slack**2)
        hosts = []
        for i in np.nonzero(cand)[0]:
            g = self.duals[i]
            prod = inversive_product(c, g.circle)
            if prod >= 1 and c.curvature >= g.circle.curvature and c.key() != g.circle.key():
                hosts.append(g)
        if len(hosts) > 1:
            raise ArithmeticError(f"circle at ~{c.center()} sits inside {len(hosts)} duals")
        return hosts[0] if hosts else None


def _peel(cfg, circle, seed_kind, quotient, index):
    """Heights and witness words one circle at a time, in QuadExt
    arithmetic: reflect out of the unique containing dual until a seed."""
    word = []
    cur = circle
    for _ in range(_PEEL_STEPS):
        ident = _seed_id(cfg, cur, seed_kind, quotient)
        if ident is not None:
            return word, ident
        host = index.host(cur)
        if host is None:
            raise ArithmeticError(f"no seed and no host dual at ~{cur.center()}")
        word.append(host.ident)
        cur = reflect(host.circle, cur)
    raise ArithmeticError(f"peeling did not terminate in {_PEEL_STEPS} steps")


_SHIFT_IDS = {(0, 0): "shift0", (3, -2): "shift1", (1, -1): "shift2"}
_PEEL_CASES = (
    [(n, m, s) for s in ((0, 0), (3, -2)) for m in ("packing", "dual")
     for n in ("square", "triangular", "hexagonal")]
    + [("apollonian", m, (0, 0)) for m in ("packing", "dual")]
    + [(f"wallpaper:{g}", m, s) for s in ((0, 0), (1, -1)) for m in ("packing", "dual")
       for g in ("p4", "p3m1", "pmg", "p6m")]
)


class TestBatchedPeel:
    """The array lane reads words off its discovery chains; the object
    peel, one circle at a time in QuadExt arithmetic, is the reference."""

    LIMITS = dict(max_height=2, min_radius=0.02)

    @staticmethod
    def window(cfg, shift):
        # a unit-scale window moved by the lattice vector m v1 + n v2
        if cfg.lattice is None:
            return Window.square(1.5)
        (v1, v2), (m, n) = cfg.lattice, shift
        ox = m * as_float(v1[0]) + n * as_float(v2[0])
        oy = m * as_float(v1[1]) + n * as_float(v2[1])
        return Window(ox - 1.5, oy - 1.5, ox + 1.5, oy + 1.5)

    @pytest.mark.parametrize(
        "name, mode, shift",
        [pytest.param(*c, id=f"{c[0]}-{c[1]}-{_SHIFT_IDS[c[2]]}") for c in _PEEL_CASES],
    )
    def test_matches_object_peel(self, name, mode, shift):
        cfg = make_config(name)
        lim = GenerationLimits(window=self.window(cfg, shift), **self.LIMITS)
        packing = generate(cfg, mode, lim)
        pads = _margin_schedule(cfg, mode, lim)
        index = _PeelIndex(cfg.catalog(("dual",), lim.window, pads[0]))
        seed_kind = "base" if mode == "packing" else "dual"
        assert max(p.height for p in packing.circles) == 2
        for p in packing.circles:
            word, source = _peel(cfg, p.circle, seed_kind, mode != "packing", index)
            assert (list(p.word), p.source, p.height) == (word, source, len(word))

    @pytest.mark.parametrize("mode", ["packing", "dual"])
    @pytest.mark.parametrize("name", ["square", "triangular", "hexagonal"])
    def test_float_words_match_exact(self, name, mode):
        cfg = make_config(name)
        lim = GenerationLimits(window=self.window(cfg, (1, 1)), **self.LIMITS)
        exact = generate(cfg, mode, lim)
        approx = generate(cfg, mode, lim, exact=False)
        matched = 0
        for p in exact.circles:
            hit = approx.find(p.circle.as_floats())
            if hit is None:
                continue
            matched += 1
            assert (hit.word, hit.source, hit.height) == (p.word, p.source, p.height)
        assert matched >= 0.9 * len(exact.circles)


class TestHostCheck:
    """Words come from the discovery chains; in the descending modes every
    non-seed row on a kept row's chain must lie inside exactly one dual, the
    mirror it was reached through."""

    LIMITS = GenerationLimits(max_height=2, min_radius=0.05, window=Window.square(2.0))

    @staticmethod
    def summary(circles):
        return [(p.circle.key(), p.word, p.source, p.height) for p in circles]

    @pytest.mark.parametrize("exact", [True, False])
    def test_overlapping_duals_are_named(self, square, exact):
        # a second unit dual on the cell edge overlaps the one at the cell
        # center, so some images lie inside both
        extra = from_center_radius((QuadExt(1), QuadExt(0)), QuadExt(1))
        cfg = Configuration("square+edge dual", 1, square.motif_base,
                            square.motif_dual + [extra], square.lattice)
        with pytest.raises(ArithmeticError, match="inside 2 duals; the dual family is not disjoint"):
            generate(cfg, "packing", self.LIMITS, exact=exact)

    @pytest.mark.parametrize("mode", ["packing", "dual"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_wrong_via_is_named(self, square, mode, exact):
        lane = _lane(square, mode, self.LIMITS, exact)
        chunk = next(c for c in lane.chunks if c.level == 1)
        chunk.via[:] = (chunk.via + 1) % len(lane.mirrors)
        with pytest.raises(ArithmeticError, match="not the mirror it was reached through"):
            lane.finals()

    @pytest.mark.parametrize("exact", [True, False])
    def test_dual_rows_in_either_orientation(self, exact):
        # the quotient keys identify a circle with its reversal, so a stored
        # row may carry either orientation; the host check and the output
        # take the positive one
        cfg = make_config("hexagonal")
        lane = _lane(cfg, "dual", self.LIMITS, exact)
        want = self.summary(lane.finals().circles())
        for chunk in lane.chunks[1:]:
            chunk.rows[::2] *= -1
        assert self.summary(lane.finals().circles()) == want
        assert max(height for *_, height in want) == 2


class TestLatticeOverflow:
    def test_far_window_raises_named_error(self, square):
        # at 4e4 the mirrors' co-curvatures are ~3e9, and the reflection
        # matrices and their products leave int64
        far = Window(4e4 - 1, 4e4 - 1, 4e4 + 1, 4e4 + 1)
        lim = GenerationLimits(max_height=2, min_radius=0.05, window=far)
        with pytest.raises(LatticeOverflowError) as err:
            generate(square, "packing", lim)
        assert isinstance(err.value, ArithmeticError)
        assert err.value.magnitude >= 2.0**62
        assert square.circle_from_id(err.value.mirror).is_exact

    def test_far_float_grid_raises_named_error(self, square):
        # at 3e4 the images' co-curvatures are ~1e10, so their 1e-9 grid
        # keys leave int64; the cast used to wrap into wrong counts
        far = Window(3e4 - 1, 3e4 - 1, 3e4 + 1, 3e4 + 1)
        lim = GenerationLimits(max_height=1, min_radius=0.05, window=far)
        with pytest.raises(LatticeOverflowError) as err:
            generate(square, "super", lim, exact=False)
        assert err.value.magnitude >= 2.0**62
        assert square.circle_from_id(err.value.mirror) is not None

    @pytest.mark.parametrize("mode", ["packing", "dual"])
    def test_descending_float_runs_keep_the_grid_guard(self, square, mode):
        # the descending modes build no grid keys, yet their float runs
        # raise where super mode's do, naming a catalogued mirror
        far = Window(3e4 - 1, 3e4 - 1, 3e4 + 1, 3e4 + 1)
        lim = GenerationLimits(max_height=1, min_radius=0.05, window=far)
        with pytest.raises(LatticeOverflowError) as err:
            generate(square, mode, lim, exact=False)
        assert err.value.magnitude >= 2.0**62
        pad = _margin_schedule(square, mode, lim)[0]
        assert err.value.mirror in square.catalog(_MIRROR_KINDS[mode], far, pad, mode).idents


class TestOutputOrder:
    """generate sorts on keys its lanes compute from their rows; the order
    must be the one given by converting every output circle."""

    @staticmethod
    def key(p):
        c = p.circle
        return (p.height, as_float(c.curvature), as_float(c.h1), as_float(c.h2),
                as_float(c.co_curvature))

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("mode", ["packing", "dual", "super"])
    @pytest.mark.parametrize("name", ["square", "triangular", "hexagonal"])
    def test_order_is_stable_sort_by_as_float(self, name, mode, exact):
        cfg = make_config(name)
        (v1, v2) = cfg.lattice
        ox, oy = as_float(v1[0] + v2[0]), as_float(v1[1] + v2[1])
        height = 1 if mode == "super" else 2
        lim = GenerationLimits(height, 0.05, Window(ox - 1.5, oy - 1.0, ox + 1.0, oy + 1.5))
        circles = generate(cfg, mode, lim, exact=exact).circles
        assert len(circles) > 20
        assert circles == sorted(circles, key=self.key)
        keys = [self.key(p) for p in circles]
        # distinct keys: the order does not rest on the lanes' order
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize(
        "scale",
        [QuadExt(1), QuadExt(3), QuadExt(-2), QuadExt(1, 0, 3), QuadExt.sqrt_d(3),
         QuadExt(0, 1, 3, 3), QuadExt(1, 1, 2, 2)],
        ids=str,
    )
    def test_keys_are_as_float_bit_for_bit(self, scale):
        rng = np.random.default_rng(7)
        # k times a numerator of the scale reaches 2^62, the int64 budget
        top = 2**62 // max(abs(scale.a), abs(scale.b), 1)
        ints = np.concatenate([
            np.arange(-50, 50),
            rng.integers(-top, top, 300),
            rng.integers(-(2**54), 2**54, 300),
            [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1],
        ]).astype(np.int64)
        got = as_floats(ints * scale.a, ints * scale.b, scale.q, scale.d)
        want = [as_float(k * scale) for k in ints.tolist()]
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
