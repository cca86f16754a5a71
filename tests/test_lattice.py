"""Integer row lattices derived from configuration data, and the exact
invariants of runs on every configuration.

Every catalogued seed and mirror of every configuration has an integer
row, and every mirror matrix is integral and acts as the exact
reflection.  The lattices of the square, triangular and hexagonal
families and of p4m are pinned literally; Apollonian has no aligned
lattice and takes the span of its motif rows.  Exact runs of every
configuration and mode have zero quadric residual, replayable witness
words, heights equal to word lengths in the descending modes, and a JSON
round trip that returns them unchanged.  Float views of integer rows
stay accurate where the conjugate norm leaves int64, and float runs reach
as deep and as far from the origin as their 1e-9 grid keys allow.

Derivation is checked against a reference: the closure over 8-column
Hermite forms of every image in every round, with list solves, which the
per-coordinate closure and its object-array solves must reproduce bit for
bit on every lattice of every configuration.  Growing a span by
membership gives the canonical span, and no lattice is derived before a
run needs it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpack.configs import Window, _row_lattice, config_names, make_config
from invpack.engine import (
    _MIRROR_KINDS,
    _SEED_KINDS,
    MODES,
    GenerationLimits,
    LatticeOverflowError,
    apply_word,
    generate,
)
from invpack.exact import QuadExt, as_float
from invpack.inversive import InversiveCircle, reflect
from invpack.lattice import (
    _EMPTY,
    _K,
    _ROUNDS,
    _SWAP,
    Mirrors,
    RowLattice,
    _apply,
    _egcd,
    _flat,
    _grow,
    _lcm,
    _left_inverse,
    _member,
    _mul,
    _span,
    _sum,
    _translation,
    _triples,
    _vectors,
)
from invpack.render import from_json, to_json

CONFIGS = config_names()
S3 = QuadExt.sqrt_d(3)


@pytest.fixture(scope="module")
def configs():
    return {name: make_config(name) for name in CONFIGS}


def _lattice_keys(mode):
    """The (seed kinds, mirror kinds) keys of the lattices a run in ``mode``
    derives: one for all its seed kinds, and the translation lattice of a
    kind that only mirrors; None stands for the translation lattices of
    both kinds."""
    if mode is None:
        return {(("base",), ()), (("dual",), ())}
    only = [k for k in _MIRROR_KINDS[mode] if k not in _SEED_KINDS[mode]]
    return {(_SEED_KINDS[mode], _MIRROR_KINDS[mode])} | {((k,), ()) for k in only}


def _rows(cfg, mode, kind, w):
    cat = cfg.catalog((kind,), w, mode=mode)
    return cat, cat.lat, cat.rows


class TestRowLattices:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", CONFIGS)
    def test_catalog_rows_and_mirror_matrices(self, configs, name, mode):
        cfg, w = configs[name], Window.square(3.0)
        for kind in set(_SEED_KINDS[mode] + _MIRROR_KINDS[mode]):
            cat, lat, rows = _rows(cfg, mode, kind, w)
            assert len(cat) and rows.dtype == np.int64
            assert lat.circles(rows) == [g.circle for g in cat]
        for kind in _SEED_KINDS[mode]:
            seeds, lat, seed_rows = _rows(cfg, mode, kind, w)
            for mkind in _MIRROR_KINDS[mode]:
                mirrors, mlat, mirror_rows = _rows(cfg, mode, mkind, w)
                mats = lat.reflections(mlat, mirror_rows, mirrors.idents)
                assert mats.shape == (len(mirrors), lat.width, lat.width)
                for i in range(0, len(mirrors), max(1, len(mirrors) // 6)):
                    for j in range(0, len(seeds), max(1, len(seeds) // 3)):
                        (image,) = lat.circles((mats[i] @ seed_rows[j])[None])
                        assert image == reflect(mirrors[i].circle, seeds[j].circle)

    # per coordinate (co-curvature, curvature, h1, h2), the generators up
    # to sign: of each kind's lattice in packing and dual mode, and of the
    # one lattice of both kinds in super mode
    PINNED = {
        "square": {"base": (1, 1, 1, 1), "dual": (1, 1, 1, 1), "super": (1, 1, 1, 1)},
        "wallpaper:p4m": {"base": (1, 1, 1, 1), "dual": (1, 1, 1, 1), "super": (1, 1, 1, 1)},
        "triangular": {"base": (1, 1, 1, S3), "dual": (S3, S3, S3, 1), "super": ({1, S3},) * 4},
        "wallpaper:p6m": {"base": (1, 1, 1, S3), "dual": (S3, S3, S3, 1), "super": ({1, S3},) * 4},
        "hexagonal": {"base": (3, 1, S3, 1), "dual": (S3, S3 / 3, 1, S3),
                      "super": ({3, S3}, {1, S3 / 3}, {1, S3}, {1, S3})},
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_lattices(self, configs, name, mode):
        cfg = configs[name]
        for kind in set(_SEED_KINDS[mode] + _MIRROR_KINDS[mode]):
            lat = _row_lattice(cfg, mode, kind)
            gens = []
            for j in range(4):
                rows = [r for r in lat.basis.tolist() if r[j] or r[4 + j]]
                assert all(sum(1 for k in range(4) if r[k] or r[4 + k]) == 1 for r in rows)
                gens.append({abs(QuadExt(r[j], r[4 + j], int(lat.q[j]), lat.d)) for r in rows})
            pinned = self.PINNED[name][mode if mode == "super" else kind]
            want = [g if isinstance(g, set) else {g} for g in pinned]
            assert lat.width == sum(map(len, want))
            assert gens == want

    @pytest.mark.parametrize("mode", MODES)
    def test_apollonian_takes_the_span(self, configs, mode):
        for kind in _SEED_KINDS[mode]:
            lat = _row_lattice(configs["apollonian"], mode, kind)
            spread = [sum(1 for j in range(4) if r[j] or r[4 + j]) for r in lat.basis.tolist()]
            assert lat.width == 4 and max(spread) > 1


class TestEveryConfiguration:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", CONFIGS)
    def test_exact_invariants(self, configs, name, mode):
        cfg = configs[name]
        height = 1 if mode == "super" else 2
        packing = generate(cfg, mode, GenerationLimits(height, 0.05, Window.square(1.0)))
        assert len(packing) > 0
        for p in packing.circles:
            c = p.circle
            assert c.quadric_residual().sign() == 0
            image = apply_word(cfg, p.word, cfg.circle_from_id(p.source))
            assert image.key() == c.key() or (mode != "packing" and image.reversed().key() == c.key())
            assert mode == "super" or p.height == len(p.word)
        back = from_json(to_json(packing))
        assert back.circles == packing.circles


class TestFloatViews:
    def test_approx_where_the_conjugate_norm_leaves_int64(self):
        # rows are (P, R) themselves; |P| < 2^31 but 3 R^2 > 2^63, with
        # P and R of opposite signs so that the conjugate path is taken
        lat = RowLattice(3, np.eye(8, dtype=np.int64).tolist(), [1, 1, 1, 1], [], [])
        rng = np.random.default_rng(3)
        p = rng.integers(-(2**31) + 1, 2**31, (200, 4))
        r = -np.sign(p) * rng.integers(1_760_000_000, 2**31, (200, 4))
        rows = np.concatenate([p, r], axis=1)
        want = lat.as_float(rows)
        assert np.allclose(lat.approx(rows), want, rtol=1e-14, atol=0.0)


class TestFloatReach:
    """Float runs read their catalog off integer rows.  Their mirror
    matrices, whose entries grow with the fourth power of the offset,
    are formed on Python integers past int64, so the 1e-9 grid keys of
    the rows bound how far from the origin a float run reaches."""

    @staticmethod
    def _limits(cfg, height, rho, k):
        (v1, v2) = cfg.lattice
        ox, oy = k * as_float(v1[0] + v2[0]), k * as_float(v1[1] + v2[1])
        return GenerationLimits(height, rho, Window(ox - 1.0, oy - 1.0, ox + 1.0, oy + 1.0))

    def test_deep_float_run_matches_exact(self, configs):
        cfg = configs["wallpaper:p3"]
        lim = self._limits(cfg, 6, 0.005, 0)
        exact = generate(cfg, "packing", lim).circles
        floats = generate(cfg, "packing", lim, exact=False).circles
        assert len(exact) == len(floats) == 260
        assert max(c.height for c in floats) >= 4
        # near ties of the float keys may order the two runs differently
        key = {(c.height, c.word, c.source): [as_float(x) for x in c.circle.key()] for c in exact}
        for f in floats:
            want = key.pop((f.height, f.word, f.source))
            assert np.allclose([as_float(x) for x in f.circle.key()], want, rtol=1e-9, atol=1e-9)

    def test_float_lookup_far_from_the_origin(self, configs):
        # co-curvatures reach ~1e4 at k = 5, where the float run's values
        # and as_float of the exact ones differ in the 13th digit
        cfg = configs["wallpaper:p4"]
        lim = self._limits(cfg, 2, 0.05, 5)
        exact = generate(cfg, "packing", lim)
        floats = generate(cfg, "packing", lim, exact=False)
        geometry = np.array([[*c.circle.center(), c.circle.radius()] for c in floats.circles])
        shared = [c for c in exact.circles
                  if (np.abs(geometry - [*c.circle.center(), c.circle.radius()]).max(axis=1) <= 1e-7).any()]
        assert (len(exact), len(floats), len(shared)) == (21, 18, 17)
        for c in shared:
            hit = floats.find(c.circle.as_floats())
            assert hit is not None
            assert np.allclose([as_float(x) for x in hit.circle.key()],
                               [as_float(x) for x in c.circle.key()], rtol=1e-12, atol=0.0)

    def test_float_super_far_from_the_origin(self, configs):
        cfg = configs["wallpaper:p3"]
        assert len(generate(cfg, "super", self._limits(cfg, 2, 0.05, 2500), exact=False)) == 354
        with pytest.raises(LatticeOverflowError):
            generate(cfg, "super", self._limits(cfg, 2, 0.05, 3000), exact=False)


class TestMirrorWalk:
    """``Mirrors.walk`` bounds each mirror over each row it acts on, not
    over the peaks of the coordinates taken from different rows."""

    def test_rows_under_the_budget_pass(self):
        big = 3 * 2**60
        start = np.array([[big, 0], [0, big]], dtype=np.int64)  # two rows, coordinate major
        shear = Mirrors(np.array([[[1, 1], [0, 1]]], dtype=np.int64), ["m"])
        # each row's bound is 3 * 2^60, the peaks' is twice that
        ((i, states, keep),) = shear.walk(start, 1)
        assert i == 0 and keep.tolist() == [True]
        assert (shear.mats[i] @ states[:, 0]).tolist() == [[big, big], [0, big]]

    def test_names_the_mirror_over_the_budget(self):
        start = np.array([[3 * 2**60], [1]], dtype=np.int64)
        mats = np.array([np.eye(2), [[2, 0], [0, 1]]], dtype=np.int64)
        with pytest.raises(LatticeOverflowError, match="at m2 would reach"):
            list(Mirrors(mats, ["m1", "m2"]).walk(start, 1))


# ---------------------------------------------------------------------------
# reference derivation: Hermite forms of 8-column vectors, the aligned
# closure over one map per generator of each entry's span, and solves by
# sums over lists


def _ref_hnf(rows):
    rows = [r for r in rows if any(r)]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        piv, rest = None, []
        for r in rows:
            if not r[col]:
                rest.append(r)
            elif piv is None:
                piv = r
            else:
                g, s, t = _egcd(piv[col], r[col])
                p, q = piv[col] // g, r[col] // g
                piv, r = [s * x + t * y for x, y in zip(piv, r)], [q * x - p * y for x, y in zip(piv, r)]
                rest += [r] if any(r) else []
        rows = rest
        if piv is not None:
            piv = piv if piv[col] > 0 else [-x for x in piv]
            out = [[x - (r[col] // piv[col]) * y for x, y in zip(r, piv)] for r in out] + [piv]
    return out


def _ref_span(vectors):
    den = _lcm(t[2] for v in vectors for t in v)
    rows = _ref_hnf([_flat(v, den) for v in vectors])
    g = math.gcd(den, *(x for r in rows for x in r))
    return tuple(tuple(x // g for x in r) for r in rows), den // g


def _ref_closure(d, vecs, maps, rounds):
    span = _ref_span(vecs)
    for _ in range(rounds):
        vs = _vectors(span)
        grown = _ref_span(vs + [_apply(m, v, d) for m in maps for v in vs])
        if grown == span:
            return span
        span = grown
    return None


def _ref_solve(basis, q, flat, den):
    cols, adj, det = _left_inverse(basis)
    qs = q + q
    out = []
    for v in flat:
        z = [v[c] * qs[c] for c in cols]
        out.append([sum(x * r[k] for x, r in zip(z, adj)) for k in range(len(basis))])
    return out, den * det


def _ref_exact_rows(basis, q, values):
    den = _lcm(t[2] for v in values for t in v)
    flat = [_flat(v, den) for v in values]
    num, den2 = _ref_solve(basis, q, flat, den)
    rows = [[x // den2 for x in n] for n in num]
    for v, n, row in zip(flat, num, rows):
        back = [sum(x * b[c] for x, b in zip(row, basis)) * den for c in range(8)]
        if any(x % den2 for x in n) or back != [x * y for x, y in zip(v, q + q)]:
            raise ArithmeticError("circle does not lie on the integer lattice")
    return rows


def _ref_shift(d, basis, q, vecs):
    w = len(basis)
    values = [[(b[j], b[4 + j], q[j]) for j in range(4)] for b in basis]

    def matrix(entries):
        den = _lcm(c[2] * q[j] for (_, j), c in entries.items())
        num, den2 = _ref_solve(basis, q, [_flat(_apply(entries, v, d), den) for v in values], den)
        return [list(c) for c in zip(*num)], den2

    mats = [([[int(i == j) for j in range(w)] for i in range(w)], 1)]
    if vecs:
        (v1x, v1y), (v2x, v2y) = vecs
        for vx, vy in vecs:
            mats.append(matrix({ij: c for ij, c in _translation(vx, vy, d).items() if ij != (0, 1)}))
        for ux, uy, vx, vy, k in ((v1x, v1y, v1x, v1y, 1), (v1x, v1y, v2x, v2y, 2),
                                  (v2x, v2y, v2x, v2y, 1)):
            c = _mul((k, 0, 1), _sum([_mul(ux, vx, d), _mul(uy, vy, d)]), d)
            mats.append(matrix({(0, 1): c}))
    den = _lcm(den for _, den in mats)
    zero = [[0] * w for _ in range(w)]
    tables = [[[x * (den // dk) for x in r] for r in num] for num, dk in mats]
    return tables + [zero] * (6 - len(tables)), den


def _ref_derive(d, motif, vectors, mirrors):
    """(basis, q, motif rows, shift tables, shift denominator)."""
    rows = [_triples(c.key(), d) for c in motif]
    vecs = [_triples(v, d) for v in vectors or ()]
    maps = [_translation(vx, vy, d) for vx, vy in vecs]
    maps += [_translation((-vx[0], -vx[1], vx[2]), (-vy[0], -vy[1], vy[2]), d) for vx, vy in vecs]
    for m in (_triples(c.key(), d) for c in mirrors):
        maps.append({(i, j): _mul((_K[j], 0, 1), _mul(m[i], m[_SWAP[j]], d), d)
                     for i in range(4) for j in range(4)})
    maps = [{ij: c for ij, c in m.items() if c[0] or c[1]} for m in maps]
    entries = {}
    for m in maps:
        for ij, c in m.items():
            entries.setdefault(ij, []).append([c])
    single = [{ij: v[0]} for ij, cs in entries.items() for v in _vectors(_ref_span(cs))]
    zero = (0, 0, 1)
    split = [[x if k == j else zero for k, x in enumerate(r)] for r in rows for j in range(4)]
    span = (_ref_closure(d, split, single, _ROUNDS["aligned"])
            or _ref_closure(d, rows, maps, _ROUNDS["plain"]))
    if span is None:
        raise ArithmeticError("the orbit coordinates of this configuration span no integer lattice")
    flat, den = span
    basis, q = [list(r) for r in flat], []
    for j in range(4):
        g = math.gcd(den, *(r[k] for r in basis for k in (j, 4 + j)))
        q.append(den // g)
        for r in basis:
            r[j], r[4 + j] = r[j] // g, r[4 + j] // g
    return (basis, q, _ref_exact_rows(basis, q, rows), *_ref_shift(d, basis, q, vecs))


class TestDerivation:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_every_lattice_matches_the_reference(self, name):
        cfg = make_config(name)
        keys = set().union(*(_lattice_keys(mode) for mode in (None, *MODES)))
        for seeds, kinds in sorted(keys):
            mode = next(m for m in (None, *MODES) if (seeds, kinds) in _lattice_keys(m))
            lat = _row_lattice(cfg, mode, seeds[0])
            circles, mirrors = ([c for k in ks for c in cfg.motif(k)] for ks in (seeds, kinds))
            basis, q, motif, shift, shift_den = _ref_derive(cfg.d, circles, cfg.lattice, mirrors)
            assert (lat._basis, lat._q) == (basis, q)
            assert lat.motif.tolist() == motif
            assert (lat._shift.tolist(), lat._shift_den) == (shift, shift_den)
        assert set(cfg.row_lattices) == keys

    def test_derivation_is_lazy(self):
        for name in CONFIGS:
            assert make_config(name).row_lattices == {}
        lim = GenerationLimits(1, 0.05, Window.square(1.0))
        for name in CONFIGS:
            for mode in MODES:
                cfg = make_config(name)
                generate(cfg, mode, lim)
                assert set(cfg.row_lattices) == _lattice_keys(mode)

    def test_super_derives_one_seed_lattice(self):
        # base and dual rows share the lattice of both motifs, so a super
        # run derives one lattice, where it used to derive one per kind
        lim = GenerationLimits(1, 0.05, Window.square(1.0))
        for name in ("hexagonal", "wallpaper:p6m"):
            cfg = make_config(name)
            generate(cfg, "super", lim)
            assert list(cfg.row_lattices) == [(("base", "dual"), ("base", "dual"))]

    # circles of the quadric off the lattice, each caught by one of the two
    # checks of a row: on square, h1 = 1/2 with b = 2 leaves a solve that
    # does not divide; on triangular h2 ranges over sqrt(3) Z, so a rational
    # h2 is outside the span.  With bt = -3/4 the solve does not divide
    # either; with bt = 0 it does, and only the row's values, read back,
    # show the circle is off the lattice
    @pytest.mark.parametrize("name, key, divides", [
        ("square", (QuadExt(-3, 0, 8), QuadExt(2), QuadExt(1, 0, 2), QuadExt(0)), False),
        ("triangular", (QuadExt(-3, 0, 4), QuadExt(1), QuadExt(0), QuadExt(1, 0, 2)), False),
        ("triangular", (QuadExt(0), QuadExt(1), QuadExt(0), QuadExt(1)), True),
    ])
    def test_rows_off_the_lattice_raise(self, configs, name, key, divides):
        circle = InversiveCircle(*key)
        assert circle.quadric_residual().sign() == 0
        lat = _row_lattice(configs[name], "packing", "base")
        den = _lcm(x.q for x in key)
        num, den2 = lat._solve(lat._flats([_triples(key, lat.d)], den), den)
        assert (not (num % den2).any()) == divides
        with pytest.raises(ArithmeticError, match="does not lie on the integer lattice"):
            lat.rows_of([circle])


@st.composite
def _span_inputs(draw):
    """Vectors of k values (a, b, q) of Q(sqrt d): small and past 2^63
    terms, unreduced triples, products, duplicates and zero vectors."""
    d, k = draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 2))
    term = st.one_of(st.integers(-4, 4), st.integers(-4, 4), st.integers(-(2**70), 2**70))
    den = st.one_of(st.integers(1, 6), st.integers(1, 2**66))
    triple = st.builds(lambda a, b, q, g: (a * g, b * g, q * g), term, term, den, st.integers(1, 3))
    vectors = draw(st.lists(st.lists(triple, min_size=k, max_size=k), max_size=5))
    vectors += [[_mul(t, u, d) for t, u in zip(v, w)] for v, w in zip(vectors, vectors[1:])]
    if vectors:
        vectors += draw(st.lists(st.sampled_from(vectors), max_size=2))
    return vectors + [[(0, 0, 1)] * k], k


class TestSpanGrowth:
    @settings(max_examples=150, deadline=None)
    @given(_span_inputs())
    def test_growth_by_membership_is_the_span(self, inputs):
        vectors, _ = inputs
        span, added = _grow(_EMPTY, vectors)
        assert span == _span(vectors) == _ref_span(vectors)
        assert _grow(_EMPTY, vectors[::-1])[0] == span
        assert _span(added) == span

    @settings(max_examples=150, deadline=None)
    @given(_span_inputs(), st.lists(st.integers(-3, 3), min_size=8, max_size=8), st.booleans())
    def test_membership_is_an_unchanged_span(self, inputs, coefs, inside):
        vectors, k = inputs
        span = _span(vectors[:-1])
        if inside:
            # an integer combination of the vectors lies in their span
            v = [_sum([(c * x[j][0], c * x[j][1], x[j][2]) for c, x in zip(coefs, vectors)])
                 for j in range(k)]
        else:
            v = vectors[-2] if len(vectors) > 1 else vectors[-1]
            v = [(a + 1, b, q * 2) for a, b, q in v]
        assert _member(span, v) == (_span(_vectors(span) + [v]) == span)
        if inside:
            assert _member(span, v)

