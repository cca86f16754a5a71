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
"""

from __future__ import annotations

import numpy as np
import pytest

from invpack.configs import Window, config_names, make_config
from invpack.engine import (
    _MIRROR_KINDS,
    _SEED_KINDS,
    MODES,
    GenerationLimits,
    LatticeOverflowError,
    _row_lattice,
    apply_word,
    generate,
)
from invpack.exact import QuadExt, as_float
from invpack.inversive import reflect
from invpack.lattice import Mirrors, RowLattice
from invpack.render import from_json, to_json

CONFIGS = config_names()
S3 = QuadExt.sqrt_d(3)


@pytest.fixture(scope="module")
def configs():
    return {name: make_config(name) for name in CONFIGS}


def _rows(cfg, mode, kind, w):
    cat = cfg.catalog(kind, w)
    lat = _row_lattice(cfg, mode, kind)
    return cat, lat, lat.rows_at(cat.index, cat.shift, cat.idents)


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

    # per coordinate (co-curvature, curvature, h1, h2), up to sign
    PINNED = {
        "square": {"base": (1, 1, 1, 1), "dual": (1, 1, 1, 1)},
        "wallpaper:p4m": {"base": (1, 1, 1, 1), "dual": (1, 1, 1, 1)},
        "triangular": {"base": (1, 1, 1, S3), "dual": (S3, S3, S3, 1)},
        "hexagonal": {"base": (3, 1, S3, 1), "dual": (S3, S3 / 3, 1, S3)},
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_lattices(self, configs, name, mode):
        cfg = configs[name]
        for kind in set(_SEED_KINDS[mode] + _MIRROR_KINDS[mode]):
            lat = _row_lattice(cfg, mode, kind)
            gens = []
            for j in range(4):
                (row,) = [r for r in lat.basis.tolist() if r[j] or r[4 + j]]
                assert sum(1 for k in range(4) if row[k] or row[4 + k]) == 1
                gens.append(abs(QuadExt(row[j], row[4 + j], int(lat.q[j]), lat.d)))
            assert lat.width == 4
            assert tuple(gens) == self.PINNED[name][kind]

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
