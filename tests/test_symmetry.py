"""Isometry verification and plane-group classification tests.

Covers exact verification of declared symmetries on the grid packings,
lattice confirmation, quotient closure modulo translations, the
signature decision tree for all seventeen plane groups, conjugation
consistency between dual reflections and verified isometries, the
discovery cross-check on all seventeen refined configurations, and the
empty overlap between reflection words and configuration isometries.
The integer-row checks are compared with the per-circle ``QuadExt``
versions they replaced, and the motif check, the integer quotient and the
integer signature with the window check and the complex-arithmetic
quotient and signature they replaced, all kept here as references.  So is
the membership check on the packing-mode lattices, which the translation
lattices replaced, and the discovery pass, which probes a grid of candidate
isometries without the declarations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import pytest

from invpack import symmetry
from invpack.configs import (
    WALLPAPER_GROUPS,
    Configuration,
    SymmetryDecl,
    Window,
    _locate,
    _row_lattice,
    _vec_float,
    config_names,
    make_config,
)
from invpack.exact import QuadExt, as_float, scalar_sign
from invpack.inversive import (
    PlanarIsometry,
    _cadd,
    _cconj,
    _cmul,
    apply_isometry,
    from_center_radius,
    reflect,
)
from invpack.lattice import LatticeOverflowError
from invpack.symmetry import (
    Basis,
    Linear,
    SymmetrySignature,
    Vec,
    _linear_parts,
    _quotient,
    _signature,
    _violation,
    classify_wallpaper,
    isometry_violation,
    quotient_isometries,
    signature_of,
    trivial_intersection,
    verify_isometry,
)
from invpack.wallpaper import make_wallpaper


def q(n):
    return QuadExt(n)


def q3(a, b=0, div=1):
    return QuadExt(a, b, div, 3)


def pt(x, y):
    return (q(x), q(y))


# the order of each periodic configuration's group modulo its lattice
QUOTIENT_ORDERS = {
    "wallpaper:p1": 1, "wallpaper:p2": 2, "wallpaper:pm": 2, "wallpaper:pg": 2,
    "wallpaper:cm": 2, "wallpaper:p3": 3, "wallpaper:pmm": 4, "wallpaper:pmg": 4,
    "wallpaper:pgg": 4, "wallpaper:cmm": 4, "wallpaper:p4": 4, "wallpaper:p3m1": 6,
    "wallpaper:p31m": 6, "wallpaper:p6": 6, "wallpaper:p4m": 8, "wallpaper:p4g": 8,
    "square": 8, "wallpaper:p6m": 12, "triangular": 12, "hexagonal": 12,
}


@pytest.fixture(scope="module")
def square():
    return make_config("square")


@pytest.fixture(scope="module")
def triangular():
    return make_config("triangular")


class TestVerifyIsometry:
    def test_square_full_period_translation(self, square):
        assert verify_isometry(square, PlanarIsometry.translation(pt(2, 0)))

    def test_square_quarter_turn(self, square):
        rot = PlanarIsometry.rotation(pt(0, 0), pt(0, 1))
        assert verify_isometry(square, rot)

    def test_square_half_period_translation_fails(self, square):
        # half a period lands base circles on dual positions
        g = PlanarIsometry.translation(pt(1, 0))
        assert not verify_isometry(square, g)
        kind, circle = isometry_violation(square, g)
        assert kind in ("base", "dual")
        assert circle is not None

    def test_lattice_breaking_linear_part(self, triangular):
        # a quarter turn does not even preserve the triangular lattice
        rot = PlanarIsometry.rotation((q3(0), q3(0)), (q3(0), q3(1)))
        assert isometry_violation(triangular, rot) == ("lattice", None)

    def test_triangular_sixth_turn(self, triangular):
        rot = PlanarIsometry.rotation(
            (q3(0), q3(0)), (q3(1, 0, 2), QuadExt(0, 1, 2, 3))
        )
        assert verify_isometry(triangular, rot)

    def test_square_second_period_translation(self, square):
        assert verify_isometry(square, PlanarIsometry.translation(pt(0, 2)))

    def test_dual_motif_is_checked(self, square):
        # a dual circle off the quarter turn's orbit: every base circle maps
        # into the packing, and the dual motif holds the violation, as the
        # window reference finds it
        cfg = Configuration(
            "square-offdual", 1, square.motif_base,
            [from_center_radius(pt(1, 0), QuadExt(1, 0, 2))], square.lattice, (),
        )
        rot = PlanarIsometry.rotation(pt(0, 0), pt(0, 1))
        kind, circle = isometry_violation(cfg, rot)
        assert kind == "dual" and circle.key() == cfg.motif_dual[0].key()
        assert reference_violation(cfg, rot, reference_pools(cfg))[0] == "dual"

    def test_motif_verdict_holds_far_away(self, square):
        # a quarter turn about a dual center verifies on the motif alone,
        # and then maps every circle of a far window into the packing
        rot = PlanarIsometry.rotation(pt(1, 1), pt(0, 1))
        assert verify_isometry(square, rot)
        far = Window(40.0, -44.0, 44.0, -40.0)
        for kind in ("base", "dual"):
            recs = square.circles_in_window(kind, far)
            assert recs
            for rec in recs:
                assert square.contains_circle(apply_isometry(rot, rec.circle), kind)


class TestTranslations:
    def test_square(self, square):
        assert all(verify_isometry(square, PlanarIsometry.translation(v)) for v in square.lattice)

    def test_triangular(self, triangular):
        (ax, ay), (bx, by) = triangular.lattice
        assert (ax, ay) == (q3(2), q3(0))
        assert (bx, by) == (q3(1), QuadExt(0, 1, 1, 3))
        assert all(verify_isometry(triangular, PlanarIsometry.translation(v))
                   for v in triangular.lattice)


class TestQuotient:
    def test_square_quotient_is_order_eight(self, square):
        reps = quotient_isometries(square, [d.iso for d in square.symmetries])
        assert len(reps) == 8
        assert sum(1 for r in reps if r.conj) == 4

    def test_triangular_quotient_is_order_twelve(self, triangular):
        reps = quotient_isometries(
            triangular, [d.iso for d in triangular.symmetries]
        )
        assert len(reps) == 12
        assert sum(1 for r in reps if r.conj) == 6

    def test_non_closing_generator_rejected(self, square):
        creep = PlanarIsometry.translation((QuadExt(2, 0, 25), q(0)))
        with pytest.raises(ValueError, match="close"):
            quotient_isometries(square, [creep])

    def test_finite_configuration_rejected(self):
        apo = make_config("apollonian")
        with pytest.raises(ValueError, match="translation quotient"):
            quotient_isometries(apo, [PlanarIsometry.identity()])

    @pytest.mark.parametrize("name, order", sorted(QUOTIENT_ORDERS.items()))
    def test_order_and_reps_match_reference(self, name, order):
        cfg = make_config(name)
        gens = [d.iso for d in cfg.symmetries]
        reps, want = quotient_isometries(cfg, gens), reference_quotient(cfg, gens)
        assert len(reps) == len(want) == order
        assert sum(r.conj for r in reps) == sum(r.conj for r in want)
        assert set(reps) == set(want)
        for r in reps:
            m, n = reference_cell_coords(cfg, r.t)
            assert 0 <= m < 1 and 0 <= n < 1

    def test_irrational_translation_rejected(self, triangular):
        # (sqrt 3, 0) is sqrt(3)/2 v1: no rational point of the cell
        shift = PlanarIsometry.translation((q3(0, 1), q3(0)))
        with pytest.raises(ValueError, match="irrational"):
            quotient_isometries(triangular, [shift])

    def test_lattice_breaking_generator_rejected(self, triangular):
        rot = PlanarIsometry.rotation((q3(0), q3(0)), (q3(0), q3(1)))
        with pytest.raises(ValueError, match="does not preserve the lattice"):
            quotient_isometries(triangular, [rot])


class TestSignature:
    def test_square_signature(self, square):
        # the grid has off-axis glides (along y = x + 1 with shift (1,1)
        # for instance) but the order-4 branch never consults them
        sig = signature_of(square)
        assert sig == SymmetrySignature(4, True, True, True)
        assert sig.group_name() == "p4m"

    def test_classify_base_grids(self, square, triangular):
        assert classify_wallpaper(square) == "p4m"
        assert classify_wallpaper(triangular) == "p6m"

    def test_classify_refined_pgg(self):
        assert classify_wallpaper(make_wallpaper("pgg")) == "pgg"

    @pytest.mark.parametrize("name", sorted(QUOTIENT_ORDERS))
    def test_signature_matches_reference(self, name):
        cfg = make_config(name)
        sig = signature_of(cfg)
        reps = reference_quotient(cfg, [d.iso for d in cfg.symmetries])
        assert sig == reference_signature(cfg, reps)
        if name.startswith("wallpaper:"):
            assert sig.group_name() == name.split(":")[1]

    def test_p4_lost_its_mirrors(self):
        cfg = make_wallpaper("p4")
        sig = signature_of(cfg)
        assert sig.rotation_order == 4
        assert not sig.has_reflection
        mirror = PlanarIsometry.mirror_a(pt(0, 0), pt(1, 0))
        assert not verify_isometry(cfg, mirror)

    def test_decision_tree_names_every_group(self):
        cases = {
            ("p1", 1, False, False, None),
            ("pg", 1, False, True, None),
            ("pm", 1, True, False, None),
            ("cm", 1, True, True, None),
            ("p2", 2, False, False, None),
            ("pgg", 2, False, True, None),
            ("pmm", 2, True, False, True),
            ("pmg", 2, True, True, False),
            ("cmm", 2, True, True, True),
            ("p3", 3, False, False, None),
            ("p3m1", 3, True, False, True),
            ("p31m", 3, True, False, False),
            ("p4", 4, False, False, None),
            ("p4m", 4, True, False, True),
            ("p4g", 4, True, True, False),
            ("p6", 6, False, False, None),
            ("p6m", 6, True, False, True),
        }
        for name, order, refl, glide, centered in cases:
            sig = SymmetrySignature(order, refl, glide, centered)
            assert sig.group_name() == name

    def test_impossible_rotation_order(self):
        with pytest.raises(ValueError, match="rotation order"):
            SymmetrySignature(5, False, False)

    def test_finite_configuration_rejected(self):
        with pytest.raises(ValueError, match="wallpaper"):
            signature_of(make_config("apollonian"))

    def test_false_declaration_reported_with_witness(self, square):
        bad = Configuration(
            "square-baddecl",
            2,
            square.motif_base,
            square.motif_dual,
            square.lattice,
            (
                SymmetryDecl(
                    "translation",
                    PlanarIsometry.translation(pt(1, 0)),
                    {"vector": (1, 0)},
                ),
            ),
        )
        with pytest.raises(ValueError, match="witness"):
            signature_of(bad)


class TestConjugationConsistency:
    # Reflecting in a transported mirror is the transport of the
    # reflection: reflect(g.d, g.v) = g.reflect(d, v), exactly.

    def _check(self, cfg, g, window):
        duals = [rec.circle for rec in cfg.circles_in_window("dual", window)]
        probes = [rec.circle for rec in cfg.circles_in_window("base", window)]
        assert duals and probes
        for d in duals:
            gd = apply_isometry(g, d)
            for v in probes[:4]:
                lhs = reflect(gd, apply_isometry(g, v))
                rhs = apply_isometry(g, reflect(d, v))
                assert lhs.key() == rhs.key()

    def test_square_quarter_turn(self, square):
        rot = PlanarIsometry.rotation(pt(0, 0), pt(0, 1))
        self._check(square, rot, Window(-3.0, -3.0, 3.0, 3.0))

    def test_triangular_declared_mirror(self, triangular):
        mirrors = [d.iso for d in triangular.symmetries if d.kind == "mirror"]
        assert mirrors
        self._check(triangular, mirrors[0], Window(-3.0, -3.0, 3.0, 3.0))


# ---------------------------------------------------------------------------
# the discovery pass: a grid of candidate rotation centers, axes and
# sub-lattice translations, probed independently of the declarations, and
# the group the verified probes span

_FRACS = (
    QuadExt(0),
    QuadExt(1, 0, 4),
    QuadExt(1, 0, 3),
    QuadExt(1, 0, 2),
    QuadExt(2, 0, 3),
    QuadExt(3, 0, 4),
)

_SQRT3_HALF = QuadExt(0, 1, 2, 3)
_ROTATION_A: Dict[int, Vec] = {
    2: (QuadExt(-1), QuadExt(0)),
    3: (QuadExt(-1, 0, 2), _SQRT3_HALF),
    4: (QuadExt(0), QuadExt(1)),
    6: (QuadExt(1, 0, 2), _SQRT3_HALF),
}
_MIRROR_A: Tuple[Vec, ...] = (
    (QuadExt(1), QuadExt(0)),
    (QuadExt(-1), QuadExt(0)),
    (QuadExt(0), QuadExt(1)),
    (QuadExt(0), QuadExt(-1)),
    (QuadExt(1, 0, 2), _SQRT3_HALF),
    (QuadExt(-1, 0, 2), _SQRT3_HALF),
    (QuadExt(-1, 0, 2), -_SQRT3_HALF),
    (QuadExt(1, 0, 2), -_SQRT3_HALF),
)


@dataclass
class DiscoveredSymmetries:
    """Symmetries found by probing candidate centers, axes, and
    sub-lattice translations over a fundamental cell of ``basis``;
    ``isometries`` holds every verified probe."""

    basis: Basis
    rotations: List[Tuple[int, Vec]] = field(default_factory=list)
    mirrors: List[PlanarIsometry] = field(default_factory=list)
    glides: List[PlanarIsometry] = field(default_factory=list)
    subtranslations: List[Vec] = field(default_factory=list)
    isometries: List[PlanarIsometry] = field(default_factory=list)

    def signature(self) -> SymmetrySignature:
        """The signature of the group the verified probes span modulo the
        lattice, read as ``signature_of`` reads the declared one."""
        return _signature(*_quotient(self.basis, [PlanarIsometry.identity()] + self.isometries))


def _cell_points(cfg: Configuration) -> List[Vec]:
    v1, v2 = cfg.lattice
    return [
        (x * v1[0] + y * v2[0], x * v1[1] + y * v2[1])
        for x in _FRACS
        for y in _FRACS
    ]


def _shortest_parallel(cfg: Configuration, a: Vec, matrix: Linear) -> Optional[Vec]:
    """A shortest nonzero lattice vector the reflection z -> a*conj(z)
    fixes, or None when the reflection does not preserve the lattice;
    ``matrix`` converts the linear part.

    The fixed vectors of A are the image of A + I; a nonzero column of it
    divided by its content is primitive."""
    A = matrix(a, True)
    if A is None:
        return None
    col = (A[0] + 1, A[2]) if (A[0] + 1, A[2]) != (0, 0) else (A[1], A[3] + 1)
    m, n = (x // math.gcd(*col) for x in col)
    (ax, ay), (bx, by) = cfg.lattice
    return (m * ax + n * bx, m * ay + n * by)


def _probes(cfg: Configuration, matrix: Linear) -> Iterator[Tuple[str, object, PlanarIsometry]]:
    """The candidate isometries of ``discover_symmetries`` in probe order:
    (the ``DiscoveredSymmetries`` list it joins when it verifies, its entry
    there, the isometry); ``matrix`` converts linear parts."""
    points = _cell_points(cfg)
    for order, a in _ROTATION_A.items():
        for p in points:
            yield "rotations", (order, p), PlanarIsometry.rotation(p, a)

    probed = set()
    for a in _MIRROR_A:
        for p in points:
            m = PlanarIsometry.mirror_a(p, a)
            if m not in probed:
                probed.add(m)
                yield "mirrors", m, m
        par = _shortest_parallel(cfg, a, matrix)
        if par is None:
            continue
        for p in points:
            g = PlanarIsometry.glide_a(p, a, (par[0] / 2, par[1] / 2))
            if g not in probed:
                probed.add(g)
                yield "glides", g, g

    for t in points[1:]:  # all but the origin
        yield "subtranslations", t, PlanarIsometry.translation(t)


def discover_symmetries(cfg: Configuration) -> DiscoveredSymmetries:
    """Probe rotations, mirrors, glides, and sub-lattice translations on
    a grid of half, third, and quarter cell points, keeping the verified
    ones.  The grid covers every center and axis position the plane
    groups realize, so an empty result is evidence of absence."""
    if cfg.lattice is None:
        raise ValueError("discovery needs a periodic configuration")
    found = DiscoveredSymmetries(cfg.lattice)
    matrix = _linear_parts(cfg.lattice)
    for name, entry, iso in _probes(cfg, matrix):
        if _violation(cfg, iso, matrix) is None:
            getattr(found, name).append(entry)
            found.isometries.append(iso)
    return found


def discovery_cross_check(cfg):
    """Does independent discovery agree with the declared group?

    False as soon as a sub-lattice translation verifies: refinement then
    left the declared lattice coarser than the true one.  Otherwise True
    when the group the verified probes span has the declared signature,
    i.e. refinement really removed the symmetries it meant to remove.
    """
    found = discover_symmetries(cfg)
    if found.subtranslations:
        return False
    return signature_of(cfg) == found.signature()


class TestDiscovery:
    @pytest.mark.parametrize("group", WALLPAPER_GROUPS)
    def test_cross_check_agrees(self, group):
        assert discovery_cross_check(make_wallpaper(group))

    def test_p4_discovery_content(self):
        found = discover_symmetries(make_wallpaper("p4"))
        assert found.mirrors == []
        assert found.glides == []
        assert found.subtranslations == []
        orders = {o for o, _ in found.rotations}
        assert orders == {2, 4}
        assert any(
            o == 4 and c[0] == 0 and c[1] == 0 for o, c in found.rotations
        )

    def test_coarse_lattice_detected(self, square):
        # declaring a doubled cell leaves the true period as an
        # undeclared sub-lattice translation
        one = q(1)
        base = [
            from_center_radius(pt(x, y), one)
            for x in (0, 2)
            for y in (0, 2)
        ]
        dual = [
            from_center_radius(pt(x, y), one)
            for x in (1, 3)
            for y in (1, 3)
        ]
        v1, v2 = pt(4, 0), pt(0, 4)
        coarse = Configuration(
            "square-coarse",
            2,
            base,
            dual,
            (v1, v2),
            (
                SymmetryDecl(
                    "translation", PlanarIsometry.translation(v1), {}
                ),
                SymmetryDecl(
                    "translation", PlanarIsometry.translation(v2), {}
                ),
            ),
        )
        found = discover_symmetries(coarse)
        assert found.subtranslations
        assert not discovery_cross_check(coarse)

    def test_discovered_signature_reads_the_verified_group(self):
        found = discover_symmetries(make_wallpaper("cmm"))
        assert found.isometries
        assert len(found.isometries) == sum(
            len(x) for x in (found.rotations, found.mirrors, found.glides, found.subtranslations)
        )
        assert found.signature() == SymmetrySignature(2, True, True, True)

    # (rotations, mirrors, glides, sub-lattice translations) that discovery
    # finds, as it found them when each glide probe converted its mirror apart
    FOUND = {"p1": (0, 0, 0, 0), "p2": (4, 0, 0, 0), "pm": (0, 2, 0, 0), "pg": (0, 0, 2, 0),
             "cm": (0, 2, 2, 0), "pmm": (4, 4, 0, 0), "pmg": (4, 2, 2, 0), "pgg": (4, 0, 4, 0),
             "cmm": (4, 4, 3, 0), "p4": (6, 0, 0, 0), "p4m": (6, 7, 4, 0), "p4g": (6, 4, 7, 0),
             "p3": (3, 0, 0, 0), "p3m1": (3, 7, 6, 0), "p31m": (3, 4, 1, 0), "p6": (8, 0, 0, 0),
             "p6m": (8, 11, 10, 0)}

    def test_discovery_converts_each_linear_part_once(self, monkeypatch):
        # the glide probes share the discovery's converter: 13 linear parts
        # a group, where converting each mirror's part apart made 21
        calls = []
        matrix = symmetry._matrix
        monkeypatch.setattr(symmetry, "_matrix", lambda *args: calls.append(args) or matrix(*args))
        for group in WALLPAPER_GROUPS:
            found = discover_symmetries(make_wallpaper(group))
            assert tuple(map(len, (found.rotations, found.mirrors, found.glides,
                                   found.subtranslations))) == self.FOUND[group]
        assert len(calls) == 13 * len(WALLPAPER_GROUPS) == 221


class TestTrivialIntersection:
    def test_square_window(self, square):
        assert trivial_intersection(
            square, Window(-3.0, -3.0, 3.0, 3.0), max_len=3
        )

    def test_window_inside_a_circle_rejected(self, square):
        with pytest.raises(ValueError, match="window"):
            trivial_intersection(square, Window(-0.1, -0.1, 0.1, 0.1))

    def test_negative_length_rejected(self, square):
        with pytest.raises(ValueError, match="max_len must be nonnegative"):
            trivial_intersection(square, Window.square(3.0), max_len=-1)
        assert trivial_intersection(square, Window.square(3.0), max_len=0)


# ---------------------------------------------------------------------------
# references: the window check, and the quotient and signature in complex
# arithmetic, as they were before the motif check and lattice coordinates

_HALF = QuadExt(1, 0, 2)


def reference_lattice_diameter(cfg):
    """Diameter of the fundamental cell (longest diagonal)."""
    (ax, ay), (bx, by) = map(_vec_float, cfg.lattice)
    return max(math.hypot(ax + bx, ay + by), math.hypot(ax - bx, ay - by))


def reference_window(cfg):
    """A window whose interior, less a cell diameter, holds a full cell."""
    r = 1.5 * reference_lattice_diameter(cfg) + 1.0
    return Window(-r, -r, r, r)


def reference_pools(cfg):
    """Exact circles meeting the safe interior of the window, by kind; the
    motif of a finite configuration."""
    if cfg.lattice is None:
        return motif_pools(cfg)
    inner = reference_window(cfg).shrunk(reference_lattice_diameter(cfg))
    return [
        (kind, [rec.circle for rec in cfg.circles_in_window(kind, inner)])
        for kind in ("base", "dual")
    ]


def motif_pools(cfg):
    return [(kind, list(cfg.motif(kind))) for kind in ("base", "dual")]


def reference_lattice_coords(cfg, vec):
    """Integer (m, n) with vec = m v1 + n v2, or None."""
    v1, v2 = cfg.lattice
    det = v1[0] * v2[1] - v1[1] * v2[0]
    m = (vec[0] * v2[1] - vec[1] * v2[0]) / det
    n = (v1[0] * vec[1] - v1[1] * vec[0]) / det
    if not (m.is_integer() and n.is_integer()):
        return None
    return (round(as_float(m)), round(as_float(n)))


def reference_member(cfg, c, kind):
    """Whether c is a ``kind`` circle of the configuration, on exact
    objects: a motif circle of its curvature, translated by the (m, n) that
    the float center offset rounds to within 1e-6, has c's key."""
    for mc in cfg.motif(kind):
        if mc.curvature != c.curvature:
            continue
        if cfg.lattice is not None:
            (cx, cy), (mx, my) = c.center(), mc.center()
            m, n = cfg._cell_coords(cx - mx, cy - my)
            if abs(m - round(m)) > 1e-6 or abs(n - round(n)) > 1e-6:
                continue
            mc = apply_isometry(cfg.translation(round(m), round(n)), mc)
        if mc.key() == c.key():
            return True
    return False


def reference_violation(cfg, g, pools):
    """``isometry_violation`` one QuadExt circle at a time, on the pools."""
    if cfg.lattice is not None:
        for v in cfg.lattice:
            if reference_lattice_coords(cfg, _cmul(g.a, _cconj(v) if g.conj else v)) is None:
                return ("lattice", None)
    for kind, circles in pools:
        for c in circles:
            if not reference_member(cfg, apply_isometry(g, c), kind):
                return (kind, c)
    return None


def reference_cell_coords(cfg, t):
    return cfg._cell_coords(*_vec_float(t))


def reference_cell_rep(cfg, t):
    """Translate t by the lattice so its cell coordinates land in [0, 1)."""
    v1, v2 = cfg.lattice
    mf, nf = reference_cell_coords(cfg, t)
    m, n = math.floor(mf + 1e-9), math.floor(nf + 1e-9)
    return (t[0] - m * v1[0] - n * v2[0], t[1] - m * v1[1] - n * v2[1])


def reference_quotient(cfg, gens):
    """Coset representatives modulo the lattice, closed in complex
    arithmetic with float-chosen cell representatives."""

    def canon(g):
        return PlanarIsometry(g.a, reference_cell_rep(cfg, g.t), g.conj)

    seeds = [canon(g) for g in gens]
    ident = canon(seeds[0] * seeds[0].inverse())
    reps = {(ident.a, ident.t, ident.conj): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for q in frontier:
            for s in seeds:
                cand = canon(s * q)
                key = (cand.a, cand.t, cand.conj)
                if key not in reps:
                    reps[key] = cand
                    nxt.append(cand)
        frontier = nxt
        assert len(reps) <= 24
    return list(reps.values())


def reference_point_order(a):
    cur = a
    for k in range(1, 7):
        if cur[0] == 1 and cur[1] == 0:
            return k
        cur = _cmul(cur, a)
    raise ValueError("linear part has order above six")


def reference_lattice_shifts(cfg, reach):
    v1, v2 = cfg.lattice
    return [
        (m * v1[0] + n * v2[0], m * v1[1] + n * v2[1])
        for m in range(-reach, reach + 1)
        for n in range(-reach, reach + 1)
    ]


def reference_signature(cfg, reps):
    """The signature read by searching lattice shifts of each coset."""

    def square_shift(a, t):
        return _cadd(_cmul(a, _cconj(t)), t)

    def is_zero(v):
        return scalar_sign(v[0], 1e-12) == 0 and scalar_sign(v[1], 1e-12) == 0

    def fixes(m, p):
        img = _cadd(_cmul(m.a, _cconj(p) if m.conj else p), m.t)
        return bool(img[0] == p[0]) and bool(img[1] == p[1])

    rotational = [q for q in reps if not q.conj]
    reflective = [q for q in reps if q.conj]
    order = max(reference_point_order(q.a) for q in rotational)
    near, far = reference_lattice_shifts(cfg, 2), reference_lattice_shifts(cfg, 4)
    mirrors = []
    for q in reflective:
        for shift in far:
            t = _cadd(q.t, shift)
            if is_zero(square_shift(q.a, t)):
                mirrors.append(PlanarIsometry(q.a, t, True))
    mirror_keys = {(m.a, m.t) for m in mirrors}
    off_axis = False
    for q in reflective:
        for shift in near:
            t = _cadd(q.t, shift)
            s = square_shift(q.a, t)
            if not is_zero(s) and (q.a, (t[0] - s[0] * _HALF, t[1] - s[1] * _HALF)) not in mirror_keys:
                off_axis = True
    centered = None
    if order >= 2 and mirrors:
        centers = {}
        for q in rotational:
            if reference_point_order(q.a) != order:
                continue
            denom = (1 - q.a[0], -q.a[1])
            norm = denom[0] * denom[0] + denom[1] * denom[1]
            for shift in near:
                u = _cadd(q.t, shift)
                c = reference_cell_rep(cfg, (
                    (u[0] * denom[0] + u[1] * denom[1]) / norm,
                    (u[1] * denom[0] - u[0] * denom[1]) / norm,
                ))
                centers[c] = c
        on = [any(fixes(m, c) for m in mirrors) for c in centers]
        centered = any(on) if order == 2 else all(on)
    return SymmetrySignature(order, bool(mirrors), off_axis, centered)


def reference_trivial_intersection(cfg, window, max_len):
    """``trivial_intersection`` on tuples of exact circle keys."""
    duals = [rec.circle for rec in cfg.circles_in_window("dual", window)]
    bases = [rec.circle for rec in cfg.circles_in_window("base", window)]
    reps = quotient_isometries(cfg, [d.iso for d in cfg.symmetries])

    def state(circles):
        return tuple(c.key() for c in circles)

    targets = set()
    for q in reps:
        for shift in reference_lattice_shifts(cfg, 6):
            g = PlanarIsometry(q.a, (q.t[0] + shift[0], q.t[1] + shift[1]), q.conj)
            targets.add(state([apply_isometry(g, c) for c in bases]))
    frontier = [(-1, tuple(bases))]
    seen = {state(bases)}
    for _ in range(max_len):
        nxt = []
        for last, circles in frontier:
            for i, mirror in enumerate(duals):
                if i == last:
                    continue
                image = tuple(reflect(mirror, c) for c in circles)
                key = state(image)
                if key in targets:
                    return False
                if key not in seen:
                    seen.add(key)
                    nxt.append((i, image))
        frontier = nxt
    return True


def non_symmetry(cfg):
    """An exact isometry of the configuration's field that is no symmetry:
    a third of the cell diagonal, or a quarter turn of a finite one."""
    if cfg.lattice is None:
        return PlanarIsometry.rotation((q(0), q(0)), (q(0), q(1)))
    (ax, ay), (bx, by) = cfg.lattice
    third = QuadExt(1, 0, 3)
    return PlanarIsometry.translation(((ax + bx) * third, (ay + by) * third))


class TestIsometryRows:
    @pytest.mark.parametrize("name", config_names())
    def test_row_map_matches_apply_isometry(self, name):
        cfg = make_config(name)
        isos = [d.iso for d in cfg.symmetries] + [non_symmetry(cfg)]
        for kind in ("base", "dual"):
            cat = cfg.catalog((kind,), Window.square(3.0), mode="packing")
            lat, rows = cat.lat, cat.rows
            assert len(rows)
            for g in isos:
                images, on = lat.moved(g, rows, cat.idents)
                for k, rec in enumerate(cat):
                    try:
                        want = lat.rows_of([apply_isometry(g, rec.circle)])[0]
                    except ArithmeticError:
                        assert not on[k]
                        continue
                    assert on[k]
                    assert images[k].tolist() == want.tolist()
        assert not verify_isometry(cfg, isos[-1])

    def test_image_outside_the_span_is_off_the_lattice(self):
        # the Apollonian base lattice is the span of its four motif rows; a
        # shift by sqrt(3) leaves that span although the solved images
        # come out integral
        apo = make_config("apollonian")
        lat = _row_lattice(apo, "packing", "base")
        g = PlanarIsometry.translation((q3(0, 1), q3(0)))
        _, on = lat.moved(g, lat.motif, "motif")
        assert not on.any()
        for c in apo.motif("base"):
            with pytest.raises(ArithmeticError):
                lat.rows_of([apply_isometry(g, c)])

    @pytest.mark.parametrize("group", ["p4m", "p31m", "pgg", "cm"])
    def test_violation_matches_reference_on_every_probe(self, group):
        # the rows and the per-circle reference check the same motif circles
        cfg = make_wallpaper(group)
        ref_pools = motif_pools(cfg)
        held = 0
        for _, _, iso in _probes(cfg, _linear_parts(cfg.lattice)):
            got = isometry_violation(cfg, iso)
            want = reference_violation(cfg, iso, ref_pools)
            if want is None:
                held += 1
                assert got is None
            else:
                assert got[0] == want[0]
                assert (got[1] is None) == (want[1] is None)
                if want[1] is not None:
                    assert got[1].key() == want[1].key()
        assert held

    @pytest.mark.parametrize("name", sorted(QUOTIENT_ORDERS))
    def test_motif_verdict_matches_window_reference(self, name):
        # the motif decides as a window holding a full cell of circles does
        cfg = make_config(name)
        pools = reference_pools(cfg)
        isos = [iso for _, _, iso in _probes(cfg, _linear_parts(cfg.lattice))]
        isos += [d.iso for d in cfg.symmetries] + [non_symmetry(cfg)]
        held = 0
        for iso in isos:
            got = isometry_violation(cfg, iso)
            want = reference_violation(cfg, iso, pools)
            assert (got is None) == (want is None)
            if want is None:
                held += 1
            else:
                assert got[0] == want[0]
        assert held >= len(cfg.symmetries)

    def test_declared_symmetries_of_a_finite_configuration(self):
        apo = make_config("apollonian")
        for decl in apo.symmetries:
            assert verify_isometry(apo, decl.iso)
        g = non_symmetry(apo)
        assert isometry_violation(apo, g) == reference_violation(
            apo, g, reference_pools(apo)
        )


def packing_lattice_violation(cfg, g, matrix):
    """``_violation`` on the packing-mode lattices, base rows closed under
    the dual reflections as well as the translations: the reference for the
    translation lattices it reads."""
    if cfg.lattice is not None and matrix(g.a, g.conj) is None:
        return ("lattice", None)
    for kind in ("base", "dual"):
        lat = _row_lattice(cfg, "packing", kind)
        images, ok = lat.moved(g, lat.motif, f"an image of a {kind} circle")
        ok[ok] = _locate(cfg, lat, images[ok])[0]
        bad = np.flatnonzero(~ok)
        if bad.size:
            return (kind, lat.circles(lat.motif[bad[:1]])[0])
    return None


class TestTranslationLatticeMembership:
    """Every circle of a kind is a motif circle moved by a lattice vector,
    so verification reads each kind's translation lattice; the packing-mode
    lattices give the same verdicts and the same first bad motif circle."""

    @staticmethod
    def summary(bad):
        return bad if bad is None else (bad[0], bad[1] and bad[1].key())

    @pytest.mark.parametrize("name", config_names())
    def test_verdicts_match_the_packing_lattices(self, name):
        cfg = make_config(name)
        matrix = partial(symmetry._matrix, cfg.lattice)
        isos = [d.iso for d in cfg.symmetries] + [non_symmetry(cfg)]
        if cfg.lattice is not None:
            isos += [iso for _, _, iso in _probes(cfg, _linear_parts(cfg.lattice))]
        verdicts = [self.summary(isometry_violation(cfg, g)) for g in isos]
        assert verdicts == [self.summary(packing_lattice_violation(cfg, g, matrix)) for g in isos]
        assert {v and v[0] for v in verdicts} >= {None, "base"}

    @pytest.mark.parametrize("name", config_names())
    def test_broken_declaration_names_the_same_witness(self, name, monkeypatch):
        cfg = make_config(name)
        decl = SymmetryDecl("translation", non_symmetry(cfg), {"vector": "a third of the diagonal"})

        def error():
            broken = Configuration(cfg.name, cfg.d, cfg.motif_base, cfg.motif_dual, cfg.lattice,
                                   [decl, *cfg.symmetries])
            with pytest.raises(ValueError) as err:
                signature_of(broken)
            return str(err.value)

        got = error()
        monkeypatch.setattr(symmetry, "_violation", packing_lattice_violation)
        assert got == error()
        assert ("witness: base circle" in got) == (cfg.lattice is not None)

    @pytest.mark.parametrize("name", sorted(QUOTIENT_ORDERS))
    def test_classification_derives_translation_lattices_only(self, name):
        cfg = make_config(name)
        classify_wallpaper(cfg)
        assert set(cfg.row_lattices) == {(("base",), ()), (("dual",), ())}


class TestTrivialIntersectionRows:
    @pytest.mark.parametrize(
        "name, window, verdict",
        [
            ("square", Window(0.5, 0.5, 1.5, 1.5), False),
            ("hexagonal", Window.square(1.0), False),
            ("square", Window.square(1.0), True),
            ("triangular", Window.square(1.0), True),
            ("hexagonal", Window(0.5, 0.5, 2.5, 2.5), False),
            ("wallpaper:p4", Window(-0.3, 0.2, 0.3, 0.8), False),
            ("wallpaper:cm", Window(-0.3, -0.3, 0.3, 0.3), False),
            ("wallpaper:p4", Window.square(1.0), True),
            ("wallpaper:p3", Window.square(1.0), True),
            ("wallpaper:pgg", Window.square(1.0), True),
        ],
    )
    def test_verdict_matches_reference(self, name, window, verdict):
        cfg = make_config(name)
        assert trivial_intersection(cfg, window, max_len=2) is verdict
        assert reference_trivial_intersection(cfg, window, 2) is verdict

    def test_finite_configuration_has_no_quotient(self):
        # the isometries are taken modulo lattice translations, which an
        # Apollonian configuration lacks: the rows and the reference agree
        # in refusing it
        apo = make_config("apollonian")
        for check in (trivial_intersection, reference_trivial_intersection):
            with pytest.raises(ValueError, match="no translation quotient"):
                check(apo, Window.square(1.0), 2)

    def test_word_overflow_is_named(self, square):
        # rows near x = 2e4 fit int64, and so do the first reflections,
        # but a word of two reflections would not
        w = Window(2e4 - 1.5, -1.5, 2e4 + 1.5, 1.5)
        assert trivial_intersection(square, w, max_len=1)
        with pytest.raises(LatticeOverflowError, match="d0@10000,-1"):
            trivial_intersection(square, w, max_len=2)
