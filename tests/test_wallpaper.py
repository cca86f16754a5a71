"""Cell-refined configurations for the seventeen plane symmetry groups.

The closed-form face circles are compared with the radical-center solve
they replaced, and the motifs with a reference builder on that solve, both
kept here as references.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from test_exact import field_sqrt

from invpack import wallpaper
from invpack.configs import (
    Configuration,
    SymmetryDecl,
    Window,
    check_duality,
    make_config,
    validate_base_dual,
)
from invpack.exact import QuadExt
from invpack.inversive import PlanarIsometry, from_center_radius, inversive_product
from invpack.render import to_json
from invpack.wallpaper import (
    SQ_MID_R,
    SQ_TINY_OFF,
    SQ_TINY_R,
    TRI_MID_R,
    TRI_TINY_OFF,
    TRI_TINY_R,
    make_wallpaper,
)

SQUARE_GROUPS = ("p1", "p2", "pm", "pg", "cm", "pmm", "pmg", "pgg",
                 "cmm", "p4", "p4g", "p4m")
TRIANGULAR_GROUPS = ("p3", "p3m1", "p31m", "p6", "p6m")

# motif sizes are determined by the refinement tables and the cell period
MOTIF_SIZES = {
    "p1": (6, 12), "p2": (14, 28), "pm": (12, 18), "pg": (10, 18),
    "cm": (10, 18), "pmm": (24, 36), "pmg": (24, 36), "pgg": (24, 36),
    "cmm": (16, 28), "p4": (12, 24), "p4g": (24, 48), "p4m": (1, 1),
    "p3": (18, 36), "p3m1": (2, 4), "p31m": (21, 42), "p6": (15, 30),
    "p6m": (1, 2),
}


def q2(a, b=0, q=1):
    return QuadExt(a, b, q, 2)


def q3(a, b=0, q=1):
    return QuadExt(a, b, q, 3)


def radical_circle(circles):
    """Circle orthogonal to three pairwise tangent circles, through their
    tangency points, by a radical-center solve.  Exact; raises if the
    radius leaves the field."""
    if len(circles) != 3:
        raise ValueError("need exactly three circles")
    ps = [c.exact_center() for c in circles]
    rs = [c.exact_radius() for c in circles]
    ks = [p[0] * p[0] + p[1] * p[1] - r * r for p, r in zip(ps, rs)]
    a1x, a1y = 2 * (ps[1][0] - ps[0][0]), 2 * (ps[1][1] - ps[0][1])
    a2x, a2y = 2 * (ps[2][0] - ps[0][0]), 2 * (ps[2][1] - ps[0][1])
    b1, b2 = ks[1] - ks[0], ks[2] - ks[0]
    det = a1x * a2y - a1y * a2x
    px = (b1 * a2y - b2 * a1y) / det
    py = (a1x * b2 - a2x * b1) / det
    rr2 = (px - ps[0][0]) ** 2 + (py - ps[0][1]) ** 2 - rs[0] * rs[0]
    if isinstance(rr2, QuadExt):
        rr = field_sqrt(rr2)
        if rr is None:
            raise ArithmeticError(f"radical radius^2 {rr2} is not a square")
    else:
        rr = math.sqrt(rr2)
    out = from_center_radius((px, py), rr)
    for c in circles:
        prod = inversive_product(out, c)
        if isinstance(prod, QuadExt):
            if prod != 0:
                raise ArithmeticError("radical circle not orthogonal to input")
        elif abs(prod) > 1e-9:
            raise ArithmeticError("radical circle not orthogonal to input")
    return out


def _row_of(c):
    """An exact circle as the closed form's row: its coordinates over
    their least common denominator."""
    q = math.lcm(*(x.q for x in c.key()))
    return (q, tuple((x.a * (q // x.q), x.b * (q // x.q)) for x in c.key()))


def closed_form(circles):
    d = max(x.d for c in circles for x in c.key())
    return wallpaper._circle(wallpaper._face([_row_of(c) for c in circles], d), d)


class TestGapFillers:
    def test_square_tangency_identities(self):
        # middle touches the tiny exactly at the declared offset
        assert SQ_TINY_OFF == SQ_MID_R + SQ_TINY_R
        # tiny touches the two bases flanking its side; the side midpoint
        # sits one unit from the cell center
        dist_sq = q2(1) + (q2(1) - SQ_TINY_OFF) ** 2
        assert dist_sq == (q2(1) + SQ_TINY_R) ** 2

    def test_triangular_tangency_identities(self):
        assert TRI_TINY_OFF == TRI_MID_R + TRI_TINY_R
        # tiny sits against the two bases at the ends of its side; the
        # vertices are at circumradius 2/sqrt(3) from the centroid, so
        # |tiny - vertex|^2 = off^2 - (2/sqrt(3))*off + 4/3
        off = TRI_TINY_OFF
        dist_sq = off ** 2 - q3(0, 2, 3) * off + q3(4, 0, 3)
        assert dist_sq == (q3(1) + TRI_TINY_R) ** 2


class TestRadicalCircle:
    def test_side_dual_of_refined_cell(self):
        one = q2(1)
        base_a = from_center_radius((q2(0), q2(0)), one)
        base_b = from_center_radius((q2(2), q2(0)), one)
        tiny = from_center_radius((q2(1), q2(9, -4, 7)), SQ_TINY_R)
        rad = radical_circle((base_a, base_b, tiny))
        assert rad.exact_center() == (q2(1), q2(3, -1, 7))
        assert rad.exact_radius() == q2(3, -1, 7)
        for c in (base_a, base_b, tiny):
            assert inversive_product(rad, c) == 0

    def test_corner_dual_of_refined_cell(self):
        one = q2(1)
        base_a = from_center_radius((q2(0), q2(0)), one)
        tiny = from_center_radius((q2(1), q2(9, -4, 7)), SQ_TINY_R)
        middle = from_center_radius((q2(1), q2(1)), SQ_MID_R)
        rad = radical_circle((base_a, tiny, middle))
        assert rad.exact_center() == (q2(-2, 2), q2(2, -1))
        assert rad.exact_radius() == q2(3, -2)

    def test_rejects_concentric_inputs(self):
        a = from_center_radius((q2(0), q2(0)), q2(1))
        b = from_center_radius((q2(0), q2(0)), q2(2))
        c = from_center_radius((q2(3), q2(0)), q2(1))
        with pytest.raises(ArithmeticError):
            radical_circle((a, b, c))


class TestMotifs:
    @pytest.mark.parametrize("group", SQUARE_GROUPS + TRIANGULAR_GROUPS)
    def test_motif_sizes(self, group):
        cfg = make_wallpaper(group)
        assert (len(cfg.motif_base), len(cfg.motif_dual)) == MOTIF_SIZES[group]
        assert cfg.name == f"wallpaper:{group}"
        assert cfg.lattice is not None

    def test_p1_contains_expected_refined_circles(self):
        cfg = make_config("wallpaper:p1")
        # cell at (1,1) is S-refined: middle, tiny and three side duals
        middle = from_center_radius((q2(1), q2(1)), SQ_MID_R)
        assert cfg.contains_circle(middle, "base") is not None
        tiny = from_center_radius((q2(1), q2(9, -4, 7)), SQ_TINY_R)
        assert cfg.contains_circle(tiny, "base") is not None
        side = from_center_radius((q2(1), q2(3, -1, 7)), q2(3, -1, 7))
        assert cfg.contains_circle(side, "dual") is not None
        corner = from_center_radius((q2(-2, 2), q2(2, -1)), q2(3, -2))
        assert cfg.contains_circle(corner, "dual") is not None
        # cell at (1,3) is W-refined, so its tiny sits left of center
        tiny_w = from_center_radius((q2(9, -4, 7), q2(3)), SQ_TINY_R)
        assert cfg.contains_circle(tiny_w, "base") is not None

    def test_p31m_contains_expected_refined_circles(self):
        cfg = make_config("wallpaper:p31m")
        # up cell at (0,0) is SW-refined
        centroid = (q3(0), q3(0, 2, 3))
        middle = from_center_radius(centroid, TRI_MID_R)
        assert cfg.contains_circle(middle, "base") is not None
        tiny = from_center_radius(
            (q3(-9, 4, 11), q3(12, 13, 33)), TRI_TINY_R)
        assert cfg.contains_circle(tiny, "base") is not None

    def test_unrefined_down_cells_get_centroid_duals(self):
        cfg = make_config("wallpaper:p3m1")
        # p3m1 leaves down cells alone; the one hanging from (1,1) keeps a
        # single centroid dual
        centroid = (q3(1), q3(0, 1, 3))
        dual = from_center_radius(centroid, q3(0, 1, 3))
        assert cfg.contains_circle(dual, "dual") is not None

    def test_p4m_and_p6m_reduce_to_unrefined(self):
        sq = make_config("wallpaper:p4m")
        assert sq.motif_base[0].key() == make_config("square").motif_base[0].key()
        hexa = make_config("wallpaper:p6m")
        tri = make_config("triangular")
        assert hexa.motif_dual[0].key() == tri.motif_dual[0].key()


class TestValidation:
    @pytest.mark.parametrize("group", SQUARE_GROUPS + TRIANGULAR_GROUPS)
    def test_base_dual_validation(self, group):
        cfg = make_wallpaper(group)
        rep = validate_base_dual(cfg, Window.square(3.0))
        assert rep.ok, "\n".join(rep.lines())

    @pytest.mark.parametrize("group", ("pgg", "p4g", "p31m"))
    def test_duality(self, group):
        cfg = make_wallpaper(group)
        rep = check_duality(cfg, Window.square(4.0))
        assert rep.ok, "\n".join(rep.lines())


# ---------------------------------------------------------------------------
# Reference builder: one loop per family, as the module had them before the
# families became data, with the lattice reduction on Fractions.  The group
# data (lattice, decoration rules, symmetries beyond the lattice) and the
# direction and side tables come from the module.


def _ref_canon(p, v1, v2):
    det = v1[0] * v2[1] - v1[1] * v2[0]
    a = Fraction(p[0] * v2[1] - p[1] * v2[0], det)
    b = Fraction(v1[0] * p[1] - v1[1] * p[0], det)
    fa = a - math.floor(a)
    fb = b - math.floor(b)
    x = fa * v1[0] + fb * v2[0]
    y = fa * v1[1] + fb * v2[1]
    return (int(x), int(y))


def _ref_reps(v1, v2, points):
    return sorted({_ref_canon(p, v1, v2) for p in points})


def _sq_point(x, y):
    return (q2(x), q2(y))


def _tri_point(m, n):
    return (q3(m), q3(0, n))


def _tri_centroid(m, n, up):
    off = 3 * n + 2 if up else 3 * n - 2
    return (q3(m), q3(0, off, 3))


def _ref_config(group, fam, point, v1, v2, motif_base, motif_dual, extra):
    syms = [
        SymmetryDecl("translation", PlanarIsometry.translation(point(*v1)), {"vector": v1}),
        SymmetryDecl("translation", PlanarIsometry.translation(point(*v2)), {"vector": v2}),
    ]
    syms.extend(extra(fam))
    lattice = (point(*v1), point(*v2))
    return Configuration(f"wallpaper:{group}", fam.d, motif_base, motif_dual, lattice, syms)


def _ref_square_family(group, face):
    fam, (v1, v2), (rule,), extra = wallpaper._GROUPS[group]
    box = [(x, y) for x in range(-8, 16) for y in range(-8, 16)]
    base_pts = _ref_reps(v1, v2, [p for p in box if p[0] % 2 == 0 and p[1] % 2 == 0])
    cell_pts = _ref_reps(v1, v2, [p for p in box if p[0] % 2 == 1 and p[1] % 2 == 1])

    one = q2(1)
    motif_base = [from_center_radius(_sq_point(*p), one) for p in base_pts]
    motif_dual = []
    for (cx, cy) in cell_pts:
        dirs = rule(cx, cy)
        if dirs is None:
            motif_dual.append(from_center_radius(_sq_point(cx, cy), one))
            continue
        mid = from_center_radius(_sq_point(cx, cy), SQ_MID_R)
        motif_base.append(mid)
        tiny = {}
        for dn in dirs:
            ux, uy = wallpaper._SQ_DIR[dn]
            center = (q2(cx) + SQ_TINY_OFF * ux, q2(cy) + SQ_TINY_OFF * uy)
            tiny[dn] = from_center_radius(center, SQ_TINY_R)
            motif_base.append(tiny[dn])
        for side in ("N", "E", "S", "W"):
            (dx1, dy1), (dx2, dy2) = wallpaper._SQ_SIDES[side]
            b1 = from_center_radius(_sq_point(cx + dx1, cy + dy1), one)
            b2 = from_center_radius(_sq_point(cx + dx2, cy + dy2), one)
            if side in tiny:
                t = tiny[side]
                motif_dual.append(face((b1, b2, t)))
                motif_dual.append(face((b1, t, mid)))
                motif_dual.append(face((b2, t, mid)))
            else:
                motif_dual.append(face((b1, b2, mid)))
    return _ref_config(group, fam, _sq_point, v1, v2, motif_base, motif_dual, extra)


def _ref_triangular_family(group, face):
    fam, (v1, v2), (up_rule, down_rule), extra = wallpaper._GROUPS[group]
    box = [(m, n) for m in range(-8, 16) for n in range(-8, 16) if (m - n) % 2 == 0]
    pts = _ref_reps(v1, v2, box)

    one = q3(1)
    dual_r = q3(0, 1, 3)  # 1/sqrt(3)
    motif_base = [from_center_radius(_tri_point(*p), one) for p in pts]
    motif_dual = []
    for (m, n) in pts:
        for up, rule, sides in (
            (True, up_rule, wallpaper._TRI_SIDES_UP),
            (False, down_rule, wallpaper._TRI_SIDES_DOWN),
        ):
            dirs = rule(m, n)
            centroid = _tri_centroid(m, n, up)
            if dirs is None:
                motif_dual.append(from_center_radius(centroid, dual_r))
                continue
            mid = from_center_radius(centroid, TRI_MID_R)
            motif_base.append(mid)
            tiny = {}
            for dn in dirs:
                ux, uy = wallpaper._TRI_DIR[dn]
                center = (centroid[0] + TRI_TINY_OFF * ux, centroid[1] + TRI_TINY_OFF * uy)
                tiny[dn] = from_center_radius(center, TRI_TINY_R)
                motif_base.append(tiny[dn])
            for side in sides:
                (d1, d2) = sides[side]
                b1 = from_center_radius(_tri_point(m + d1[0], n + d1[1]), one)
                b2 = from_center_radius(_tri_point(m + d2[0], n + d2[1]), one)
                if side in tiny:
                    t = tiny[side]
                    motif_dual.append(face((b1, b2, t)))
                    motif_dual.append(face((b1, t, mid)))
                    motif_dual.append(face((b2, t, mid)))
                else:
                    motif_dual.append(face((b1, b2, mid)))
    return _ref_config(group, fam, _tri_point, v1, v2, motif_base, motif_dual, extra)


def _ref_wallpaper(group, face=radical_circle):
    """The group's configuration, each face circle made by ``face`` from
    its three circles."""
    if group in ("p4m", "p6m"):
        cfg = make_config("square" if group == "p4m" else "triangular")
        cfg.name = f"wallpaper:{group}"
        return cfg
    if group in TRIANGULAR_GROUPS:
        return _ref_triangular_family(group, face)
    return _ref_square_family(group, face)


class TestReferenceBuilder:
    @pytest.mark.parametrize("group", SQUARE_GROUPS + TRIANGULAR_GROUPS)
    def test_json_matches_reference(self, group):
        assert to_json(make_wallpaper(group)) == to_json(_ref_wallpaper(group))


class TestClosedForm:
    def test_matches_radical_solve_on_every_face(self):
        # every face triple of the fifteen decorated groups, as the
        # reference builder meets them
        faces = []

        def record(triple):
            faces.append((triple, radical_circle(triple)))
            return faces[-1][1]

        for group in wallpaper._GROUPS:
            _ref_wallpaper(group, record)
        assert len(faces) == 351
        for triple, want in faces:
            got = closed_form(triple)
            assert got.key() == want.key()
            assert got.curvature.sign() > 0

    def test_rejects_triples_that_are_not_tangent(self):
        a = from_center_radius((q2(0), q2(0)), q2(1))
        b = from_center_radius((q2(0), q2(0)), q2(2))
        c = from_center_radius((q2(3), q2(0)), q2(1))
        far = from_center_radius((q2(0), q2(3)), q2(1))
        # concentric: the circles orthogonal to a and b are lines
        with pytest.raises(ArithmeticError, match="orthogonal to the rows .* is a line"):
            closed_form((a, b, c))
        # disjoint unit circles: a quarter cross product is off the quadric
        with pytest.raises(ArithmeticError, match="quadric residual"):
            closed_form((a, c, far))

    def test_template_off_the_quadric_rejected(self):
        with pytest.raises(ArithmeticError, match="probe has quadric residual"):
            wallpaper._on_quadric((1, ((0, 0), (1, 0), (0, 0), (0, 0))), 2, lambda: "probe")
