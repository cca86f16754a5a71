"""Inversive coordinates, pair classes and planar isometries.

``reflect_geometric``, classical inversion on centers and radii, is kept
here as the independent route that ``reflect`` is checked against."""

import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invpack.exact import QuadExt, Scalar, scalar_sign
from invpack.inversive import (
    InversiveCircle,
    PairClass,
    PlanarIsometry,
    apply_isometry,
    classify_pair,
    from_center_radius,
    from_line,
    inversive_product,
    reflect,
)


def qi(n):
    return QuadExt(n)


def exact_circle(cx, cy, r, bounded=True):
    return from_center_radius((qi(cx), qi(cy)), qi(r), bounded)


UNIT = exact_circle(0, 0, 1)


class TestConstructors:
    def test_unit_circle(self):
        assert UNIT.key() == (qi(-1), qi(1), qi(0), qi(0))

    def test_offset_circle(self):
        c = exact_circle(2, 0, 1)
        assert c.key() == (qi(3), qi(1), qi(2), qi(0))
        assert c.quadric_residual() == 0

    def test_far_circle(self):
        assert exact_circle(4, 0, 1).key() == (qi(15), qi(1), qi(4), qi(0))

    def test_unbounded_orientation(self):
        c = exact_circle(0, 0, 2, bounded=False)
        assert c.curvature == QuadExt(-1, 0, 2)
        assert c.quadric_residual() == 0

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            exact_circle(0, 0, 0)

    def test_lines(self):
        assert from_line((qi(1), qi(0)), qi(0)).key() == (
            qi(0), qi(0), qi(1), qi(0))
        assert from_line((qi(0), qi(1)), qi(2)).key() == (
            qi(4), qi(0), qi(0), qi(1))
        assert from_line((qi(0), qi(-1)), qi(0)).key() == (
            qi(0), qi(0), qi(0), qi(-1))
        assert from_line((qi(0), qi(1)), qi(2)).quadric_residual() == 0

    def test_line_as_limit_of_circles(self):
        # circles through the origin tangent to y=0 from above, growing radius
        for R in (10.0, 100.0, 1000.0):
            c = from_center_radius((0.0, R), R)
            line = from_line((0.0, 1.0), 0.0)
            for a, b in zip(c.key(), line.key()):
                assert abs(a - b) < 2.0 / R

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            from_line((qi(2), qi(0)), qi(0))


class TestProduct:
    def test_self_product_is_one(self):
        assert inversive_product(UNIT, UNIT) == 1

    def test_external_tangency(self):
        assert inversive_product(UNIT, exact_circle(2, 0, 1)) == -1

    def test_orthogonality_from_distance(self):
        # centers distance^2 = 2 = 1 + 1
        assert inversive_product(UNIT, exact_circle(1, 1, 1)) == 0

    def test_spec_pair(self):
        v = InversiveCircle(qi(15), qi(1), qi(4), qi(0))
        w = InversiveCircle(qi(1), qi(1), qi(1), qi(1))
        assert inversive_product(v, w) == -4


class TestReflect:
    def test_orthogonal_fixed(self):
        m = exact_circle(1, 1, 1)
        assert reflect(m, UNIT).key() == UNIT.key()

    def test_spec_image(self):
        m = exact_circle(1, 1, 1)
        v = exact_circle(4, 0, 1)
        img = reflect(m, v)
        assert img.key() == (qi(23), qi(9), qi(12), qi(8))
        assert img.exact_center() == (QuadExt(4, 0, 3), QuadExt(8, 0, 9))
        assert img.exact_radius() == QuadExt(1, 0, 9)

    def test_mirror_reverses_itself(self):
        m = exact_circle(1, 1, 1)
        assert reflect(m, m).key() == m.reversed().key()

    def test_line_mirror(self):
        yaxis = from_line((qi(1), qi(0)), qi(0))
        img = reflect(yaxis, exact_circle(2, 0, 1))
        assert img.key() == exact_circle(-2, 0, 1).key()


class TestClassify:
    def test_frozen_cases(self):
        assert classify_pair(UNIT, exact_circle(2, 0, 1)) is PairClass.EXTERNALLY_TANGENT
        assert classify_pair(UNIT, exact_circle(1, 1, 1)) is PairClass.ORTHOGONAL
        assert classify_pair(UNIT, exact_circle(10, 0, 1)) is PairClass.DISJOINT_EXTERIORS
        assert classify_pair(UNIT, UNIT) is PairClass.EQUAL
        assert classify_pair(UNIT, UNIT.reversed()) is PairClass.OPPOSITE
        assert classify_pair(UNIT, exact_circle(0, 0, 3)) is PairClass.NESTED
        assert classify_pair(UNIT, exact_circle(1, 0, 1)) is PairClass.CROSSING

    def test_internal_tangency(self):
        assert classify_pair(exact_circle(1, 0, 1), exact_circle(0, 0, 2)) \
            is PairClass.INTERNALLY_TANGENT

    def test_float_tolerance(self):
        a = from_center_radius((0.0, 0.0), 1.0)
        b = from_center_radius((2.0 + 1e-12, 0.0), 1.0)
        assert classify_pair(a, b) is PairClass.EXTERNALLY_TANGENT


class TestIsometry:
    def test_translation(self):
        g = PlanarIsometry.translation((qi(2), qi(0)))
        assert apply_isometry(g, UNIT).key() == exact_circle(2, 0, 1).key()

    def test_identity(self):
        g = PlanarIsometry.identity()
        v = exact_circle(3, -2, 2)
        assert apply_isometry(g, v).key() == v.key()

    def test_quarter_rotation(self):
        g = PlanarIsometry.rotation((qi(0), qi(0)), (qi(0), qi(1)))
        v = exact_circle(2, 0, 1)
        assert apply_isometry(g, v).key() == (qi(3), qi(1), qi(0), qi(2))

    def test_mirror_on_diagonal(self):
        g = PlanarIsometry.mirror_a((qi(0), qi(0)), (qi(-1), qi(0)))  # y-axis dir, u^2 = -1
        # mirror across the vertical axis maps (2,0) to (-2,0)
        v = exact_circle(2, 0, 1)
        assert apply_isometry(g, v).key() == exact_circle(-2, 0, 1).key()

    def test_line_translation(self):
        g = PlanarIsometry.translation((qi(0), qi(2)))
        line = from_line((qi(0), qi(1)), qi(0))
        assert apply_isometry(g, line).key() == from_line((qi(0), qi(1)), qi(2)).key()

    def test_compose_and_inverse(self):
        g = PlanarIsometry.rotation((qi(1), qi(0)), (qi(0), qi(1)))
        h = PlanarIsometry.mirror_a((qi(0), qi(0)), (qi(1), qi(0)))
        v = exact_circle(3, 1, 1)
        gh = g * h
        assert apply_isometry(gh, v).key() == apply_isometry(
            g, apply_isometry(h, v)).key()
        assert gh * gh.inverse() == PlanarIsometry.identity()
        assert gh.inverse() * gh == PlanarIsometry.identity()

    def test_glide_squares_to_translation(self):
        g = PlanarIsometry.glide_a((qi(0), qi(0)), (qi(1), qi(0)), (qi(1), qi(0)))
        gg = g * g
        assert g.conj
        assert gg.conj is False and gg.a == (qi(1), qi(0)) and gg.t == (qi(2), qi(0))

    def test_conjugation_identity(self):
        # g sigma_m g^{-1} = sigma_{g(m)} as an action on circles
        g = PlanarIsometry.rotation((qi(1), qi(1)), (qi(0), qi(1)))
        m = exact_circle(1, 1, 1)
        v = exact_circle(4, 0, 1)
        lhs = apply_isometry(g, reflect(m, v))
        rhs = reflect(apply_isometry(g, m), apply_isometry(g, v))
        assert lhs.key() == rhs.key()


# ---------------------------------------------------------------------------
# Independent geometric route: classical inversion on centers and radii


@dataclass(frozen=True)
class Geom:
    """Center/radius (or normal/offset) form of an oriented circle or line.

    ``kind`` is "circle" with (x, y) = center and r the signed radius
    (negative for an unbounded interior), or "line" with (x, y) the unit
    normal and r the offset, interior {p : p.n > offset}.
    """

    kind: str
    x: Scalar
    y: Scalar
    r: Scalar

    def to_inversive(self) -> InversiveCircle:
        if self.kind == "circle":
            bounded = scalar_sign(self.r, eps=0.0) > 0
            return from_center_radius((self.x, self.y), abs_scalar(self.r), bounded)
        return from_line((self.x, self.y), self.r)


def abs_scalar(x: Scalar) -> Scalar:
    return -x if scalar_sign(x, eps=0.0) < 0 else x


def reflect_geometric(mirror: Geom, v: Geom) -> Geom:
    """Inversion of v in a circle mirror, or Euclidean reflection in a line
    mirror, computed purely on centers and radii.

    For a circle mirror (center q, radius R) and circle v (center c, signed
    radius r) with D = |c - q|^2 - r^2:  image radius R^2 r / D and center
    q + R^2 (c - q) / D; the sign of D carries the orientation flip when v
    surrounds q.  D = 0 (v passes through q) yields a line.
    """
    if mirror.kind == "line":
        n, o = (mirror.x, mirror.y), mirror.r
        if v.kind == "circle":
            dot = v.x * n[0] + v.y * n[1]
            s = 2 * (o - dot)
            return Geom("circle", v.x + s * n[0], v.y + s * n[1], v.r)
        ndot = v.x * n[0] + v.y * n[1]
        n2 = (v.x - 2 * ndot * n[0], v.y - 2 * ndot * n[1])
        # image offset from the reflected image of a point on the line
        p0 = (v.r * v.x, v.r * v.y)
        s = 2 * (o - (p0[0] * n[0] + p0[1] * n[1]))
        p1 = (p0[0] + s * n[0], p0[1] + s * n[1])
        return Geom("line", n2[0], n2[1], p1[0] * n2[0] + p1[1] * n2[1])

    q = (mirror.x, mirror.y)
    R2 = mirror.r * mirror.r
    if v.kind == "circle":
        dx, dy = v.x - q[0], v.y - q[1]
        D = dx * dx + dy * dy - v.r * v.r
        if scalar_sign(D, eps=0.0) == 0:
            # through the center of inversion: a line results
            dist = abs_scalar(v.r)
            u = (dx / dist, dy / dist)
            off = q[0] * u[0] + q[1] * u[1] + R2 / (2 * dist)
            if scalar_sign(v.r, eps=0.0) < 0:
                u, off = (-u[0], -u[1]), -off
            return Geom("line", u[0], u[1], off)
        return Geom(
            "circle", q[0] + R2 * dx / D, q[1] + R2 * dy / D, R2 * v.r / D
        )
    # line -> circle through q (or itself when it passes through q)
    s = v.r - (q[0] * v.x + q[1] * v.y)
    if scalar_sign(s, eps=0.0) == 0:
        return v
    rr = R2 / (2 * s)
    return Geom("circle", q[0] + rr * v.x, q[1] + rr * v.y, rr)


class TestReflectGeometric:
    def test_hand_evaluated_image(self):
        mirror = Geom("circle", qi(1), qi(1), qi(1))
        v = Geom("circle", qi(4), qi(0), qi(1))
        img = reflect_geometric(mirror, v)
        assert img.kind == "circle"
        assert (img.x, img.y) == (QuadExt(4, 0, 3), QuadExt(8, 0, 9))
        assert img.r == QuadExt(1, 0, 9)

    def test_concentric(self):
        mirror = Geom("circle", qi(0), qi(0), qi(1))
        v = Geom("circle", qi(0), qi(0), qi(2))
        img = reflect_geometric(mirror, v)
        # radius 1/2; the disk surrounded the mirror, so the interior flips
        # to the unbounded side (signed radius -1/2)
        assert (img.x, img.y, img.r) == (qi(0), qi(0), QuadExt(-1, 0, 2))
        assert img.to_inversive().key() == reflect(
            mirror.to_inversive(), v.to_inversive()).key()

    def test_circle_through_center_gives_line(self):
        mirror = Geom("circle", qi(0), qi(0), qi(1))
        v = Geom("circle", QuadExt(1, 0, 2), qi(0), QuadExt(1, 0, 2))
        img = reflect_geometric(mirror, v)
        assert img.kind == "line"
        assert (img.x, img.y, img.r) == (qi(1), qi(0), qi(1))  # x = 1

    def test_line_to_circle(self):
        mirror = Geom("circle", qi(0), qi(0), qi(1))
        v = Geom("line", qi(0), qi(1), qi(1))  # y = 1, interior above
        img = reflect_geometric(mirror, v)
        assert img.kind == "circle"
        assert (img.x, img.y, img.r) == (qi(0), QuadExt(1, 0, 2), QuadExt(1, 0, 2))

    def test_agrees_with_reflect_on_line_output(self):
        mirror = Geom("circle", qi(0), qi(0), qi(1))
        v = Geom("circle", QuadExt(1, 0, 2), qi(0), QuadExt(1, 0, 2))
        via_vectors = reflect(mirror.to_inversive(), v.to_inversive())
        assert reflect_geometric(mirror, v).to_inversive().key() == via_vectors.key()

    def test_line_mirror_euclidean(self):
        mirror = Geom("line", qi(0), qi(1), qi(1))  # y = 1
        v = Geom("circle", qi(3), qi(0), qi(1))
        img = reflect_geometric(mirror, v)
        assert (img.x, img.y, img.r) == (qi(3), qi(2), qi(1))

    def test_involution_on_geoms(self):
        mirror = Geom("circle", qi(2), qi(-1), qi(3))
        v = Geom("circle", qi(7), qi(5), qi(2))
        img2 = reflect_geometric(mirror, reflect_geometric(mirror, v))
        assert (img2.x, img2.y, img2.r) == (v.x, v.y, v.r)


def random_exact_circle(rng):
    cx = QuadExt(rng.randint(-50, 50), 0, 10)
    cy = QuadExt(rng.randint(-50, 50), 0, 10)
    r = QuadExt(rng.randint(1, 30), 0, 10)
    return Geom("circle", cx, cy, r)


class TestOracleEquivalence:
    def test_float_agreement_randomized(self):
        rng = random.Random(7)
        count = 0
        while count < 1000:
            mirror = Geom(
                "circle",
                rng.uniform(-5, 5),
                rng.uniform(-5, 5),
                rng.uniform(0.1, 3.0),
            )
            v = Geom(
                "circle",
                rng.uniform(-5, 5),
                rng.uniform(-5, 5),
                rng.uniform(0.1, 3.0),
            )
            dx, dy = v.x - mirror.x, v.y - mirror.y
            if abs(dx * dx + dy * dy - v.r * v.r) < 1e-6:
                continue  # nearly through the center; line-output case
            count += 1
            img_geom = reflect_geometric(mirror, v).to_inversive()
            img_vec = reflect(mirror.to_inversive(), v.to_inversive())
            for a, b in zip(img_geom.key(), img_vec.key()):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    def test_exact_agreement_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            mirror = random_exact_circle(rng)
            v = random_exact_circle(rng)
            dx, dy = v.x - mirror.x, v.y - mirror.y
            if dx * dx + dy * dy == v.r * v.r:
                continue
            img_geom = reflect_geometric(mirror, v).to_inversive()
            img_vec = reflect(mirror.to_inversive(), v.to_inversive())
            assert img_geom.key() == img_vec.key()


coord = st.integers(-40, 40)
rad = st.integers(1, 25)


@given(coord, coord, rad, coord, coord, rad)
@settings(max_examples=200)
def test_reflection_preserves_quadric_and_products(mx, my, mr, vx, vy, vr):
    m = exact_circle(mx, my, mr)
    v = exact_circle(vx, vy, vr)
    img = reflect(m, v)
    assert img.quadric_residual() == 0
    assert inversive_product(reflect(m, UNIT), img) == inversive_product(UNIT, v)
    assert reflect(m, img).key() == v.key()


@given(coord, coord, rad)
@settings(max_examples=100)
def test_reversal_is_same_circle(cx, cy, r):
    v = exact_circle(cx, cy, r)
    w = v.reversed()
    assert classify_pair(v, w) is PairClass.OPPOSITE
    assert v.center() == w.center() and v.radius() == w.radius()
