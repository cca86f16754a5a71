"""Oriented generalized circles as 4-vectors on a Lorentz quadric.

A circle or line with a chosen interior is the vector v = (bt, b, h1, h2)
where b is the signed curvature (positive when the interior is the bounded
disk, zero for a line), bt is the curvature of the image under inversion in
the unit circle, and (h1, h2) is curvature times center.  Proper vectors
satisfy h1^2 + h2^2 - b*bt = 1.  Lines carry (2*offset, 0, n1, n2) for the
line {p : p.n = offset} with interior half-plane {p : p.n > offset}; this is
the limit of large interior-bounded circles.

The inversive product <v, w> = h1*h1' + h2*h2' - (b*bt' + bt*b')/2 has
<v, v> = 1, external tangency at -1 and orthogonality at 0.  Reflection
across a mirror m is the product-preserving involution v - 2<v, m>*m; it
works verbatim for line mirrors.  ``reflect_geometric`` implements classical
center/radius inversion independently and serves as the oracle for
``reflect``.

Scalars are either ``QuadExt`` (exact mode) or ``float`` throughout; a single
object never mixes the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from .exact import QuadExt, Scalar, as_float, scalar_sign

EPS = 1e-9


class PairClass(enum.Enum):
    EQUAL = "equal"
    OPPOSITE = "opposite"
    EXTERNALLY_TANGENT = "externally-tangent"
    INTERNALLY_TANGENT = "internally-tangent"
    ORTHOGONAL = "orthogonal"
    DISJOINT_EXTERIORS = "disjoint-exteriors"
    NESTED = "nested"
    CROSSING = "crossing"


@dataclass(frozen=True)
class InversiveCircle:
    """4-vector (co_curvature, curvature, h1, h2) on the quadric."""

    co_curvature: Scalar
    curvature: Scalar
    h1: Scalar
    h2: Scalar

    @property
    def is_exact(self) -> bool:
        return isinstance(self.curvature, QuadExt)

    @property
    def is_line(self) -> bool:
        return scalar_sign(self.curvature) == 0

    def quadric_residual(self) -> Scalar:
        return (
            self.h1 * self.h1
            + self.h2 * self.h2
            - self.curvature * self.co_curvature
            - 1
        )

    def reversed(self) -> "InversiveCircle":
        """Same point set, opposite interior."""
        return InversiveCircle(
            -self.co_curvature, -self.curvature, -self.h1, -self.h2
        )

    def center(self) -> Tuple[float, float]:
        """Float center; undefined for lines."""
        b = as_float(self.curvature)
        if b == 0.0:
            raise ValueError("a line has no center")
        return (as_float(self.h1) / b, as_float(self.h2) / b)

    def radius(self) -> float:
        """Float unsigned radius; undefined for lines."""
        b = as_float(self.curvature)
        if b == 0.0:
            raise ValueError("a line has no radius")
        return abs(1.0 / b)

    def exact_center(self) -> Tuple[Scalar, Scalar]:
        if self.is_line:
            raise ValueError("a line has no center")
        return (self.h1 / self.curvature, self.h2 / self.curvature)

    def exact_radius(self) -> Scalar:
        """Signed radius 1/b (negative for unbounded interiors)."""
        if self.is_line:
            raise ValueError("a line has no radius")
        return 1 / self.curvature if self.is_exact else 1.0 / self.curvature

    def key(self):
        """Hashable identity key (exact scalars hash by value)."""
        return (self.co_curvature, self.curvature, self.h1, self.h2)

    def as_floats(self) -> "InversiveCircle":
        return InversiveCircle(
            as_float(self.co_curvature),
            as_float(self.curvature),
            as_float(self.h1),
            as_float(self.h2),
        )


def from_center_radius(
    center: Tuple[Scalar, Scalar], radius: Scalar, bounded: bool = True
) -> InversiveCircle:
    """Circle from center and positive radius.

    ``bounded=True`` orients the interior to the bounded disk (b = 1/r);
    ``bounded=False`` to the unbounded complement (b = -1/r).
    """
    if scalar_sign(radius, eps=0.0) <= 0:
        raise ValueError("radius must be positive")
    x, y = center
    one = 1 if isinstance(radius, QuadExt) else 1.0
    b = one / radius if bounded else -one / radius
    return InversiveCircle(b * (x * x + y * y - radius * radius), b, b * x, b * y)


def from_line(
    unit_normal: Tuple[Scalar, Scalar], offset: Scalar
) -> InversiveCircle:
    """Line {p : p.n = offset} with interior half-plane {p : p.n > offset}."""
    n1, n2 = unit_normal
    if scalar_sign(n1 * n1 + n2 * n2 - 1, eps=1e-12) != 0:
        raise ValueError("normal must have unit length")
    zero = n1 - n1
    return InversiveCircle(2 * offset, zero, n1, n2)


def inversive_product(v: InversiveCircle, w: InversiveCircle) -> Scalar:
    # an int 2 divides QuadExt exactly and floats as 2.0 would
    return (
        v.h1 * w.h1
        + v.h2 * w.h2
        - (v.curvature * w.co_curvature + v.co_curvature * w.curvature) / 2
    )


def reflect(mirror: InversiveCircle, v: InversiveCircle) -> InversiveCircle:
    """Reflection of v across the mirror: v - 2<v, m> m."""
    s = 2 * inversive_product(v, mirror)
    return InversiveCircle(
        v.co_curvature - s * mirror.co_curvature,
        v.curvature - s * mirror.curvature,
        v.h1 - s * mirror.h1,
        v.h2 - s * mirror.h2,
    )


def classify_pair(
    v: InversiveCircle, w: InversiveCircle, eps: float = EPS
) -> PairClass:
    if v.key() == w.key():
        return PairClass.EQUAL
    if v.key() == w.reversed().key():
        return PairClass.OPPOSITE
    p = inversive_product(v, w)
    sp1 = scalar_sign(p + 1, eps)
    sm1 = scalar_sign(p - 1, eps)
    if sp1 == 0:
        return PairClass.EXTERNALLY_TANGENT
    if sm1 == 0:
        return PairClass.INTERNALLY_TANGENT
    if sp1 < 0:
        return PairClass.DISJOINT_EXTERIORS
    if sm1 > 0:
        return PairClass.NESTED
    if scalar_sign(p, eps) == 0:
        return PairClass.ORTHOGONAL
    return PairClass.CROSSING


# ---------------------------------------------------------------------------
# Planar isometries (rotation/reflection part a with |a| = 1, translation t)
# ---------------------------------------------------------------------------


def _cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _cconj(u):
    return (u[0], -u[1])


def _cadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


@dataclass(frozen=True)
class PlanarIsometry:
    """z -> a*z + t, or z -> a*conj(z) + t when ``conj`` is set; |a| = 1."""

    a: Tuple[Scalar, Scalar]
    t: Tuple[Scalar, Scalar]
    conj: bool = False

    def __post_init__(self):
        norm = self.a[0] * self.a[0] + self.a[1] * self.a[1]
        if scalar_sign(norm - 1, eps=1e-12) != 0:
            raise ValueError("rotation part must have |a| = 1")

    @classmethod
    def identity(cls, exact: bool = True) -> "PlanarIsometry":
        one, zero = (QuadExt(1), QuadExt(0)) if exact else (1.0, 0.0)
        return cls((one, zero), (zero, zero))

    @classmethod
    def translation(cls, t: Tuple[Scalar, Scalar]) -> "PlanarIsometry":
        one = QuadExt(1) if isinstance(t[0], QuadExt) else 1.0
        zero = t[0] - t[0]
        return cls((one, zero), t)

    @classmethod
    def rotation(
        cls, center: Tuple[Scalar, Scalar], a: Tuple[Scalar, Scalar]
    ) -> "PlanarIsometry":
        """Rotation about a center; a = (cos, sin) of the angle."""
        # z -> a (z - c) + c
        ac = _cmul(a, center)
        return cls(a, (center[0] - ac[0], center[1] - ac[1]))

    @classmethod
    def mirror(
        cls, point: Tuple[Scalar, Scalar], direction: Tuple[Scalar, Scalar]
    ) -> "PlanarIsometry":
        """Reflection across the line through ``point`` along ``direction``
        (unit vector)."""
        a = _cmul(direction, direction)  # u^2
        # z -> p + u^2 conj(z - p) = u^2 conj(z) + (p - u^2 conj(p))
        ap = _cmul(a, _cconj(point))
        return cls(a, (point[0] - ap[0], point[1] - ap[1]), conj=True)

    @classmethod
    def glide(
        cls,
        point: Tuple[Scalar, Scalar],
        direction: Tuple[Scalar, Scalar],
        shift: Tuple[Scalar, Scalar],
    ) -> "PlanarIsometry":
        """Mirror along (point, direction) followed by the translation
        ``shift`` (which should be parallel to the axis)."""
        m = cls.mirror(point, direction)
        return cls(m.a, _cadd(m.t, shift), conj=True)

    @classmethod
    def mirror_a(
        cls, point: Tuple[Scalar, Scalar], a: Tuple[Scalar, Scalar]
    ) -> "PlanarIsometry":
        """Mirror given directly by its rotation part a = u^2 (u the unit axis
        direction).  Useful when u itself is outside the working field, e.g.
        the diagonal axis with a = i."""
        ap = _cmul(a, _cconj(point))
        return cls(a, (point[0] - ap[0], point[1] - ap[1]), conj=True)

    @classmethod
    def glide_a(
        cls,
        point: Tuple[Scalar, Scalar],
        a: Tuple[Scalar, Scalar],
        shift: Tuple[Scalar, Scalar],
    ) -> "PlanarIsometry":
        m = cls.mirror_a(point, a)
        return cls(m.a, _cadd(m.t, shift), conj=True)

    def __mul__(self, other: "PlanarIsometry") -> "PlanarIsometry":
        """Composition self o other (apply ``other`` first)."""
        if not isinstance(other, PlanarIsometry):
            return NotImplemented
        oa, ot = other.a, other.t
        if self.conj:
            oa, ot = _cconj(oa), _cconj(ot)
        return PlanarIsometry(
            _cmul(self.a, oa),
            _cadd(_cmul(self.a, ot), self.t),
            self.conj ^ other.conj,
        )

    def inverse(self) -> "PlanarIsometry":
        ac = _cconj(self.a)
        if not self.conj:
            # z -> conj(a) z - conj(a) t
            mt = _cmul(ac, self.t)
            return PlanarIsometry(ac, (-mt[0], -mt[1]))
        # z -> a conj(z) - a conj(t)
        mt = _cmul(self.a, _cconj(self.t))
        return PlanarIsometry(self.a, (-mt[0], -mt[1]), conj=True)

    def is_identity(self) -> bool:
        return (
            not self.conj
            and scalar_sign(self.a[0] - 1, 1e-12) == 0
            and scalar_sign(self.a[1], 1e-12) == 0
            and scalar_sign(self.t[0], 1e-12) == 0
            and scalar_sign(self.t[1], 1e-12) == 0
        )

    def apply_point(self, p: Tuple[Scalar, Scalar]) -> Tuple[Scalar, Scalar]:
        z = _cconj(p) if self.conj else p
        return _cadd(_cmul(self.a, z), self.t)

    def apply(self, v: InversiveCircle) -> InversiveCircle:
        return apply_isometry(self, v)


def apply_isometry(g: PlanarIsometry, v: InversiveCircle) -> InversiveCircle:
    """Act on a circle; uniform over circles and lines.

    With h = (h1, h2) as a complex number the image is b' = b,
    h' = a*h + t*b (h conjugated first for reflections) and
    bt' = bt + 2 Re(conj(t) a h) + |t|^2 b, which preserves the quadric and
    all pairwise products.
    """
    h = (v.h1, v.h2)
    if g.conj:
        h = _cconj(h)
    ah = _cmul(g.a, h)
    b = v.curvature
    t = g.t
    t2 = t[0] * t[0] + t[1] * t[1]
    return InversiveCircle(
        v.co_curvature + 2 * (t[0] * ah[0] + t[1] * ah[1]) + t2 * b,
        b,
        ah[0] + t[0] * b,
        ah[1] + t[1] * b,
    )


# ---------------------------------------------------------------------------
# Independent geometric route: classical inversion on centers and radii
# ---------------------------------------------------------------------------


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

    @classmethod
    def from_inversive(cls, v: InversiveCircle) -> "Geom":
        if v.is_line:
            return cls("line", v.h1, v.h2, v.co_curvature / 2)
        cx, cy = v.exact_center() if v.is_exact else v.center()
        return cls("circle", cx, cy, v.exact_radius())


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
