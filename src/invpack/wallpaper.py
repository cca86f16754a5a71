"""Refined grid configurations realizing the seventeen plane groups.

Each variant starts from the square or triangular grid packing and inserts
interstitial circles into selected cells: a *middle* circle tangent to the
cell's corner circles, plus *tiny* circles tangent to the middle and to two
corner circles, pushed toward chosen cell sides.  Decorating cells
asymmetrically breaks the full grid symmetry down to a prescribed plane
group while keeping every circle's data in the quadratic field of the
family (sqrt(2) for square cells, sqrt(3) for triangular ones).

One builder serves both grids.  A family (``_Family``) is data: its field,
the map from integer grid pairs to integer points, its radii, the tiny
circles' offset and directions, and the cell shapes its grid points anchor,
each with its side table.  A group (``_GROUPS``) picks a family, an integer
lattice, one decoration rule per cell shape and its symmetries beyond the
lattice.  ``_cells`` lists the cells of one motif, each an anchor, a cell
shape and a decoration (the tiny circles' directions, or None for a plain
cell); ``_decorate`` turns them into the motif's base and dual circles, and
``make_wallpaper`` adds the two lattice translations and the group's other
symmetries.

Circles are built on integer triples: each coordinate is (a + b sqrt d) / q
with integers a, b and q, and one circle's four coordinates share q.  A
``make_wallpaper`` call computes a few templates around the origin: the unit
base circle, and per cell shape its middle circle, its plain dual, a tiny
circle per side, and the face circles of each side, with and without that
side's tiny circle.  A face circle, through the tangency points of three
pairwise externally tangent circles, is a quarter of their Lorentz cross
product.  In the augmented curvature-center coordinates of
Lagarias-Mallows-Wilks (*Beyond the Descartes circle theorem*, 2002) the
three have Gram determinant -4.  So the 4 x 4 matrix of the three and the
circle orthogonal to them has determinant +-4, and that determinant is the
inversive product of the circle with the cross product, which is therefore
+-4 times the circle.  Every template is checked to lie on the quadric.
Every motif circle is a template translated by an integer grid vector,
which keeps it there exactly, and the ``QuadExt`` of each coordinate is made
once, at the end.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .configs import Configuration, SymmetryDecl, make_config
from .exact import QuadExt
from .inversive import InversiveCircle, PlanarIsometry

IntPt = Tuple[int, int]
Point = Tuple[QuadExt, QuadExt]
Dirs = Tuple[str, ...]
Rule = Callable[[int, int], Optional[Dirs]]
Sides = Dict[str, Tuple[IntPt, IntPt]]
# A cell: its anchor, the index of its shape in the family and its
# decoration (the directions of its tiny circles, or None for a plain cell,
# which gets one dual).
Cell = Tuple[IntPt, int, Optional[Dirs]]
Pair = Tuple[int, int]  # a + b sqrt d
Triple = Tuple[int, int, int]  # (a, b, q): (a + b sqrt d) / q
# A circle's (co_curvature, curvature, h1, h2), each a Pair over one q > 0.
Row = Tuple[int, Tuple[Pair, Pair, Pair, Pair]]

# Square-cell interstitial sizes: middle radius sqrt(2)-1, tiny radius
# (5-3*sqrt(2))/7 at offset (4*sqrt(2)-2)/7 from the cell center.
SQ_MID_R = QuadExt(-1, 1, 1, 2)
SQ_TINY_R = QuadExt(5, -3, 7, 2)
SQ_TINY_OFF = QuadExt(-2, 4, 7, 2)

# Triangular-cell sizes: middle radius 2/sqrt(3)-1, tiny radius
# (9-4*sqrt(3))/33 at offset (6*sqrt(3)-8)/11 from the centroid.
TRI_MID_R = QuadExt(-3, 2, 3, 3)
TRI_TINY_R = QuadExt(9, -4, 33, 3)
TRI_TINY_OFF = QuadExt(-8, 6, 11, 3)


def _q2(n: int) -> QuadExt:
    return QuadExt(n, 0, 1, 2)


def _q3(n: int) -> QuadExt:
    return QuadExt(n, 0, 1, 3)


_SQ_DIR: Dict[str, Point] = {
    "N": (_q2(0), _q2(1)),
    "E": (_q2(1), _q2(0)),
    "S": (_q2(0), _q2(-1)),
    "W": (_q2(-1), _q2(0)),
}

_SQ_SIDES: Sides = {
    "N": ((-1, 1), (1, 1)),
    "E": ((1, -1), (1, 1)),
    "S": ((-1, -1), (1, -1)),
    "W": ((-1, -1), (-1, 1)),
}

_TRI_DIR: Dict[str, Point] = {
    "N": (_q3(0), _q3(1)),
    "S": (_q3(0), _q3(-1)),
    "SW": (QuadExt(0, -1, 2, 3), QuadExt(-1, 0, 2, 3)),
    "SE": (QuadExt(0, 1, 2, 3), QuadExt(-1, 0, 2, 3)),
    "NW": (QuadExt(0, -1, 2, 3), QuadExt(1, 0, 2, 3)),
    "NE": (QuadExt(0, 1, 2, 3), QuadExt(1, 0, 2, 3)),
}

# Up cell anchored at p: vertices p, p+(-1,1), p+(1,1); down cell anchored
# at p: vertices p, p+(-1,-1), p+(1,-1).  Sides keyed by gap direction.
_TRI_SIDES_UP: Sides = {
    "N": ((-1, 1), (1, 1)),
    "SW": ((0, 0), (-1, 1)),
    "SE": ((0, 0), (1, 1)),
}
_TRI_SIDES_DOWN: Sides = {
    "S": ((-1, -1), (1, -1)),
    "NW": ((0, 0), (-1, -1)),
    "NE": ((0, 0), (1, -1)),
}


def _canon(p: IntPt, v1: IntPt, v2: IntPt) -> IntPt:
    """Canonical representative of p modulo the integer lattice (v1, v2):
    with p = a v1 + b v2, the point p - floor(a) v1 - floor(b) v2."""
    det = v1[0] * v2[1] - v1[1] * v2[0]
    i = (p[0] * v2[1] - p[1] * v2[0]) // det
    j = (v1[0] * p[1] - v1[1] * p[0]) // det
    return (p[0] - i * v1[0] - j * v2[0], p[1] - i * v1[1] - j * v2[1])


def _reps(v1: IntPt, v2: IntPt, keep: Callable[[int, int], bool]) -> List[IntPt]:
    """The canonical representatives that ``keep`` accepts, sorted: the
    integer points of the cell {a v1 + b v2 : 0 <= a, b < 1}."""
    xs = (0, v1[0], v2[0], v1[0] + v2[0])
    ys = (0, v1[1], v2[1], v1[1] + v2[1])
    box = product(range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1))
    return [p for p in box if keep(*p) and _canon(p, v1, v2) == p]


# ---------------------------------------------------------------------------
# circles on integer triples


def _zmul(x: Pair, y: Pair, d: int) -> Pair:
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _zsign(x: Pair, d: int) -> int:
    """Exact sign of a + b sqrt d, d not a square."""
    a, b = x
    if not a or a * b < 0 and a * a < d * b * b:
        a = b
    return (a > 0) - (a < 0)


def _t(x: QuadExt) -> Triple:
    return (x.a, x.b, x.q)


def _mul(x: Triple, y: Triple, d: int) -> Triple:
    return (*_zmul(x[:2], y[:2], d), x[2] * y[2])


def _add(x: Triple, y: Triple) -> Triple:
    return (x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2], x[2] * y[2])


def _inv(x: Triple, d: int) -> Triple:
    """1 / x, over a positive q; x is not 0."""
    n = x[0] * x[0] - d * x[1] * x[1]
    s = 1 if n > 0 else -1
    return (s * x[2] * x[0], -s * x[2] * x[1], s * n)


def _row(coords: Sequence[Triple]) -> Row:
    """Four triples with positive q over their least common q, the common
    content divided out."""
    q = math.lcm(*(c[2] for c in coords))
    flat = [x * (q // c[2]) for c in coords for x in c[:2]]
    g = math.gcd(q, *flat)
    return (q // g, tuple((a // g, b // g) for a, b in zip(flat[::2], flat[1::2])))


def _on_quadric(row: Row, d: int, what: Callable[[], str]) -> Row:
    """The row, if h1^2 + h2^2 - b bt = 1 exactly; else ArithmeticError,
    naming ``what()``."""
    q, (c, b, h1, h2) = row
    x, y, z = _zmul(h1, h1, d), _zmul(h2, h2, d), _zmul(b, c, d)
    res = (x[0] + y[0] - z[0] - q * q, x[1] + y[1] - z[1])
    if res != (0, 0):
        raise ArithmeticError(
            f"{what()} has quadric residual ({res[0]} + {res[1]}*sqrt({d}))/{q * q}, not 0"
        )
    return row


def _disk(x: Triple, y: Triple, r: Triple, d: int) -> Row:
    """The circle of center (x, y) and radius r > 0, oriented to its
    bounded disk: curvature 1/r, h = (x, y)/r, co-curvature
    (x^2 + y^2 - r^2)/r."""
    b = _inv(r, d)
    rr = _mul(r, r, d)
    s = _add(_add(_mul(x, x, d), _mul(y, y, d)), (-rr[0], -rr[1], rr[2]))
    row = _row((_mul(s, b, d), b, _mul(x, b, d), _mul(y, b, d)))
    return _on_quadric(row, d, lambda: f"the circle of center {x}, {y} and radius {r}")


def _face(rows: Sequence[Row], d: int) -> Row:
    """The circle orthogonal to three pairwise externally tangent circles,
    through their tangency points, oriented to its bounded disk.

    With m_k the 3 x 3 minor of the rows without column k, the covector
    c = (m_0, -m_1, m_2, -m_3) has c.u = +-det [rows; u] = +-4 for the
    orthogonal circle u, and the form's inverse turns it into the vector
    w = (2 m_1, -2 m_0, m_2, -m_3) with <w, x> = c.x.  So u = +-w / 4;
    three circles that are not pairwise externally tangent leave it off
    the quadric, and raise ArithmeticError.
    """
    (q1, r1), (q2, r2), (q3, r3) = rows
    # 2 x 2 minors of the last two rows, by pair of columns
    m2 = {}
    for i, j in combinations(range(4), 2):
        x, y = _zmul(r2[i], r3[j], d), _zmul(r2[j], r3[i], d)
        m2[i, j] = (x[0] - y[0], x[1] - y[1])
    m = []
    for k in range(4):
        i, j, l = (c for c in range(4) if c != k)
        terms = _zmul(r1[i], m2[j, l], d), _zmul(r1[j], m2[i, l], d), _zmul(r1[l], m2[i, j], d)
        m.append(tuple(x - y + z for x, y, z in zip(*terms)))
    w = ((2 * m[1][0], 2 * m[1][1]), (-2 * m[0][0], -2 * m[0][1]), m[2], (-m[3][0], -m[3][1]))

    def what() -> str:
        return f"the circle orthogonal to the rows {tuple(rows)}"

    sign = _zsign(w[1], d)
    if not sign:
        raise ArithmeticError(f"{what()} is a line, with no bounded disk")
    q = 4 * q1 * q2 * q3
    return _on_quadric(_row([(sign * a, sign * b, q) for a, b in w]), d, what)


def _moved(row: Row, t: Tuple[Pair, Pair], d: int) -> Row:
    """The row translated by the integer vector t: h + b t, and
    co-curvature + 2 h.t + b |t|^2 = co-curvature + (2 h + b t).t."""
    q, (c, b, h1, h2) = row
    u1, u2 = _zmul(b, t[0], d), _zmul(b, t[1], d)
    s1 = _zmul((2 * h1[0] + u1[0], 2 * h1[1] + u1[1]), t[0], d)
    s2 = _zmul((2 * h2[0] + u2[0], 2 * h2[1] + u2[1]), t[1], d)
    return (q, (
        (c[0] + s1[0] + s2[0], c[1] + s1[1] + s2[1]),
        b,
        (h1[0] + u1[0], h1[1] + u1[1]),
        (h2[0] + u2[0], h2[1] + u2[1]),
    ))


def _circle(row: Row, d: int) -> InversiveCircle:
    q, coords = row
    return InversiveCircle(*(QuadExt(a, b, q, d) for a, b in coords))


# ---------------------------------------------------------------------------
# families


class _Family(NamedTuple):
    """A grid family as data.

    Grid pairs map to integer points of Z[sqrt d]^2 by ``grid``.  Base
    circles of radius one sit at the pairs ``base_at`` accepts, and each
    pair ``cell_at`` accepts anchors one cell per entry of ``shapes``: the
    cell center's offset from the anchor's point and its side table, in
    grid offsets from the anchor.  A plain cell gets one dual of radius
    ``dual_r``.
    """

    d: int
    grid: Callable[[int, int], Tuple[Pair, Pair]]
    dual_r: QuadExt
    mid_r: QuadExt
    tiny_r: QuadExt
    tiny_off: QuadExt
    dirs: Dict[str, Point]
    base_at: Callable[[int, int], bool]
    cell_at: Callable[[int, int], bool]
    shapes: Tuple[Tuple[Point, Sides], ...]


def _point(fam: _Family, p: IntPt) -> Point:
    return tuple(QuadExt(a, b, 1, fam.d) for a, b in fam.grid(*p))


# Grid circles at the even pairs (x, y); one cell centered at each odd pair.
_SQUARE = _Family(
    2, lambda x, y: ((x, 0), (y, 0)), _q2(1), SQ_MID_R, SQ_TINY_R, SQ_TINY_OFF, _SQ_DIR,
    base_at=lambda x, y: x % 2 == 0 and y % 2 == 0,
    cell_at=lambda x, y: x % 2 == 1 and y % 2 == 1,
    shapes=(((_q2(0), _q2(0)), _SQ_SIDES),),
)

# Integer pairs (m, n) stand for the point (m, n*sqrt(3)); the grid circles
# sit at pairs with m = n mod 2.  Each such point anchors one upward cell
# (bottom vertex there, side midpoint gaps N, SW, SE) and one downward cell
# (top vertex there, gaps S, NW, NE), their centroids 2/sqrt(3) above and
# below it.
_TRIANGULAR = _Family(
    3, lambda m, n: ((m, 0), (0, n)), QuadExt(0, 1, 3, 3),
    TRI_MID_R, TRI_TINY_R, TRI_TINY_OFF, _TRI_DIR,
    base_at=lambda m, n: (m - n) % 2 == 0,
    cell_at=lambda m, n: (m - n) % 2 == 0,
    shapes=(
        ((_q3(0), QuadExt(0, 2, 3, 3)), _TRI_SIDES_UP),
        ((_q3(0), QuadExt(0, -2, 3, 3)), _TRI_SIDES_DOWN),
    ),
)


def _cells(
    fam: _Family, v1: IntPt, v2: IntPt, rules: Sequence[Rule]
) -> Tuple[List[IntPt], List[Cell]]:
    """The base pairs and the cells of one motif of the lattice (v1, v2):
    anchors in sorted order, each anchor's cells in ``fam.shapes`` order,
    decorated by the rule of their shape."""
    cells = [(p, k, rule(*p)) for p in _reps(v1, v2, fam.cell_at) for k, rule in enumerate(rules)]
    return _reps(v1, v2, fam.base_at), cells


# A cell shape's templates, around its anchor at the origin: its middle
# circle, its tiny circles and its faces by side (the face circles without
# and with that side's tiny circle), and its plain dual.
Shape = Tuple[Row, Dict[str, Row], Dict[str, Tuple[List[Row], List[Row]]], Row]


def _shape(fam: _Family, center: Point, sides: Sides, unit: Row) -> Shape:
    d = fam.d
    x, y = map(_t, center)
    mid = _disk(x, y, _t(fam.mid_r), d)
    off = _t(fam.tiny_off)
    tiny, faces = {}, {}
    for side, (p1, p2) in sides.items():
        ux, uy = map(_t, fam.dirs[side])
        t = _disk(_add(x, _mul(off, ux, d)), _add(y, _mul(off, uy, d)), _t(fam.tiny_r), d)
        b1, b2 = _moved(unit, fam.grid(*p1), d), _moved(unit, fam.grid(*p2), d)
        tiny[side] = t
        faces[side] = (
            [_face((b1, b2, mid), d)],
            [_face((b1, b2, t), d), _face((b1, t, mid), d), _face((b2, t, mid), d)],
        )
    return mid, tiny, faces, _disk(x, y, _t(fam.dual_r), d)


def _decorate(
    fam: _Family, base: List[IntPt], cells: List[Cell]
) -> Tuple[List[InversiveCircle], List[InversiveCircle]]:
    """The motif's base circles (the grid's, then each decorated cell's
    middle and tiny circles) and dual circles (a plain cell's one, or the
    faces of a decorated cell, side by side), each a template moved to its
    anchor."""
    d = fam.d
    zero, one = (0, 0, 1), (1, 0, 1)
    unit = _disk(zero, zero, one, d)
    shapes = [_shape(fam, center, sides, unit) for center, sides in fam.shapes]
    rows_base = [_moved(unit, fam.grid(*p), d) for p in base]
    rows_dual = []
    for anchor, k, dirs in cells:
        t = fam.grid(*anchor)
        mid, tiny, faces, plain = shapes[k]
        if dirs is None:
            rows_dual.append(_moved(plain, t, d))
            continue
        rows_base += [_moved(x, t, d) for x in [mid] + [tiny[s] for s in dirs]]
        rows_dual += [_moved(x, t, d) for s in faces for x in faces[s][s in dirs]]
    return [_circle(r, d) for r in rows_base], [_circle(r, d) for r in rows_dual]


def _axis(fam: _Family, vertical: bool) -> Point:
    """The rotation part u^2 of a mirror with a vertical or horizontal axis."""
    return (QuadExt(-1 if vertical else 1, 0, 1, fam.d), QuadExt(0, 0, 1, fam.d))


def _mirror(fam: _Family, point: IntPt, vertical: bool, label: str) -> SymmetryDecl:
    return SymmetryDecl(
        "mirror", PlanarIsometry.mirror_a(_point(fam, point), _axis(fam, vertical)), {"axis": label}
    )


def _glide(fam: _Family, point: IntPt, vertical: bool, shift: IntPt, label: str) -> SymmetryDecl:
    return SymmetryDecl(
        "glide",
        PlanarIsometry.glide_a(_point(fam, point), _axis(fam, vertical), _point(fam, shift)),
        {"axis": label, "shift": shift},
    )


# (cos, sin) of a turn by 360/order degrees, each as (a, b, q) of
# (a + b sqrt(d)) / q
_TURNS = {
    2: ((-1, 0, 1), (0, 0, 1)),
    3: ((-1, 0, 2), (0, 1, 2)),
    4: ((0, 0, 1), (1, 0, 1)),
    6: ((1, 0, 2), (0, 1, 2)),
}


def _rot(fam: _Family, point: IntPt, order: int) -> SymmetryDecl:
    cos, sin = (QuadExt(*c, fam.d) for c in _TURNS[order])
    return SymmetryDecl(
        "rotation",
        PlanarIsometry.rotation(_point(fam, point), (cos, sin)),
        {"center": point, "order": order},
    )


# ---------------------------------------------------------------------------
# square decorations, by the odd pair (x, y) at the cell center


def _table_rule(table: Dict[IntPt, Dirs], mod: int) -> Rule:
    def rule(x: int, y: int) -> Optional[Dirs]:
        return table.get((x % mod, y % mod))

    return rule


def _rule_p1(x: int, y: int) -> Optional[Dirs]:
    return ("S",) if y % 4 == 1 else ("W",)


# The four cell classes carry half-turn-paired decorations chosen so that
# no mirror or glide of the underlying grid survives; pairing {S,W} with
# {N,E} alone would keep the diagonal mirror that swaps the two members
# of each set.
_P2 = {(3, 1): ("S", "W"), (1, 3): ("N", "E"), (1, 1): ("N",), (3, 3): ("S",)}


def _rule_pm(x: int, y: int) -> Optional[Dirs]:
    return ("N",) if y % 4 == 1 and x % 8 in (5, 7) else None


_PG = {(3, 1): ("N", "W"), (1, 3): ("N", "E")}


def _rule_cm(x: int, y: int) -> Optional[Dirs]:
    if x % 4 == 1 and ((x - 1) // 4 + (y - 1) // 2) % 2 == 0:
        return ("N", "E")
    if x % 4 == 3 and ((x - 3) // 4 + (y - 1) // 2) % 2 == 0:
        return ("N", "W")
    return None


_PMM = {(7, 1): ("N",), (5, 1): ("N",), (7, 3): ("S",), (5, 3): ("S",)}
_PMG = {(7, 1): ("N",), (7, 3): ("S",), (5, 5): ("N",), (5, 7): ("S",)}
_PGG = {(7, 1): ("N",), (1, 5): ("N",), (3, 7): ("S",), (5, 3): ("S",)}
_CMM = {
    (7, 1): ("S",), (3, 5): ("S",), (5, 1): ("S",), (1, 5): ("S",),
    (1, 7): ("N",), (5, 3): ("N",), (7, 3): ("N",), (3, 7): ("N",),
}
_P4 = {(1, 1): ("E",), (3, 1): ("N",), (3, 3): ("W",), (1, 3): ("S",)}
_P4G = {
    (7, 1): ("N",), (3, 5): ("N",), (5, 1): ("N",), (1, 5): ("N",),
    (7, 7): ("W",), (3, 3): ("W",), (7, 5): ("W",), (3, 1): ("W",),
    (1, 7): ("S",), (5, 3): ("S",), (7, 3): ("S",), (3, 7): ("S",),
    (1, 1): ("E",), (5, 5): ("E",), (5, 7): ("E",), (1, 3): ("E",),
}


# ---------------------------------------------------------------------------
# triangular decorations, by the anchor (m, n) of an up or down cell


def _cls3(m: int, n: int) -> int:
    return ((m - 3 * n) % 6) // 2


def _cls6(m: int, n: int) -> Tuple[int, int]:
    return ((m - n) % 6, n % 3)


def _p3_cls(m: int, n: int, up: bool) -> Tuple[int, int]:
    # Classify a cell by three times its centroid, reduced modulo the p3
    # lattice (3,1),(0,2) scaled by three.  Centroids are rotation
    # equivariant, so the class cycle under the 120 degree turn is easy to
    # audit, unlike anchor labels.
    big_m = 3 * m
    big_n = 3 * n + (2 if up else -2)
    s = big_m // 9
    return (big_m - 9 * s, (big_n - 3 * s) % 6)


# One third-turn orbit of two-gap decorations on the up cells plus one orbit
# of single gaps on the down cells.  Leaving the down cells plain always
# preserves some mirror of the grid, whatever the up cells carry.
_P3_UP = {(0, 2): ("N", "SW"), (6, 2): ("SW", "SE"), (3, 5): ("N", "SE")}
_P3_DOWN = {(0, 4): ("S",), (3, 1): ("NE",), (6, 4): ("NW",)}
_P31M_UP = {(0, 0): ("SW",), (0, 2): ("SE",), (2, 2): ("N",)}
_P31M_DOWN = {(2, 1): ("NW",), (0, 2): ("NE",), (2, 2): ("S",)}
_P6_UP = {0: ("SW",), 1: ("SE",), 2: ("N",)}
_P6_DOWN = {0: ("NE",), 1: ("S",), 2: ("NW",)}


def _tri_rule_p3_up(m: int, n: int) -> Optional[Dirs]:
    return _P3_UP[_p3_cls(m, n, True)]


def _tri_rule_p3_down(m: int, n: int) -> Optional[Dirs]:
    return _P3_DOWN[_p3_cls(m, n, False)]


def _tri_rule_p3m1_up(m: int, n: int) -> Optional[Dirs]:
    return ()


def _tri_rule_p31m_up(m: int, n: int) -> Optional[Dirs]:
    return _P31M_UP.get(_cls6(m, n))


def _tri_rule_p31m_down(m: int, n: int) -> Optional[Dirs]:
    return _P31M_DOWN.get(_cls6(m, n))


def _tri_rule_p6_up(m: int, n: int) -> Optional[Dirs]:
    return _P6_UP[_cls3(m, n)]


def _tri_rule_p6_down(m: int, n: int) -> Optional[Dirs]:
    return _P6_DOWN[_cls3(m, n)]


def _tri_none(m: int, n: int) -> Optional[Dirs]:
    return None


# ---------------------------------------------------------------------------
# groups: family, lattice, one rule per cell shape, symmetries past the lattice

Extra = Callable[[_Family], List[SymmetryDecl]]
_GROUPS: Dict[str, Tuple[_Family, Tuple[IntPt, IntPt], Tuple[Rule, ...], Extra]] = {
    "p1": (_SQUARE, ((2, 0), (0, 4)), (_rule_p1,), lambda f: []),
    "p2": (_SQUARE, ((4, 0), (0, 4)), (_table_rule(_P2, 4),), lambda f: [_rot(f, (0, 0), 2)]),
    "pm": (_SQUARE, ((8, 0), (0, 4)), (_rule_pm,), lambda f: [
        _mirror(f, (2, 0), True, "x=2"),
        _mirror(f, (-2, 0), True, "x=-2"),
    ]),
    "pg": (_SQUARE, ((4, 0), (0, 4)), (_table_rule(_PG, 4),), lambda f: [
        _glide(f, (0, 0), True, (0, 2), "x=0"),
    ]),
    "cm": (_SQUARE, ((4, 2), (4, -2)), (_rule_cm,), lambda f: [_mirror(f, (2, 0), True, "x=2")]),
    "pmm": (_SQUARE, ((8, 0), (0, 8)), (_table_rule(_PMM, 8),), lambda f: [
        _mirror(f, (2, 0), True, "x=2"),
        _mirror(f, (-2, 0), True, "x=-2"),
        _mirror(f, (0, 2), False, "y=2"),
        _mirror(f, (0, -2), False, "y=-2"),
    ]),
    "pmg": (_SQUARE, ((8, 0), (0, 8)), (_table_rule(_PMG, 8),), lambda f: [
        _mirror(f, (0, 2), False, "y=2"),
        _glide(f, (2, 0), True, (0, 4), "x=2"),
        _rot(f, (2, 0), 2),
    ]),
    "pgg": (_SQUARE, ((8, 0), (0, 8)), (_table_rule(_PGG, 8),), lambda f: [
        _glide(f, (0, 0), False, (4, 0), "y=0"),
        _glide(f, (0, 0), True, (0, 4), "x=0"),
        _rot(f, (2, 2), 2),
    ]),
    "cmm": (_SQUARE, ((4, 4), (4, -4)), (_table_rule(_CMM, 8),), lambda f: [
        _mirror(f, (2, 0), True, "x=2"),
        _mirror(f, (0, 2), False, "y=2"),
        _rot(f, (0, 0), 2),
    ]),
    "p4": (_SQUARE, ((4, 0), (0, 4)), (_table_rule(_P4, 4),), lambda f: [_rot(f, (0, 0), 4)]),
    "p4g": (_SQUARE, ((4, 4), (4, -4)), (_table_rule(_P4G, 8),), lambda f: [
        _rot(f, (0, 0), 4),
        _mirror(f, (2, 0), True, "x=2"),
    ]),
    "p3": (_TRIANGULAR, ((3, 1), (0, 2)), (_tri_rule_p3_up, _tri_rule_p3_down), lambda f: [
        _rot(f, (0, 0), 3),
    ]),
    "p3m1": (_TRIANGULAR, ((2, 0), (1, 1)), (_tri_rule_p3m1_up, _tri_none), lambda f: [
        _rot(f, (0, 0), 3),
        _mirror(f, (0, 0), True, "x=0"),
    ]),
    "p31m": (_TRIANGULAR, ((6, 0), (3, 3)), (_tri_rule_p31m_up, _tri_rule_p31m_down), lambda f: [
        _rot(f, (0, 0), 3),
        _mirror(f, (0, -1), False, "y=-sqrt(3)"),
    ]),
    "p6": (_TRIANGULAR, ((3, 1), (0, 2)), (_tri_rule_p6_up, _tri_rule_p6_down), lambda f: [
        _rot(f, (0, 0), 6),
    ]),
}


def make_wallpaper(group: str) -> Configuration:
    """Configuration whose symmetry group is the named plane group."""
    if group in ("p4m", "p6m"):
        cfg = make_config("square" if group == "p4m" else "triangular")
        cfg.name = f"wallpaper:{group}"
        return cfg
    if group not in _GROUPS:
        raise ValueError(f"unknown plane group {group!r}")
    fam, (v1, v2), rules, extra = _GROUPS[group]
    motif_base, motif_dual = _decorate(fam, *_cells(fam, v1, v2, rules))
    syms = [
        SymmetryDecl("translation", PlanarIsometry.translation(_point(fam, v)), {"vector": v})
        for v in (v1, v2)
    ]
    lattice = (_point(fam, v1), _point(fam, v2))
    return Configuration(
        f"wallpaper:{group}", fam.d, motif_base, motif_dual, lattice, syms + extra(fam)
    )
