"""Refined grid configurations realizing the seventeen plane groups.

Each variant starts from the square or triangular grid packing and inserts
interstitial circles into selected cells: a *middle* circle tangent to the
cell's corner circles, plus *tiny* circles tangent to the middle and to two
corner circles, pushed toward chosen cell sides.  Decorating cells
asymmetrically breaks the full grid symmetry down to a prescribed plane
group while keeping every circle's data in the quadratic field of the
family (sqrt(2) for square cells, sqrt(3) for triangular ones).

One builder serves both grids.  A family (``_Family``) is data: its field,
the map from integer grid pairs to exact points, its radii, the tiny
circles' offset and directions, and the cell shapes its grid points anchor,
each with its side table.  A group (``_GROUPS``) picks a family, an integer
lattice, one decoration rule per cell shape and its symmetries beyond the
lattice.  ``_cells`` lists the cells of one motif, each a center, a
decoration (the tiny circles' directions, or None for a plain cell) and its
sides; ``_decorate`` turns them into the motif's base and dual circles, and
``make_wallpaper`` adds the two lattice translations and the group's other
symmetries.

Dual circles are rebuilt cell by cell: each tangency face of the decorated
packing gets the circle through its three tangency points, computed exactly
as a radical-center solve.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .configs import Configuration, SymmetryDecl, make_config
from .exact import QuadExt
from .inversive import (
    InversiveCircle,
    PlanarIsometry,
    from_center_radius,
    inversive_product,
)

IntPt = Tuple[int, int]
Point = Tuple[QuadExt, QuadExt]
Dirs = Tuple[str, ...]
Rule = Callable[[int, int], Optional[Dirs]]
Sides = Dict[str, Tuple[IntPt, IntPt]]
# A cell: its center, its decoration (the directions of its tiny circles, or
# None for a plain cell, which gets one dual) and its sides, each a direction
# with the grid pairs at its two ends.
Cell = Tuple[Point, Optional[Dirs], List[Tuple[str, IntPt, IntPt]]]

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


def _reps(
    v1: IntPt, v2: IntPt, points: Iterable[IntPt]
) -> List[IntPt]:
    return sorted({_canon(p, v1, v2) for p in points})


def radical_circle(circles: Sequence[InversiveCircle]) -> InversiveCircle:
    """Circle orthogonal to three pairwise tangent circles, through their
    tangency points.  Exact; raises if the radius leaves the field."""
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
        rr = rr2.sqrt()
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


# ---------------------------------------------------------------------------
# families


class _Family(NamedTuple):
    """A grid family as data.

    Grid pairs map to exact points by ``point``.  Base circles of radius
    one sit at the pairs ``base_at`` accepts, and each pair ``cell_at``
    accepts anchors one cell per entry of ``shapes``: the cell center's
    offset from the anchor's point and its side table, in grid offsets from
    the anchor.  A plain cell gets one dual of radius ``dual_r``.
    """

    d: int
    point: Callable[[int, int], Point]
    dual_r: QuadExt
    mid_r: QuadExt
    tiny_r: QuadExt
    tiny_off: QuadExt
    dirs: Dict[str, Point]
    base_at: Callable[[int, int], bool]
    cell_at: Callable[[int, int], bool]
    shapes: Tuple[Tuple[Point, Sides], ...]


# Grid circles at the even pairs (x, y); one cell centered at each odd pair.
_SQUARE = _Family(
    2, lambda x, y: (_q2(x), _q2(y)), _q2(1), SQ_MID_R, SQ_TINY_R, SQ_TINY_OFF, _SQ_DIR,
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
    3, lambda m, n: (_q3(m), QuadExt(0, n, 1, 3)), QuadExt(0, 1, 3, 3),
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
    box = [(i, j) for i in range(-8, 16) for j in range(-8, 16)]
    base = _reps(v1, v2, [p for p in box if fam.base_at(*p)])
    cells: List[Cell] = []
    for i, j in _reps(v1, v2, [p for p in box if fam.cell_at(*p)]):
        x, y = fam.point(i, j)
        for ((ox, oy), sides), rule in zip(fam.shapes, rules):
            ends = [(s, (i + p[0], j + p[1]), (i + q[0], j + q[1])) for s, (p, q) in sides.items()]
            cells.append(((x + ox, y + oy), rule(i, j), ends))
    return base, cells


def _decorate(
    fam: _Family, base: List[IntPt], cells: List[Cell]
) -> Tuple[List[InversiveCircle], List[InversiveCircle]]:
    """The motif's base circles (the grid's, then each decorated cell's
    middle and tiny circles) and dual circles (a plain cell's one, or the
    faces of a decorated cell, side by side)."""
    one = QuadExt(1, 0, 1, fam.d)
    motif_base = [from_center_radius(fam.point(*p), one) for p in base]
    motif_dual: List[InversiveCircle] = []
    for center, dirs, sides in cells:
        if dirs is None:
            motif_dual.append(from_center_radius(center, fam.dual_r))
            continue
        mid = from_center_radius(center, fam.mid_r)
        motif_base.append(mid)
        tiny: Dict[str, InversiveCircle] = {}
        for dn in dirs:
            ux, uy = fam.dirs[dn]
            at = (center[0] + fam.tiny_off * ux, center[1] + fam.tiny_off * uy)
            tiny[dn] = from_center_radius(at, fam.tiny_r)
            motif_base.append(tiny[dn])
        for side, p1, p2 in sides:
            b1 = from_center_radius(fam.point(*p1), one)
            b2 = from_center_radius(fam.point(*p2), one)
            if side in tiny:
                t = tiny[side]
                motif_dual.append(radical_circle((b1, b2, t)))
                motif_dual.append(radical_circle((b1, t, mid)))
                motif_dual.append(radical_circle((b2, t, mid)))
            else:
                motif_dual.append(radical_circle((b1, b2, mid)))
    return motif_base, motif_dual


def _axis(fam: _Family, vertical: bool) -> Point:
    """The rotation part u^2 of a mirror with a vertical or horizontal axis."""
    return (QuadExt(-1 if vertical else 1, 0, 1, fam.d), QuadExt(0, 0, 1, fam.d))


def _mirror(fam: _Family, point: IntPt, vertical: bool, label: str) -> SymmetryDecl:
    return SymmetryDecl(
        "mirror", PlanarIsometry.mirror_a(fam.point(*point), _axis(fam, vertical)), {"axis": label}
    )


def _glide(fam: _Family, point: IntPt, vertical: bool, shift: IntPt, label: str) -> SymmetryDecl:
    return SymmetryDecl(
        "glide",
        PlanarIsometry.glide_a(fam.point(*point), _axis(fam, vertical), fam.point(*shift)),
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
        PlanarIsometry.rotation(fam.point(*point), (cos, sin)),
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
        SymmetryDecl("translation", PlanarIsometry.translation(fam.point(*v)), {"vector": v})
        for v in (v1, v2)
    ]
    lattice = (fam.point(*v1), fam.point(*v2))
    return Configuration(
        f"wallpaper:{group}", fam.d, motif_base, motif_dual, lattice, syms + extra(fam)
    )
