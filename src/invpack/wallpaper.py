"""Refined grid configurations realizing the seventeen plane groups.

Each variant starts from the square or triangular grid packing and inserts
interstitial circles into selected cells: a *middle* circle tangent to the
cell's corner circles, plus *tiny* circles tangent to the middle and to two
corner circles, pushed toward chosen cell sides.  Decorating cells
asymmetrically breaks the full grid symmetry down to a prescribed plane
group while keeping every circle's data in the quadratic field of the
family (sqrt(2) for square cells, sqrt(3) for triangular ones).

Dual circles are rebuilt cell by cell: each tangency face of the decorated
packing gets the circle through its three tangency points, computed exactly
as a radical-center solve.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .configs import Configuration, SymmetryDecl, make_config
from .exact import QuadExt
from .inversive import (
    InversiveCircle,
    PlanarIsometry,
    from_center_radius,
    inversive_product,
)

IntPt = Tuple[int, int]

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


_SQ_DIR: Dict[str, Tuple[QuadExt, QuadExt]] = {
    "N": (_q2(0), _q2(1)),
    "E": (_q2(1), _q2(0)),
    "S": (_q2(0), _q2(-1)),
    "W": (_q2(-1), _q2(0)),
}

_SQ_SIDES: Dict[str, Tuple[IntPt, IntPt]] = {
    "N": ((-1, 1), (1, 1)),
    "E": ((1, -1), (1, 1)),
    "S": ((-1, -1), (1, -1)),
    "W": ((-1, -1), (-1, 1)),
}

_TRI_DIR: Dict[str, Tuple[QuadExt, QuadExt]] = {
    "N": (_q3(0), _q3(1)),
    "S": (_q3(0), _q3(-1)),
    "SW": (QuadExt(0, -1, 2, 3), QuadExt(-1, 0, 2, 3)),
    "SE": (QuadExt(0, 1, 2, 3), QuadExt(-1, 0, 2, 3)),
    "NW": (QuadExt(0, -1, 2, 3), QuadExt(1, 0, 2, 3)),
    "NE": (QuadExt(0, 1, 2, 3), QuadExt(1, 0, 2, 3)),
}


def _canon(p: IntPt, v1: IntPt, v2: IntPt) -> IntPt:
    """Canonical representative of p modulo the integer lattice (v1, v2)."""
    det = v1[0] * v2[1] - v1[1] * v2[0]
    a = Fraction(p[0] * v2[1] - p[1] * v2[0], det)
    b = Fraction(v1[0] * p[1] - v1[1] * p[0], det)
    fa = a - math.floor(a)
    fb = b - math.floor(b)
    x = fa * v1[0] + fb * v2[0]
    y = fa * v1[1] + fb * v2[1]
    return (int(x), int(y))


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
# square family

SqRule = Callable[[int, int], Optional[Tuple[str, ...]]]


def _rule_p1(x: int, y: int) -> Optional[Tuple[str, ...]]:
    return ("S",) if y % 4 == 1 else ("W",)


def _rule_p2(x: int, y: int) -> Optional[Tuple[str, ...]]:
    # The four cell classes carry half-turn-paired decorations chosen so that
    # no mirror or glide of the underlying grid survives; pairing {S,W} with
    # {N,E} alone would keep the diagonal mirror that swaps the two members
    # of each set.
    return {
        (3, 1): ("S", "W"),
        (1, 3): ("N", "E"),
        (1, 1): ("N",),
        (3, 3): ("S",),
    }[(x % 4, y % 4)]


def _rule_pm(x: int, y: int) -> Optional[Tuple[str, ...]]:
    return ("N",) if y % 4 == 1 and x % 8 in (5, 7) else None


def _rule_pg(x: int, y: int) -> Optional[Tuple[str, ...]]:
    key = (x % 4, y % 4)
    if key == (3, 1):
        return ("N", "W")
    if key == (1, 3):
        return ("N", "E")
    return None


def _rule_cm(x: int, y: int) -> Optional[Tuple[str, ...]]:
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


def _table_rule(table: Dict[IntPt, Tuple[str, ...]], mod: int) -> SqRule:
    def rule(x: int, y: int) -> Optional[Tuple[str, ...]]:
        return table.get((x % mod, y % mod))

    return rule


def _sq_point(x: int, y: int) -> Tuple[QuadExt, QuadExt]:
    return (_q2(x), _q2(y))


def _sq_mirror(point: IntPt, vertical: bool, label: str) -> SymmetryDecl:
    a = (_q2(-1), _q2(0)) if vertical else (_q2(1), _q2(0))
    return SymmetryDecl(
        "mirror", PlanarIsometry.mirror_a(_sq_point(*point), a), {"axis": label}
    )


def _sq_glide(point: IntPt, vertical: bool, shift: IntPt, label: str) -> SymmetryDecl:
    a = (_q2(-1), _q2(0)) if vertical else (_q2(1), _q2(0))
    return SymmetryDecl(
        "glide",
        PlanarIsometry.glide_a(_sq_point(*point), a, _sq_point(*shift)),
        {"axis": label, "shift": shift},
    )


def _sq_rot(point: IntPt, order: int) -> SymmetryDecl:
    a = {2: (_q2(-1), _q2(0)), 4: (_q2(0), _q2(1))}[order]
    return SymmetryDecl(
        "rotation",
        PlanarIsometry.rotation(_sq_point(*point), a),
        {"center": point, "order": order},
    )


_SQUARE_TABLES: Dict[str, Dict[str, object]] = {
    "p1": dict(lattice=((2, 0), (0, 4)), rule=_rule_p1, extra=lambda: []),
    "p2": dict(
        lattice=((4, 0), (0, 4)),
        rule=_rule_p2,
        extra=lambda: [_sq_rot((0, 0), 2)],
    ),
    "pm": dict(
        lattice=((8, 0), (0, 4)),
        rule=_rule_pm,
        extra=lambda: [
            _sq_mirror((2, 0), True, "x=2"),
            _sq_mirror((-2, 0), True, "x=-2"),
        ],
    ),
    "pg": dict(
        lattice=((4, 0), (0, 4)),
        rule=_rule_pg,
        extra=lambda: [_sq_glide((0, 0), True, (0, 2), "x=0")],
    ),
    "cm": dict(
        lattice=((4, 2), (4, -2)),
        rule=_rule_cm,
        extra=lambda: [_sq_mirror((2, 0), True, "x=2")],
    ),
    "pmm": dict(
        lattice=((8, 0), (0, 8)),
        rule=_table_rule(_PMM, 8),
        extra=lambda: [
            _sq_mirror((2, 0), True, "x=2"),
            _sq_mirror((-2, 0), True, "x=-2"),
            _sq_mirror((0, 2), False, "y=2"),
            _sq_mirror((0, -2), False, "y=-2"),
        ],
    ),
    "pmg": dict(
        lattice=((8, 0), (0, 8)),
        rule=_table_rule(_PMG, 8),
        extra=lambda: [
            _sq_mirror((0, 2), False, "y=2"),
            _sq_glide((2, 0), True, (0, 4), "x=2"),
            _sq_rot((2, 0), 2),
        ],
    ),
    "pgg": dict(
        lattice=((8, 0), (0, 8)),
        rule=_table_rule(_PGG, 8),
        extra=lambda: [
            _sq_glide((0, 0), False, (4, 0), "y=0"),
            _sq_glide((0, 0), True, (0, 4), "x=0"),
            _sq_rot((2, 2), 2),
        ],
    ),
    "cmm": dict(
        lattice=((4, 4), (4, -4)),
        rule=_table_rule(_CMM, 8),
        extra=lambda: [
            _sq_mirror((2, 0), True, "x=2"),
            _sq_mirror((0, 2), False, "y=2"),
            _sq_rot((0, 0), 2),
        ],
    ),
    "p4": dict(
        lattice=((4, 0), (0, 4)),
        rule=_table_rule(_P4, 4),
        extra=lambda: [_sq_rot((0, 0), 4)],
    ),
    "p4g": dict(
        lattice=((4, 4), (4, -4)),
        rule=_table_rule(_P4G, 8),
        extra=lambda: [_sq_rot((0, 0), 4), _sq_mirror((2, 0), True, "x=2")],
    ),
}


def _square_family(group: str) -> Configuration:
    spec = _SQUARE_TABLES[group]
    v1, v2 = spec["lattice"]  # type: ignore[misc]
    rule: SqRule = spec["rule"]  # type: ignore[assignment]
    box = [(x, y) for x in range(-8, 16) for y in range(-8, 16)]
    base_pts = _reps(v1, v2, [p for p in box if p[0] % 2 == 0 and p[1] % 2 == 0])
    cell_pts = _reps(v1, v2, [p for p in box if p[0] % 2 == 1 and p[1] % 2 == 1])

    one = _q2(1)
    motif_base = [from_center_radius(_sq_point(*p), one) for p in base_pts]
    motif_dual: List[InversiveCircle] = []
    for (cx, cy) in cell_pts:
        dirs = rule(cx, cy)
        if dirs is None:
            motif_dual.append(from_center_radius(_sq_point(cx, cy), one))
            continue
        mid = from_center_radius(_sq_point(cx, cy), SQ_MID_R)
        motif_base.append(mid)
        tiny: Dict[str, InversiveCircle] = {}
        for dn in dirs:
            ux, uy = _SQ_DIR[dn]
            center = (_q2(cx) + SQ_TINY_OFF * ux, _q2(cy) + SQ_TINY_OFF * uy)
            tiny[dn] = from_center_radius(center, SQ_TINY_R)
            motif_base.append(tiny[dn])
        for side in ("N", "E", "S", "W"):
            (dx1, dy1), (dx2, dy2) = _SQ_SIDES[side]
            b1 = from_center_radius(_sq_point(cx + dx1, cy + dy1), one)
            b2 = from_center_radius(_sq_point(cx + dx2, cy + dy2), one)
            if side in tiny:
                t = tiny[side]
                motif_dual.append(radical_circle((b1, b2, t)))
                motif_dual.append(radical_circle((b1, t, mid)))
                motif_dual.append(radical_circle((b2, t, mid)))
            else:
                motif_dual.append(radical_circle((b1, b2, mid)))

    lattice = (_sq_point(*v1), _sq_point(*v2))
    syms = [
        SymmetryDecl(
            "translation", PlanarIsometry.translation(_sq_point(*v1)), {"vector": v1}
        ),
        SymmetryDecl(
            "translation", PlanarIsometry.translation(_sq_point(*v2)), {"vector": v2}
        ),
    ]
    syms.extend(spec["extra"]())  # type: ignore[operator]
    return Configuration(f"wallpaper:{group}", 2, motif_base, motif_dual, lattice, syms)


# ---------------------------------------------------------------------------
# triangular family
#
# Integer pairs (m, n) stand for the point (m, n*sqrt(3)); the grid circles
# sit at pairs with m = n mod 2.  Each such point anchors one upward cell
# (bottom vertex there, side midpoint gaps N, SW, SE) and one downward cell
# (top vertex there, gaps S, NW, NE).

TriRule = Callable[[int, int], Optional[Tuple[bool, Tuple[str, ...]]]]


def _cls3(m: int, n: int) -> int:
    return ((m - 3 * n) % 6) // 2


def _cls6(m: int, n: int) -> Tuple[int, int]:
    return ((m - n) % 6, n % 3)


def _tri_rule_p6_up(m: int, n: int) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    return (True, ({0: ("SW",), 1: ("SE",), 2: ("N",)}[_cls3(m, n)]))


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


def _tri_rule_p3_up(m: int, n: int) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    return (True, _P3_UP[_p3_cls(m, n, True)])


def _tri_rule_p3_down(m: int, n: int) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    return (True, _P3_DOWN[_p3_cls(m, n, False)])


def _tri_rule_p3m1_up(m: int, n: int) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    return (True, ())


def _tri_rule_p31m_up(m: int, n: int) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    table = {(0, 0): ("SW",), (0, 2): ("SE",), (2, 2): ("N",)}
    dirs = table.get(_cls6(m, n))
    return None if dirs is None else (True, dirs)


def _tri_rule_p31m_down(m: int, n: int) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    table = {(2, 1): ("NW",), (0, 2): ("NE",), (2, 2): ("S",)}
    dirs = table.get(_cls6(m, n))
    return None if dirs is None else (True, dirs)


def _tri_rule_p6_down(m: int, n: int) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    return (True, ({0: ("NE",), 1: ("S",), 2: ("NW",)}[_cls3(m, n)]))


def _tri_none(m: int, n: int) -> Optional[Tuple[bool, Tuple[str, ...]]]:
    return None


def _tri_point(m: int, n: int) -> Tuple[QuadExt, QuadExt]:
    return (_q3(m), QuadExt(0, n, 1, 3))


def _tri_rot(order: int) -> SymmetryDecl:
    a = {
        3: (QuadExt(-1, 0, 2, 3), QuadExt(0, 1, 2, 3)),
        6: (QuadExt(1, 0, 2, 3), QuadExt(0, 1, 2, 3)),
    }[order]
    return SymmetryDecl(
        "rotation",
        PlanarIsometry.rotation(_tri_point(0, 0), a),
        {"center": (0, 0), "order": order},
    )


def _tri_mirror(point: Tuple[int, int], vertical: bool, label: str) -> SymmetryDecl:
    a = (_q3(-1), _q3(0)) if vertical else (_q3(1), _q3(0))
    return SymmetryDecl(
        "mirror", PlanarIsometry.mirror_a(_tri_point(*point), a), {"axis": label}
    )


_TRI_TABLES: Dict[str, Dict[str, object]] = {
    "p3": dict(
        lattice=((3, 1), (0, 2)),
        up=_tri_rule_p3_up,
        down=_tri_rule_p3_down,
        extra=lambda: [_tri_rot(3)],
    ),
    "p3m1": dict(
        lattice=((2, 0), (1, 1)),
        up=_tri_rule_p3m1_up,
        down=_tri_none,
        extra=lambda: [_tri_rot(3), _tri_mirror((0, 0), True, "x=0")],
    ),
    "p31m": dict(
        lattice=((6, 0), (3, 3)),
        up=_tri_rule_p31m_up,
        down=_tri_rule_p31m_down,
        extra=lambda: [_tri_rot(3), _tri_mirror((0, -1), False, "y=-sqrt(3)")],
    ),
    "p6": dict(
        lattice=((3, 1), (0, 2)),
        up=_tri_rule_p6_up,
        down=_tri_rule_p6_down,
        extra=lambda: [_tri_rot(6)],
    ),
}

# Up cell anchored at p: vertices p, p+(-1,1), p+(1,1); down cell anchored
# at p: vertices p, p+(-1,-1), p+(1,-1).  Sides keyed by gap direction.
_TRI_SIDES_UP: Dict[str, Tuple[IntPt, IntPt]] = {
    "N": ((-1, 1), (1, 1)),
    "SW": ((0, 0), (-1, 1)),
    "SE": ((0, 0), (1, 1)),
}
_TRI_SIDES_DOWN: Dict[str, Tuple[IntPt, IntPt]] = {
    "S": ((-1, -1), (1, -1)),
    "NW": ((0, 0), (-1, -1)),
    "NE": ((0, 0), (1, -1)),
}


def _tri_centroid(m: int, n: int, up: bool) -> Tuple[QuadExt, QuadExt]:
    off = 3 * n + 2 if up else 3 * n - 2
    return (_q3(m), QuadExt(0, off, 3, 3))


def _triangular_family(group: str) -> Configuration:
    spec = _TRI_TABLES[group]
    v1, v2 = spec["lattice"]  # type: ignore[misc]
    box = [
        (m, n)
        for m in range(-8, 16)
        for n in range(-8, 16)
        if (m - n) % 2 == 0
    ]
    pts = _reps(v1, v2, box)

    one = _q3(1)
    dual_r = QuadExt(0, 1, 3, 3)  # 1/sqrt(3)
    motif_base = [from_center_radius(_tri_point(*p), one) for p in pts]
    motif_dual: List[InversiveCircle] = []
    for (m, n) in pts:
        for up, rule, sides in (
            (True, spec["up"], _TRI_SIDES_UP),
            (False, spec["down"], _TRI_SIDES_DOWN),
        ):
            res = rule(m, n)  # type: ignore[operator]
            centroid = _tri_centroid(m, n, up)
            if res is None:
                motif_dual.append(from_center_radius(centroid, dual_r))
                continue
            _, dirs = res
            mid = from_center_radius(centroid, TRI_MID_R)
            motif_base.append(mid)
            tiny: Dict[str, InversiveCircle] = {}
            for dn in dirs:
                ux, uy = _TRI_DIR[dn]
                center = (
                    centroid[0] + TRI_TINY_OFF * ux,
                    centroid[1] + TRI_TINY_OFF * uy,
                )
                tiny[dn] = from_center_radius(center, TRI_TINY_R)
                motif_base.append(tiny[dn])
            for side in sides:
                (d1, d2) = sides[side]
                b1 = from_center_radius(_tri_point(m + d1[0], n + d1[1]), one)
                b2 = from_center_radius(_tri_point(m + d2[0], n + d2[1]), one)
                if side in tiny:
                    t = tiny[side]
                    motif_dual.append(radical_circle((b1, b2, t)))
                    motif_dual.append(radical_circle((b1, t, mid)))
                    motif_dual.append(radical_circle((b2, t, mid)))
                else:
                    motif_dual.append(radical_circle((b1, b2, mid)))

    lattice = (_tri_point(*v1), _tri_point(*v2))
    syms = [
        SymmetryDecl(
            "translation",
            PlanarIsometry.translation(_tri_point(*v1)),
            {"vector": v1},
        ),
        SymmetryDecl(
            "translation",
            PlanarIsometry.translation(_tri_point(*v2)),
            {"vector": v2},
        ),
    ]
    syms.extend(spec["extra"]())  # type: ignore[operator]
    return Configuration(f"wallpaper:{group}", 3, motif_base, motif_dual, lattice, syms)


def make_wallpaper(group: str) -> Configuration:
    """Configuration whose symmetry group is the named plane group."""
    if group == "p4m":
        cfg = make_config("square")
    elif group == "p6m":
        cfg = make_config("triangular")
    elif group in _SQUARE_TABLES:
        return _square_family(group)
    elif group in _TRI_TABLES:
        return _triangular_family(group)
    else:
        raise ValueError(f"unknown plane group {group!r}")
    cfg.name = f"wallpaper:{group}"
    return cfg
