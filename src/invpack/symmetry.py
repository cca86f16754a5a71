"""Isometry verification and wallpaper-group classification.

An isometry is accepted as a symmetry when it maps every base circle
meeting a safe interior of the verification window onto a base circle of
the configuration, every dual circle onto a dual circle, exactly, and
when its linear part preserves the lattice.  Exact membership plus the
lattice check make the windowed evidence propagate periodically, so a
verified isometry is a genuine symmetry rather than a numerical
coincidence.

Classification studies the verified group modulo lattice translations.
The finite quotient is closed explicitly, the maximal rotation order is
read off the linear parts, and honest mirrors are separated from glide
reflections by searching each reflective coset for an involution.  The
resulting signature feeds the standard decision tree over the seventeen
plane groups.  A discovery pass independently probes a grid of candidate
rotation centers, axes, and sub-lattice translations, so configurations
that drop a symmetry under refinement are confirmed to have actually
dropped it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .configs import Configuration, Window, _vec_float
from .exact import QuadExt, Scalar, as_float
from .inversive import (
    InversiveCircle,
    PlanarIsometry,
    _cconj,
    _cmul,
    apply_isometry,
    reflect,
)

Vec = Tuple[Scalar, Scalar]

_HALF = QuadExt(1, 0, 2)


def _csub(u: Vec, v: Vec) -> Vec:
    return (u[0] - v[0], u[1] - v[1])


def _cdiv(u: Vec, w: Vec) -> Vec:
    norm = w[0] * w[0] + w[1] * w[1]
    return (
        (u[0] * w[0] + u[1] * w[1]) / norm,
        (u[1] * w[0] - u[0] * w[1]) / norm,
    )


def _is_integer_scalar(x: Scalar) -> bool:
    if isinstance(x, QuadExt):
        return x.is_integer()
    return abs(x - round(x)) <= 1e-9


def _iso_key(g: PlanarIsometry) -> Tuple[Scalar, Scalar, Scalar, Scalar, bool]:
    return (g.a[0], g.a[1], g.t[0], g.t[1], g.conj)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def lattice_diameter(cfg: Configuration) -> float:
    """Diameter of the fundamental cell (longest diagonal)."""
    if cfg.lattice is None:
        raise ValueError("finite configuration has no lattice")
    (ax, ay), (bx, by) = map(_vec_float, cfg.lattice)
    return max(math.hypot(ax + bx, ay + by), math.hypot(ax - bx, ay - by))


def default_window(cfg: Configuration) -> Window:
    """Window whose safe interior still holds a full cell of circles.

    Every circle class has a lattice representative centered within half
    a cell diameter of the origin, so an interior that wide sees at
    least one representative of everything after the margin is removed.
    """
    if cfg.lattice is None:
        r = cfg.motif_extent() + 1.0
    else:
        r = 1.5 * lattice_diameter(cfg) + 1.0
    return Window(-r, -r, r, r)


def _lattice_coords(cfg: Configuration, vec: Vec) -> Optional[Tuple[int, int]]:
    """Integer (m, n) with vec = m v1 + n v2, or None."""
    v1, v2 = cfg.lattice
    det = v1[0] * v2[1] - v1[1] * v2[0]
    m = (vec[0] * v2[1] - vec[1] * v2[0]) / det
    n = (v1[0] * vec[1] - v1[1] * vec[0]) / det
    if not (_is_integer_scalar(m) and _is_integer_scalar(n)):
        return None
    return (round(as_float(m)), round(as_float(n)))


Pools = List[Tuple[str, List[InversiveCircle]]]


def _window_pools(cfg: Configuration, w: Optional[Window]) -> Pools:
    """Base and dual circles meeting the safe interior of the window."""
    if cfg.lattice is None:
        return [(kind, list(cfg.motif(kind))) for kind in ("base", "dual")]
    w = default_window(cfg) if w is None else w
    inner = w.shrunk(lattice_diameter(cfg))
    if inner is None:
        raise ValueError("window too small for a safe interior")
    return [
        (kind, [rec.circle for rec in cfg.circles_in_window(kind, inner)])
        for kind in ("base", "dual")
    ]


def _violation(
    cfg: Configuration, g: PlanarIsometry, pools: Pools
) -> Optional[Tuple[str, Optional[InversiveCircle]]]:
    if cfg.lattice is not None:
        for v in cfg.lattice:
            img = _cmul(g.a, _cconj(v) if g.conj else v)
            if _lattice_coords(cfg, img) is None:
                return ("lattice", None)
    for kind, circles in pools:
        for c in circles:
            if cfg.contains_circle(apply_isometry(g, c), kind) is None:
                return (kind, c)
    return None


def isometry_violation(
    cfg: Configuration, g: PlanarIsometry, w: Optional[Window] = None
) -> Optional[Tuple[str, Optional[InversiveCircle]]]:
    """First circle g fails to map back into the configuration.

    Returns None when g verifies; otherwise ("lattice", None) when the
    linear part does not preserve the lattice, or (kind, circle) for the
    first base or dual circle whose image is not a configuration circle.
    """
    return _violation(cfg, g, _window_pools(cfg, w))


def verify_isometry(
    cfg: Configuration, g: PlanarIsometry, w: Optional[Window] = None
) -> bool:
    """Does g map base circles to base circles and duals to duals, exactly?"""
    return isometry_violation(cfg, g, w) is None


def translations(cfg: Configuration) -> Optional[Tuple[Vec, Vec]]:
    """The declared lattice basis once both vectors verify, else None."""
    if cfg.lattice is None:
        return None
    for v in cfg.lattice:
        if not verify_isometry(cfg, PlanarIsometry.translation(v)):
            return None
    return cfg.lattice


# ---------------------------------------------------------------------------
# the quotient modulo lattice translations
# ---------------------------------------------------------------------------


def _cell_rep(cfg: Configuration, t: Vec) -> Vec:
    """Translate t by the lattice so its cell coordinates land in [0, 1)."""
    v1, v2 = cfg.lattice
    (ax, ay), (bx, by) = map(_vec_float, (v1, v2))
    tx, ty = _vec_float(t)
    det = ax * by - ay * bx
    m = math.floor((tx * by - ty * bx) / det + 1e-9)
    n = math.floor((ax * ty - ay * tx) / det + 1e-9)
    return (t[0] - m * v1[0] - n * v2[0], t[1] - m * v1[1] - n * v2[1])


def quotient_isometries(
    cfg: Configuration, gens: Sequence[PlanarIsometry]
) -> List[PlanarIsometry]:
    """Coset representatives of the group the generators span, modulo
    lattice translations.  The quotient of a plane symmetry group by its
    full translation lattice is finite (order at most twelve); failure to
    close by then means the declared lattice is not the full translation
    subgroup."""
    if cfg.lattice is None:
        raise ValueError("finite configuration has no translation quotient")

    def canon(g: PlanarIsometry) -> PlanarIsometry:
        return PlanarIsometry(g.a, _cell_rep(cfg, g.t), g.conj)

    seeds = [canon(g) for g in gens]
    if not seeds:
        raise ValueError("no generators to close")
    ident = canon(seeds[0] * seeds[0].inverse())
    reps: Dict[object, PlanarIsometry] = {_iso_key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for q in frontier:
            for s in seeds:
                cand = canon(s * q)
                key = _iso_key(cand)
                if key not in reps:
                    reps[key] = cand
                    nxt.append(cand)
        frontier = nxt
        if len(reps) > 24:
            raise ValueError(
                "translation quotient does not close; the lattice is not "
                "the full translation subgroup"
            )
    return list(reps.values())


def _point_order(a: Vec) -> int:
    """Multiplicative order of the unit complex a, at most six."""
    cur = a
    for k in range(1, 7):
        if cur[0] == 1 and cur[1] == 0:
            return k
        cur = _cmul(cur, a)
    raise ValueError("linear part has order above six")


def _coset_element(q: PlanarIsometry, shift: Vec) -> PlanarIsometry:
    return PlanarIsometry(q.a, (q.t[0] + shift[0], q.t[1] + shift[1]), q.conj)


def _lattice_shifts(cfg: Configuration, reach: int) -> List[Vec]:
    v1, v2 = cfg.lattice
    out = []
    for m in range(-reach, reach + 1):
        for n in range(-reach, reach + 1):
            out.append((m * v1[0] + n * v2[0], m * v1[1] + n * v2[1]))
    return out


def _mirror_axis_key(g: PlanarIsometry) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
    """Canonical key of a mirror's axis line: a reflection in normal form
    z -> a*conj(z) + t determines its axis uniquely, so (a, t) works."""
    return (g.a[0], g.a[1], g.t[0], g.t[1])


def _glide_axis_key(g: PlanarIsometry, square: PlanarIsometry):
    """Axis key of a glide, i.e. of the glide with its shift removed.

    The square of z -> a*conj(z) + t is the translation by twice the
    shift, so subtracting half of it leaves the underlying mirror."""
    half = (square.t[0] * _HALF, square.t[1] * _HALF)
    return (g.a[0], g.a[1], g.t[0] - half[0], g.t[1] - half[1])


def _fixes_point(m: PlanarIsometry, p: Vec) -> bool:
    q = m.apply_point(p)
    return bool(q[0] == p[0]) and bool(q[1] == p[1])


# ---------------------------------------------------------------------------
# the signature and the decision tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetrySignature:
    """Facts that pin down a plane symmetry group.

    ``rotation_centers_on_mirrors`` answers the discriminating question
    for the rotation order at hand: whether all maximal-order centers
    lie on mirror axes for orders three and four, and whether any
    twofold center does for order two.  It is None when no mirrors or
    no rotations are present to compare.
    """

    rotation_order: int
    has_reflection: bool
    has_off_axis_glide: bool
    rotation_centers_on_mirrors: Optional[bool] = None

    def __post_init__(self):
        if self.rotation_order not in (1, 2, 3, 4, 6):
            raise ValueError(
                f"impossible plane rotation order {self.rotation_order}"
            )

    def group_name(self) -> str:
        n, refl = self.rotation_order, self.has_reflection
        glide, centered = self.has_off_axis_glide, self.rotation_centers_on_mirrors
        if n == 6:
            return "p6m" if refl else "p6"
        if n == 4:
            if not refl:
                return "p4"
            return "p4m" if centered else "p4g"
        if n == 3:
            if not refl:
                return "p3"
            return "p3m1" if centered else "p31m"
        if n == 2:
            if not refl:
                return "pgg" if glide else "p2"
            if not glide:
                return "pmm"
            return "cmm" if centered else "pmg"
        if refl:
            return "cm" if glide else "pm"
        return "pg" if glide else "p1"


def _signature_from_quotient(
    cfg: Configuration, reps: Sequence[PlanarIsometry]
) -> SymmetrySignature:
    rotational = [q for q in reps if not q.conj]
    reflective = [q for q in reps if q.conj]
    order = max(_point_order(q.a) for q in rotational)

    mirrors: List[PlanarIsometry] = []
    for q in reflective:
        for shift in _lattice_shifts(cfg, 4):
            g = _coset_element(q, shift)
            if (g * g).is_identity():
                mirrors.append(g)
    mirror_keys = {_mirror_axis_key(m) for m in mirrors}

    off_axis = False
    for q in reflective:
        for shift in _lattice_shifts(cfg, 2):
            g = _coset_element(q, shift)
            square = g * g
            if square.is_identity():
                continue
            if _glide_axis_key(g, square) not in mirror_keys:
                off_axis = True
                break
        if off_axis:
            break

    centered: Optional[bool] = None
    if order >= 2 and mirrors:
        centers: List[Vec] = []
        seen = set()
        for q in rotational:
            if _point_order(q.a) != order:
                continue
            denom = (1 - q.a[0], -q.a[1])
            for shift in _lattice_shifts(cfg, 2):
                c = _cell_rep(cfg, _cdiv(_coset_element(q, shift).t, denom))
                key = (c[0], c[1])
                if key not in seen:
                    seen.add(key)
                    centers.append(c)
        on = [any(_fixes_point(m, c) for m in mirrors) for c in centers]
        centered = any(on) if order == 2 else all(on)
    return SymmetrySignature(order, bool(mirrors), off_axis, centered)


def signature_of(
    cfg: Configuration, w: Optional[Window] = None
) -> SymmetrySignature:
    """Verify the declared generators and read the signature off the
    group they span modulo the lattice."""
    if cfg.lattice is None:
        raise ValueError("finite configuration has no wallpaper signature")
    if not cfg.symmetries:
        raise ValueError(f"{cfg.name} declares no symmetries to verify")
    pools = _window_pools(cfg, w)
    for decl in cfg.symmetries:
        bad = _violation(cfg, decl.iso, pools)
        if bad is not None:
            kind, circle = bad
            where = "lattice basis" if circle is None else (
                f"{kind} circle at {tuple(round(x, 6) for x in circle.center())}"
            )
            raise ValueError(
                f"declared {decl.kind} {decl.meta} of {cfg.name} is not a "
                f"symmetry (witness: {where})"
            )
    reps = quotient_isometries(cfg, [d.iso for d in cfg.symmetries])
    return _signature_from_quotient(cfg, reps)


def classify_wallpaper(cfg: Configuration) -> str:
    """Name of the plane symmetry group of a periodic configuration."""
    return signature_of(cfg).group_name()


# ---------------------------------------------------------------------------
# discovery cross-check
# ---------------------------------------------------------------------------

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
    sub-lattice translations over a fundamental cell."""

    rotations: List[Tuple[int, Vec]] = field(default_factory=list)
    mirrors: List[PlanarIsometry] = field(default_factory=list)
    glides: List[PlanarIsometry] = field(default_factory=list)
    subtranslations: List[Vec] = field(default_factory=list)

    def signature(self) -> SymmetrySignature:
        order = max([o for o, _ in self.rotations], default=1)
        mirror_keys = {_mirror_axis_key(m) for m in self.mirrors}
        off_axis = False
        for g in self.glides:
            if _glide_axis_key(g, g * g) not in mirror_keys:
                off_axis = True
                break
        centered: Optional[bool] = None
        if order >= 2 and self.mirrors:
            tops = [c for o, c in self.rotations if o == order]
            on = [
                any(_fixes_point(m, c) for m in self.mirrors) for c in tops
            ]
            centered = any(on) if order == 2 else all(on)
        return SymmetrySignature(order, bool(self.mirrors), off_axis, centered)


def _cell_points(cfg: Configuration) -> List[Vec]:
    v1, v2 = cfg.lattice
    return [
        (x * v1[0] + y * v2[0], x * v1[1] + y * v2[1])
        for x in _FRACS
        for y in _FRACS
    ]


def _shortest_parallel(cfg: Configuration, a: Vec) -> Optional[Vec]:
    """Shortest nonzero lattice vector the reflection z -> a*conj(z) fixes."""
    best: Optional[Vec] = None
    best_norm = math.inf
    for shift in _lattice_shifts(cfg, 3):
        if shift[0] == 0 and shift[1] == 0:
            continue
        img = _cmul(a, _cconj(shift))
        if bool(img[0] == shift[0]) and bool(img[1] == shift[1]):
            norm = _vec_float(shift)[0] ** 2 + _vec_float(shift)[1] ** 2
            if norm < best_norm:
                best, best_norm = shift, norm
    return best


def discover_symmetries(
    cfg: Configuration, w: Optional[Window] = None
) -> DiscoveredSymmetries:
    """Probe rotations, mirrors, glides, and sub-lattice translations on
    a grid of half, third, and quarter cell points, keeping the verified
    ones.  The grid covers every center and axis position the plane
    groups realize, so an empty result is evidence of absence."""
    if cfg.lattice is None:
        raise ValueError("discovery needs a periodic configuration")
    pools = _window_pools(cfg, w)
    found = DiscoveredSymmetries()
    points = _cell_points(cfg)

    def holds(iso: PlanarIsometry) -> bool:
        return _violation(cfg, iso, pools) is None

    for order, a in _ROTATION_A.items():
        for p in points:
            if holds(PlanarIsometry.rotation(p, a)):
                found.rotations.append((order, p))

    probed = set()
    for a in _MIRROR_A:
        for p in points:
            m = PlanarIsometry.mirror_a(p, a)
            key = _mirror_axis_key(m)
            if key in probed:
                continue
            probed.add(key)
            if holds(m):
                found.mirrors.append(m)
        par = _shortest_parallel(cfg, a)
        if par is None:
            continue
        shift = (par[0] * _HALF, par[1] * _HALF)
        for p in points:
            g = PlanarIsometry.glide_a(p, a, shift)
            key = _iso_key(g)
            if key in probed:
                continue
            probed.add(key)
            if holds(g):
                found.glides.append(g)

    zero = QuadExt(0)
    for x in _FRACS:
        for y in _FRACS:
            if x == zero and y == zero:
                continue
            v1, v2 = cfg.lattice
            t = (x * v1[0] + y * v2[0], x * v1[1] + y * v2[1])
            if holds(PlanarIsometry.translation(t)):
                found.subtranslations.append(t)
    return found


def discovery_cross_check(cfg: Configuration) -> bool:
    """Does independent discovery agree with the declared group?

    True when the discovered signature matches the declared one and no
    sub-lattice translation verifies, i.e. refinement really removed
    the symmetries it meant to remove and kept the lattice primitive.
    """
    declared = signature_of(cfg)
    found = discover_symmetries(cfg)
    return declared == found.signature() and not found.subtranslations


# ---------------------------------------------------------------------------
# the reflection group meets the isometry group trivially
# ---------------------------------------------------------------------------


def trivial_intersection(
    cfg: Configuration, window: Window, max_len: int = 4
) -> bool:
    """No nonempty reduced word of dual reflections acts on the window's
    base circles the way a verified symmetry isometry does.

    Candidate isometries are the quotient representatives composed with
    nearby lattice translations; word actions are compared pointwise on
    the base circles by exact keys.
    """
    duals = [rec.circle for rec in cfg.circles_in_window("dual", window)]
    bases = [rec.circle for rec in cfg.circles_in_window("base", window)]
    if not duals or not bases:
        raise ValueError("window holds no circles to compare")
    reps = quotient_isometries(cfg, [d.iso for d in cfg.symmetries])

    def state(circles: Sequence[InversiveCircle]):
        return tuple(c.key() for c in circles)

    targets = set()
    for q in reps:
        for shift in _lattice_shifts(cfg, 6):
            g = _coset_element(q, shift)
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
