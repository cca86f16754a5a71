"""Isometry verification and wallpaper-group classification.

An isometry is accepted as a symmetry when it maps every base circle
meeting a safe interior of the verification window onto a base circle of
the configuration, every dual circle onto a dual circle, exactly, and
when its linear part preserves the lattice.  Exact membership plus the
lattice check make the windowed evidence propagate periodically, so a
verified isometry is a genuine symmetry rather than a numerical
coincidence.

Circles are integer rows of the packing-mode lattices of ``lattice``
(base rows closed under the dual reflections, dual rows under the
translations).  An isometry maps rows by one integer matrix
(``RowLattice.moved``); an image off the lattice is no configuration
circle, and an image on it is one when it equals, row for row, the motif
circle moved by the lattice shift its float center rounds to.  The
reflection words of ``trivial_intersection`` act on the same rows, along
``lattice.Mirrors.walk``.

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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .configs import Configuration, Window, _catalog_rows, _row_lattice, _vec_float
from .exact import QuadExt, Scalar, as_float, scalar_sign
from .inversive import InversiveCircle, PlanarIsometry, _cadd, _cconj, _cmul
from .lattice import Mirrors, RowLattice, _guard

Vec = Tuple[Scalar, Scalar]

_HALF = QuadExt(1, 0, 2)


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


Pools = List[Tuple[str, RowLattice, np.ndarray]]


def _window_pools(cfg: Configuration, w: Optional[Window]) -> Pools:
    """Rows of the base and dual circles meeting the safe interior of the
    window, in catalog order, on the packing-mode lattices."""
    if cfg.lattice is None:
        return [(kind, lat, lat.motif)
                for kind, lat in ((k, _row_lattice(cfg, "packing", k)) for k in ("base", "dual"))]
    w = default_window(cfg) if w is None else w
    inner = w.shrunk(lattice_diameter(cfg))
    if inner is None:
        raise ValueError("window too small for a safe interior")
    return [(k, c.lat, c.rows)
            for k, c in ((k, _catalog_rows(cfg, k, inner, mode="packing")) for k in ("base", "dual"))]


def _members(cfg: Configuration, lat: RowLattice, rows: np.ndarray) -> np.ndarray:
    """Which rows of ``lat`` are circles of the configuration.

    As ``Configuration.contains_circle``: a motif circle of the same
    curvature, moved by the (m, n) that its float center offset rounds to
    within 1e-6, must equal the row; the comparison is exact.
    """
    motif = lat.motif
    if cfg.lattice is None:
        known = {m.tobytes() for m in motif}
        return np.array([r.tobytes() in known for r in rows], dtype=bool)
    (p, r), (mp, mr) = lat.values(rows), lat.values(motif)
    k, i = np.nonzero((p[:, None, 1] == mp[None, :, 1]) & (r[:, None, 1] == mr[None, :, 1]))
    fv, mv = lat.approx(rows), lat.approx(motif)
    with np.errstate(divide="ignore", invalid="ignore"):
        px = fv[k, 2] / fv[k, 1] - mv[i, 2] / mv[i, 1]
        py = fv[k, 3] / fv[k, 1] - mv[i, 3] / mv[i, 1]
    mf, nf = cfg._cell_coords(px, py)
    m, n = np.rint(mf), np.rint(nf)
    near = (np.abs(mf - m) <= 1e-6) & (np.abs(nf - n) <= 1e-6)
    _guard(np.maximum(np.abs(m[near]), np.abs(n[near])), "a lattice shift of an image")
    k, i = k[near], i[near]
    shift = np.column_stack([m[near], n[near]]).astype(np.int64)
    same = (lat.translated(motif[i], shift, "a translated motif circle") == rows[k]).all(axis=1)
    out = np.zeros(len(rows), dtype=bool)
    out[k[same]] = True
    return out


def _violation(
    cfg: Configuration, g: PlanarIsometry, pools: Pools
) -> Optional[Tuple[str, Optional[InversiveCircle]]]:
    if cfg.lattice is not None:
        for v in cfg.lattice:
            img = _cmul(g.a, _cconj(v) if g.conj else v)
            if _lattice_coords(cfg, img) is None:
                return ("lattice", None)
    for kind, lat, rows in pools:
        images, ok = lat.moved(g, rows, f"an image of a {kind} circle")
        ok[ok] = _members(cfg, lat, images[ok])
        bad = np.flatnonzero(~ok)
        if bad.size:
            return (kind, lat.circles(rows[bad[:1]])[0])
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
    mf, nf = cfg._cell_coords(*_vec_float(t))
    m, n = math.floor(mf + 1e-9), math.floor(nf + 1e-9)
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


def _square_shift(a: Vec, t: Vec) -> Vec:
    """The square of z -> a*conj(z) + t is z -> z + a*conj(t) + t (|a| = 1):
    the translation by this vector."""
    return _cadd(_cmul(a, _cconj(t)), t)


def _is_zero(v: Vec) -> bool:
    return scalar_sign(v[0], 1e-12) == 0 and scalar_sign(v[1], 1e-12) == 0


def _glide_axis_key(a: Vec, t: Vec, s: Vec):
    """Axis key of the glide z -> a*conj(z) + t, i.e. of the glide with its
    shift removed.

    Its square is the translation by s, twice the shift, so subtracting
    half of it leaves the underlying mirror."""
    return (a[0], a[1], t[0] - s[0] * _HALF, t[1] - s[1] * _HALF)


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

    near, far = _lattice_shifts(cfg, 2), _lattice_shifts(cfg, 4)
    mirrors: List[PlanarIsometry] = []
    for q in reflective:
        for shift in far:
            t = _cadd(q.t, shift)
            if _is_zero(_square_shift(q.a, t)):
                mirrors.append(PlanarIsometry(q.a, t, True))
    mirror_keys = {_mirror_axis_key(m) for m in mirrors}

    off_axis = False
    for q in reflective:
        for shift in near:
            t = _cadd(q.t, shift)
            s = _square_shift(q.a, t)
            if not _is_zero(s) and _glide_axis_key(q.a, t, s) not in mirror_keys:
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
            for shift in near:
                c = _cell_rep(cfg, _cdiv(_cadd(q.t, shift), denom))
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
            if _glide_axis_key(g.a, g.t, _square_shift(g.a, g.t)) not in mirror_keys:
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


def _probes(cfg: Configuration) -> Iterator[Tuple[str, object, PlanarIsometry]]:
    """The candidate isometries of ``discover_symmetries`` in probe order:
    (the ``DiscoveredSymmetries`` list it joins when it verifies, its entry
    there, the isometry)."""
    points = _cell_points(cfg)
    for order, a in _ROTATION_A.items():
        for p in points:
            yield "rotations", (order, p), PlanarIsometry.rotation(p, a)

    probed = set()
    for a in _MIRROR_A:
        for p in points:
            m = PlanarIsometry.mirror_a(p, a)
            key = _mirror_axis_key(m)
            if key not in probed:
                probed.add(key)
                yield "mirrors", m, m
        par = _shortest_parallel(cfg, a)
        if par is None:
            continue
        shift = (par[0] * _HALF, par[1] * _HALF)
        for p in points:
            g = PlanarIsometry.glide_a(p, a, shift)
            key = _iso_key(g)
            if key not in probed:
                probed.add(key)
                yield "glides", g, g

    zero = QuadExt(0)
    v1, v2 = cfg.lattice
    for x in _FRACS:
        for y in _FRACS:
            if x == zero and y == zero:
                continue
            t = (x * v1[0] + y * v2[0], x * v1[1] + y * v2[1])
            yield "subtranslations", t, PlanarIsometry.translation(t)


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
    for name, entry, iso in _probes(cfg):
        if _violation(cfg, iso, pools) is None:
            getattr(found, name).append(entry)
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
    lattice translations (m, n), |m|, |n| <= 6.  A state is the rows of
    the base circles, in the packing-mode base lattice, under a word; it
    is compared with the rows of the candidates' images exactly.  Every
    state lies on the lattice, so a candidate moving some base circle off
    it is no target.  The words are those of ``Mirrors.walk``, none pruned:
    dual mirrors are tangent or disjoint, so they generate a free product
    of reflections, and a repeated state would only be checked twice.
    """
    duals, bases = _catalog_rows(cfg, "dual", window), _catalog_rows(cfg, "base", window, mode="packing")
    if not duals.cat or not bases.cat:
        raise ValueError("window holds no circles to compare")
    lat, start, idents = bases.lat, bases.rows, bases.cat.idents
    reps = quotient_isometries(cfg, [d.iso for d in cfg.symmetries])
    mirrors = Mirrors(lat.reflections(duals.lat, duals.rows, duals.cat.idents), duals.cat.idents)

    reach = np.arange(-6, 7, dtype=np.int64)
    shifts = np.stack(np.meshgrid(reach, reach, indexing="ij"), axis=-1).reshape(-1, 2)
    targets = set()
    for q in reps:
        images, on = lat.moved(q, start, idents)
        # a lattice translate of an off-lattice image stays off the lattice
        if on.all():
            moved = lat.translated(np.tile(images, (len(shifts), 1)),
                                   np.repeat(shifts, len(start), axis=0), idents)
            targets.update(s.tobytes() for s in moved.reshape(len(shifts), -1))

    for i, states, keep in mirrors.walk(start.T, max_len):
        if keep is not None:
            states = mirrors.mats[i] @ states[:, keep].reshape(lat.width, -1)
        # one state per word, its rows in catalog order as in the targets
        flat = np.ascontiguousarray(states.reshape(lat.width, -1, len(start)).transpose(1, 2, 0))
        if not targets.isdisjoint(s.tobytes() for s in flat):
            return False
    return True
