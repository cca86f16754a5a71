"""Isometry verification and wallpaper-group classification.

A periodic configuration is C = M + L: its motif circles M moved by every
vector of the lattice L spanned by v1 and v2.  Let g be an isometry whose
linear part A maps L onto itself.  Then g(c + l) = g(c) + A l with A l in L,
so g maps C into C exactly when it maps every motif circle into C.  An
isometry is therefore accepted as a symmetry when its linear part preserves
the lattice and it maps each base motif circle onto a base circle and each
dual motif circle onto a dual circle, exactly.  A configuration with no
lattice (Apollonian) has nothing but its motif to check.

Circles are integer rows of the packing-mode lattices of ``lattice``
(base rows closed under the dual reflections, dual rows under the
translations).  An isometry maps rows by one integer matrix
(``RowLattice.moved``); an image off the lattice is no configuration
circle, and an image on it is one when ``configs._locate``, the test
``Configuration.contains_circle`` runs, finds it equal to the motif circle
moved by the lattice shift its float center rounds to, row for row.  The
reflection words of ``trivial_intersection`` act on the same rows, along
``lattice.Mirrors.walk``.

Classification studies the verified group modulo lattice translations, in
lattice coordinates as the *International Tables for Crystallography*
(Vol. A) write it: an isometry is x -> A x + tau, A an integer 2x2 matrix
and tau = B^-1 t rational, with B = [v1 v2].  The finite quotient is closed
on integer tuples, tau held over one denominator N and reduced modulo N.
The signature is read off the same tuples: the rotation order is the
largest order of an A; x -> A x + v with A a reflection is a mirror when
(A + I) v = 0, and its axis otherwise, the mirror x -> A x + (I - A) v / 2,
is either in the group or makes it a glide off every mirror axis; a
rotation center c solves (I - A) c = v.  The signature feeds the standard
decision tree over the seventeen plane groups (Conway, Burgiel and
Goodman-Strauss, *The Symmetries of Things*, 2008).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configs import Configuration, Window, _locate, _row_lattice
from .exact import QuadExt, Scalar
from .inversive import InversiveCircle, PlanarIsometry, _cconj, _cmul
from .lattice import Mirrors

Vec = Tuple[Scalar, Scalar]
Basis = Tuple[Vec, Vec]
# an integer 2x2 matrix (a, b, c, d) = [[a, b], [c, d]], and an isometry
# modulo L in lattice coordinates: (A, N tau reduced modulo N)
Mat = Tuple[int, int, int, int]
Elem = Tuple[Mat, Tuple[int, int]]
# (a, conj) -> the integer matrix of z -> a z or a conj(z), or None (``_matrix``)
Linear = Callable[[Vec, bool], Optional[Mat]]

_ONE: Mat = (1, 0, 0, 1)


def _mat(x: Mat, y: Mat) -> Mat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _apply(x: Mat, v: Sequence[int]) -> Tuple[int, int]:
    return (x[0] * v[0] + x[1] * v[1], x[2] * v[0] + x[3] * v[1])


def _det(x: Mat) -> int:
    return x[0] * x[3] - x[1] * x[2]


def _act(e: Elem, p: Sequence[int], n: int) -> Tuple[int, int]:
    """The image under e of the point p / n, over n and modulo n."""
    w = _apply(e[0], p)
    return ((w[0] + e[1][0]) % n, (w[1] + e[1][1]) % n)


def _order(x: Mat) -> int:
    """Multiplicative order of the integer matrix x, at most six."""
    cur = x
    for k in range(1, 7):
        if cur == _ONE:
            return k
        cur = _mat(cur, x)
    raise ValueError("linear part has order above six")


# ---------------------------------------------------------------------------
# lattice coordinates
# ---------------------------------------------------------------------------


def _coords(basis: Basis, v: Vec) -> Vec:
    """Exact (m, n) with v = m v1 + n v2."""
    (ax, ay), (bx, by) = basis
    det = ax * by - ay * bx
    return ((v[0] * by - v[1] * bx) / det, (ax * v[1] - ay * v[0]) / det)


def _matrix(basis: Basis, a: Vec, conj: bool) -> Optional[Mat]:
    """The matrix A of z -> a*z (a*conj(z) when conj) on the basis, or
    None when it is not an integer matrix: the map does not preserve the
    lattice."""
    cols = [_coords(basis, _cmul(a, _cconj(v) if conj else v)) for v in basis]
    entries = (cols[0][0], cols[1][0], cols[0][1], cols[1][1])
    if not all(x.is_integer() for x in entries):
        return None
    return tuple(x.a for x in entries)


def _linear_parts(basis: Basis) -> Linear:
    """``_matrix`` on the basis, each distinct (a, conj) converted once by
    the returned function: the probes of one discovery pass, or the
    generators of one signature, share a handful of linear parts."""
    return lru_cache(maxsize=None)(partial(_matrix, basis))


def _quotient(
    basis: Basis, gens: Sequence[PlanarIsometry], matrix: Optional[Linear] = None
) -> Tuple[List[Elem], int]:
    """The group the generators span modulo L, as elements (A, N tau mod N)
    in breadth-first order from the identity, and N.  ``matrix`` converts
    the linear parts, by default a fresh ``_linear_parts`` of the basis.

    N is twelve times the least common denominator of the generators'
    tau: every element's tau stays over N, and so do the halves, thirds
    and quarters that the signature reads.  The quotient of a plane group
    by its full translation lattice has order at most twelve; failure to
    close by 24 means the lattice is not the full translation subgroup.
    """
    matrix = matrix or _linear_parts(basis)
    forms = []
    for g in gens:
        A = matrix(g.a, g.conj)
        if A is None:
            raise ValueError(f"generator {g} does not preserve the lattice")
        tau = _coords(basis, g.t)
        if any(x.b for x in tau):
            raise ValueError(f"translation {tau} of a generator is irrational in lattice coordinates")
        forms.append((A, tau))
    if not forms:
        raise ValueError("no generators to close")
    n = 12 * math.lcm(*(x.q for _, tau in forms for x in tau))
    seeds = [(A, tuple(n // x.q * x.a % n for x in tau)) for A, tau in forms]
    reps: Dict[Elem, None] = {(_ONE, (0, 0)): None}
    frontier = list(reps)
    while frontier:
        nxt = []
        for A, u in frontier:
            for seed in seeds:
                cand = (_mat(seed[0], A), _act(seed, u, n))
                if cand not in reps:
                    reps[cand] = None
                    nxt.append(cand)
        frontier = nxt
        if len(reps) > 24:
            raise ValueError(
                "translation quotient does not close; the lattice is not "
                "the full translation subgroup"
            )
    return list(reps), n


def _isometry(basis: Basis, A: Mat, u: Tuple[int, int], n: int) -> PlanarIsometry:
    """The isometry x -> A x + u / n of lattice coordinates, in the plane:
    its a is the image of (1, 0) under B A B^-1, and its t is B u / n."""
    (ax, ay), (bx, by) = basis
    det = ax * by - ay * bx
    m = _apply(A, (by / det, -ay / det))
    t = (QuadExt(u[0], 0, n), QuadExt(u[1], 0, n))
    return PlanarIsometry(
        (m[0] * ax + m[1] * bx, m[0] * ay + m[1] * by),
        (t[0] * ax + t[1] * bx, t[0] * ay + t[1] * by),
        _det(A) < 0,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def isometry_violation(
    cfg: Configuration, g: PlanarIsometry
) -> Optional[Tuple[str, Optional[InversiveCircle]]]:
    """First motif circle g fails to map back into the configuration.

    Returns None when g verifies; otherwise ("lattice", None) when the
    linear part does not preserve the lattice, or (kind, circle) for the
    first base or dual motif circle whose image is not a configuration
    circle.  With the lattice preserved, the motif decides for every
    circle of the configuration.
    """
    return _violation(cfg, g, partial(_matrix, cfg.lattice))


def _violation(
    cfg: Configuration, g: PlanarIsometry, matrix: Linear
) -> Optional[Tuple[str, Optional[InversiveCircle]]]:
    """``isometry_violation``, converting g's linear part with ``matrix``."""
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


def verify_isometry(cfg: Configuration, g: PlanarIsometry) -> bool:
    """Does g map base circles to base circles and duals to duals, exactly?"""
    return isometry_violation(cfg, g) is None


def quotient_isometries(
    cfg: Configuration, gens: Sequence[PlanarIsometry]
) -> List[PlanarIsometry]:
    """Coset representatives of the group the generators span, modulo
    lattice translations, each with its lattice coordinates of t in
    [0, 1).  Raises ValueError when a generator does not preserve the
    lattice, when its t has irrational lattice coordinates, or when the
    quotient does not close by order 24: then the declared lattice is not
    the full translation subgroup."""
    if cfg.lattice is None:
        raise ValueError("finite configuration has no translation quotient")
    reps, n = _quotient(cfg.lattice, gens)
    return [_isometry(cfg.lattice, A, u, n) for A, u in reps]


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


def _signature(reps: Sequence[Elem], n: int) -> SymmetrySignature:
    """The signature of a group modulo L from its elements (A, N tau).

    For x -> A x + v with A a reflection, the axis x -> A x + (I - A) v / 2
    depends on v modulo 2L only, and its coset is in the group exactly when
    the axis is a mirror's; otherwise every element of that class is a glide
    off the mirrors.  A center c of x -> A x + v solves (I - A) c = v, with
    v ranging modulo (I - A) L, and lies on a mirror when some reflective
    element fixes it modulo L.
    """
    group = set(reps)
    rotational = [(A, u) for A, u in reps if _det(A) == 1]
    reflective = [(A, u) for A, u in reps if _det(A) == -1]
    order = max(_order(A) for A, _ in rotational)

    axes = set()
    for (a, b, c, d), u in reflective:
        for s in product((0, 1), repeat=2):
            w = _apply((1 - a, -b, -c, 1 - d), (u[0] + n * s[0], u[1] + n * s[1]))
            axes.add(((a, b, c, d), (w[0] // 2 % n, w[1] // 2 % n)))
    mirrors = axes & group

    centered: Optional[bool] = None
    if order >= 2 and mirrors:
        centers = set()
        for (a, b, c, d), u in rotational:
            if _order((a, b, c, d)) != order:
                continue
            k = 2 - a - d  # det(I - A)
            for s in product(range(k), repeat=2):
                w = _apply((1 - d, b, c, 1 - a), (u[0] + n * s[0], u[1] + n * s[1]))
                centers.add((w[0] // k % n, w[1] // k % n))
        on = [any(_act(e, p, n) == p for e in reflective) for p in centers]
        centered = any(on) if order == 2 else all(on)
    return SymmetrySignature(order, bool(mirrors), axes != mirrors, centered)


def signature_of(cfg: Configuration) -> SymmetrySignature:
    """Verify the declared generators and read the signature off the
    group they span modulo the lattice."""
    if cfg.lattice is None:
        raise ValueError("finite configuration has no wallpaper signature")
    if not cfg.symmetries:
        raise ValueError(f"{cfg.name} declares no symmetries to verify")
    matrix = _linear_parts(cfg.lattice)
    for decl in cfg.symmetries:
        bad = _violation(cfg, decl.iso, matrix)
        if bad is not None:
            kind, circle = bad
            where = "lattice basis" if circle is None else (
                f"{kind} circle at {tuple(round(x, 6) for x in circle.center())}"
            )
            raise ValueError(
                f"declared {decl.kind} {decl.meta} of {cfg.name} is not a "
                f"symmetry (witness: {where})"
            )
    return _signature(*_quotient(cfg.lattice, [d.iso for d in cfg.symmetries], matrix))


def classify_wallpaper(cfg: Configuration) -> str:
    """Name of the plane symmetry group of a periodic configuration."""
    return signature_of(cfg).group_name()


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
    ValueError for a negative ``max_len`` or a window without both kinds.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    duals, bases = cfg.catalog(("dual",), window), cfg.catalog(("base",), window, mode="packing")
    if not duals or not bases:
        raise ValueError("window holds no circles to compare")
    lat, start, idents = bases.lat, bases.rows, bases.idents
    reps = quotient_isometries(cfg, [d.iso for d in cfg.symmetries])
    mirrors = Mirrors(lat.reflections(duals.lat, duals.rows, duals.idents), duals.idents)

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
