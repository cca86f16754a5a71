"""Reflection-orbit enumeration producing circle packings.

Three orbit modes share one engine: "packing" reflects the base family
across duals, "dual" reflects the dual family across duals, and "super"
reflects both families across both.  Enumeration is breadth first.  The
orbit is infinite, so runs are bounded by a window, a minimum radius and
a maximum height, where the height of a circle is the length of the
shortest reflection word producing it from a seed.

Completeness over the window rests on a locality bound.  Producing a
circle of radius >= rho across a mirror of radius R requires the source
circle, of radius r, to sit within sqrt(R^2 r / rho + r^2) of the mirror
center, so every ancestor of a circle meeting the window W lives inside
W padded by a step built from that bound for each reflection still to
come.  In the descending modes each reflection shrinks radii by at least
r -> R r / (R + 2 r), so the steps shrink with depth and a circle's pad
follows from its own radius: mirrors and seeds are catalogued over the
pad of the largest motif radius, and every image is kept only over its
own pad, so heights, unique in these modes, are never reached by a
pruned row.  Super mode, where radii may grow, keeps the worst-case pad
of each level.  Lines never arise in the descending modes and are
dropped in super mode, where an orbit member through a mirror center
inverts to one.

Heights and witness words in "packing" and "dual" modes are recomputed
by peeling: a non-seed circle lies inside exactly one dual, and
reflecting it back out strictly grows its radius until a seed is
reached.  The peeled word length is asserted to match the BFS level.
In "super" mode base mirrors do not shrink radii monotonically, so the
recorded height is the BFS level over the catalogued region, with the
witness word taken from the first discovery.

Two lanes run the search.  The array lane holds every circle as a numpy
row: square, triangular and hexagonal families in exact mode use int64
rows (each inversive coordinate is an integer times a fixed per-kind
scale, the "slot"), and every float run uses float64 rows deduplicated
on a 1e-9 grid.  Seeds and mirrors come from the configuration's array
catalog (motif index and lattice shift of each circle), and on the three
families their rows are motif rows times integer lattice-translation
matrices, and their reflections integer matrices built in one vectorised
step; float runs on these families take the ``as_float`` values of
those integer rows and matrices.  Each BFS level is one spatial join of
the frontier rows to the mirror centers under the locality bound, one
batch of images over the joined pairs and one vectorised deduplication.
It peels all kept rows in one batch: seeds by row key, hosts by a
spatial prefilter confirmed on the rows (exactly on integers).  The
object lane walks ``QuadExt`` circles for the other exact
configurations and peels them one at a time.  Both lanes hand back
``as_float`` sort keys with their circles, and the output is sorted on
those keys without converting a circle again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .configs import Catalog, Configuration, GeneratorCircle, Window, parse_id
from .exact import QuadExt, as_float, scalar_sign
from .inversive import (
    InversiveCircle,
    PlanarIsometry,
    apply_isometry,
    inversive_product,
    reflect,
)

GroupWord = List[str]

MODES = ("packing", "dual", "super")

_SEED_KINDS = {"packing": ("base",), "dual": ("dual",), "super": ("base", "dual")}
_MIRROR_KINDS = {"packing": ("dual",), "dual": ("dual",), "super": ("base", "dual")}
_CIRCLE_KIND = {"packing": "base", "dual": "dual", "super": "super"}


# ---------------------------------------------------------------------------
# words


def reduce_word(
    word: Sequence[str], commutes: Optional[Callable[[str, str], bool]] = None
) -> GroupWord:
    """Cancel adjacent equal letters; with a commutation predicate, first
    sort adjacent commuting letters by id so hidden cancellations surface."""
    out = list(word)
    changed = True
    while changed:
        changed = False
        if commutes is not None:
            i = 0
            while i + 1 < len(out):
                a, b = out[i], out[i + 1]
                if a > b and commutes(a, b):
                    out[i], out[i + 1] = b, a
                    changed = True
                    i = max(i - 1, 0)
                else:
                    i += 1
        i = 0
        while i + 1 < len(out):
            if out[i] == out[i + 1]:
                del out[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return out


def commuting_letters(cfg: Configuration) -> Callable[[str, str], bool]:
    """Predicate telling whether two generator reflections commute, which
    for circle reflections means the mirrors are orthogonal or equal."""
    cache: Dict[Tuple[str, str], bool] = {}

    def commutes(a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        hit = cache.get(key)
        if hit is None:
            if a == b:
                hit = True
            else:
                prod = inversive_product(
                    cfg.circle_from_id(a), cfg.circle_from_id(b)
                )
                hit = _scalar_is_zero(prod)
            cache[key] = hit
        return hit

    return commutes


def apply_word(
    cfg: Configuration, word: Sequence[str], v: InversiveCircle
) -> InversiveCircle:
    """Apply a reflection word to a circle; the leftmost letter acts last.

    Mirrors are taken exact or float to match ``v``, so a float circle can
    be driven through an exact configuration without mixing scalar kinds.
    """
    for letter in reversed(list(word)):
        mirror = cfg.circle_from_id(letter)
        if not v.is_exact and mirror.is_exact:
            mirror = mirror.as_floats()
        v = reflect(mirror, v)
    return v


def normal_form(
    cfg: Configuration, items: Sequence[Union[str, PlanarIsometry]]
) -> Tuple[GroupWord, PlanarIsometry]:
    """Rewrite a mixed product of reflection letters and isometries as a
    reduced reflection word followed by a single isometry.

    Isometries are pushed right through reflections by conjugating each
    mirror: g then sigma_d equals sigma_{g(d)} then g.  Raises ValueError
    when a conjugated mirror is not a configuration circle, i.e. when the
    isometry does not preserve the family.
    """
    word: GroupWord = []
    gamma = PlanarIsometry.identity()
    for item in items:
        if isinstance(item, PlanarIsometry):
            gamma = gamma * item
            continue
        kind, _, _ = parse_id(item)
        moved = apply_isometry(gamma, cfg.circle_from_id(item))
        ident = cfg.contains_circle(moved, kind)
        if ident is None:
            raise ValueError(
                f"isometry does not preserve the {kind} family: "
                f"image of {item} is not a configuration circle"
            )
        word.append(ident)
    return reduce_word(word), gamma


# ---------------------------------------------------------------------------
# packing containers


@dataclass(frozen=True)
class GenerationLimits:
    max_height: int = 3
    min_radius: float = 0.01
    window: Window = Window(-8.0, -8.0, 8.0, 8.0)

    def __post_init__(self) -> None:
        if self.max_height < 0:
            raise ValueError("max_height must be nonnegative")
        if self.min_radius <= 0:
            raise ValueError("min_radius must be positive")


@dataclass
class PackedCircle:
    circle: InversiveCircle
    kind: str
    height: int
    word: Tuple[str, ...]
    source: str


@dataclass
class Packing:
    config: Configuration
    mode: str
    limits: GenerationLimits
    circles: List[PackedCircle]

    def __len__(self) -> int:
        return len(self.circles)

    def __iter__(self):
        return iter(self.circles)

    def find(self, circle: InversiveCircle) -> Optional[PackedCircle]:
        quotient = self.mode != "packing"
        index = getattr(self, "_index", None)
        if index is None:
            index = {_lookup_key(p.circle, quotient): p for p in self.circles}
            self._index = index
        return index.get(_lookup_key(circle, quotient))

    def height_of(self, circle: InversiveCircle) -> int:
        hit = self.find(circle)
        if hit is None:
            raise KeyError(
                "circle is not part of the generated packing "
                f"(center ~ {circle.center() if not circle.is_line else 'line'})"
            )
        return hit.height


# ---------------------------------------------------------------------------
# scalar helpers


def _scalar_is_zero(x) -> bool:
    if isinstance(x, QuadExt):
        return x.sign() == 0
    return abs(float(x)) < 1e-9


def _float_key(c: InversiveCircle) -> Tuple[float, float, float, float]:
    return tuple(round(as_float(x), 9) for x in c.key())


def _lookup_key(c: InversiveCircle, quotient: bool):
    """Dedup key: exact coordinates when available, a rounded grid for
    floats; quotient keys identify the two orientations of a circle."""
    k = c.key() if c.is_exact else _float_key(c)
    if quotient:
        for x in k:
            s = x.sign() if isinstance(x, QuadExt) else (0 if x == 0 else math.copysign(1, x))
            if s < 0:
                return tuple(-v for v in k)
            if s > 0:
                return k
    return k


# ---------------------------------------------------------------------------
# catalogs and margins


def _motif_max_radius(cfg: Configuration, kinds: Sequence[str]) -> float:
    r_max = 0.0
    for kind in kinds:
        motif = cfg.motif_base if kind == "base" else cfg.motif_dual
        for c in motif:
            if not c.is_line:
                r_max = max(r_max, abs(c.radius()))
    return r_max


def _pad_schedule(src, mirror_r: float, rho: float, levels: int, descending: bool) -> list:
    """Minkowski pads for a circle of radius ``src`` (a float or an array)
    with ``levels`` reflections still to come.

    Entry k is the pad of its descendants k reflections down, and entry
    ``levels`` is 0: a circle matters only if its disk comes within
    entry 0 of the window.  A source of radius r can place an image of
    radius >= rho across a mirror of radius at most ``mirror_r`` only
    when its disk comes within sqrt(R^2 r / rho + r^2) + R + r of the
    window the image must meet, which gives the step of each reflection.
    In the descending modes every reflection shrinks the radius to at
    most R r / (R + 2 r), so the steps shrink with it; otherwise they
    stay at the radius ``src``.  The bound is monotone in ``src``, so a
    larger radius always gets the larger pad.
    """
    steps = []
    for _ in range(levels):
        steps.append(np.sqrt(mirror_r**2 * src / rho + src**2) + mirror_r + src + 1e-9)
        if descending:
            src = mirror_r * src / (mirror_r + 2.0 * src) * (1.0 + 1e-5)
    pads = [0.0] * (levels + 1)
    for k in range(levels - 1, -1, -1):
        pads[k] = pads[k + 1] + steps[k]
    return pads


def _margin_schedule(cfg: Configuration, mode: str, limits: GenerationLimits) -> List[float]:
    """Worst-case pads of the catalog and of every BFS level.

    ``_pad_schedule`` at the largest motif radius of the seed kinds:
    pads[k] covers every circle kept at level k, and pads[0] is the
    catalog pad for seeds and mirrors.  Super mode keeps rows over these
    pads, which only cover chains whose intermediate circles stay at
    motif scale; the descending modes keep each row over its own pad,
    ``_pad_schedule`` at its own radius, which pads[k] bounds.
    """
    pads = _pad_schedule(
        _motif_max_radius(cfg, _SEED_KINDS[mode]),
        _motif_max_radius(cfg, _MIRROR_KINDS[mode]),
        limits.min_radius,
        limits.max_height,
        mode != "super",
    )
    return [float(p) for p in pads]


def _catalog(cfg: Configuration, kinds: Sequence[str], w: Window, pad: float) -> Catalog:
    return Catalog.concat([cfg.catalog(kind, w, "meets", expand=pad) for kind in kinds])


# ---------------------------------------------------------------------------
# object peeling (heights and witness words of the object lane)


_PEEL_STEPS = 96


def _seed_id(cfg: Configuration, c: InversiveCircle, kind: str, quotient: bool):
    ident = cfg.contains_circle(c, kind)
    if ident is None and quotient:
        ident = cfg.contains_circle(c.reversed(), kind)
    return ident


class _PeelIndex:
    """Spatial lookup over the cataloged duals for the object lane.

    Peeling retraces discovery chains, and every circle on such a chain
    sits inside its discovery mirror, so the containing dual is always in
    the mirror catalog; a float center/radius prefilter narrows the
    candidates before the exact containment test.  The array lane peels
    its rows in one batch instead (``_ArrayLane.peel``).
    """

    def __init__(self, duals: Sequence[GeneratorCircle]):
        self.duals = [
            g
            for g in duals
            if not g.circle.is_line and as_float(g.circle.curvature) > 0
        ]
        geo = [(g.circle.center(), abs(g.circle.radius())) for g in self.duals]
        self.d_cx = np.array([c[0] for c, _ in geo] or [0.0])
        self.d_cy = np.array([c[1] for c, _ in geo] or [0.0])
        self.d_r = np.array([r for _, r in geo] or [0.0])

    def host(self, c: InversiveCircle) -> Optional[GeneratorCircle]:
        """The unique dual whose disk contains c, or None."""
        if c.is_line or as_float(c.curvature) <= 0:
            return None
        if not self.duals:
            return None
        (cx, cy), r = c.center(), abs(c.radius())
        slack = self.d_r - r + 1e-6
        cand = (slack > 0) & (
            (self.d_cx - cx) ** 2 + (self.d_cy - cy) ** 2 <= slack**2
        )
        hosts: List[GeneratorCircle] = []
        for i in np.nonzero(cand)[0]:
            g = self.duals[i]
            prod = inversive_product(c, g.circle)
            if prod >= 1 and c.curvature >= g.circle.curvature:
                if c.key() != g.circle.key():
                    hosts.append(g)
        if not hosts:
            return None
        if len(hosts) > 1:
            raise ArithmeticError(
                f"circle at ~{c.center()} sits inside {len(hosts)} duals; "
                "the dual family is not disjoint"
            )
        return hosts[0]


def _peel(
    cfg: Configuration,
    circle: InversiveCircle,
    seed_kind: str,
    quotient: bool,
    index: _PeelIndex,
) -> Tuple[GroupWord, str]:
    word: GroupWord = []
    cur = circle
    for _ in range(_PEEL_STEPS):
        ident = _seed_id(cfg, cur, seed_kind, quotient)
        if ident is not None:
            return word, ident
        host = index.host(cur)
        if host is None:
            raise ArithmeticError(
                "peeling reached a circle that is neither a seed nor "
                f"inside any dual (center ~ {cur.center()})"
            )
        word.append(host.ident)
        cur = reflect(host.circle, cur)
    raise ArithmeticError(f"peeling did not terminate in {_PEEL_STEPS} steps")


# ---------------------------------------------------------------------------
# lattice-typed integer rows


# Coordinates are ordered (co-curvature, curvature, h1, h2); the inversive
# product is <v, w> = sum_j _PRODUCT[j] * v[j] * w[_SWAP[j]].
_SWAP = np.array([1, 0, 2, 3])
_PRODUCT = (Fraction(-1, 2), Fraction(-1, 2), 1, 1)

# Every int64 product is preceded by a float bound on its sum of absolute
# terms (as in ``arithmetic.sweep_relation_words``); staying a factor two
# below 2^63 absorbs the rounding of the bound itself.
_INT64_BUDGET = 2.0**62


class LatticeOverflowError(ArithmeticError):
    """Integer lattice rows, or the 1e-9 grid keys of float rows, would
    leave the int64 range.

    ``mirror`` is the id of the mirror whose action would overflow, of the
    catalogued circle whose translated row would, or of the mirror (the
    seed, at level 0) that produced a float row whose grid key would;
    ``magnitude`` is the bound on the offending value that tripped the
    guard.
    """

    def __init__(self, mirror: str, magnitude: float) -> None:
        super().__init__(
            f"integer coordinates at {mirror} would reach ~{magnitude:.3g}, "
            "beyond the int64 range; move the window nearer the origin"
        )
        self.mirror = mirror
        self.magnitude = magnitude


def _guard(bound: np.ndarray, idents: Union[str, Sequence[str]]) -> None:
    """Raise LatticeOverflowError if any bound reaches the int64 budget;
    ``idents`` names the circle of each bound, or of all of them."""
    if not bound.size:
        return
    i = int(np.argmax(bound))
    if bound[i] >= _INT64_BUDGET:
        ident = idents if isinstance(idents, str) else idents[i]
        raise LatticeOverflowError(ident, float(bound[i]))


def _abs_f(a: np.ndarray) -> np.ndarray:
    return np.abs(a.astype(np.float64))


def _as_floats(ints: np.ndarray, scale: QuadExt) -> np.ndarray:
    """``as_float(k * scale)`` for each integer k of ``ints``, bit for bit.

    Where the scale is a positive integer and every product fits the
    float64 mantissa, that is the product of the casts; otherwise it is
    the quotient of Python integers that ``QuadExt.__float__`` rounds.
    """
    flat = ints.ravel()
    if scale.is_integer() and scale.a > 0:
        if not flat.size or int(np.abs(flat).max()) * scale.a <= 2**53:
            return ints.astype(np.float64) * float(scale.a)
    num, den = scale.float_terms()
    return np.array([k * num / den for k in flat.tolist()], dtype=np.float64).reshape(ints.shape)


def _slot_table(cfg: Configuration) -> Optional[Dict[str, Tuple[QuadExt, ...]]]:
    one = QuadExt(1, 0, 1, cfg.d)
    if cfg.name == "square":
        return {"base": (one,) * 4, "dual": (one,) * 4}
    if cfg.d != 3:
        return None
    s3 = QuadExt.sqrt_d(3)
    if cfg.name == "triangular":
        return {"base": (one, one, one, s3), "dual": (s3, s3, s3, one)}
    if cfg.name == "hexagonal":
        return {"base": (3 * one, one, s3, one), "dual": (s3, s3 / 3, one, s3)}
    return None


def _int_coords(c: InversiveCircle, slots: Tuple[QuadExt, ...]) -> Optional[List[int]]:
    out: List[int] = []
    for x, s in zip(c.key(), slots):
        if not isinstance(x, QuadExt):
            return None
        q = x / s
        if not q.is_integer():
            return None
        out.append(q.as_integer())
    return out


def _reflection_matrix(mirror: InversiveCircle) -> List[List[QuadExt]]:
    """Matrix of v -> v - 2<v,m>m in (co-curvature, curvature, h1, h2)."""
    m = mirror.key()
    qm = (-m[1] / 2, -m[0] / 2, m[2], m[3])
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            val = -2 * (m[i] * qm[j])
            if i == j:
                val = val + 1
            row.append(val)
        rows.append(row)
    return rows


def _translation_coefficients(
    cfg: Configuration, slots: Tuple[QuadExt, ...]
) -> np.ndarray:
    """Integer matrices C[k] with sum_k mono_k(m, n) C[k] the translation by
    m v1 + n v2 in slot coordinates, for the monomials 1, m, n, m^2, mn, n^2.

    A translation by t keeps b, adds t b to h and adds 2 t.h + |t|^2 b to
    the co-curvature.  Each coefficient is checked integral once, so every
    lattice translate of an integral motif row is integral.
    """
    zero = QuadExt(0, 0, 1, cfg.d)
    v1, v2 = cfg.lattice if cfg.lattice is not None else ((zero, zero),) * 2
    real = [[[zero] * 4 for _ in range(4)] for _ in range(6)]
    for i in range(4):
        real[0][i][i] = zero + 1
    for k, v in ((1, v1), (2, v2)):
        real[k][0][2], real[k][0][3] = 2 * v[0], 2 * v[1]
        real[k][2][1], real[k][3][1] = v[0], v[1]
    real[3][0][1] = v1[0] * v1[0] + v1[1] * v1[1]
    real[4][0][1] = 2 * (v1[0] * v2[0] + v1[1] * v2[1])
    real[5][0][1] = v2[0] * v2[0] + v2[1] * v2[1]
    out = np.zeros((6, 4, 4), dtype=np.int64)
    for k in range(6):
        for i in range(4):
            for j in range(4):
                entry = real[k][i][j] * slots[j] / slots[i]
                if not entry.is_integer():
                    raise ArithmeticError(
                        "lattice translation does not preserve the integer lattice"
                    )
                out[k, i, j] = entry.as_integer()
    return out


def _generator_rows(
    cfg: Configuration, slots: Dict[str, Tuple[QuadExt, ...]], gens: Catalog
) -> np.ndarray:
    """int64 rows of catalogued circles, each in its own kind's slots: the
    motif row times the lattice-translation matrix of its shift."""
    out = np.zeros((len(gens), 4), dtype=np.int64)
    for kind in ("base", "dual"):
        sel = np.nonzero(gens.kind == kind)[0]
        if not len(sel):
            continue
        motif = []
        for i, c in enumerate(cfg.motif(kind)):
            coords = _int_coords(c, slots[kind])
            if coords is None:
                raise ArithmeticError(
                    f"motif circle {kind} {i} does not fit the integer lattice"
                )
            motif.append(coords)
        u = np.array(motif, dtype=np.int64)[gens.index[sel]]
        m, n = gens.shift[sel, 0], gens.shift[sel, 1]
        mono = np.stack([np.ones_like(m), m, n, m * m, m * n, n * n], axis=1)
        coef = _translation_coefficients(cfg, slots[kind])
        bound = np.einsum("nk,kij,nj->ni", _abs_f(mono), _abs_f(coef), _abs_f(u))
        _guard(bound.max(axis=1), [gens.idents[i] for i in sel.tolist()])
        out[sel] = np.einsum("nk,kij,nj->ni", mono, coef, u)
    return out


def _reflection_matrices(
    slots: Dict[str, Tuple[QuadExt, ...]],
    row_kind: str,
    mirrors: Catalog,
    mirror_rows: np.ndarray,
) -> np.ndarray:
    """int64 matrices (n, 4, 4) of the mirrors' reflections on rows typed by
    ``slots[row_kind]``, from the mirrors' own integer rows w.

    Entry (i, j) is delta_ij - K_ij w_i w_swap(j) with 16 coefficients
    K_ij = 2 _PRODUCT[j] s'_i s'_swap(j) s_j / s_i fixed by the row slots s
    and mirror slots s'; each entry must divide out exactly.
    """
    out = np.zeros((len(mirrors), 4, 4), dtype=np.int64)
    for mkind in ("base", "dual"):
        sel = np.nonzero(mirrors.kind == mkind)[0]
        if not len(sel):
            continue
        s, sm = slots[row_kind], slots[mkind]
        num = np.zeros((4, 4), dtype=np.int64)
        den = np.ones((4, 4), dtype=np.int64)
        for i in range(4):
            for j in range(4):
                k = 2 * _PRODUCT[j] * sm[i] * sm[_SWAP[j]] * s[j] / s[i]
                if not k.is_rational:
                    raise ArithmeticError(
                        "mirror action does not preserve the integer lattice"
                    )
                f = k.as_fraction()
                num[i, j], den[i, j] = f.numerator, f.denominator
        w = mirror_rows[sel]
        wf = _abs_f(w)
        bound = wf[:, :, None] * wf[:, None, _SWAP] * _abs_f(num)
        _guard(bound.max(axis=(1, 2)), [mirrors.idents[i] for i in sel.tolist()])
        prod = w[:, :, None] * w[:, None, _SWAP] * num
        if (prod % den).any():
            raise ArithmeticError("mirror action does not preserve the integer lattice")
        out[sel] = np.eye(4, dtype=np.int64) - prod // den
    return out


@dataclass(frozen=True)
class _ProductTable:
    """Exact containment test on integer rows u (row slots s) and w (mirror
    slots s').

    <u, w> = lam N / 2 with N = sum_j coef_j u_j w_swap(j) an integer and
    lam^2 = lam2 in {1, d}, so <u, w> >= 1 iff N > 0 and lam2 N^2 >= 4.
    For positive curvatures, b_u >= b_w iff cu u_1^2 >= cw w_1^2.
    """

    coef: np.ndarray
    lam2: int
    cu: int
    cw: int

    @classmethod
    def build(cls, s: Tuple[QuadExt, ...], sm: Tuple[QuadExt, ...]) -> "_ProductTable":
        g = [_PRODUCT[j] * s[j] * sm[_SWAP[j]] for j in range(4)]
        d = s[0].d
        if all(x.b == 0 for x in g):
            lam, lam2 = QuadExt(1, 0, 1, d), 1
        elif all(x.a == 0 for x in g):
            lam, lam2 = QuadExt.sqrt_d(d), d
        else:
            raise ArithmeticError("inversive products leave the integer lattice")
        coef = [2 * x / lam for x in g]
        bu, bw = s[1] * s[1], sm[1] * sm[1]
        if not all(x.is_integer() for x in coef) or not (bu.is_rational and bw.is_rational):
            raise ArithmeticError("inversive products leave the integer lattice")
        fu, fw = bu.as_fraction(), bw.as_fraction()
        return cls(
            np.array([x.as_integer() for x in coef], dtype=np.int64),
            lam2,
            fu.numerator * fw.denominator,
            fw.numerator * fu.denominator,
        )

    def inside(self, u: np.ndarray, w: np.ndarray, idents: Sequence[str]) -> np.ndarray:
        """Whether each circle u lies inside, and differs from, its mirror w."""
        ws = w[:, _SWAP]
        bound = np.maximum(
            (_abs_f(u) * _abs_f(ws)) @ _abs_f(self.coef),
            np.maximum(self.cu * _abs_f(u[:, 1]) ** 2, self.cw * _abs_f(w[:, 1]) ** 2),
        )
        _guard(bound, idents)
        n = (u * ws) @ self.coef
        nc = np.minimum(n, 3)  # lam2 >= 1, so every n >= 2 clears the bar
        cmp = self.cu * u[:, 1] * u[:, 1] - self.cw * w[:, 1] * w[:, 1]
        tangent = self.lam2 * nc * nc == 4
        return (n > 0) & (self.lam2 * nc * nc >= 4) & (cmp >= 0) & ~(tangent & (cmp == 0))


def _box_pairs(a: np.ndarray, b: np.ndarray, reach: float) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of 2-d points with a[i] and b[j] within ``reach``
    in both coordinates, plus some farther ones.

    A uniform-grid join: points are binned in cells at least ``reach``
    wide and each a[i] meets the b points of its 3 x 3 cell block, so no
    dense a-by-b array is formed.
    """
    if not len(a) or not len(b):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    lo = np.minimum(a.min(axis=0), b.min(axis=0))
    extent = float((np.maximum(a.max(axis=0), b.max(axis=0)) - lo).max())
    # at most 2^24 cells a side keeps the combined cell key in int64
    cell = max(reach, extent / 2**24, 1e-300)
    ca = np.floor((a - lo) / cell).astype(np.int64) + 1
    cb = np.floor((b - lo) / cell).astype(np.int64) + 1
    width = int(max(ca[:, 1].max(), cb[:, 1].max())) + 2
    kb = cb[:, 0] * width + cb[:, 1]
    order = np.argsort(kb, kind="stable")
    kb = kb[order]
    ia, ib = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            ka = (ca[:, 0] + dx) * width + ca[:, 1] + dy
            start = np.searchsorted(kb, ka, "left")
            count = np.searchsorted(kb, ka, "right") - start
            first = np.repeat(np.cumsum(count) - count, count)
            ia.append(np.repeat(np.arange(len(a)), count))
            ib.append(order[np.repeat(start, count) + np.arange(first.size) - first])
    return np.concatenate(ia), np.concatenate(ib)


# ---------------------------------------------------------------------------
# breadth-first search lanes


@dataclass
class _Found:
    circle: InversiveCircle
    level: int
    word: GroupWord  # peeled in the descending modes, discovery chain in super
    source: Optional[str]


@dataclass
class _Finals:
    """The circles a lane returns, in lane order, with their BFS levels,
    words and seeds.  ``key`` holds ``as_float`` of each circle's
    (curvature, h1, h2, co-curvature), bit for bit: the output order
    after the level."""

    circles: List[InversiveCircle]
    level: np.ndarray
    words: List[GroupWord]
    sources: List[str]
    key: np.ndarray

    @classmethod
    def concat(cls, parts: Sequence["_Finals"]) -> "_Finals":
        return cls(
            [c for p in parts for c in p.circles],
            np.concatenate([p.level for p in parts] + [np.zeros(0, dtype=np.int64)]),
            [w for p in parts for w in p.words],
            [s for p in parts for s in p.sources],
            np.concatenate([p.key for p in parts] + [np.zeros((0, 4))]),
        )


def _canonical_sign(rows: np.ndarray) -> np.ndarray:
    s = np.sign(rows[:, 0])
    for j in (1, 2, 3):
        undecided = s == 0
        if not undecided.any():
            break
        s[undecided] = np.sign(rows[undecided, j])
    s[s == 0] = 1
    return s


def _center_text(fv: np.ndarray) -> str:
    if fv[1] == 0:
        return "line"
    return f"({fv[2] / fv[1]}, {fv[3] / fv[1]})"


@dataclass
class _Chunk:
    """The rows one BFS level added for one kind.  ``parent`` indexes the
    kind's rows in storage order, ``via`` the mirrors and ``seed`` the
    seed catalog; each is -1 where it does not apply."""

    level: int
    rows: np.ndarray
    parent: np.ndarray
    via: np.ndarray
    seed: np.ndarray


# a dedup key: kind index and the four canonical int64 coordinates
_KEY = np.dtype((np.void, 5 * 8))


class _ArrayLane:
    """BFS over numpy rows: int64 rows scaled by per-kind slots, or raw
    float64 rows with grid deduplication.  Each level joins its frontier to
    the mirror centers once and deduplicates once.  In the descending modes
    all kept rows are peeled together by ``peel``."""

    def __init__(
        self,
        cfg: Configuration,
        mode: str,
        limits: GenerationLimits,
        mirrors: Catalog,
        seeds: Catalog,
        slots: Optional[Dict[str, Tuple[QuadExt, ...]]],
        pads: List[float],
    ) -> None:
        self.cfg = cfg
        self.mode = mode
        self.limits = limits
        self.mirrors = mirrors
        self.slots = slots
        self.pads = pads
        self.pad_mirror_r = _motif_max_radius(cfg, _MIRROR_KINDS[mode])
        self.quotient = mode != "packing"
        self.exact = slots is not None
        self.kinds = list(_SEED_KINDS[mode])
        # float rows of a configuration with a slot table come from its
        # integer rows too, converted as ``as_float`` converts the circles
        self.table = slots if slots is not None else _slot_table(cfg)
        if slots is not None:
            self.slot_f = {
                k: np.array([float(s) for s in slots[k]]) for k in ("base", "dual")
            }
        else:
            self.slot_f = {k: np.ones(4) for k in ("base", "dual")}

        # per kind: the level chunks in storage order; keys of every stored row
        self.chunks: Dict[str, List[_Chunk]] = {k: [] for k in self.kinds}
        self.seen = np.zeros(0, dtype=_KEY)

        # Mirrors: float rows for the masks and geometry, plus, in the exact
        # lane, integer rows and every reflection matrix.  Float matrices
        # are the integer ones on unscaled coordinates where a slot table
        # exists, else converted from the exact circles on first use.
        self.mirror_ids = np.array(mirrors.idents, dtype=object)
        int_mirrors = None if self.table is None else _generator_rows(cfg, self.table, mirrors)
        self.mirror_rows = self._catalog_rows(mirrors, int_mirrors)
        self.mirror_vec = self._float_rows(self.mirror_rows, mirrors.kind)
        mv = self.mirror_vec
        # <v, m> = v . mirror_q for a float row v
        self.mirror_q = np.column_stack([-mv[:, 1] / 2.0, -mv[:, 0] / 2.0, mv[:, 2], mv[:, 3]])
        self.mats: Dict[str, np.ndarray] = {}
        self.mat_colmax: Dict[str, np.ndarray] = {}
        self.float_mats: Dict[int, np.ndarray] = {}
        if self.exact:
            for k in self.kinds:
                self.mats[k] = _reflection_matrices(slots, k, mirrors, self.mirror_rows)
                self.mat_colmax[k] = _abs_f(self.mats[k]).max(axis=1)
        elif self.table is not None:
            k = self.kinds[0]
            mats = _reflection_matrices(self.table, k, mirrors, int_mirrors)
            s = self.table[k]
            flt = np.empty(mats.shape)
            for i in range(4):
                for j in range(4):
                    flt[:, i, j] = _as_floats(mats[:, i, j], s[i] / s[j])
            self.float_mats = dict(enumerate(flt))
        b = mv[:, 1]
        self.mirror_circle = np.abs(b) > 1e-9
        with np.errstate(divide="ignore", invalid="ignore"):
            self.mirror_cx = mv[:, 2] / b
            self.mirror_cy = mv[:, 3] / b
            self.mirror_r = np.abs(1.0 / b)

        # Seeds: all catalogued seeds key the peel; those under the radius
        # floor do not start the search.
        self.seed_ids = seeds.idents
        self.seed_kinds = seeds.kind
        int_seeds = None if self.table is None else _generator_rows(cfg, self.table, seeds)
        self.seed_rows = self._catalog_rows(seeds, int_seeds)
        sb = self._float_rows(self.seed_rows, seeds.kind)[:, 1]
        with np.errstate(divide="ignore"):
            root = (np.abs(sb) <= 1e-9) | (np.abs(1.0 / sb) >= limits.min_radius)
        batch = []
        for k in self.kinds:
            sel = np.nonzero(root & (self.seed_kinds == k))[0]
            none = np.full(len(sel), -1, dtype=np.intp)
            batch.append((k, self.seed_rows[sel], none, none, sel))
        self._admit(0, batch)

    # -- plumbing ------------------------------------------------------

    def _catalog_rows(self, gens: Catalog, ints: Optional[np.ndarray]) -> np.ndarray:
        """The lane's rows of catalogued circles from their integer rows
        ``ints`` (None without a slot table): those rows themselves in the
        exact lane, else ``as_float`` of the exact coordinates."""
        if self.exact:
            return ints
        if ints is None:
            return np.array(
                [[as_float(x) for x in g.circle.key()] for g in gens], dtype=np.float64
            ).reshape(-1, 4)
        out = np.empty(ints.shape)
        for kind in ("base", "dual"):
            sel = np.nonzero(gens.kind == kind)[0]
            for j, s in enumerate(self.table[kind]):
                out[sel, j] = _as_floats(ints[sel, j], s)
        return out

    def _float_rows(self, rows: np.ndarray, kinds: np.ndarray) -> np.ndarray:
        if not self.exact:
            return rows
        scale = np.where((kinds == "base")[:, None], self.slot_f["base"], self.slot_f["dual"])
        return rows.astype(np.float64) * scale

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """Canonical rows: the rows themselves on integers, a 1e-9 grid
        (still float) on floats; quotient keys identify the orientations."""
        canon = rows if self.exact else np.round(rows * 1e9)
        if self.quotient:
            canon = canon * _canonical_sign(canon)[:, None]
        return canon

    def _admit(self, level: int, batch: Sequence[tuple]) -> None:
        """Store the rows of ``batch`` that are new to the search as one
        chunk per kind, keeping for each key its first row in batch order.

        ``batch`` holds (kind, rows, parent, via, seed) in discovery order
        (kind, mirror, frontier row), which fixes the float representative
        of each grid key and the discovery chains of super mode.  Float
        grid keys beyond int64 raise LatticeOverflowError.
        """
        keys = []
        for kind, rows, _, via, seed in batch:
            canon = self._keys(rows)
            if not self.exact:
                names = self.mirror_ids[via] if level else [self.seed_ids[i] for i in seed]
                _guard(np.abs(canon).max(axis=1, initial=0.0), names)
            key = np.empty((len(rows), 5), dtype=np.int64)
            key[:, 0] = self.kinds.index(kind)
            key[:, 1:] = canon
            keys.append(key)
        flat = np.concatenate(keys).view(_KEY).ravel()
        uniq, first = np.unique(flat, return_index=True)
        pos = np.searchsorted(self.seen, uniq)
        old = pos < len(self.seen)
        old[old] = self.seen[pos[old]] == uniq[old]
        self.seen = np.insert(self.seen, pos[~old], uniq[~old])
        fresh = np.sort(first[~old])
        lo = 0
        for kind, rows, parent, via, seed in batch:
            hi = lo + len(rows)
            sel = fresh[np.searchsorted(fresh, lo) : np.searchsorted(fresh, hi)] - lo
            lo = hi
            if len(sel):
                self.chunks[kind].append(
                    _Chunk(level, rows[sel], parent[sel], via[sel], seed[sel])
                )

    def _float_view(self, rows: np.ndarray, kind: str) -> np.ndarray:
        return rows.astype(np.float64) * self.slot_f[kind]

    def _float_matrix(self, gi: int) -> np.ndarray:
        mat = self.float_mats.get(gi)
        if mat is None:
            mat = np.array(
                [
                    [as_float(x) for x in row]
                    for row in _reflection_matrix(self.mirrors[gi].circle)
                ]
            )
            self.float_mats[gi] = mat
        return mat

    def _int_images(self, kind: str, rows: np.ndarray, via: np.ndarray) -> np.ndarray:
        """Each integer row reflected in its mirror ``via``, guarded."""
        bound = (_abs_f(rows) * self.mat_colmax[kind][via]).sum(axis=1)
        _guard(bound, self.mirror_ids[via])
        return np.einsum("nij,nj->ni", self.mats[kind][via], rows)

    def _kept(self, fv: np.ndarray, level: int) -> np.ndarray:
        """Which float rows a level keeps: radius >= rho and a disk meeting
        the window padded for the levels below, by each row's own pad in
        the descending modes.  Level H is the window itself."""
        lim = self.limits
        b = fv[:, 1]
        ok = b != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(1.0 / b)
            cx = fv[:, 2] / b
            cy = fv[:, 3] / b
            if self.mode == "super":
                pad = self.pads[level]
            else:
                pad = _pad_schedule(
                    r, self.pad_mirror_r, lim.min_radius, lim.max_height - level, True
                )[0]
            ok &= r >= lim.min_radius - 1e-12
            ok &= self._gap2(cx, cy, pad) <= r * r
        return ok

    def _gap2(self, cx: np.ndarray, cy: np.ndarray, pad) -> np.ndarray:
        """Squared distance of each point to the window grown by ``pad``."""
        w = self.limits.window
        dx = np.maximum(np.maximum(w.x0 - pad - cx, 0.0), cx - (w.x1 + pad))
        dy = np.maximum(np.maximum(w.y0 - pad - cy, 0.0), cy - (w.y1 + pad))
        return dx * dx + dy * dy

    # -- expansion -----------------------------------------------------

    def run(self) -> None:
        for level in range(1, self.limits.max_height + 1):
            live = self._live_mirrors(level)
            batch = []
            for kind in self.kinds:
                chunks = self.chunks[kind]
                if not chunks or chunks[-1].level != level - 1:
                    continue
                front = chunks[-1]
                rows, src, via = self._images(kind, front.rows, live, level)
                start = sum(len(c.rows) for c in chunks[:-1])
                batch.append((kind, rows, src + start, via, np.full(len(rows), -1)))
            if not batch:
                break
            self._admit(level, batch)

    def _live_mirrors(self, level: int) -> np.ndarray:
        # In descending modes the source sits outside the mirror, so the
        # image curve lands inside the closed mirror disk; a mirror whose
        # disk misses the level's worst-case window cannot contribute a
        # kept row.
        if self.mode == "super":
            return np.arange(len(self.mirrors))
        rad = self.mirror_r * (1.0 + 1e-6) + 1e-9
        with np.errstate(invalid="ignore"):
            live = self._gap2(self.mirror_cx, self.mirror_cy, self.pads[level]) <= rad * rad
        return np.nonzero(live | ~self.mirror_circle)[0]

    def _pairs(self, fv: np.ndarray, live: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(row, mirror) pairs of a frontier that can give an image of
        radius >= rho, ordered by mirror, then row.

        A source of radius r gives an image of radius >= rho across a
        mirror of radius R only from within sqrt(R^2 r / rho + r^2) of the
        mirror center.  Rows are bucketed by that reach at the largest
        live radius, in quarter octaves, and each bucket is joined to the
        mirror centers on a grid of its largest reach, which keeps the
        3 x 3 cell blocks of the join tight; each pair is then held to the
        bound at its own mirror's radius, with 1e-6 slack.  Line rows and
        line mirrors pair with everything.
        """
        floor = self.limits.min_radius * (1.0 - 1e-6)
        b = fv[:, 1]
        circle = np.abs(b) > 1e-9
        rows = np.nonzero(circle)[0]
        r = np.abs(1.0 / b[rows])
        cx, cy = fv[rows, 2] / b[rows], fv[rows, 3] / b[rows]
        disks = live[self.mirror_circle[live]]
        line_mirrors = live[~self.mirror_circle[live]]
        ri, mi = [], []
        if len(rows) and len(disks):
            r_max = float(self.mirror_r[disks].max())
            reach = np.sqrt(r_max * r_max * r / floor + r * r) * (1.0 + 1e-6)
            centers = np.column_stack([self.mirror_cx[disks], self.mirror_cy[disks]])
            scale = np.ceil(4.0 * np.log2(reach))
            for e in np.unique(scale):
                sel = np.nonzero(scale == e)[0]
                a, m = _box_pairs(np.column_stack([cx[sel], cy[sel]]), centers, reach[sel].max())
                i, j = sel[a], disks[m]
                d2 = (cx[i] - self.mirror_cx[j]) ** 2 + (cy[i] - self.mirror_cy[j]) ** 2
                rr = self.mirror_r[j]
                near = d2 <= (rr * rr * r[i] / floor + r[i] * r[i]) * (1.0 + 1e-6)
                ri.append(rows[i[near]])
                mi.append(j[near])
        line_rows = np.nonzero(~circle)[0]
        ri += [np.repeat(line_rows, len(live)), np.tile(rows, len(line_mirrors))]
        mi += [np.tile(live, len(line_rows)), np.repeat(line_mirrors, len(rows))]
        ri, mi = np.concatenate(ri), np.concatenate(mi)
        order = np.argsort(mi * len(fv) + ri)
        return ri[order], mi[order]

    def _images(
        self, kind: str, front: np.ndarray, live: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The images a level keeps, with their frontier rows and mirrors,
        in discovery order."""
        fv = self._float_view(front, kind)
        src, via = self._pairs(fv, live)
        p = np.einsum("ij,ij->i", fv[src], self.mirror_q[via])
        if self.mode == "super":
            mask = np.abs(p) > 1e-7
        else:
            mask = p <= -1.0 + 1e-6
        # Predict the image radius before paying for the product.  The image
        # curvature is b - 2 p m_b exactly, so pairs whose image would fall
        # under the radius floor are dropped here with a loose tolerance;
        # the exact post-filter below stays authoritative.
        floor = self.limits.min_radius * (1.0 - 1e-6)
        mask &= np.abs(fv[src, 1] - 2.0 * p * self.mirror_vec[via, 1]) * floor <= 1.0
        src, via = src[mask], via[mask]
        if self.exact:
            img = self._int_images(kind, front[src], via)
        else:
            # float rows: one matrix product per mirror, which fixes their rounding
            img = np.empty((len(src), 4))
            starts = np.flatnonzero(np.diff(via, prepend=-1)).tolist()
            for s, e in zip(starts, starts[1:] + [len(via)]):
                img[s:e] = front[src[s:e]] @ self._float_matrix(int(via[s])).T
        ok = self._kept(self._float_view(img, kind), level)
        return img[ok], src[ok], via[ok]

    # -- batched peel ----------------------------------------------------

    def peel(self, kind: str, rows: np.ndarray) -> Tuple[List[GroupWord], List[str]]:
        """Peel every row back to a seed at once.

        Each step looks the rows up among the catalogued seeds (by row key
        on integers, within 1e-6 on floats), finds each remaining row's
        host dual with a center/radius prefilter confirmed on the rows, and
        reflects it out of its host.  Float rows follow ``_peel``'s float
        arithmetic step for step.
        """
        words: List[GroupWord] = [[] for _ in range(len(rows))]
        sources = [""] * len(rows)
        seed_hits = self._seed_lookup(kind)
        host_of = self._host_lookup(kind)
        ids = self.mirror_ids
        active = np.arange(len(rows))
        cur = rows
        for _ in range(_PEEL_STEPS):
            hit = seed_hits(cur)
            done = hit >= 0
            for i, s in zip(active[done].tolist(), hit[done].tolist()):
                sources[i] = self.seed_ids[s]
            active, cur = active[~done], cur[~done]
            if not len(active):
                return words, sources
            host, prod = host_of(cur)
            for i, ident in zip(active.tolist(), ids[host].tolist()):
                words[i].append(ident)
            if self.exact:
                cur = self._int_images(kind, cur, host)
            else:
                # v - 2<v, m> m, as ``reflect`` computes it
                cur = cur - (2 * prod)[:, None] * self.mirror_vec[host]
        raise ArithmeticError(f"peeling did not terminate in {_PEEL_STEPS} steps")

    def _seed_lookup(self, kind: str) -> Callable[[np.ndarray], np.ndarray]:
        """Index into the seed catalog of each row's seed, or -1."""
        sel = np.nonzero(self.seed_kinds == kind)[0]
        rows = self.seed_rows[sel]
        if self.exact:
            table: Dict[bytes, int] = {}
            for key, i in zip(self._keys(rows), sel.tolist()):
                table.setdefault(key.tobytes(), i)
            return lambda cur: np.array(
                [table.get(key.tobytes(), -1) for key in self._keys(cur)], dtype=np.intp
            )
        # quotient keys also match the reversed seed, as -seed
        signed = np.concatenate([rows, -rows]) if self.quotient else rows
        owner = np.concatenate([sel, sel]) if self.quotient else sel

        def lookup(cur: np.ndarray) -> np.ndarray:
            out = np.full(len(cur), len(self.seed_ids), dtype=np.intp)
            ri, si = _box_pairs(cur[:, 2:], signed[:, 2:], 1e-6)
            hit = (np.abs(signed[si] - cur[ri]).max(axis=1) <= 1e-6) & (
                np.abs(cur[ri, 1]) > 1e-9
            )
            np.minimum.at(out, ri[hit], owner[si[hit]])
            out[out == len(self.seed_ids)] = -1
            return out

        return lookup

    def _host_lookup(self, kind: str):
        """Function mapping rows to (host mirror index, <row, host>); the
        product is returned for float rows only."""
        elig = np.nonzero(self.mirror_circle & (self.mirror_vec[:, 1] > 0))[0]
        d_cx, d_cy, d_r = self.mirror_cx[elig], self.mirror_cy[elig], self.mirror_r[elig]
        centers = np.column_stack([d_cx, d_cy])
        reach = (float(d_r.max()) + 1e-6) * (1.0 + 1e-9) if len(elig) else 0.0
        table = None
        if self.exact:
            mkind = _MIRROR_KINDS[self.mode][0]
            table = _ProductTable.build(self.slots[kind], self.slots[mkind])

        def host_of(cur: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
            fv = self._float_view(cur, kind)
            b = fv[:, 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                cx, cy, r = fv[:, 2] / b, fv[:, 3] / b, np.abs(1.0 / b)
            rows_in = np.nonzero(b > 1e-9)[0]
            pr, pm = _box_pairs(np.column_stack([cx, cy])[rows_in], centers, reach)
            pr = rows_in[pr]
            slack = d_r[pm] - r[pr] + 1e-6
            dist2 = (d_cx[pm] - cx[pr]) ** 2 + (d_cy[pm] - cy[pr]) ** 2
            close = (slack > 0) & (dist2 <= slack**2)
            pr, pm = pr[close], elig[pm[close]]
            u, w = cur[pr], self.mirror_vec[pm]
            prod = None
            if self.exact:
                inside = table.inside(u, self.mirror_rows[pm], self.mirror_ids[pm])
            else:
                # the tolerances of the float object peel
                prod = (
                    u[:, 2] * w[:, 2]
                    + u[:, 3] * w[:, 3]
                    - (u[:, 1] * w[:, 0] + u[:, 0] * w[:, 1]) / 2.0
                )
                inside = (
                    (prod >= 1.0 - 1e-9)
                    & (u[:, 1] >= w[:, 1] - 1e-9)
                    & ~np.all(np.abs(u - w) <= 1e-9, axis=1)
                )
                prod = prod[inside]
            pr, pm = pr[inside], pm[inside]
            count = np.bincount(pr, minlength=len(cur))
            if (count == 0).any():
                i = int(np.argmin(count))
                raise ArithmeticError(
                    "peeling reached a circle that is neither a seed nor "
                    f"inside any dual (center ~ {_center_text(fv[i])})"
                )
            if (count > 1).any():
                i = int(np.argmax(count))
                raise ArithmeticError(
                    f"circle at ~{_center_text(fv[i])} sits inside {count[i]} duals; "
                    "the dual family is not disjoint"
                )
            host = np.empty(len(cur), dtype=np.intp)
            host[pr] = pm
            if prod is not None:
                full = np.empty(len(cur))
                full[pr] = prod
                prod = full
            return host, prod

        return host_of

    # -- output ----------------------------------------------------------

    def materialize(self, rows: np.ndarray, kind: str) -> List[InversiveCircle]:
        if self.exact:
            slots = self.slots[kind]
            return [
                InversiveCircle(
                    *(QuadExt(u * s.a, u * s.b, s.q, s.d) for u, s in zip(row, slots))
                )
                for row in rows.tolist()
            ]
        return [InversiveCircle(*row) for row in rows.tolist()]

    def _sort_keys(self, rows: np.ndarray, kind: str) -> np.ndarray:
        """``as_float`` of (curvature, h1, h2, co-curvature) of each row."""
        if not self.exact:
            return rows[:, [1, 2, 3, 0]]
        slots = self.slots[kind]
        return np.column_stack([_as_floats(rows[:, j], slots[j]) for j in (1, 2, 3, 0)])

    def finals(self) -> _Finals:
        out: List[_Finals] = []
        for kind in self.kinds:
            chunks = self.chunks[kind]
            if not chunks:
                continue
            rows = np.concatenate([c.rows for c in chunks])
            level = np.concatenate([np.full(len(c.rows), c.level) for c in chunks])
            fv = self._float_view(rows, kind)
            kept = np.nonzero(self._kept(fv, self.limits.max_height))[0]
            picked = rows[kept]
            if self.quotient:
                # report the positively oriented representative
                picked = np.where(picked[:, 1:2] < -1e-9, -picked, picked)
            if self.mode == "super":
                words, sources = self._chains(chunks, kept)
            else:
                words, sources = self.peel(kind, picked)
            out.append(
                _Finals(
                    self.materialize(picked, kind),
                    level[kept],
                    words,
                    sources,
                    self._sort_keys(picked, kind),
                )
            )
        return _Finals.concat(out)

    def _chains(
        self, chunks: List[_Chunk], kept: np.ndarray
    ) -> Tuple[List[GroupWord], List[str]]:
        """Discovery words and seeds of stored rows, by walking each row's
        parents back to its seed; the leftmost letter is the last mirror."""
        parent = np.concatenate([c.parent for c in chunks])
        via = np.concatenate([c.via for c in chunks])
        seed = np.concatenate([c.seed for c in chunks])
        words: List[GroupWord] = [[] for _ in range(len(kept))]
        sources = [""] * len(kept)
        active, cur = np.arange(len(kept)), kept
        while len(active):
            at_seed = via[cur] < 0
            for i, s in zip(active[at_seed].tolist(), seed[cur[at_seed]].tolist()):
                sources[i] = self.seed_ids[s]
            active, cur = active[~at_seed], cur[~at_seed]
            for i, letter in zip(active.tolist(), self.mirror_ids[via[cur]].tolist()):
                words[i].append(letter)
            cur = parent[cur]
        return words, sources


class _CircleLane:
    """Sequential BFS over circle objects for configurations without an
    integer lattice typing (finite and cell-refined families)."""

    def __init__(
        self,
        cfg: Configuration,
        mode: str,
        limits: GenerationLimits,
        mirrors: List[GeneratorCircle],
        seeds: List[GeneratorCircle],
        pads: List[float],
    ) -> None:
        self.cfg = cfg
        self.mode = mode
        self.limits = limits
        self.mirrors = mirrors
        self.pads = pads
        self.quotient = mode != "packing"
        self.found: List[_Found] = []
        self.seen: Dict[object, None] = {}
        self.frontier: List[InversiveCircle] = []
        for g in sorted(seeds, key=lambda s: s.ident):
            if not g.circle.is_line and abs(g.circle.radius()) < limits.min_radius:
                continue
            if self._note(g.circle, 0, [], g.ident):
                self.frontier.append(g.circle)

    def _note(self, c, level, word, source) -> bool:
        key = _lookup_key(c, self.quotient)
        if key in self.seen:
            return False
        self.seen[key] = None
        self.found.append(_Found(c, level, list(word), source))
        return True

    def run(self) -> None:
        lim = self.limits
        frontier = list(zip(self.frontier, [f for f in self.found]))
        for level in range(1, lim.max_height + 1):
            pad = self.pads[level]
            nxt = []
            for c, rec in frontier:
                cf = c.as_floats()
                for g in self.mirrors:
                    p = as_float(inversive_product(cf, g.circle.as_floats()))
                    if self.mode == "super":
                        if abs(p) <= 1e-7:
                            continue
                    elif p > -1.0 + 1e-6:
                        continue
                    img = reflect(g.circle, c)
                    if img.is_line:
                        continue
                    r = abs(img.radius())
                    if r < lim.min_radius - 1e-12:
                        continue
                    (cx, cy) = img.center()
                    if not lim.window.meets_disk(cx, cy, r + pad):
                        continue
                    word = [g.ident] + rec.word if self.mode == "super" else []
                    if self._note(img, level, word, rec.source):
                        nxt.append((img, self.found[-1]))
            frontier = nxt

    def finals(self) -> _Finals:
        lim = self.limits
        index = _PeelIndex(self.mirrors) if self.mode != "super" else None
        out: List[_Found] = []
        for rec in self.found:
            c = rec.circle
            r = abs(c.radius())
            if r < lim.min_radius - 1e-12:
                continue
            (cx, cy) = c.center()
            if not lim.window.meets_disk(cx, cy, r):
                continue
            if self.quotient and scalar_sign(c.curvature) < 0:
                c = c.reversed()
            if index is None:
                out.append(_Found(c, rec.level, rec.word, rec.source))
                continue
            seed_kind = _SEED_KINDS[self.mode][0]
            word, source = _peel(self.cfg, c, seed_kind, self.quotient, index)
            out.append(_Found(c, rec.level, word, source))
        key = [[as_float(x) for x in (f.circle.curvature, f.circle.h1, f.circle.h2,
                                      f.circle.co_curvature)] for f in out]
        return _Finals(
            [f.circle for f in out],
            np.array([f.level for f in out], dtype=np.int64),
            [f.word for f in out],
            [f.source or "" for f in out],
            np.array(key, dtype=np.float64).reshape(-1, 4),
        )


# ---------------------------------------------------------------------------
# driver


def generate(
    cfg: Configuration,
    mode: str = "packing",
    limits: Optional[GenerationLimits] = None,
    exact: bool = True,
) -> Packing:
    """Enumerate the orbit of the seed family over the window.

    Every returned circle meets the window, has radius >= min_radius and
    height <= max_height.  Output order is deterministic: a stable sort by
    height, then ``as_float`` of curvature, h1, h2 and co-curvature, keys
    the lanes compute from their rows.  Exact runs on int64 rows raise
    LatticeOverflowError when the window lies too far from the origin.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if limits is None:
        limits = GenerationLimits()
    pads = _margin_schedule(cfg, mode, limits)
    mirrors = _catalog(cfg, _MIRROR_KINDS[mode], limits.window, pads[0])
    seeds = _catalog(cfg, _SEED_KINDS[mode], limits.window, pads[0])

    slots = _slot_table(cfg) if exact else None
    lane: Union[_ArrayLane, _CircleLane]
    if not exact or slots is not None:
        lane = _ArrayLane(cfg, mode, limits, mirrors, seeds, slots, pads)
    else:
        lane = _CircleLane(cfg, mode, limits, mirrors, seeds, pads)
    lane.run()

    found = lane.finals()
    levels = found.level.tolist()
    if mode != "super":
        for i, (word, level) in enumerate(zip(found.words, levels)):
            if len(word) != level:
                raise ArithmeticError(
                    f"BFS level {level} disagrees with peeled height "
                    f"{len(word)} at center ~ {found.circles[i].center()}"
                )
    key = found.key
    order = np.lexsort((key[:, 3], key[:, 2], key[:, 1], key[:, 0], found.level))
    kind = _CIRCLE_KIND[mode]
    circles = [
        PackedCircle(found.circles[i], kind, levels[i], tuple(found.words[i]), found.sources[i])
        for i in order.tolist()
    ]
    return Packing(cfg, mode, limits, circles)
