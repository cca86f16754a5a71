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
of each level.  Configurations hold no lines, so every seed and mirror
is a disk with a center and a radius.  Lines never arise in the
descending modes and are dropped in super mode, where an orbit member
through a mirror center inverts to one.

Every mode takes heights, witness words and sources from the discovery
chains the BFS stores: each row keeps its parent row and the mirror it was
reached through, so a chain's length is its level by construction.  In
super mode base mirrors do not shrink radii monotonically, so the height
is the BFS level over the catalogued region and the word is the first
discovery, and a key set of the stored rows (kind, then the canonically
signed row) keeps each circle's first row.  In "packing" and "dual" mode
the duals are disjoint disks: a non-seed circle lies inside exactly one
dual, and reflecting it back out strictly grows its radius, so peeling
reflects out of that dual until a seed, and every circle has one reduced
word (the Apollonian descent of Graham, Lagarias, Mallows, Wilks and Yan,
2005).  Every non-seed row on a kept row's chain is checked, once, to lie
inside exactly one catalogued dual, the mirror it was reached through.
Peeling a kept row would then retrace its chain to the same seed, so the
chain word is the peeled word and the height its length; the ancestors
of a kept row are strictly larger than it, so they are above the radius
floor, and every seed above the floor is stored at level 0.  These modes
store each level as found, with no key set, since no row is reached twice:
- two chains that reach one row both end in its one host dual, so their
  parents are equal, and by induction so are their seeds;
- a row of level >= 1 lies strictly inside a dual, and no seed does, so
  no later row equals a seed and two chains to one row have one length;
- catalog ids name distinct circles, so equal seeds are one seed;
- ``_box_pairs`` yields each (row, mirror) pair at most once.
Where duals overlap a row may be stored twice, and the host check still
raises on it once it reaches the output.

One lane runs every configuration.  It holds each circle as a numpy row
of integers over one lattice of the mode's seed kinds, in super mode the
span of both motifs (``lattice.derive_lattice``, derived from the
configuration's data), exactly, or as the ``as_float`` values of those
rows, whose 1e-9 grid (super mode's key) every float run keeps within
int64.  A row carries the index of its kind for two uses only:
the first column of super mode's key, and the blocks of the float
products, one per kind and mirror, since a float product rounds by the
rows it shares a block with.  Seeds and mirrors come from
``Configuration.catalog`` in the mode, with their rows on the mode's
lattices, on which the catalog's window ties are decided: one catalog in
dual and super mode, where the seed kinds are the mirror kinds.
Reflections act through the guarded ``lattice.Mirrors.images`` (float
runs take the ``as_float`` values of the real matrices), and the host
check is the exact ``RowLattice.products`` of a row and its mirror.
Each BFS level is one spatial join of the frontier rows to the mirror
centers under the locality bound, one batch of images over the joined
pairs and, in super mode, one vectorised deduplication; a row within
1e-9 of its window or radius bound is decided on ``as_float`` of its
exact coordinates.  The host check runs in one batch over every chain
row, hosts found by a spatial prefilter confirmed on the rows (exactly
on integers).  The output is sorted on ``as_float`` keys of the rows.

A ``Packing`` holds that output as columns (``PackedColumns``): the
integer terms (P, R, q) of each kept row's coordinates over its lattice,
or the float rows of a float run, with heights, words and sources in
output order: proper circles (b != 0 exactly) with finite scalars, all
exact or all float, of the mode's kind, as every packing holds them.
``render`` writes and reads these columns directly; the ``PackedCircle``
and ``QuadExt`` objects are built only when the circles are asked for.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .configs import _MIRROR_KINDS, _SEED_KINDS, Catalog, Configuration, Window, parse_id
from .exact import QuadExt, as_float, int_array, scalar_sign
from .inversive import (
    InversiveCircle,
    PlanarIsometry,
    apply_isometry,
    inversive_product,
    reflect,
)
from .lattice import LatticeOverflowError, Mirrors, _guard, as_floats

GroupWord = List[str]

MODES = ("packing", "dual", "super")

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
                hit = scalar_sign(prod) == 0
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
    """Bounds of a ``generate`` run: ``max_height`` an integer (what
    ``operator.index`` takes, other than a bool) >= 0, ``min_radius``
    positive and finite, and the window."""

    max_height: int = 3
    min_radius: float = 0.01
    window: Window = Window(-8.0, -8.0, 8.0, 8.0)

    def __post_init__(self) -> None:
        if isinstance(self.max_height, bool) or not hasattr(type(self.max_height), "__index__"):
            raise ValueError(f"max_height must be an integer, got {self.max_height!r}")
        object.__setattr__(self, "max_height", operator.index(self.max_height))
        if self.max_height < 0:
            raise ValueError("max_height must be nonnegative")
        if not self.min_radius > 0:
            raise ValueError("min_radius must be positive")
        if not self.min_radius <= sys.float_info.max:
            raise ValueError(f"min_radius must be finite, got {self.min_radius!r}")


@dataclass
class PackedCircle:
    circle: InversiveCircle
    kind: str
    height: int
    word: Tuple[str, ...]
    source: str


@dataclass
class PackedColumns:
    """Packed circles as columns, in output order, all of one kind.

    The 4 n scalars, circle by circle in ``InversiveCircle.key`` order, are
    all exact (``exact``), each (a + b sqrt d) / q of the next entries of
    the integer columns ``terms`` = (a, b, q, d) (int64 or Python integers,
    not necessarily reduced), or all float, the entries of ``floats``.  An
    empty packing counts as exact.
    """

    exact: bool
    terms: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    floats: np.ndarray
    kind: str
    heights: List[int]
    words: List[Tuple[str, ...]]
    sources: List[str]

    def __len__(self) -> int:
        return len(self.heights)

    @classmethod
    def of(cls, circles: Sequence[PackedCircle]) -> "PackedColumns":
        """Columns of packed circle objects of circle 0's kind and lane,
        each a proper circle with finite scalars; ValueError naming the
        first circle that breaks this."""
        exact = not circles or circles[0].circle.is_exact
        kind = circles[0].kind if circles else _CIRCLE_KIND["packing"]
        for i, pc in enumerate(circles):
            key = pc.circle.key()
            if pc.kind != kind:
                why = f"is {pc.kind!r}, circle 0 {kind!r}"
            elif any(isinstance(x, QuadExt) != exact for x in key):
                why = f"mixes lanes: the first curvature is {'exact' if exact else 'float'}"
            elif not exact and not all(abs(x) <= sys.float_info.max for x in key):  # NaN fails too
                why = "has a non-finite scalar"
            elif not key[1]:
                why = "is a line"
            else:
                continue
            raise ValueError(f"packed circle {i} {why}; a packing holds proper circles of one kind and lane")
        scalars = [x for pc in circles for x in pc.circle.key()]
        terms = [(x.a, x.b, x.q, x.d) for x in scalars] if exact else []
        return cls(
            exact,
            tuple(map(int_array, zip(*terms))) if terms else _NO_TERMS,
            np.array([] if exact else scalars, dtype=np.float64),
            kind,
            [pc.height for pc in circles],
            [pc.word for pc in circles],
            [pc.source for pc in circles],
        )

    def circles(self) -> List[PackedCircle]:
        """The packed circle objects, one ``QuadExt`` per exact scalar."""
        scalars = iter(map(QuadExt, *(t.tolist() for t in self.terms)) if self.exact else self.floats.tolist())
        return [
            PackedCircle(InversiveCircle(*key), self.kind, height, word, source)
            for key, height, word, source in zip(
                zip(scalars, scalars, scalars, scalars), self.heights, self.words, self.sources
            )
        ]


_NO_TERMS = tuple(np.zeros(0, dtype=np.int64) for _ in range(4))


class Packing:
    """The circles of one ``generate`` query, in output order.

    ``generate`` and ``render.from_json`` fill a packing with columns
    (``PackedColumns``): integer terms of the exact scalars, or the floats
    of a float run, with heights, words and sources.  The ``PackedCircle``
    objects are built from them once, on the first use of ``circles``,
    iteration, ``find`` or ``height_of``.  From then on the list is the
    packing: ``len``, ``columns`` and so ``render.to_json`` read it, and
    edits to it show.  ``Packing(config, mode, limits, circles)`` starts
    from a list.  A list is checked against a packing's invariants (see the
    module) then and whenever ``columns`` reads it, so ``to_json`` of an
    edited list that breaks one raises ValueError naming the circle.
    """

    def __init__(
        self,
        config: Configuration,
        mode: str,
        limits: GenerationLimits,
        circles: Optional[List[PackedCircle]] = None,
        *,
        columns: Optional[PackedColumns] = None,
    ) -> None:
        if (circles is None) == (columns is None):
            raise TypeError("a packing takes either circles or columns")
        self.config = config
        self.mode = mode
        self.limits = limits
        self._circles = circles
        self._columns = columns
        self._index: Optional[_Index] = None
        if circles is not None:
            self.columns()

    @property
    def circles(self) -> List[PackedCircle]:
        if self._circles is None:
            self._circles = self._columns.circles()
            self._columns = None
        return self._circles

    def columns(self) -> PackedColumns:
        """The circles as columns: those the packing was made with until its
        list is built, then the list's."""
        if self._circles is None:
            return self._columns
        kind = _CIRCLE_KIND[self.mode]
        if self._circles and self._circles[0].kind != kind:
            raise ValueError(f"packed circle 0 is {self._circles[0].kind!r}, not {self.mode} mode's {kind!r}")
        return PackedColumns.of(self._circles)

    def __len__(self) -> int:
        return len(self._columns) if self._circles is None else len(self._circles)

    def __iter__(self):
        return iter(self.circles)

    def find(self, circle: InversiveCircle) -> Optional[PackedCircle]:
        """The packed circle equal to ``circle``, in either orientation in
        the quotient modes: exactly between exact circles, and within a
        relative tolerance (``_Index``) where either is float.  The lookup
        tables are built from the list, and again whenever the list no
        longer holds the circles they were built from."""
        circles = tuple(self.circles)
        if self._index is None or self._index.circles != circles:
            self._index = _Index(circles, self.mode != "packing")
        return self._index.find(circle)

    def height_of(self, circle: InversiveCircle) -> int:
        hit = self.find(circle)
        if hit is None:
            raise KeyError(
                "circle is not part of the generated packing "
                f"(center ~ {circle.center() if not circle.is_line else 'line'})"
            )
        return hit.height


# relative tolerance of float lookups, and generic weights for the
# projection their keys are sorted on
_RTOL = 1e-9
_WEIGHTS = np.array([1.0, 0.7548776662466927, 0.5698402909980532, 0.4301597090019468])


class _Index:
    """Lookup tables of a list of packed circles; a lookup gives the first
    match in list order.

    The circles are all exact or all float, as in a packing.  An exact
    query on exact circles is looked up in a dict of their coordinates, up
    to orientation when ``quotient``, and every other query among the float
    keys (``as_float`` of the coordinates): x and y match when
    |x - y|_inf <= _RTOL max(|x|_inf, |y|_inf).  Every circle has
    |x|_inf >= 1/sqrt(3), since h1^2 + h2^2 - b bt = 1, so the tolerance is
    never void.  The keys are sorted on x . w, and a match of y lies within
    _RTOL |w|_1 |y|_inf / (1 - _RTOL) of y . w.  The tables are of the
    circles as they were when the index was made; ``Packing.find`` makes
    a new one when its list has changed.
    """

    def __init__(self, circles: Sequence[PackedCircle], quotient: bool) -> None:
        self.circles = tuple(circles)
        self.quotient = quotient
        self.exact = not circles or circles[0].circle.is_exact
        self._exact: Optional[Dict[tuple, int]] = None
        self._floats: Optional[tuple] = None

    def find(self, circle: InversiveCircle) -> Optional[PackedCircle]:
        if circle.is_exact and self.exact:
            if self._exact is None:
                self._exact = {}
                for i, pc in enumerate(self.circles):
                    self._exact.setdefault(_exact_key(pc.circle.key(), self.quotient), i)
            hit = self._exact.get(_exact_key(circle.key(), self.quotient))
            return None if hit is None else self.circles[hit]
        return self._near(np.array([as_float(x) for x in circle.key()]))

    def _near(self, key: np.ndarray) -> Optional[PackedCircle]:
        """First circle within the tolerance of the float key ``key``."""
        if self._floats is None:
            keys = np.array([[as_float(x) for x in pc.circle.key()] for pc in self.circles],
                            dtype=np.float64).reshape(-1, 4)
            proj = keys @ _WEIGHTS
            order = np.argsort(proj, kind="stable")
            self._floats = (keys, np.abs(keys).max(axis=1), order, proj[order])
        keys, norms, order, proj = self._floats
        size = float(np.abs(key).max())
        reach = (_RTOL * _WEIGHTS.sum() / (1.0 - _RTOL) + 1e-15) * size
        hits = []
        for k in (key, -key) if self.quotient else (key,):
            p = float(k @ _WEIGHTS)
            cand = order[np.searchsorted(proj, p - reach, "left"):np.searchsorted(proj, p + reach, "right")]
            close = np.abs(keys[cand] - k).max(axis=1, initial=0.0) <= _RTOL * np.maximum(norms[cand], size)
            hits.append(cand[close])
        found = np.concatenate(hits)
        return self.circles[found.min()] if len(found) else None


# ---------------------------------------------------------------------------
# scalar helpers


def _exact_key(k: tuple, quotient: bool) -> tuple:
    """Dict key of exact coordinates; quotient keys identify the two
    orientations of a circle."""
    if quotient:
        for x in k:
            s = scalar_sign(x, 0.0)
            if s < 0:
                return tuple(-v for v in k)
            if s > 0:
                return k
    return k


# ---------------------------------------------------------------------------
# margins


def _motif_max_radius(cfg: Configuration, kinds: Sequence[str]) -> float:
    return max((c.radius() for kind in kinds for c in cfg.motif(kind)), default=0.0)


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


# ---------------------------------------------------------------------------
# integer lattices


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


def _canonical_sign(rows: np.ndarray) -> np.ndarray:
    s = np.sign(rows[:, 0])
    for j in range(1, rows.shape[1]):
        undecided = s == 0
        if not undecided.any():
            break
        s[undecided] = np.sign(rows[undecided, j])
    s[s == 0] = 1
    return s


def _center_text(fv: np.ndarray) -> str:
    return f"({fv[2] / fv[1]}, {fv[3] / fv[1]})"


@dataclass
class _Chunk:
    """The rows one BFS level added, kind by kind.  ``kind`` indexes the
    lane's seed kinds, ``parent`` the stored rows in storage order, ``via``
    the mirrors and ``seed`` the seed catalog; each is -1 where it does not
    apply.  ``_admit`` takes a batch of candidate rows in the same shape."""

    level: int
    rows: np.ndarray
    kind: np.ndarray
    parent: np.ndarray
    via: np.ndarray
    seed: np.ndarray


_FIELDS = ("rows", "kind", "parent", "via", "seed")


class _ArrayLane:
    """BFS over numpy rows: int64 rows over the lattice of the mode's seed
    kinds, or float64 rows, the ``as_float`` values of the lattice rows.
    Each level joins its frontier to the mirror centers once and, in super
    mode, deduplicates once.  ``finals`` reads words off the
    chains and, in the descending modes, checks their hosts in one batch."""

    def __init__(
        self,
        cfg: Configuration,
        mode: str,
        limits: GenerationLimits,
        mirrors: Catalog,
        seeds: Catalog,
        exact: bool,
        pads: List[float],
    ) -> None:
        self.mode = mode
        self.limits = limits
        self.mirrors = mirrors
        self.exact = exact
        self.pads = pads
        self.pad_mirror_r = _motif_max_radius(cfg, _MIRROR_KINDS[mode])
        self.quotient = mode != "packing"
        self.kinds = list(_SEED_KINDS[mode])
        self.lat, self.mlat = seeds.lat, mirrors.lat

        # the level chunks in storage order; in super mode alone, the keys of
        # every stored row as sorted opaque bytes (the module docstring says why)
        self.chunks: List[_Chunk] = []
        width = 1 + (self.lat.width if exact else 4)
        self.seen = np.zeros(0, dtype=(np.void, 8 * width)) if mode == "super" else None

        # Mirrors: float rows for the masks and geometry, and either every
        # integer reflection matrix (exact) or the ``as_float`` values of the
        # real ones (float).
        self.mirror_ids = np.array(mirrors.idents, dtype=object)
        view = (lambda cat: cat.lat.approx(cat.rows)) if exact else (lambda cat: cat.view)
        self.mirror_vec = mv = view(mirrors)
        self.mirror_rows = mirrors.rows if exact else mv
        # <v, m> = v . mirror_q for a float row v
        self.mirror_q = np.column_stack([-mv[:, 1] / 2.0, -mv[:, 0] / 2.0, mv[:, 2], mv[:, 3]])
        if exact:
            mats = self.lat.reflections(self.mlat, mirrors.rows, self.mirror_ids)
            self.reflect = Mirrors(mats, self.mirror_ids)
        else:
            self.float_mats = self.mlat.float_reflections(mirrors.rows)
        b = mv[:, 1]
        self.mirror_cx, self.mirror_cy, self.mirror_r = mv[:, 2] / b, mv[:, 3] / b, np.abs(1.0 / b)

        # Seeds, kind by kind in id order: those under the radius floor start
        # no chain, since every ancestor of a kept row is larger than it.
        self.seed_ids = seeds.idents
        sv = view(seeds)
        sel = np.nonzero(np.abs(1.0 / sv[:, 1]) >= limits.min_radius)[0]
        kind = np.array([self.kinds.index(k) for k in seeds.kind[sel].tolist()], dtype=np.int8)
        none = np.full(len(sel), -1, dtype=np.intp)
        self._admit(_Chunk(0, (seeds.rows if exact else sv)[sel], kind, none, none.copy(), sel))

    # -- plumbing ------------------------------------------------------

    def _admit(self, batch: _Chunk) -> None:
        """Store ``batch`` as the next chunk: whole in the descending modes,
        and in super mode only the first row of each key (the kind, then the
        canonically signed row) that the search has not stored yet.

        The rows come in discovery order (kind, mirror, frontier row), which
        fixes the discovery chains and, in super mode, the representative of
        each key.  Float rows are keyed on a 1e-9 grid, and grid values
        beyond int64 raise LatticeOverflowError in every mode.
        """
        canon = batch.rows if self.exact else np.round(batch.rows * 1e9)
        if not self.exact:
            names = self.mirror_ids[batch.via] if batch.level else [self.seed_ids[i] for i in batch.seed]
            _guard(np.abs(canon).max(axis=1, initial=0.0), names)
        if self.seen is None:
            self.chunks.append(batch)
            return
        key = np.empty((len(canon), 1 + canon.shape[1]), dtype=np.int64)
        key[:, 0], key[:, 1:] = batch.kind, canon * _canonical_sign(canon)[:, None]
        uniq, first = np.unique(key.view(self.seen.dtype).ravel(), return_index=True)
        del key, canon
        pos = np.searchsorted(self.seen, uniq)
        old = pos < len(self.seen)
        old[old] = self.seen[pos[old]] == uniq[old]
        self.seen = np.insert(self.seen, pos[~old], uniq[~old])
        fresh = np.sort(first[~old])
        self.chunks.append(_Chunk(batch.level, *(getattr(batch, f)[fresh] for f in _FIELDS)))

    def _float_view(self, rows: np.ndarray) -> np.ndarray:
        return self.lat.approx(rows) if self.exact else rows

    def _kept(self, rows: np.ndarray, level: int) -> np.ndarray:
        """Which rows a level keeps: radius >= rho and a disk meeting the
        window padded for the levels below, by each row's own pad in the
        descending modes.  Level H is the window itself.

        The rows are decided on their float view.  On integer rows, a row
        within a relative 1e-9 of either bound is decided on ``as_float``
        of its exact coordinates instead, the view that
        ``Window.meets_circle`` takes, so ties do not follow the rounding
        of the float view.
        """
        ok, tie = self._meets(self._float_view(rows), level)
        if self.exact and tie.any():
            ok[tie] = self._meets(self.lat.as_float(rows[tie]), level)[0]
        return ok

    def _meets(self, fv: np.ndarray, level: int) -> Tuple[np.ndarray, np.ndarray]:
        """``_kept`` on one float view, and which rows are ties."""
        lim = self.limits
        w = lim.window
        b = fv[:, 1]
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
            floor = lim.min_radius - 1e-12
            gap2 = self._gap2(cx, cy, pad)
            ok = (b != 0) & (r >= floor) & (gap2 <= r * r)
            reach = max(abs(w.x0), abs(w.x1), abs(w.y0), abs(w.y1)) + pad
            tie = (b != 0) & (
                (np.abs(r - floor) <= 1e-9 * r)
                | (np.abs(np.sqrt(gap2) - r) <= 1e-9 * (1.0 + r + np.abs(cx) + np.abs(cy) + reach))
            )
        return ok, tie

    def _gap2(self, cx: np.ndarray, cy: np.ndarray, pad) -> np.ndarray:
        """Squared distance of each point to the window grown by ``pad``."""
        w = self.limits.window
        dx = np.maximum(np.maximum(w.x0 - pad - cx, 0.0), cx - (w.x1 + pad))
        dy = np.maximum(np.maximum(w.y0 - pad - cy, 0.0), cy - (w.y1 + pad))
        return dx * dx + dy * dy

    # -- expansion -----------------------------------------------------

    def run(self) -> None:
        """Expand the frontier, the last chunk, level by level, each kind's
        slice of it apart."""
        for level in range(1, self.limits.max_height + 1):
            front = self.chunks[-1]
            if not len(front.rows):
                break
            start = sum(len(c.rows) for c in self.chunks[:-1])
            live = self._live_mirrors(level)
            cuts = np.searchsorted(front.kind, np.arange(len(self.kinds) + 1)).tolist()
            parts = []
            for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                rows, src, via = self._images(front.rows[lo:hi], live, level)
                parts.append((rows, np.full(len(rows), k, dtype=np.int8), src + start + lo, via))
            rows, kind, parent, via = (np.concatenate(p) for p in zip(*parts))
            del parts
            self._admit(_Chunk(level, rows, kind, parent, via, np.full(len(rows), -1)))

    def _live_mirrors(self, level: int) -> np.ndarray:
        # In descending modes the source sits outside the mirror, so the
        # image curve lands inside the closed mirror disk; a mirror whose
        # disk misses the level's worst-case window cannot contribute a
        # kept row.
        if self.mode == "super":
            return np.arange(len(self.mirrors))
        rad = self.mirror_r * (1.0 + 1e-6) + 1e-9
        return np.nonzero(self._gap2(self.mirror_cx, self.mirror_cy, self.pads[level]) <= rad * rad)[0]

    def _pairs(self, fv: np.ndarray, live: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(row, mirror) pairs of a frontier that can give an image of
        radius >= rho, ordered by mirror, then row.

        A source of radius r gives an image of radius >= rho across a
        mirror of radius R only from within sqrt(R^2 r / rho + r^2) of the
        mirror center.  Rows are bucketed by that reach at the largest
        live radius, in quarter octaves, and each bucket is joined to the
        mirror centers on a grid of its largest reach, which keeps the
        3 x 3 cell blocks of the join tight; each pair is then held to the
        bound at its own mirror's radius, with 1e-6 slack.
        """
        floor = self.limits.min_radius * (1.0 - 1e-6)
        b = fv[:, 1]
        r = np.abs(1.0 / b)
        cx, cy = fv[:, 2] / b, fv[:, 3] / b
        ri, mi = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        if len(fv) and len(live):
            r_max = float(self.mirror_r[live].max())
            reach = np.sqrt(r_max * r_max * r / floor + r * r) * (1.0 + 1e-6)
            centers = np.column_stack([self.mirror_cx[live], self.mirror_cy[live]])
            scale = np.ceil(4.0 * np.log2(reach))
            for e in np.unique(scale):
                sel = np.nonzero(scale == e)[0]
                a, m = _box_pairs(np.column_stack([cx[sel], cy[sel]]), centers, reach[sel].max())
                i, j = sel[a], live[m]
                d2 = (cx[i] - self.mirror_cx[j]) ** 2 + (cy[i] - self.mirror_cy[j]) ** 2
                rr = self.mirror_r[j]
                near = d2 <= (rr * rr * r[i] / floor + r[i] * r[i]) * (1.0 + 1e-6)
                ri.append(i[near])
                mi.append(j[near])
        ri, mi = np.concatenate(ri), np.concatenate(mi)
        order = np.argsort(mi * len(fv) + ri)
        return ri[order], mi[order]

    def _images(
        self, front: np.ndarray, live: np.ndarray, level: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The images a level keeps, with their frontier rows and mirrors,
        in discovery order."""
        fv = self._float_view(front)
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
            img = self.reflect.images(front[src], via)
        else:
            # float rows: one matrix product per mirror, which fixes their rounding
            img = np.empty((len(src), 4))
            starts = np.flatnonzero(np.diff(via, prepend=-1)).tolist()
            for s, e in zip(starts, starts[1:] + [len(via)]):
                img[s:e] = front[src[s:e]] @ self.float_mats[int(via[s])].T
        ok = self._kept(img, level)
        return img[ok], src[ok], via[ok]

    # -- output ----------------------------------------------------------

    def finals(self) -> PackedColumns:
        """The kept rows as packed columns in output order: a stable sort by
        height, then ``as_float`` of curvature, h1, h2 and co-curvature.  In
        the descending modes every chain row passes ``_check_hosts``."""
        rows, _, parent, via, seed = (np.concatenate([getattr(c, f) for c in self.chunks]) for f in _FIELDS)
        level = np.concatenate([np.full(len(c.rows), c.level) for c in self.chunks])
        kept = np.nonzero(self._kept(rows, self.limits.max_height))[0]
        words, sources, walked = self._chains(parent, via, seed, kept)
        if self.mode != "super":
            self._check_hosts(self._oriented(rows[walked]), via[walked])
        level, key = level[kept], self._oriented(rows[kept])
        if self.exact:
            p, r = self.lat.values(key)
            terms = (p, r, np.broadcast_to(self.lat.q, p.shape), np.full(p.shape, self.lat.d))
            key = as_floats(p, r, self.lat.q, self.lat.d)
        order = np.lexsort((key[:, 0], key[:, 3], key[:, 2], key[:, 1], level))
        cols = ((tuple(t[order].ravel() for t in terms), np.zeros(0)) if self.exact
                else (_NO_TERMS, key[order].ravel()))
        olist = order.tolist()
        return PackedColumns(
            bool(self.exact),
            *cols,
            _CIRCLE_KIND[self.mode],
            level[order].tolist(),
            [tuple(words[i]) for i in olist],
            [sources[i] for i in olist],
        )

    def _oriented(self, rows: np.ndarray) -> np.ndarray:
        """Rows as reported: in the quotient modes, the positively oriented
        representative; the float view of integer rows has the sign of
        their curvature."""
        if not self.quotient:
            return rows
        neg = self._float_view(rows)[:, 1] < (0.0 if self.exact else -1e-9)
        return np.where(neg[:, None], -rows, rows)

    def _chains(
        self, parent: np.ndarray, via: np.ndarray, seed: np.ndarray, kept: np.ndarray
    ) -> Tuple[List[GroupWord], List[str], np.ndarray]:
        """Discovery words and seeds of stored rows, by walking each row's
        parents back to its seed; the leftmost letter is the last mirror.
        Also the storage indices of the non-seed rows walked, each once."""
        words: List[GroupWord] = [[] for _ in range(len(kept))]
        sources = [""] * len(kept)
        walked = [kept[:0]]
        active, cur = np.arange(len(kept)), kept
        while len(active):
            at_seed = via[cur] < 0
            for i, s in zip(active[at_seed].tolist(), seed[cur[at_seed]].tolist()):
                sources[i] = self.seed_ids[s]
            active, cur = active[~at_seed], cur[~at_seed]
            walked.append(cur)
            for i, letter in zip(active.tolist(), self.mirror_ids[via[cur]].tolist()):
                words[i].append(letter)
            cur = parent[cur]
        return words, sources, np.unique(np.concatenate(walked))

    def _check_hosts(self, rows: np.ndarray, via: np.ndarray) -> None:
        """Check that each row lies inside exactly one catalogued dual, and
        that this dual is ``via``, the mirror it was reached through.

        Candidate hosts come from a center/radius prefilter with 1e-6 slack
        and are confirmed on the rows: exactly on integers, with the
        tolerances of the float object peel on floats.
        """
        elig = np.nonzero(self.mirror_vec[:, 1] > 0)[0]
        d_cx, d_cy, d_r = self.mirror_cx[elig], self.mirror_cy[elig], self.mirror_r[elig]
        reach = (float(d_r.max()) + 1e-6) * (1.0 + 1e-9) if len(elig) else 0.0
        fv = self._float_view(rows)
        b = fv[:, 1]
        cx, cy, r = fv[:, 2] / b, fv[:, 3] / b, np.abs(1.0 / b)
        pr, pm = _box_pairs(np.column_stack([cx, cy]), np.column_stack([d_cx, d_cy]), reach)
        slack = d_r[pm] - r[pr] + 1e-6
        close = (slack > 0) & ((d_cx[pm] - cx[pr]) ** 2 + (d_cy[pm] - cy[pr]) ** 2 <= slack**2)
        pr, pm = pr[close], elig[pm[close]]
        u = rows[pr]
        if self.exact:
            inside = self.lat.inside(self.mlat, u, self.mirror_rows[pm], self.mirror_ids[pm])
        else:
            w = self.mirror_vec[pm]
            prod = u[:, 2] * w[:, 2] + u[:, 3] * w[:, 3] - (u[:, 1] * w[:, 0] + u[:, 0] * w[:, 1]) / 2.0
            inside = (
                (prod >= 1.0 - 1e-9)
                & (u[:, 1] >= w[:, 1] - 1e-9)
                & ~np.all(np.abs(u - w) <= 1e-9, axis=1)
            )
        pr, pm = pr[inside], pm[inside]
        count = np.bincount(pr, minlength=len(rows))
        if (count == 0).any():
            i = int(np.argmin(count))
            raise ArithmeticError(
                "a chain reached a circle that is neither a seed nor "
                f"inside any dual (center ~ {_center_text(fv[i])})"
            )
        if (count > 1).any():
            i = int(np.argmax(count))
            raise ArithmeticError(
                f"circle at ~{_center_text(fv[i])} sits inside {count[i]} duals; "
                "the dual family is not disjoint"
            )
        host = np.empty(len(rows), dtype=np.intp)
        host[pr] = pm
        wrong = np.nonzero(host != via)[0]
        if len(wrong):
            i = int(wrong[0])
            raise ArithmeticError(
                f"circle at ~{_center_text(fv[i])} sits inside {self.mirror_ids[host[i]]}, "
                f"which is not the mirror it was reached through ({self.mirror_ids[via[i]]})"
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
    the lane computes from its rows.  Exact and float runs both start from
    integer lattice rows, and raise LatticeOverflowError when the window
    lies too far from the origin for them.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if limits is None:
        limits = GenerationLimits()
    pads = _margin_schedule(cfg, mode, limits)
    seeds = cfg.catalog(_SEED_KINDS[mode], limits.window, pads[0], mode)
    mirrors = (seeds if _MIRROR_KINDS[mode] == _SEED_KINDS[mode]
               else cfg.catalog(_MIRROR_KINDS[mode], limits.window, pads[0], mode))
    lane = _ArrayLane(cfg, mode, limits, mirrors, seeds, exact, pads)
    lane.run()
    return Packing(cfg, mode, limits, columns=lane.finals())
