"""Periodic and finite circle configurations.

A configuration is a finite *motif* of base and dual circles, optionally
repeated by a rank-2 translation lattice.  The built-in families are the
square and triangular/hexagonal grids, a finite Apollonian-type seed, and
the refined wallpaper variants constructed in :mod:`invpack.wallpaper`.

All built-in configurations carry exact ``QuadExt`` coordinates.  Every
circle is an integer row of its kind's translation lattice (``lattice``):
ids are built from ``RowLattice.rows_at``, and one membership test,
``_locate``, answers ``contains_circle`` and the symmetry checks.  A
``Catalog`` holds the circles of some kinds meeting a window with their
rows on the lattice of those kinds in an orbit mode (``_row_lattice``),
where near-boundary ties are decided, and ``Catalog.inside`` keeps those
inside the window.  The validation, tangency and duality checks classify
every pair of a window's catalog rows at once by the exact signs of its
inversive product, ``RowLattice.products``, which the engine's host check
uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .exact import QuadExt, Scalar, as_float
from .inversive import InversiveCircle, PairClass, PlanarIsometry, from_center_radius
from .lattice import LatticeOverflowError, RowLattice, _guard, derive_lattice, signs

Vec = Tuple[Scalar, Scalar]


def _q(a: int, b: int = 0, q: int = 1, d: int = 1) -> QuadExt:
    return QuadExt(a, b, q, d)


def _vec_float(v: Vec) -> Tuple[float, float]:
    return (as_float(v[0]), as_float(v[1]))


@dataclass(frozen=True)
class Window:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x0, self.y0, self.x1, self.y1)):
            raise ValueError("window corners must be finite")
        if not (self.x0 <= self.x1 and self.y0 <= self.y1):
            raise ValueError("window corners out of order")

    @classmethod
    def square(cls, half: float) -> "Window":
        return cls(-half, -half, half, half)

    def shrunk(self, margin: float) -> Optional["Window"]:
        """Window pulled in by `margin` on all sides, or None if that
        leaves nothing."""
        x0, y0 = self.x0 + margin, self.y0 + margin
        x1, y1 = self.x1 - margin, self.y1 - margin
        if x0 > x1 or y0 > y1:
            return None
        return Window(x0, y0, x1, y1)

    def contains_point(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def meets_disk(self, cx, cy, r):
        """Whether the closed disk meets the closed window, elementwise."""
        dx = np.maximum(np.maximum(self.x0 - cx, 0.0), cx - self.x1)
        dy = np.maximum(np.maximum(self.y0 - cy, 0.0), cy - self.y1)
        return dx * dx + dy * dy <= r * r

    def contains_disk(self, cx, cy, r):
        """Whether the closed disk lies in the closed window, elementwise."""
        return (self.x0 <= cx - r) & (cx + r <= self.x1) & (self.y0 <= cy - r) & (cy + r <= self.y1)

    def meets_circle(self, c: InversiveCircle, expand: float = 0.0) -> bool:
        """``meets_disk`` of a circle, never a line, grown by ``expand``."""
        (cx, cy), r = c.center(), c.radius()
        return self.meets_disk(cx, cy, r + expand)

    def contains_circle(self, c: InversiveCircle) -> bool:
        """``contains_disk`` of a circle, never a line."""
        (cx, cy), r = c.center(), c.radius()
        return self.contains_disk(cx, cy, r)

    def sample_grid(self, count: int) -> Iterable[Tuple[float, float]]:
        for i in range(count):
            for j in range(count):
                x = self.x0 + (self.x1 - self.x0) * (i + 0.5) / count
                y = self.y0 + (self.y1 - self.y0) * (j + 0.5) / count
                yield (x, y)


@dataclass(frozen=True)
class SymmetryDecl:
    """A declared symmetry of a configuration.

    ``kind`` is one of translation / rotation / mirror / glide; ``meta``
    holds the defining exact data (vector, center and order, axis point and
    squared direction, shift) for serialization and classification.
    """

    kind: str
    iso: PlanarIsometry
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class GeneratorCircle:
    """A concrete circle of a configuration together with its id.

    Ids look like ``d3@-1,2`` (motif index 3 translated by -1*v1 + 2*v2)
    for lattice configurations and ``d3`` for finite ones.
    """

    ident: str
    kind: str
    circle: InversiveCircle


def make_id(kind: str, index: int, shift: Optional[Tuple[int, int]]) -> str:
    prefix = "b" if kind == "base" else "d"
    if shift is None:
        return f"{prefix}{index}"
    return f"{prefix}{index}@{shift[0]},{shift[1]}"


def parse_id(ident: str) -> Tuple[str, int, Optional[Tuple[int, int]]]:
    """The (kind, index, shift) that ``make_id`` writes as ``ident``, with a
    nonnegative index; ValueError names any other text."""
    kind = {"b": "base", "d": "dual"}.get(ident[:1])
    idx, at, shift = ident[1:].partition("@")
    m, _, n = shift.partition(",")
    try:
        out = (kind, int(idx), (int(m), int(n)) if at else None)
    except ValueError:
        out = None
    if kind is None or out is None or out[1] < 0 or make_id(*out) != ident:
        raise ValueError(f"bad circle id {ident!r}")
    return out


class Catalog(Sequence[GeneratorCircle]):
    """Configuration circles held as arrays, in id order, with their rows.

    ``kind``, ``index`` and ``shift`` give each circle's kind, motif index
    and lattice shift (m, n) (zero in a finite configuration); ``idents``
    gives its id.  ``rows`` are the circles' integer rows on ``lat``, the
    lattice of the catalog's kinds in the mode it was built for
    (``Configuration.catalog``, which decides its ties on them).  ``view``
    and ``geometry`` read floats off the rows, ``inside`` keeps the circles
    inside a window, and indexing or iterating builds the exact circles,
    all of them, on first use.
    """

    def __init__(
        self,
        kind: np.ndarray,
        index: np.ndarray,
        shift: np.ndarray,
        idents: List[str],
        lat: RowLattice,
        rows: np.ndarray,
    ) -> None:
        self.kind = kind
        self.index = index
        self.shift = shift
        self.idents = idents
        self.lat = lat
        self.rows = rows

    @cached_property
    def view(self) -> np.ndarray:
        """``as_float`` of every coordinate of every row."""
        return self.lat.as_float(self.rows)

    @cached_property
    def geometry(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float centers x, y and radii, as ``InversiveCircle`` gives them."""
        fv = self.view
        return fv[:, 2] / fv[:, 1], fv[:, 3] / fv[:, 1], np.abs(1.0 / fv[:, 1])

    @cached_property
    def _circles(self) -> List[GeneratorCircle]:
        return [GeneratorCircle(*g) for g in zip(self.idents, self.kind.tolist(), self.lat.circles(self.rows))]

    def circles(self) -> List[GeneratorCircle]:
        return self._circles

    def inside(self, w: Window) -> "Catalog":
        """The circles whose closed disks lie in the closed window, by
        ``Window.contains_disk`` on ``geometry``: the floats of
        ``Window.contains_circle`` on the exact circles."""
        at = np.flatnonzero(w.contains_disk(*self.geometry))
        sub = Catalog(self.kind[at], self.index[at], self.shift[at], [self.idents[i] for i in at.tolist()],
                      self.lat, self.rows[at])
        sub.view = self.view[at]
        return sub

    def __len__(self) -> int:
        return len(self.idents)

    def __getitem__(self, i):
        return self.circles()[i]

    def __iter__(self) -> Iterator[GeneratorCircle]:
        return iter(self.circles())


class Configuration:
    """Base/dual circle family, finite or repeated by a lattice."""

    def __init__(
        self,
        name: str,
        d: int,
        motif_base: Sequence[InversiveCircle],
        motif_dual: Sequence[InversiveCircle],
        lattice: Optional[Tuple[Vec, Vec]] = None,
        symmetries: Sequence[SymmetryDecl] = (),
    ) -> None:
        for kind, motif in (("base", motif_base), ("dual", motif_dual)):
            for i in (i for i, c in enumerate(motif) if c.is_line):
                ident = make_id(kind, i, None if lattice is None else (0, 0))
                raise ValueError(f"configuration {name}: {ident} is a line; configurations hold circles only")
        self.name = name
        self.d = d
        self.motif_base = list(motif_base)
        self.motif_dual = list(motif_dual)
        self.lattice = lattice
        self.symmetries = list(symmetries)
        self._lattice_float = (
            None
            if lattice is None
            else (_vec_float(lattice[0]), _vec_float(lattice[1]))
        )
        # integer row lattices by (seed kinds, mirror kinds), derived on first use
        self.row_lattices: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], RowLattice] = {}

    # -- enumeration ---------------------------------------------------

    def motif(self, kind: str) -> List[InversiveCircle]:
        if kind == "base":
            return self.motif_base
        if kind == "dual":
            return self.motif_dual
        raise ValueError(f"kind must be 'base' or 'dual', got {kind!r}")

    def translation(self, m: int, n: int) -> PlanarIsometry:
        if self.lattice is None:
            raise ValueError("finite configuration has no lattice")
        v1, v2 = self.lattice
        return PlanarIsometry.translation(
            (v1[0] * m + v2[0] * n, v1[1] * m + v2[1] * n)
        )

    def _cell_coords(self, x, y):
        """The float (m, n) with (x, y) = m v1 + n v2, elementwise: x and y
        may be floats or arrays."""
        (a, c), (b, dd) = self._lattice_float
        det = a * dd - b * c
        return (x * dd - y * b) / det, (a * y - c * x) / det

    def _shift_range(self, center, radius, w: Window, expand: float) -> Tuple[np.ndarray, ...]:
        """Bounds (m_lo, m_hi, n_lo, n_hi) of the integer (m, n) with
        center + m v1 + n v2 possibly relevant to w, as int64, elementwise:
        the center's coordinates and the radius may be floats or arrays."""
        pad = radius + expand
        # by window corner, then m or n, then circle
        coords = np.array([
            self._cell_coords(x - center[0], y - center[1])
            for x in (w.x0 - pad, w.x1 + pad)
            for y in (w.y0 - pad, w.y1 + pad)
        ])
        lo = np.floor(coords.min(axis=0)).astype(np.int64) - 1
        hi = np.ceil(coords.max(axis=0)).astype(np.int64) + 1
        return lo[0], hi[0], lo[1], hi[1]

    def catalog(
        self, kinds: Sequence[str], w: Window, expand: float = 0.0, mode: Optional[str] = None
    ) -> Catalog:
        """Every configuration circle of ``kinds`` meeting the window grown
        by ``expand``, in id order, with its row on the lattice of those
        kinds in ``mode`` (``_row_lattice``; with no mode, a kind's
        translation lattice).  The kinds must share that lattice: one kind,
        or the seed kinds of a mode.  On the lattice of several kinds'
        motifs a circle's motif row follows the motifs of the kinds before
        it (super mode: base, then dual).

        Lattice translates are tested together on float centers and radii:
        the motif center plus m v1 + n v2, over the ``_shift_range`` grid of
        each motif circle, or (m, n) = (0, 0) alone in a finite
        configuration.  A translate within a relative slack of 1e-9 of
        the boundary is a tie, decided by ``Window.meets_disk`` on
        ``as_float`` of its row, which is the same value on any lattice:
        the floats and formula of ``Window.meets_circle`` on the exact
        translate.  The slack bounds the rounding that separates the two
        tests, so both keep the same circles.
        """
        keys = {_lattice_kinds(mode, kind) for kind in kinds}
        if len(keys) != 1:
            raise ValueError(f"kinds {tuple(kinds)} share no one row lattice in mode {mode!r}")
        ((seeds, _),) = keys
        lat = _row_lattice(self, mode, seeds[0])
        # the catalog's motif circles, kind by kind in the lattice's order:
        # kind, motif index, and motif row on ``lat``
        starts = np.cumsum([0] + [len(self.motif(k)) for k in seeds]).tolist()
        entries = [(k, i, start + i) for k, start in zip(seeds, starts) if k in kinds
                   for i in range(len(self.motif(k)))]
        e_kind = np.array([k for k, _, _ in entries], dtype=str)
        e_index, e_row = (np.array([e[f] for e in entries], dtype=np.int64) for f in (1, 2))
        motif = [self.motif(k)[i] for k, i, _ in entries]
        geo = np.array([(*c.center(), c.radius()) for c in motif]).reshape(-1, 3)
        if self.lattice is None:
            at = np.arange(len(motif), dtype=np.int64)
            m = n = np.zeros(len(motif), dtype=np.int64)
        else:
            m_lo, m_hi, n_lo, n_hi = self._shift_range((geo[:, 0], geo[:, 1]), geo[:, 2], w, expand)
            n_count = n_hi - n_lo + 1
            count = (m_hi - m_lo + 1) * n_count
            at = np.repeat(np.arange(len(motif), dtype=np.int64), count)
            k = np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count)
            m = m_lo[at] + k // n_count[at]
            n = n_lo[at] + k % n_count[at]
        (ax, ay), (bx, by) = self._lattice_float or ((0.0, 0.0), (0.0, 0.0))
        x, y, r = geo[at, 0], geo[at, 1], geo[at, 2]
        cx = x + m * ax + n * bx
        cy = y + m * ay + n * by
        dx = np.maximum(np.maximum(w.x0 - cx, 0.0), cx - w.x1)
        dy = np.maximum(np.maximum(w.y0 - cy, 0.0), cy - w.y1)
        margin = r + expand - np.hypot(dx, dy)
        reach = max(abs(w.x0), abs(w.x1), abs(w.y0), abs(w.y1)) + abs(expand)
        slack = 1e-9 * (
            1.0 + reach + r + np.abs(x) + np.abs(y)
            + np.abs(m) * (abs(ax) + abs(ay)) + np.abs(n) * (abs(bx) + abs(by))
        )

        # the translates kept or tied, in id order, and their rows
        sel = np.flatnonzero(margin >= -slack)
        shifts = zip(m[sel].tolist(), n[sel].tolist())
        ids = [make_id(k, i, None if self.lattice is None else s)
               for k, i, s in zip(e_kind[at[sel]].tolist(), e_index[at[sel]].tolist(), shifts)]
        perm = sorted(range(len(sel)), key=ids.__getitem__)
        sel, ids = sel[np.array(perm, dtype=np.intp)], [ids[i] for i in perm]
        shift = np.column_stack([m[sel], n[sel]])
        rows = lat.rows_at(e_row[at[sel]], shift, ids)
        kept = margin[sel] > slack[sel]
        tie = np.flatnonzero(~kept)
        if tie.size:
            b, h1, h2 = lat.as_float(rows[tie])[:, 1:].T
            kept[tie] = w.meets_disk(h1 / b, h2 / b, np.abs(1.0 / b) + expand)
        on = at[sel[kept]]
        return Catalog(e_kind[on], e_index[on], shift[kept], [i for i, k in zip(ids, kept.tolist()) if k],
                       lat, rows[kept])

    def circles_in_window(self, kind: str, w: Window) -> List[GeneratorCircle]:
        """The circles of ``catalog`` of one kind as exact circles with
        their ids: every configuration circle of the kind meeting the
        window, in id order, built from its row."""
        return self.catalog((kind,), w).circles()

    def circle_from_id(self, ident: str) -> InversiveCircle:
        """The circle with this id, from its row on the kind's translation
        lattice; LatticeOverflowError where that row would leave int64."""
        kind, idx, shift = parse_id(ident)
        motif = self.motif(kind)
        if idx >= len(motif):
            raise KeyError(f"no motif circle {ident!r}")
        if (shift is None) != (self.lattice is None):
            want = "a lattice shift" if shift is None else "no shift"
            raise KeyError(f"circle id {ident!r}: this configuration's ids take {want}")
        if shift is None:
            return motif[idx]
        lat = _row_lattice(self, None, kind)
        shifts = RowLattice._ints(np.array([shift], dtype=object), ident)
        return lat.circles(lat.rows_at(np.array([idx]), shifts, [ident]))[0]

    def contains_circle(self, c: InversiveCircle, kind: str) -> Optional[str]:
        """Id of the configuration circle equal to c, or None: c's row on
        the kind's translation lattice, looked up by ``_locate``, or None off
        that lattice or for a circle not exact in Q(sqrt d).
        LatticeOverflowError where the row would leave int64."""
        lat = _row_lattice(self, None, kind)
        try:
            rows = lat.rows_of([c])
        except LatticeOverflowError:
            raise
        except (ArithmeticError, ValueError):
            return None
        found, index, shift = _locate(self, lat, rows)
        if not found[0]:
            return None
        return make_id(kind, int(index[0]), None if self.lattice is None else tuple(shift[0].tolist()))

    def safe_margin(self) -> float:
        """Distance from the window boundary beyond which local structure
        (rings, faces) is unaffected by truncation."""
        if self.lattice is None:
            return 0.0
        (a, c), (b, dd) = self._lattice_float
        return math.hypot(a, c) + math.hypot(b, dd)


# ---------------------------------------------------------------------------
# integer rows

# the circle kinds that seed, and that mirror, each orbit mode
_SEED_KINDS = {"packing": ("base",), "dual": ("dual",), "super": ("base", "dual")}
_MIRROR_KINDS = {"packing": ("dual",), "dual": ("dual",), "super": ("base", "dual")}


def _lattice_kinds(mode: Optional[str], kind: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(seed kinds, mirror kinds) of the lattice of ``kind`` rows in ``mode``:
    the mode's own for a seed kind, and (kind,) with none otherwise."""
    if mode and kind in _SEED_KINDS[mode]:
        return _SEED_KINDS[mode], _MIRROR_KINDS[mode]
    return (kind,), ()


def _row_lattice(cfg: Configuration, mode: Optional[str], kind: str) -> RowLattice:
    """The lattice of ``kind`` rows in ``mode``, cached on ``cfg`` by
    ``_lattice_kinds``: for a seed kind, the one lattice of the mode's seed
    kinds, closed under its reflections, with their motif rows in turn
    (super: base, then dual); for a kind that only mirrors, or with no mode,
    the kind's own, closed under translations only: the lattice of ids,
    lookups and the validation checks."""
    key = _lattice_kinds(mode, kind)
    if key not in cfg.row_lattices:
        motif, mirrors = ([c for k in ks for c in cfg.motif(k)] for ks in key)
        cfg.row_lattices[key] = derive_lattice(cfg.d, motif, cfg.lattice, mirrors)
    return cfg.row_lattices[key]


def _locate(cfg: Configuration, lat: RowLattice, rows: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Which rows of ``lat``, a lattice of one kind's rows, are circles of
    that kind in the configuration, and the motif index and lattice shift
    (m, n) of each one found (zero elsewhere, and in a finite
    configuration).

    A motif circle of the same curvature, moved by the (m, n) that its
    float center offset rounds to within 1e-6, must equal the row; the
    comparison is exact.  The first such motif circle is the one found.
    """
    motif = lat.motif
    found = np.zeros(len(rows), dtype=bool)
    index, shift = np.zeros(len(rows), dtype=np.int64), np.zeros((len(rows), 2), dtype=np.int64)
    (p, r), (mp, mr) = lat.values(rows), lat.values(motif)
    k, i = np.nonzero((p[:, None, 1] == mp[None, :, 1]) & (r[:, None, 1] == mr[None, :, 1]))
    moved = np.zeros((len(k), 2), dtype=np.int64)
    if cfg.lattice is not None:
        fv, mv = lat.approx(rows), lat.approx(motif)
        px = fv[k, 2] / fv[k, 1] - mv[i, 2] / mv[i, 1]
        py = fv[k, 3] / fv[k, 1] - mv[i, 3] / mv[i, 1]
        mf, nf = cfg._cell_coords(px, py)
        m, n = np.rint(mf), np.rint(nf)
        near = (np.abs(mf - m) <= 1e-6) & (np.abs(nf - n) <= 1e-6)
        _guard(np.maximum(np.abs(m[near]), np.abs(n[near])), "a lattice shift of an image")
        k, i = k[near], i[near]
        moved = np.column_stack([m[near], n[near]]).astype(np.int64)
    same = (lat.translated(motif[i], moved, "a translated motif circle") == rows[k]).all(axis=1)
    # np.nonzero lists the candidates of each row by motif index
    k, first = np.unique(k[same], return_index=True)
    found[k], index[k], shift[k] = True, i[same][first], moved[same][first]
    return found, index, shift


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    name: str
    passed: Optional[bool]
    witnesses: List[str] = field(default_factory=list)
    detail: str = ""

    def line(self) -> str:
        status = {True: "pass", False: "FAIL", None: "info"}[self.passed]
        msg = f"[{status}] {self.name}"
        if self.detail:
            msg += f": {self.detail}"
        if self.witnesses:
            msg += f" witnesses={self.witnesses[:4]}"
        return msg


@dataclass
class ValidationReport:
    config: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def add(
        self,
        name: str,
        passed: Optional[bool],
        witnesses: Optional[List[str]] = None,
        detail: str = "",
    ) -> None:
        self.checks.append(CheckResult(name, passed, witnesses or [], detail))

    def lines(self) -> List[str]:
        return [c.line() for c in self.checks]


_SAME_KIND_OK = [PairClass.EXTERNALLY_TANGENT, PairClass.DISJOINT_EXTERIORS]
_CROSS_KIND_OK = _SAME_KIND_OK + [PairClass.ORTHOGONAL]


def _pair_classes(fa: Catalog, fb: Catalog) -> np.ndarray:
    """``classify_pair`` of every pair of an fa circle and an fb circle, as
    a (len fa, len fb) object array, decided exactly by the sign of each
    product p against -1, 1 and 0 (``RowLattice.products``).  A pair with
    p = 1 is equal, and one with p = -1 opposite, where its curvatures and
    co-curvatures agree, or agree up to sign."""
    i, j = (x.ravel() for x in np.indices((len(fa.rows), len(fb.rows))))
    s, s2, den = fa.lat.products(fb.lat, fa.rows[i], fb.rows[j], "a pair of window circles")
    d = fa.lat.d
    below, above = signs(s + den, s2, d), signs(s - den, s2, d)
    classes = np.select(
        [below == 0, above == 0, below < 0, above > 0, signs(s, s2, d) == 0],
        [PairClass.EXTERNALLY_TANGENT, PairClass.INTERNALLY_TANGENT, PairClass.DISJOINT_EXTERIORS,
         PairClass.NESTED, PairClass.ORTHOGONAL], PairClass.CROSSING)
    tie = np.flatnonzero((below == 0) | (above == 0))
    x, y = fa.lat.aligned(fb.lat, fa.rows[i[tie]], fb.rows[j[tie]], [0, 1], "a pair of window circles")
    classes[tie[(above[tie] == 0) & (x == y).all(axis=1)]] = PairClass.EQUAL
    classes[tie[(below[tie] == 0) & (x == -y).all(axis=1)]] = PairClass.OPPOSITE
    return classes.reshape(len(fa.rows), len(fb.rows))


def _ringed(center: int, f: Catalog, others: Catalog, cross: np.ndarray,
            within: np.ndarray) -> bool:
    """Whether the circles of ``others`` orthogonal to circle ``center`` of
    ``f`` (row ``cross`` of classes) form a ring: at least three, each
    externally tangent to the next in angular order about the center."""
    (x, y, _), (ox, oy, _) = f.geometry, others.geometry
    ring = sorted(np.flatnonzero(cross == PairClass.ORTHOGONAL).tolist(),
                  key=lambda g: math.atan2(oy[g] - y[center], ox[g] - x[center]))
    return len(ring) >= 3 and all(within[g, h] is PairClass.EXTERNALLY_TANGENT
                                  for g, h in zip(ring, ring[1:] + ring[:1]))


def validate_base_dual(cfg: Configuration, w: Window) -> ValidationReport:
    """Check the defining base/dual conditions inside a window.

    Pair conditions are checked for every pair meeting the window; ring and
    covering conditions only at a safe margin from the boundary, since
    truncation removes ring partners.  Every pair is classified at once on
    the catalog rows, by the exact products of ``_pair_classes``.
    """
    rep = ValidationReport(cfg.name)
    bases, duals = cfg.catalog(("base",), w), cfg.catalog(("dual",), w)
    if not len(bases.rows) or not len(duals.rows):
        rep.add("nonempty", False, detail="window contains no circles")
        return rep
    rep.add("nonempty", True, detail=f"{len(bases.rows)} base, {len(duals.rows)} dual")

    b2b, d2d, b2d = (_pair_classes(*p) for p in ((bases, bases), (duals, duals), (bases, duals)))
    for label, fa, fb, classes, ok in (
        ("base-base pairs tangent or disjoint", bases, bases, b2b, _SAME_KIND_OK),
        ("dual-dual pairs tangent or disjoint", duals, duals, d2d, _SAME_KIND_OK),
        ("base-dual pairs orthogonal, tangent or disjoint", bases, duals, b2d, _CROSS_KIND_OK),
    ):
        i, j = np.triu_indices(len(fa.rows), 1) if fa is fb else np.indices(classes.shape).reshape(2, -1)
        bad = np.flatnonzero(~np.isin(classes[i, j], ok))
        rep.add(label, not bad.size, [
            f"{fa.idents[i[k]]}|{fb.idents[j[k]]}:{classes[i[k], j[k]].value}"
            for k in bad[:4].tolist()
        ])

    inner = w.shrunk(cfg.safe_margin()) if cfg.lattice is not None else w
    ring_fail: List[str] = []
    checked = 0
    for label, f, others, cross, within in (
        ("base", bases, duals, b2d, d2d),
        ("dual", duals, bases, b2d.T, b2b),
    ):
        centers = np.arange(len(f.rows))
        if cfg.lattice is not None:
            centers = centers[inner.contains_disk(*f.geometry)] if inner is not None else centers[:0]
        checked += len(centers)
        ring_fail += [f"{label}:{f.idents[c]}" for c in centers.tolist()
                      if not _ringed(c, f, others, cross[c], within)]
    rep.add(
        "every interior circle ringed by >= 3 orthogonal circles",
        None if checked == 0 else not ring_fail,
        ring_fail[:4],
        detail=f"{checked} circles checked",
    )

    if inner is not None and inner.x0 < inner.x1 and inner.y0 < inner.y1:
        # a disk of negative curvature is the outside of its circle
        cx, cy, r = (np.concatenate(v) for v in zip(bases.geometry, duals.geometry))
        outside = np.concatenate([bases.view[:, 1], duals.view[:, 1]]) < 0
        uncovered = []
        for (x, y) in inner.sample_grid(24):
            dd = np.hypot(x - cx, y - cy)
            if not np.where(outside, dd >= r - 1e-9, dd <= r + 1e-9).any():
                uncovered.append(f"({x:.3f},{y:.3f})")
        rep.add(
            "closed disks cover the interior window",
            not uncovered,
            uncovered[:4],
            detail="24x24 sample grid",
        )

    counts = []
    for frac in (1.0 / 3.0, 2.0 / 3.0, 1.0):
        sub = Window(
            w.x0 * frac, w.y0 * frac, w.x1 * frac, w.y1 * frac
        )
        counts.append(len(cfg.catalog(("base",), sub)) + len(cfg.catalog(("dual",), sub)))
    rep.add(
        "growth of circle counts in nested windows",
        None,
        detail=f"counts={counts}",
    )
    return rep


# ---------------------------------------------------------------------------
# tangency graph


@dataclass
class TangencyGraph:
    """Tangency structure of circles fully inside a window.

    ``faces`` lists the bounded faces of the planar graph as vertex cycles
    (indices into ``vertices``); the unbounded face is omitted.
    """

    vertices: Sequence[GeneratorCircle]
    edges: List[Tuple[int, int]]
    faces: List[List[int]]
    adjacency: Dict[int, List[int]]


def tangency_graph(cfg: Configuration, kind: str, w: Window) -> TangencyGraph:
    """Externally tangent pairs, by ``_pair_classes``, among the ``kind``
    circles inside the window, whose catalog is the vertex list."""
    return _tangency(cfg.catalog((kind,), w).inside(w))


def _tangency(verts: Catalog) -> TangencyGraph:
    n = len(verts.rows)
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    edges: List[Tuple[int, int]] = []
    tangent = np.triu(_pair_classes(verts, verts) == PairClass.EXTERNALLY_TANGENT, 1)
    for i, j in zip(*(x.tolist() for x in np.nonzero(tangent))):
        adj[i].append(j)
        adj[j].append(i)
        edges.append((i, j))
    centers = list(zip(*(v.tolist() for v in verts.geometry[:2])))

    def angle(i: int, j: int) -> float:
        return math.atan2(centers[j][1] - centers[i][1], centers[j][0] - centers[i][0])

    order: Dict[int, List[int]] = {}
    pos: Dict[Tuple[int, int], int] = {}
    for v in range(n):
        order[v] = sorted(adj[v], key=lambda u: angle(v, u))
        for k, u in enumerate(order[v]):
            pos[(v, u)] = k

    faces: List[List[int]] = []
    seen: Set[Tuple[int, int]] = set()
    for v0 in range(n):
        for u0 in order[v0]:
            if (v0, u0) in seen:
                continue
            cycle = []
            v, u = v0, u0
            while (v, u) not in seen:
                seen.add((v, u))
                cycle.append(v)
                k = pos[(u, v)]
                nxt = order[u][(k - 1) % len(order[u])]
                v, u = u, nxt
            area = 0.0
            for idx in range(len(cycle)):
                x1, y1 = centers[cycle[idx]]
                x2, y2 = centers[cycle[(idx + 1) % len(cycle)]]
                area += x1 * y2 - x2 * y1
            if area > 1e-9 and len(set(cycle)) == len(cycle) and len(cycle) >= 3:
                faces.append(cycle)
    return TangencyGraph(verts, edges, faces, adj)


def _is_three_connected(
    graph: TangencyGraph, interior: Sequence[int]
) -> Tuple[Optional[bool], str]:
    """Whether removing any two vertices keeps the interior vertices
    mutually connected.  Vertices near the window boundary may legitimately
    dangle after truncation, so only interior connectivity is required."""
    n = len(graph.vertices)
    if n < 5 or len(interior) < 2:
        return None, f"{n} vertices ({len(interior)} interior), too few to test"
    adj: List[List[int]] = [[] for _ in range(n)]
    for (i, j) in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    inside = [0] * n
    for v in interior:
        inside[v] = 1
    for a in range(n):
        b = _splitting_partner(adj, inside, a)
        if b is not None:
            va = graph.vertices[a].ident
            vb = graph.vertices[b].ident
            return False, f"removing {{{va},{vb}}} splits the interior"
    return True, (
        f"all {n * (n - 1) // 2} removals keep {len(interior)} interior "
        "vertices connected"
    )


def _splitting_partner(
    adj: Sequence[Sequence[int]], inside: Sequence[int], a: int
) -> Optional[int]:
    """The least b > a such that removing a and b leaves at least two
    interior vertices (``inside``) in more than one component, or None.

    One depth-first search of the graph without a finds the components and
    lowpoints (Hopcroft-Tarjan, *Dividing a graph into triconnected
    components*, SIAM J. Comput. 1973): removing b cuts off the subtree of
    each DFS child c with low(c) >= disc(b), which is every child of a
    root, and leaves the rest of b's component connected.
    """
    n = len(adj)
    disc, low, sub, comp = [-1] * n, [0] * n, [0] * n, [-1] * n
    children: List[List[int]] = [[] for _ in range(n)]
    counts: List[int] = []  # interior vertices per component
    clock = 0
    for root in range(n):
        if root == a or disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        comp[root] = len(counts)
        counts.append(0)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if w == a:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    comp[w] = comp[root]
                    children[v].append(w)
                    stack.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                sub[v] += inside[v]
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    sub[p] += sub[v]
                else:
                    counts[comp[v]] = sub[v]
    total = sum(counts)
    occupied = sum(1 for c in counts if c)
    for b in range(a + 1, n):
        if total - inside[b] < 2:
            continue
        c = comp[b]
        rest_count = counts[c] - inside[b]
        pieces = occupied - (counts[c] > 0)
        for ch in children[b]:
            if low[ch] >= disc[b]:
                rest_count -= sub[ch]
                pieces += sub[ch] > 0
        pieces += rest_count > 0
        if pieces >= 2:
            return b
    return None


def check_duality(cfg: Configuration, w: Window) -> ValidationReport:
    """Face/circle duality inside a window.

    Each bounded face of the base tangency graph must host exactly one dual
    circle orthogonal to all its boundary circles, and symmetrically for
    the dual graph.  Faces near the window boundary are clipped artifacts
    and are skipped via the safe margin.  Each kind's catalog is built
    once; its circles inside the window are the graph's vertices.
    Tangency and orthogonality are read off ``_pair_classes`` of the
    catalog rows.
    """
    rep = ValidationReport(cfg.name)
    inner = w.shrunk(cfg.safe_margin()) if cfg.lattice is not None else w
    cats = {kind: cfg.catalog((kind,), w) for kind in ("base", "dual")}
    verts = {kind: cat.inside(w) for kind, cat in cats.items()}
    graphs = {kind: _tangency(f) for kind, f in verts.items()}
    for kind, partner, label in (
        ("base", "dual", "base graph faces host one orthogonal dual"),
        ("dual", "base", "dual graph faces host one orthogonal base"),
    ):
        f, graph = verts[kind], graphs[kind]
        orth = _pair_classes(cats[partner], f) == PairClass.ORTHOGONAL
        cxs, cys = (v.tolist() for v in f.geometry[:2])
        bad: List[str] = []
        n_checked = 0
        for face in graph.faces:
            cx = sum(cxs[i] for i in face) / len(face)
            cy = sum(cys[i] for i in face) / len(face)
            if cfg.lattice is not None and (
                inner is None or not inner.contains_point(cx, cy)
            ):
                continue
            n_checked += 1
            hosts = int(orth[:, face].all(axis=1).sum())
            if hosts != 1:
                ids = "+".join(f.idents[i] for i in face)
                bad.append(f"face[{ids}]:{hosts} hosts")
        rep.add(
            label,
            None if n_checked == 0 else not bad,
            bad[:4],
            detail=f"{n_checked} faces checked",
        )

    if cfg.lattice is None:
        interior = list(range(len(verts["base"].rows)))
    else:
        v1, v2 = cfg._lattice_float
        core = w.shrunk(max(math.hypot(*v1), math.hypot(*v2)))
        inside = core is not None and core.contains_disk(*verts["base"].geometry)
        interior = np.flatnonzero(inside).tolist()
    ok3, detail = _is_three_connected(graphs["base"], interior)
    rep.add("base tangency graph 3-connected", ok3, detail=detail)
    return rep


# ---------------------------------------------------------------------------
# built-in configurations


def _sqrt3_over(num: int, den: int) -> QuadExt:
    return QuadExt(0, num, den, 3)


def _square_config() -> Configuration:
    one = _q(1)
    base = [from_center_radius((_q(0), _q(0)), one)]
    dual = [from_center_radius((one, one), one)]
    lattice = ((_q(2), _q(0)), (_q(0), _q(2)))
    syms = [
        SymmetryDecl(
            "translation", PlanarIsometry.translation((_q(2), _q(0))), {"vector": (2, 0)}
        ),
        SymmetryDecl(
            "translation", PlanarIsometry.translation((_q(0), _q(2))), {"vector": (0, 2)}
        ),
        SymmetryDecl(
            "rotation",
            PlanarIsometry.rotation((_q(0), _q(0)), (_q(0), _q(1))),
            {"center": (0, 0), "order": 4},
        ),
        SymmetryDecl(
            "mirror",
            PlanarIsometry.mirror_a((_q(0), _q(0)), (_q(-1), _q(0))),
            {"axis": "x=0"},
        ),
        SymmetryDecl(
            "mirror",
            PlanarIsometry.mirror_a((_q(0), _q(0)), (_q(0), _q(1))),
            {"axis": "y=x"},
        ),
    ]
    return Configuration("square", 1, base, dual, lattice, syms)


def _triangular_config() -> Configuration:
    z = _q(0, 0, 1, 3)
    one = _q(1, 0, 1, 3)
    two = _q(2, 0, 1, 3)
    s3 = QuadExt.sqrt_d(3)
    r_dual = _sqrt3_over(1, 3)  # 1/sqrt(3)
    base = [from_center_radius((z, z), one)]
    dual = [
        from_center_radius((one, r_dual), r_dual),
        from_center_radius((one, -r_dual), r_dual),
    ]
    lattice = ((two, z), (one, s3))
    half = QuadExt(1, 0, 2, 3)
    s3_half = QuadExt(0, 1, 2, 3)
    syms = [
        SymmetryDecl("translation", PlanarIsometry.translation((two, z)), {"vector": (2, 0)}),
        SymmetryDecl(
            "translation", PlanarIsometry.translation((one, s3)), {"vector": "1,sqrt(3)"}
        ),
        SymmetryDecl(
            "rotation",
            PlanarIsometry.rotation((z, z), (half, s3_half)),
            {"center": (0, 0), "order": 6},
        ),
        SymmetryDecl(
            "mirror", PlanarIsometry.mirror_a((z, z), (one, z)), {"axis": "y=0"}
        ),
    ]
    return Configuration("triangular", 3, base, dual, lattice, syms)


def _hexagonal_config() -> Configuration:
    """Triangular configuration rescaled by sqrt(3) with roles swapped."""
    z = _q(0, 0, 1, 3)
    one = _q(1, 0, 1, 3)
    s3 = QuadExt.sqrt_d(3)
    base = [
        from_center_radius((s3, one), one),
        from_center_radius((s3, -one), one),
    ]
    dual = [from_center_radius((z, z), s3)]
    lattice = ((2 * s3, z), (s3, _q(3, 0, 1, 3)))
    half = QuadExt(1, 0, 2, 3)
    s3_half = QuadExt(0, 1, 2, 3)
    syms = [
        SymmetryDecl(
            "translation", PlanarIsometry.translation((2 * s3, z)), {"vector": "2*sqrt(3),0"}
        ),
        SymmetryDecl(
            "translation",
            PlanarIsometry.translation((s3, _q(3, 0, 1, 3))),
            {"vector": "sqrt(3),3"},
        ),
        SymmetryDecl(
            "rotation",
            PlanarIsometry.rotation((z, z), (half, s3_half)),
            {"center": (0, 0), "order": 6},
        ),
        SymmetryDecl(
            "mirror", PlanarIsometry.mirror_a((z, z), (one, z)), {"axis": "y=0"}
        ),
    ]
    return Configuration("hexagonal", 3, base, dual, lattice, syms)


def _apollonian_config() -> Configuration:
    """Three mutually tangent unit-distance circles in an enclosing circle,
    with the four tangency-point circles as duals."""
    z = _q(0, 0, 1, 3)
    half = QuadExt(1, 0, 2, 3)
    s3_half = QuadExt(0, 1, 2, 3)
    r_small = s3_half  # sqrt(3)/2
    base = []
    for (cx, cy) in ((_q(1, 0, 1, 3), z), (-half, s3_half), (-half, -s3_half)):
        base.append(from_center_radius((cx, cy), r_small))
    r_big = QuadExt(2, 1, 2, 3)  # 1 + sqrt(3)/2
    base.append(from_center_radius((z, z), r_big, bounded=False))

    dual = [from_center_radius((z, z), half)]
    rd = QuadExt(3, 2, 2, 3)  # sqrt(3) + 3/2
    dist = QuadExt(2, 1, 1, 3)  # 2 + sqrt(3)
    for (ux, uy) in ((half, s3_half), (_q(-1, 0, 1, 3), z), (half, -s3_half)):
        dual.append(from_center_radius((dist * ux, dist * uy), rd))

    syms = [
        SymmetryDecl(
            "rotation",
            PlanarIsometry.rotation((z, z), (-half, s3_half)),
            {"center": (0, 0), "order": 3},
        ),
        SymmetryDecl(
            "mirror",
            PlanarIsometry.mirror_a((z, z), (_q(1, 0, 1, 3), z)),
            {"axis": "y=0"},
        ),
    ]
    return Configuration("apollonian", 3, base, dual, None, syms)


_BUILTIN: Dict[str, Callable[[], Configuration]] = {
    "square": _square_config,
    "triangular": _triangular_config,
    "hexagonal": _hexagonal_config,
    "apollonian": _apollonian_config,
}

WALLPAPER_GROUPS = (
    "p1", "p2", "pm", "pg", "cm", "pmm", "pmg", "pgg", "cmm",
    "p4", "p4m", "p4g", "p3", "p3m1", "p31m", "p6", "p6m",
)


def config_names() -> List[str]:
    return sorted(_BUILTIN) + [f"wallpaper:{g}" for g in WALLPAPER_GROUPS]


def make_config(name: str) -> Configuration:
    """Construct a built-in configuration by name.

    Plain names: square, triangular, hexagonal, apollonian.  Refined
    variants: wallpaper:<group> for the seventeen plane groups.
    """
    if name in _BUILTIN:
        return _BUILTIN[name]()
    if name.startswith("wallpaper:"):
        group = name.split(":", 1)[1]
        from . import wallpaper

        return wallpaper.make_wallpaper(group)
    raise ValueError(
        f"unknown configuration {name!r}; available: {', '.join(config_names())}"
    )
