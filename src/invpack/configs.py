"""Periodic and finite circle configurations.

A configuration is a finite *motif* of base and dual circles, optionally
repeated by a rank-2 translation lattice.  The built-in families are the
square and triangular/hexagonal grids, a finite Apollonian-type seed, and
the refined wallpaper variants constructed in :mod:`invpack.wallpaper`.

All built-in configurations carry exact ``QuadExt`` coordinates, so pair
classification, ring checks and duality checks can run without floating
point error.  Validation helpers use a float prefilter to skip clearly
disjoint far-apart pairs and confirm everything else exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .exact import QuadExt, Scalar, as_float
from .inversive import (
    InversiveCircle,
    PairClass,
    PlanarIsometry,
    apply_isometry,
    classify_pair,
    from_center_radius,
    inversive_product,
)
from .lattice import RowLattice

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
        if not (self.x0 <= self.x1 and self.y0 <= self.y1):
            raise ValueError("window corners out of order")

    @classmethod
    def parse(cls, text: str) -> "Window":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected 'x0,y0,x1,y1'")
        return cls(*parts)

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

    def meets_disk(self, cx: float, cy: float, r: float) -> bool:
        """True when the closed disk intersects the closed window."""
        dx = max(self.x0 - cx, 0.0, cx - self.x1)
        dy = max(self.y0 - cy, 0.0, cy - self.y1)
        return dx * dx + dy * dy <= r * r

    def contains_disk(self, cx: float, cy: float, r: float) -> bool:
        return (
            self.x0 <= cx - r
            and cx + r <= self.x1
            and self.y0 <= cy - r
            and cy + r <= self.y1
        )

    def meets_circle(self, c: InversiveCircle, expand: float = 0.0) -> bool:
        if c.is_line:
            return self._meets_line(c, expand)
        (cx, cy), r = c.center(), abs(c.radius())
        return self.meets_disk(cx, cy, r + expand)

    def contains_circle(self, c: InversiveCircle) -> bool:
        if c.is_line:
            return False
        (cx, cy), r = c.center(), abs(c.radius())
        return self.contains_disk(cx, cy, r)

    def _meets_line(self, c: InversiveCircle, expand: float) -> bool:
        n1, n2 = as_float(c.h1), as_float(c.h2)
        off = as_float(c.co_curvature) / 2.0
        xs = (self.x0 - expand, self.x1 + expand)
        ys = (self.y0 - expand, self.y1 + expand)
        vals = [n1 * x + n2 * y - off for x in xs for y in ys]
        return min(vals) <= 0.0 <= max(vals)

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

    @cached_property
    def floats(self) -> InversiveCircle:
        """``circle.as_floats()``, converted once."""
        return self.circle.as_floats()


def make_id(kind: str, index: int, shift: Optional[Tuple[int, int]]) -> str:
    prefix = "b" if kind == "base" else "d"
    if shift is None:
        return f"{prefix}{index}"
    return f"{prefix}{index}@{shift[0]},{shift[1]}"


def parse_id(ident: str) -> Tuple[str, int, Optional[Tuple[int, int]]]:
    kind = "base" if ident[0] == "b" else "dual"
    if ident[0] not in "bd":
        raise ValueError(f"bad circle id {ident!r}")
    body = ident[1:]
    if "@" in body:
        idx, _, shift = body.partition("@")
        m, _, n = shift.partition(",")
        return kind, int(idx), (int(m), int(n))
    return kind, int(body), None


class Catalog(Sequence[GeneratorCircle]):
    """Configuration circles held as arrays, in id order.

    ``kind``, ``index`` and ``shift`` give each circle's kind, motif index
    and lattice shift (m, n) (zero in a finite configuration); ``idents``
    gives its id.  Indexing or iterating builds the exact circles, all of
    them, on first use.
    """

    def __init__(
        self,
        cfg: "Configuration",
        kind: np.ndarray,
        index: np.ndarray,
        shift: np.ndarray,
        idents: List[str],
    ) -> None:
        self.cfg = cfg
        self.kind = kind
        self.index = index
        self.shift = shift
        self.idents = idents
        self._circles: Optional[List[GeneratorCircle]] = None

    @classmethod
    def concat(cls, parts: Sequence["Catalog"]) -> "Catalog":
        """The circles of all parts (at least one, of one configuration),
        in id order."""
        idents = [i for p in parts for i in p.idents]
        order = np.array(sorted(range(len(idents)), key=idents.__getitem__), dtype=np.intp)
        return cls(
            parts[0].cfg,
            np.concatenate([p.kind for p in parts])[order],
            np.concatenate([p.index for p in parts])[order],
            np.concatenate([p.shift for p in parts])[order],
            [idents[i] for i in order.tolist()],
        )

    def circles(self) -> List[GeneratorCircle]:
        if self._circles is None:
            motif = {k: self.cfg.motif(k) for k in ("base", "dual")}
            self._circles = [
                GeneratorCircle(ident, kind, self.cfg._placed(motif[kind][i], (m, n)))
                for ident, kind, i, (m, n) in zip(
                    self.idents, self.kind.tolist(), self.index.tolist(), self.shift.tolist()
                )
            ]
        return self._circles

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
        # integer row lattices by (kind, mirror kinds), derived on first use
        self.row_lattices: Dict[Tuple[str, Tuple[str, ...]], RowLattice] = {}
        self._lookup: Dict[Tuple[str, object], List[Tuple[int, InversiveCircle]]] = {}
        for kind, motif in (("base", self.motif_base), ("dual", self.motif_dual)):
            for i, c in enumerate(motif):
                self._lookup.setdefault((kind, self._curv_key(c)), []).append((i, c))

    @staticmethod
    def _curv_key(c: InversiveCircle) -> object:
        b = c.curvature
        return b if isinstance(b, QuadExt) else round(b, 12)

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

    def _placed(self, c: InversiveCircle, shift: Tuple[int, int]) -> InversiveCircle:
        """The motif circle c moved by its lattice shift, exactly."""
        if self.lattice is None:
            return c
        return apply_isometry(self.translation(*shift), c)

    def _shift_range(
        self, center: Tuple[float, float], radius: float, w: Window, expand: float
    ) -> Tuple[int, int, int, int]:
        """Bounds (m_lo, m_hi, n_lo, n_hi) of the integer (m, n) with
        center + m v1 + n v2 possibly relevant to w."""
        (a, c), (b, dd) = self._lattice_float
        det = a * dd - b * c
        pad = radius + expand
        corners = [
            (x - center[0], y - center[1])
            for x in (w.x0 - pad, w.x1 + pad)
            for y in (w.y0 - pad, w.y1 + pad)
        ]
        ms, ns = [], []
        for (px, py) in corners:
            ms.append((px * dd - py * b) / det)
            ns.append((a * py - c * px) / det)
        m_lo, m_hi = math.floor(min(ms)) - 1, math.ceil(max(ms)) + 1
        n_lo, n_hi = math.floor(min(ns)) - 1, math.ceil(max(ns)) + 1
        return m_lo, m_hi, n_lo, n_hi

    def catalog(
        self, kind: str, w: Window, predicate: str = "meets", expand: float = 0.0
    ) -> Catalog:
        """Every configuration circle of the given kind meeting the window
        grown by ``expand`` (predicate "meets") or contained in the window
        ("inside"), in id order.

        Lattice translates are tested together on float centers and radii:
        the motif center plus m v1 + n v2, over the ``_shift_range`` grid of
        each motif circle.  A translate within a relative slack of 1e-9 of
        the boundary is a tie, and a tie is decided by ``Window`` on the
        exact translate, the test every circle went through one at a time
        before; the slack bounds the rounding that separates the two
        tests, so both keep the same circles.
        """
        keep: Callable[[InversiveCircle], bool]
        if predicate == "meets":
            keep = lambda c: w.meets_circle(c, expand)  # noqa: E731
        elif predicate == "inside":
            keep = lambda c: w.contains_circle(c)  # noqa: E731
        else:
            raise ValueError(f"unknown predicate {predicate!r}")
        motif = self.motif(kind)
        if self.lattice is None:
            index = np.array([i for i, c in enumerate(motif) if keep(c)], dtype=np.int64)
            shift = np.zeros((len(index), 2), dtype=np.int64)
            idents = [make_id(kind, i, None) for i in index.tolist()]
            return Catalog(self, np.full(len(index), kind), index, shift, idents)

        geo = np.array([(*c.center(), abs(c.radius())) for c in motif]).reshape(-1, 3)
        bounds = np.array(
            [self._shift_range((x, y), r, w, expand) for x, y, r in geo.tolist()],
            dtype=np.int64,
        ).reshape(-1, 4)
        m_lo, n_lo = bounds[:, 0], bounds[:, 2]
        n_count = bounds[:, 3] - n_lo + 1
        count = (bounds[:, 1] - m_lo + 1) * n_count
        index = np.repeat(np.arange(len(motif), dtype=np.int64), count)
        k = np.arange(len(index)) - np.repeat(np.cumsum(count) - count, count)
        m = m_lo[index] + k // n_count[index]
        n = n_lo[index] + k % n_count[index]

        (ax, ay), (bx, by) = self._lattice_float
        x, y, r = geo[index, 0], geo[index, 1], geo[index, 2]
        cx = x + m * ax + n * bx
        cy = y + m * ay + n * by
        if predicate == "meets":
            dx = np.maximum(np.maximum(w.x0 - cx, 0.0), cx - w.x1)
            dy = np.maximum(np.maximum(w.y0 - cy, 0.0), cy - w.y1)
            margin = r + expand - np.hypot(dx, dy)
        else:
            margin = np.minimum(
                np.minimum(cx - r - w.x0, w.x1 - (cx + r)),
                np.minimum(cy - r - w.y0, w.y1 - (cy + r)),
            )
        reach = max(abs(w.x0), abs(w.x1), abs(w.y0), abs(w.y1)) + abs(expand)
        slack = 1e-9 * (
            1.0 + reach + r + np.abs(x) + np.abs(y)
            + np.abs(m) * (abs(ax) + abs(ay)) + np.abs(n) * (abs(bx) + abs(by))
        )
        kept = margin > slack
        for j in np.nonzero(np.abs(margin) <= slack)[0].tolist():
            kept[j] = keep(self._placed(motif[index[j]], (int(m[j]), int(n[j]))))
        sel = np.nonzero(kept)[0]
        idents = [
            make_id(kind, i, shift)
            for i, shift in zip(index[sel].tolist(), zip(m[sel].tolist(), n[sel].tolist()))
        ]
        perm = sorted(range(len(sel)), key=idents.__getitem__)
        order = sel[np.array(perm, dtype=np.intp)]
        return Catalog(
            self,
            np.full(len(order), kind),
            index[order],
            np.column_stack([m[order], n[order]]),
            [idents[i] for i in perm],
        )

    def circles_in_window(
        self, kind: str, w: Window, predicate: str = "meets", expand: float = 0.0
    ) -> List[GeneratorCircle]:
        """The circles of ``catalog`` as exact circles with their ids.

        Every configuration circle of the given kind meeting (or contained
        in) the window, in id order; only the kept translates are built.
        A translate within a relative slack of 1e-9 of the window's
        boundary is decided by ``Window.meets_circle`` (or
        ``Window.contains_circle``) on its exact translate, so a circle
        tangent to the window is kept exactly when the float test on its
        exact coordinates keeps it.
        """
        return self.catalog(kind, w, predicate, expand).circles()

    def circle_from_id(self, ident: str) -> InversiveCircle:
        kind, idx, shift = parse_id(ident)
        motif = self.motif(kind)
        if idx >= len(motif):
            raise KeyError(f"no motif circle {ident!r}")
        c = motif[idx]
        if shift is None:
            return c
        return self._placed(c, shift)

    def contains_circle(self, c: InversiveCircle, kind: str) -> Optional[str]:
        """Id of the configuration circle equal to c, or None.

        Matches curvature first, then solves the lattice decomposition of
        the center offset; the co-curvature is confirmed via the full key.
        """
        cands = self._lookup.get((kind, self._curv_key(c)), [])
        if not cands:
            return None
        if self.lattice is None:
            for i, m in cands:
                if m.key() == c.key():
                    return make_id(kind, i, None)
            return None
        (a, cc), (b, dd) = self._lattice_float
        det = a * dd - b * cc
        cx, cy = c.center()
        for i, mc in cands:
            mx, my = mc.center()
            px, py = cx - mx, cy - my
            m_f = (px * dd - py * b) / det
            n_f = (a * py - cc * px) / det
            m, n = round(m_f), round(n_f)
            if abs(m_f - m) > 1e-6 or abs(n_f - n) > 1e-6:
                continue
            moved = apply_isometry(self.translation(m, n), mc)
            if moved.key() == c.key():
                return make_id(kind, i, (m, n))
        return None

    def motif_extent(self) -> float:
        """Radius of a disk around the origin covering one motif copy."""
        worst = 0.0
        for c in self.motif_base + self.motif_dual:
            (cx, cy), r = c.center(), abs(c.radius())
            worst = max(worst, math.hypot(cx, cy) + r)
        return worst

    def safe_margin(self) -> float:
        """Distance from the window boundary beyond which local structure
        (rings, faces) is unaffected by truncation."""
        if self.lattice is None:
            return 0.0
        (a, c), (b, dd) = self._lattice_float
        return math.hypot(a, c) + math.hypot(b, dd)


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


_SAME_KIND_OK = {PairClass.EXTERNALLY_TANGENT, PairClass.DISJOINT_EXTERIORS}
_CROSS_KIND_OK = {
    PairClass.ORTHOGONAL,
    PairClass.EXTERNALLY_TANGENT,
    PairClass.DISJOINT_EXTERIORS,
}


def _classified_pairs(
    group_a: List[GeneratorCircle],
    group_b: Optional[List[GeneratorCircle]] = None,
) -> Iterable[Tuple[GeneratorCircle, GeneratorCircle, PairClass]]:
    """Classify pairs, trusting the float product only when it is far below
    the tangency threshold (clearly disjoint exteriors)."""
    if group_b is None:
        pairs = (
            (group_a[i], group_a[j])
            for i in range(len(group_a))
            for j in range(i + 1, len(group_a))
        )
    else:
        pairs = ((u, v) for u in group_a for v in group_b)
    for u, v in pairs:
        if inversive_product(u.floats, v.floats) < -1.2:
            yield u, v, PairClass.DISJOINT_EXTERIORS
        else:
            yield u, v, classify_pair(u.circle, v.circle)


def _ring_of(
    center: GeneratorCircle, others: List[GeneratorCircle]
) -> Optional[List[GeneratorCircle]]:
    """Circles orthogonal to `center`, in cyclic order, if they form a ring
    (>= 3 circles, consecutive ones externally tangent).  None otherwise."""
    (cx, cy) = center.circle.center()
    ring = []
    for g in others:
        if abs(inversive_product(center.floats, g.floats)) > 0.5:
            continue
        if classify_pair(center.circle, g.circle) is PairClass.ORTHOGONAL:
            ring.append(g)
    if len(ring) < 3:
        return None
    ring.sort(key=lambda g: math.atan2(g.circle.center()[1] - cy, g.circle.center()[0] - cx))
    for i, g in enumerate(ring):
        h = ring[(i + 1) % len(ring)]
        if classify_pair(g.circle, h.circle) is not PairClass.EXTERNALLY_TANGENT:
            return None
    return ring


def validate_base_dual(cfg: Configuration, w: Window) -> ValidationReport:
    """Check the defining base/dual conditions inside a window.

    Pair conditions are checked for every pair meeting the window; ring and
    covering conditions only at a safe margin from the boundary, since
    truncation removes ring partners.
    """
    rep = ValidationReport(cfg.name)
    bases = cfg.circles_in_window("base", w)
    duals = cfg.circles_in_window("dual", w)
    if not bases or not duals:
        rep.add("nonempty", False, detail="window contains no circles")
        return rep
    rep.add("nonempty", True, detail=f"{len(bases)} base, {len(duals)} dual")

    bad = [
        (u, v, cl)
        for u, v, cl in _classified_pairs(bases)
        if cl not in _SAME_KIND_OK
    ]
    rep.add(
        "base-base pairs tangent or disjoint",
        not bad,
        [f"{u.ident}|{v.ident}:{cl.value}" for u, v, cl in bad[:4]],
    )
    bad = [
        (u, v, cl)
        for u, v, cl in _classified_pairs(duals)
        if cl not in _SAME_KIND_OK
    ]
    rep.add(
        "dual-dual pairs tangent or disjoint",
        not bad,
        [f"{u.ident}|{v.ident}:{cl.value}" for u, v, cl in bad[:4]],
    )
    bad = [
        (u, v, cl)
        for u, v, cl in _classified_pairs(bases, duals)
        if cl not in _CROSS_KIND_OK
    ]
    rep.add(
        "base-dual pairs orthogonal, tangent or disjoint",
        not bad,
        [f"{u.ident}|{v.ident}:{cl.value}" for u, v, cl in bad[:4]],
    )

    margin = cfg.safe_margin() if cfg.lattice is not None else 0.0
    inner = w.shrunk(margin) if cfg.lattice is not None else w
    ring_fail: List[str] = []
    checked = 0
    for center_group, other_group, label in (
        (bases, duals, "base"),
        (duals, bases, "dual"),
    ):
        for g in center_group:
            (cx, cy), r = g.circle.center(), g.circle.radius()
            if cfg.lattice is not None and (
                inner is None or not inner.contains_disk(cx, cy, r)
            ):
                continue
            checked += 1
            if _ring_of(g, other_group) is None:
                ring_fail.append(f"{label}:{g.ident}")
    rep.add(
        "every interior circle ringed by >= 3 orthogonal circles",
        None if checked == 0 else not ring_fail,
        ring_fail[:4],
        detail=f"{checked} circles checked",
    )

    if inner is not None and inner.x0 < inner.x1 and inner.y0 < inner.y1:
        disks = [
            (g.circle.center(), as_float(g.circle.exact_radius()))
            for g in bases + duals
        ]
        uncovered = []
        for (x, y) in inner.sample_grid(24):
            hit = False
            for (cx, cy), r in disks:
                dd = math.hypot(x - cx, y - cy)
                if (r >= 0 and dd <= r + 1e-9) or (r < 0 and dd >= -r - 1e-9):
                    hit = True
                    break
            if not hit:
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
        counts.append(
            len(cfg.circles_in_window("base", sub))
            + len(cfg.circles_in_window("dual", sub))
        )
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

    vertices: List[GeneratorCircle]
    edges: List[Tuple[int, int]]
    faces: List[List[int]]
    adjacency: Dict[int, List[int]]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def tangency_graph(circles: Sequence[GeneratorCircle], w: Window) -> TangencyGraph:
    verts = [g for g in circles if w.contains_circle(g.circle)]
    n = len(verts)
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    edges: List[Tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if inversive_product(verts[i].floats, verts[j].floats) < -1.2:
                continue
            if classify_pair(verts[i].circle, verts[j].circle) is PairClass.EXTERNALLY_TANGENT:
                adj[i].append(j)
                adj[j].append(i)
                edges.append((i, j))
    centers = [g.circle.center() for g in verts]

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
    and are skipped via the safe margin.
    """
    rep = ValidationReport(cfg.name)
    margin = cfg.safe_margin()
    inner = w.shrunk(margin) if cfg.lattice is not None else w
    bases = cfg.circles_in_window("base", w)
    duals = cfg.circles_in_window("dual", w)
    for this_kind, graph_circles, partners, label in (
        ("base", bases, duals, "base graph faces host one orthogonal dual"),
        ("dual", duals, bases, "dual graph faces host one orthogonal base"),
    ):
        graph = tangency_graph(graph_circles, w)
        bad: List[str] = []
        n_checked = 0
        for face in graph.faces:
            boundary = [graph.vertices[i] for i in face]
            cx = sum(g.circle.center()[0] for g in boundary) / len(boundary)
            cy = sum(g.circle.center()[1] for g in boundary) / len(boundary)
            if cfg.lattice is not None and (
                inner is None or not inner.contains_point(cx, cy)
            ):
                continue
            n_checked += 1
            hosts = [
                p
                for p in partners
                if all(
                    abs(inversive_product(p.floats, g.floats)) < 0.5
                    and inversive_product(p.circle, g.circle) == 0
                    for g in boundary
                )
            ]
            if len(hosts) != 1:
                ids = "+".join(g.ident for g in boundary)
                bad.append(f"face[{ids}]:{len(hosts)} hosts")
        rep.add(
            label,
            None if n_checked == 0 else not bad,
            bad[:4],
            detail=f"{n_checked} faces checked",
        )

    base_graph = tangency_graph(bases, w)
    if cfg.lattice is None:
        interior = list(range(len(base_graph.vertices)))
    else:
        v1, v2 = cfg._lattice_float
        core = w.shrunk(max(math.hypot(*v1), math.hypot(*v2)))
        interior = [
            i
            for i, g in enumerate(base_graph.vertices)
            if core is not None and core.contains_circle(g.circle)
        ]
    ok3, detail = _is_three_connected(base_graph, interior)
    rep.add("base tangency graph 3-connected", ok3, detail=detail)
    return rep


def kleinian_class(cfg: Configuration) -> str:
    """Coarse classification by translational symmetry content."""
    if cfg.lattice is not None:
        for m, n in ((1, 0), (0, 1)):
            t = cfg.translation(m, n)
            for kind in ("base", "dual"):
                for c in cfg.motif(kind):
                    if cfg.contains_circle(apply_isometry(t, c), kind) is None:
                        return "unclassified"
        return "doubly-periodic"
    for s in cfg.symmetries:
        if s.kind == "translation":
            ok = all(
                cfg.contains_circle(apply_isometry(s.iso, c), kind) is not None
                for kind in ("base", "dual")
                for c in cfg.motif(kind)
            )
            if ok:
                return "strip"
    return "finite"


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
