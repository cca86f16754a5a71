"""Deterministic SVG and JSON emission for configurations and packings.

The SVG path is byte-reproducible: one ``<circle>`` per circle meeting
the style window (neither a packing nor a configuration holds lines),
sorted by a canonical key and printed with nine significant digits in
fixed notation, so the same data yields the same bytes whatever order
the generator produced it in.  Geometry uses mathematical orientation
(y grows upward); emission flips the sign of every y coordinate and
mirrors the viewBox so the picture is upright in SVG's downward y
convention.

JSON documents carry exact scalars as their canonical strings and
floats as numbers, which makes the round trip lossless for both
arithmetic kinds.  ``from_json`` checks the fixed document shape
directly while it builds the objects: required keys, value types, array
lengths, a mode from ``engine.MODES`` whose circle kind every packed
circle carries, an ordered window, a positive radius floor and a
nonnegative height bound.  The packed circles must hold a packing's
invariants (``engine.Packing``): every scalar finite and of the lane of
the first, and every curvature nonzero.  The first violation raises
ValueError ``invalid document at <json path>: <reason>``, with paths such
as ``$.circles[12].kind`` or ``$.circles[3].circle[1]``.

A packing's circle array, most of its document, goes through the
packing's columns (``engine.PackedColumns``) both ways: ``to_json``
formats the integer terms of exact scalars with ``exact.format_terms``
and splices the array into the ``json.dumps`` text of the rest, byte for
byte what ``json.dumps`` would write; ``from_json`` reads the array
straight into columns, parsing each distinct scalar string once.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from .configs import Configuration, SymmetryDecl, Window
from .engine import _CIRCLE_KIND, _NO_TERMS, MODES, GenerationLimits, PackedColumns, Packing
from .exact import QuadExt, Scalar, format_terms, int_array, parse_scalar, scalar_terms
from .inversive import InversiveCircle, PlanarIsometry

__all__ = [
    "RenderStyle",
    "to_svg",
    "to_json",
    "from_json",
]

_FILL_MODES = ("none", "by-kind", "by-height")

_HEIGHT_COLORS = (
    "#4c78a8",
    "#f58518",
    "#54a24b",
    "#e45756",
    "#72b7b2",
    "#eeca3b",
)

DEFAULT_PALETTE: Mapping[str, str] = {"base": "#2657a8", "dual": "#c03434"}


@dataclass(frozen=True)
class RenderStyle:
    """Everything that influences the emitted bytes.

    The palette maps the kinds "base" and "dual" to stroke colors and
    optional keys "h0", "h1", ... to fill colors for the by-height
    mode; missing height entries fall back to a built-in cycle.
    """

    window: Window
    width: int = 640
    height: int = 640
    stroke_width: float = 0.02
    fill_mode: str = "none"
    palette: Mapping[str, str] = field(default_factory=lambda: DEFAULT_PALETTE)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("pixel size must be positive")
        if self.fill_mode not in _FILL_MODES:
            raise ValueError(
                f"fill mode must be one of {_FILL_MODES}, got {self.fill_mode!r}"
            )

    def stroke_for(self, kind: str) -> str:
        return self.palette.get(kind, DEFAULT_PALETTE.get(kind, "#000000"))

    def fill_for(self, kind: str, height: Optional[int]) -> str:
        if self.fill_mode == "none":
            return "none"
        if self.fill_mode == "by-kind":
            return self.stroke_for(kind)
        if height is None:
            return "none"
        fallback = _HEIGHT_COLORS[height % len(_HEIGHT_COLORS)]
        return self.palette.get(f"h{height}", fallback)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """Nine significant digits, fixed notation, no negative zero."""
    if x == 0.0:
        return "0"
    s = f"{x:.9g}"
    if "e" in s or "E" in s:
        s = format(Decimal(s), "f")
    return "0" if s == "-0" else s


def _sort_key(kind: str, height: Optional[int], c: InversiveCircle):
    f = c.as_floats()
    return (
        0 if kind == "base" else 1,
        -1 if height is None else height,
        f.curvature,
        f.h1,
        f.h2,
        f.co_curvature,
    )


def _collect(obj: Union[Packing, Configuration], w: Window):
    items: List[Tuple[str, Optional[int], InversiveCircle]] = []
    if isinstance(obj, Configuration):
        for kind in ("base", "dual"):
            for rec in obj.circles_in_window(kind, w):
                items.append((kind, None, rec.circle))
    else:
        for pc in obj.circles:
            if w.meets_circle(pc.circle):
                items.append((pc.kind, pc.height, pc.circle))
    items.sort(key=lambda it: _sort_key(*it))
    return items


def to_svg(obj: Union[Packing, Configuration], style: RenderStyle) -> str:
    """SVG document with one ``<circle>`` per circle meeting the window."""
    w = style.window
    view = " ".join(_fmt(v) for v in (w.x0, -w.y1, w.x1 - w.x0, w.y1 - w.y0))
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{style.width}" height="{style.height}" viewBox="{view}">',
        f'<g fill="none" stroke-width="{_fmt(style.stroke_width)}">',
    ]
    for kind, height, c in _collect(obj, w):
        stroke = style.stroke_for(kind)
        fill = style.fill_for(kind, height)
        (cx, cy), r = c.center(), c.radius()
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _scalar_out(x: Scalar):
    return str(x) if isinstance(x, QuadExt) else float(x)


def _circle_out(c: InversiveCircle) -> List[object]:
    return [_scalar_out(x) for x in c.key()]


def _vec_out(v: Tuple[Scalar, Scalar]) -> List[object]:
    return [_scalar_out(v[0]), _scalar_out(v[1])]


def _config_out(cfg: Configuration) -> Dict[str, object]:
    return {
        "type": "configuration",
        "name": cfg.name,
        "d": cfg.d,
        "motif_base": [_circle_out(c) for c in cfg.motif_base],
        "motif_dual": [_circle_out(c) for c in cfg.motif_dual],
        "lattice": (
            None
            if cfg.lattice is None
            else [_vec_out(v) for v in cfg.lattice]
        ),
        "symmetries": [
            {
                "kind": s.kind,
                "a": _vec_out(s.iso.a),
                "t": _vec_out(s.iso.t),
                "conj": s.iso.conj,
                "meta": s.meta,
            }
            for s in cfg.symmetries
        ],
    }


def _packing_head(p: Packing) -> Dict[str, object]:
    """A packing's document with an empty circle array."""
    lim = p.limits
    return {
        "type": "packing",
        "config": _config_out(p.config),
        "mode": p.mode,
        "limits": {
            "max_height": lim.max_height,
            "min_radius": lim.min_radius,
            "window": [
                lim.window.x0,
                lim.window.y0,
                lim.window.x1,
                lim.window.y1,
            ],
        },
        "circles": [],
    }


# The packing document as ``json.dumps(indent=2, sort_keys=True)`` writes it,
# with the circle array, its first key, written here from the columns.
_HEAD_START = '{\n  "circles": []'
_PACKED = (
    '    {\n      "circle": [\n        %s,\n        %s,\n        %s,\n        %s\n      ],\n'
    '      "height": %s,\n      "kind": %s,\n      "source": %s,\n      "word": %s\n    }'
)


def _packing_text(p: Packing) -> str:
    head = json.dumps(_packing_head(p), indent=2, sort_keys=True)
    cols = p.columns()
    if not len(cols):
        return head + "\n"
    # a finite float as ``json.dumps`` writes it
    scalars = iter([f'"{t}"' for t in format_terms(*cols.terms)] if cols.exact
                   else map(float.__repr__, cols.floats.tolist()))
    strings: Dict[str, str] = {}

    def text(x: object) -> str:
        """A string or number field as ``json.dumps`` writes it."""
        if type(x) is not str:
            return str(x) if type(x) is int else json.dumps(x)
        out = strings.get(x)
        if out is None:
            out = strings[x] = encode_basestring_ascii(x)
        return out

    words = [
        "[\n        " + ",\n        ".join(map(text, w)) + "\n      ]" if w else "[]"
        for w in cols.words
    ]
    kind = text(cols.kind)
    body = ",\n".join([
        _PACKED % (*key, height, kind, source, word)
        for key, height, source, word in zip(
            zip(scalars, scalars, scalars, scalars), map(text, cols.heights), map(text, cols.sources), words,
        )
    ])
    return '{\n  "circles": [\n' + body + "\n  ]" + head[len(_HEAD_START):] + "\n"


# Reading checks the document's fixed shape while it builds the objects.  A
# reader raises _Invalid at the first violation; each enclosing reader adds
# its key or index on the way out, so the path costs nothing until it is
# needed.

_SYMMETRY_KINDS = ("translation", "rotation", "mirror", "glide")


class _Invalid(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason
        self.path: List[Union[str, int]] = []

    def at(self, part: Union[str, int]) -> "_Invalid":
        self.path.append(part)
        return self

    def where(self) -> str:
        return "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in reversed(self.path)
        )


T = TypeVar("T")


def _field(obj: Dict[str, object], key: str, read: Callable[[object], T]) -> T:
    if key not in obj:
        raise _Invalid(f"{key!r} is a required property")
    try:
        return read(obj[key])
    except _Invalid as err:
        raise err.at(key)


def _optional(obj: Dict[str, object], key: str, read: Callable[[object], T], default: T) -> T:
    return _field(obj, key, read) if key in obj else default


def _items(v: object, read: Callable[[object], T], count: Optional[int] = None) -> List[T]:
    if not isinstance(v, list):
        raise _Invalid(f"{_brief(v)} is not an array")
    if count is not None and len(v) != count:
        raise _Invalid(f"expected {count} items, got {len(v)}")
    out = []
    for i, x in enumerate(v):
        try:
            out.append(read(x))
        except _Invalid as err:
            raise err.at(i)
    return out


def _brief(v: object) -> str:
    text = repr(v)
    return text if len(text) <= 40 else text[:37] + "..."


def _object(v: object) -> Dict[str, object]:
    if not isinstance(v, dict):
        raise _Invalid(f"{_brief(v)} is not an object")
    return v


def _string(v: object) -> str:
    if not isinstance(v, str):
        raise _Invalid(f"{_brief(v)} is not a string")
    return v


def _boolean(v: object) -> bool:
    if not isinstance(v, bool):
        raise _Invalid(f"{_brief(v)} is not a boolean")
    return v


def _integer(v: object) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise _Invalid(f"{_brief(v)} is not an integer")
    return v


def _number(v: object) -> Union[int, float]:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise _Invalid(f"{_brief(v)} is not a number")
    return v


def _one_of(options: Sequence[str]) -> Callable[[object], str]:
    def read(v: object) -> str:
        if not isinstance(v, str) or v not in options:
            raise _Invalid(f"{_brief(v)} is not one of {list(options)}")
        return v

    return read


def _scalar(v: object) -> Scalar:
    if isinstance(v, str):
        try:
            return parse_scalar(v)
        except (ValueError, ZeroDivisionError) as err:
            raise _Invalid(str(err)) from None
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise _Invalid(f"{_brief(v)} is not a string or a number")
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        raise _Invalid(f"{_brief(v)} is past the float range")
    return float(v)


def _circle(v: object, scalar: Callable[[object], Scalar] = _scalar) -> InversiveCircle:
    return InversiveCircle(*_items(v, scalar, 4))


def _vec(v: object, scalar: Callable[[object], Scalar]) -> Tuple[Scalar, Scalar]:
    x, y = _items(v, scalar, 2)
    return (x, y)


def _symmetry(v: object, vec: Callable[[object], Tuple[Scalar, Scalar]]) -> SymmetryDecl:
    doc = _object(v)
    kind = _field(doc, "kind", _one_of(_SYMMETRY_KINDS))
    a, t = _field(doc, "a", vec), _field(doc, "t", vec)
    conj = _field(doc, "conj", _boolean)
    meta = _optional(doc, "meta", _object, {})
    try:
        iso = PlanarIsometry(a, t, conj)
    except ValueError as err:  # |a| != 1
        raise _Invalid(str(err)).at("a") from None
    return SymmetryDecl(kind, iso, dict(meta))


def _config(v: object) -> Configuration:
    doc = _object(v)
    _field(doc, "type", _one_of(("configuration",)))
    name = _field(doc, "name", _string)
    d = _field(doc, "d", _integer)
    parsed: Dict[str, Scalar] = {}

    def scalar(v: object) -> Scalar:  # ``_scalar``, each distinct string parsed once
        if isinstance(v, str):
            return parsed[v] if v in parsed else parsed.setdefault(v, _scalar(v))
        return _scalar(v)

    circles, vec = partial(_items, read=partial(_circle, scalar=scalar)), partial(_vec, scalar=scalar)
    motif_base = _field(doc, "motif_base", circles)
    motif_dual = _field(doc, "motif_dual", circles)
    lattice = _optional(doc, "lattice", lambda x: None if x is None else tuple(_items(x, vec, 2)), None)
    symmetries = _optional(doc, "symmetries", partial(_items, read=partial(_symmetry, vec=vec)), [])
    try:
        return Configuration(name, d, motif_base, motif_dual, lattice, symmetries)
    except ValueError as err:  # a line in a motif
        raise _Invalid(str(err)) from None


def _window(v: object) -> Window:
    try:
        return Window(*_items(v, _number, 4))
    except ValueError as err:  # corners out of order
        raise _Invalid(str(err)) from None


def _max_height(v: object) -> int:
    if _integer(v) < 0:
        raise _Invalid(f"{v!r} is negative")
    return v


def _min_radius(v: object) -> Union[int, float]:
    if not _number(v) > 0:
        raise _Invalid(f"{v!r} is not positive")
    if not v <= sys.float_info.max:
        raise _Invalid(f"{_brief(v)} is not finite")
    return v


def _limits(v: object) -> GenerationLimits:
    doc = _object(v)
    return GenerationLimits(
        _field(doc, "max_height", _max_height),
        _field(doc, "min_radius", _min_radius),
        _field(doc, "window", _window),
    )


def _packed_scalar(x: object, k: int, exact: bool) -> None:
    """Raise ``_Invalid`` where scalar k of a circle array, whose first
    scalar is exact (a string) or not, breaks a packing's invariants."""
    if exact != (type(x) is str) and type(x) in (str, int, float):
        raise _Invalid(f"{_brief(x)} is not {'a string' if exact else 'a number'}, as the first scalar is")
    value = _scalar(x)
    if not (isinstance(value, QuadExt) or math.isfinite(value)):
        raise _Invalid(f"{x!r} is not finite")
    if k % 4 == 1 and not value:
        raise _Invalid(f"{_brief(x)} is a zero curvature; a packing holds no lines")


def _scalar_columns(flat: List[object]) -> Tuple[bool, tuple, np.ndarray]:
    """(exact, terms, floats) of ``PackedColumns`` for the scalars ``flat``
    of circles read four by four, exact where the first is a string.  Each
    distinct string is parsed once, and the terms are gathered from those
    of the distinct strings.  The first scalar ``_packed_scalar`` refuses
    raises its error, with its path from the circle array."""
    exact = not flat or type(flat[0]) is str
    terms, floats, suspect = _NO_TERMS, np.zeros(0), set()
    if exact:
        distinct = list({x for x in flat if type(x) is str})
        parsed = [scalar_terms(x) for x in distinct]
        # strings that do not parse, and zeros, which no curvature may be
        suspect = {x for x, t in zip(distinct, parsed)
                   if not t or not (t[0] + t[1] if t[3] == 1 else t[0] or t[1])}
        ok = all(type(x) is str for x in flat) and None not in parsed and suspect.isdisjoint(flat[1::4])
    else:
        ok = all(type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max) for x in flat)
        if ok:
            floats = np.array(flat, dtype=np.float64)
            ok = np.isfinite(floats).all() and floats[1::4].all()
    if not ok:
        for k, x in enumerate(flat):
            if not exact or type(x) is not str or x in suspect:
                try:
                    _packed_scalar(x, k, exact)
                except _Invalid as err:
                    raise err.at(k % 4).at("circle").at(k // 4)
    if exact and flat:
        at = {x: i for i, x in enumerate(distinct)}
        rows = np.fromiter(map(at.__getitem__, flat), dtype=np.intp, count=len(flat))
        terms = tuple(int_array(parsed)[rows].T)
    return exact, terms, floats


def _packed_columns(kind: str) -> Callable[[object], PackedColumns]:
    """Reader of the packed circles of a mode whose circles are ``kind``,
    straight into columns.

    Each entry is checked in the order circle, its scalars, kind, height,
    word, source, and the entries in order, so the first violation is
    raised.  A value that fails a quick test here is handed to its field's
    reader, which raises the error with its path; the scalars are checked
    all at once after the entries (``_scalar_columns``), so a violation
    found among the entries waits until the scalars before it pass.
    """
    read_kind = _one_of((kind,))

    def read(v: object) -> PackedColumns:
        if not isinstance(v, list):
            raise _Invalid(f"{_brief(v)} is not an array")
        flat: List[object] = []
        heights: List[int] = []
        words: List[Tuple[str, ...]] = []
        sources: List[str] = []
        invalid = None
        for i, e in enumerate(v):
            try:
                if type(e) is not dict:
                    _object(e)
                circle = e.get("circle")
                if type(circle) is not list or len(circle) != 4:
                    _field(e, "circle", _circle)
                flat += circle
                got = e.get("kind")
                if type(got) is not str or got != kind:
                    _field(e, "kind", read_kind)
                height = e.get("height")
                if type(height) is not int:
                    _field(e, "height", _integer)
                word = e.get("word")
                if type(word) is not list or not all(type(x) is str for x in word):
                    _field(e, "word", lambda x: _items(x, _string))
                source = e.get("source")
                if type(source) is not str:
                    _field(e, "source", _string)
            except _Invalid as err:
                invalid = err.at(i)
                break
            heights.append(height)
            words.append(tuple(word))
            sources.append(source)
        exact, terms, floats = _scalar_columns(flat)
        if invalid is not None:
            raise invalid
        return PackedColumns(exact, terms, floats, kind, heights, words, sources)

    return read


def _packing(doc: Dict[str, object]) -> Packing:
    config = _field(doc, "config", _config)
    mode = _field(doc, "mode", _one_of(MODES))
    limits = _field(doc, "limits", _limits)
    circles = _field(doc, "circles", _packed_columns(_CIRCLE_KIND[mode]))
    return Packing(config, mode, limits, columns=circles)


def to_json(obj: Union[Packing, Configuration]) -> str:
    """Document of the shape ``from_json`` checks, with exact scalars as
    canonical strings."""
    if isinstance(obj, Configuration):
        return json.dumps(_config_out(obj), indent=2, sort_keys=True) + "\n"
    return _packing_text(obj)


def from_json(text: Union[str, bytes]) -> Union[Packing, Configuration]:
    """Parse and check a document produced by to_json.

    Raises ValueError ``invalid document at <json path>: <reason>`` for
    shape violations, out-of-range limits and malformed exact scalars
    alike, with paths such as ``$.circles[12].kind``.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("document must be an object with a 'type' field")
    kind = doc["type"]
    if kind not in ("configuration", "packing"):
        raise ValueError(f"unknown document type {kind!r}")
    try:
        return _config(doc) if kind == "configuration" else _packing(doc)
    except _Invalid as err:
        raise ValueError(f"invalid document at {err.where()}: {err.reason}") from None
