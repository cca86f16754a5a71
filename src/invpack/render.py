"""Deterministic SVG and JSON emission for configurations and packings.

The SVG path is byte-reproducible: circles are filtered against the
style window, sorted by a canonical key, and printed with nine
significant digits in fixed notation, so the same data yields the same
bytes whatever order the generator produced it in.  Geometry uses
mathematical orientation (y grows upward); emission flips the sign of
every y coordinate and mirrors the viewBox so the picture is upright in
SVG's downward y convention.

JSON documents carry exact scalars as their canonical strings and
floats as numbers, which makes the round trip lossless for both
arithmetic kinds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import jsonschema

from .configs import Configuration, SymmetryDecl, Window
from .engine import GenerationLimits, PackedCircle, Packing
from .exact import QuadExt, Scalar, as_float, parse_scalar
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


def _clip_line(c: InversiveCircle, w: Window) -> Optional[Tuple[float, float, float, float]]:
    """Segment of the line inside the window, or None when they miss.

    The line is {p : p.n = s} with n = (h1, h2) and s = co_curvature/2.
    Intersections with the four window edges are collected and the two
    extreme ones along the line direction become the endpoints.
    """
    n1, n2 = as_float(c.h1), as_float(c.h2)
    s = as_float(c.co_curvature) / 2.0
    pts: List[Tuple[float, float]] = []
    if abs(n2) > 1e-15:
        for x in (w.x0, w.x1):
            y = (s - n1 * x) / n2
            if w.y0 - 1e-12 <= y <= w.y1 + 1e-12:
                pts.append((x, min(max(y, w.y0), w.y1)))
    if abs(n1) > 1e-15:
        for y in (w.y0, w.y1):
            x = (s - n2 * y) / n1
            if w.x0 - 1e-12 <= x <= w.x1 + 1e-12:
                pts.append((min(max(x, w.x0), w.x1), y))
    if len(pts) < 2:
        return None
    # order along the direction (-n2, n1) and keep the extremes
    pts.sort(key=lambda p: (-n2 * p[0] + n1 * p[1], p[0], p[1]))
    (x1, y1), (x2, y2) = pts[0], pts[-1]
    if x1 == x2 and y1 == y2:
        return None
    return (x1, y1, x2, y2)


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
    """SVG document with one element per circle meeting the window.

    Proper circles become circle elements; straight lines (curvature
    zero) become line segments clipped to the window box.
    """
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
        if c.is_line:
            seg = _clip_line(c, w)
            if seg is None:
                continue
            x1, y1, x2, y2 = seg
            out.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(-y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(-y2)}" stroke="{stroke}"/>'
            )
            continue
        (cx, cy), r = c.center(), abs(c.radius())
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

_SCALAR_SCHEMA = {"type": ["string", "number"]}
_CIRCLE_SCHEMA = {
    "type": "array",
    "items": _SCALAR_SCHEMA,
    "minItems": 4,
    "maxItems": 4,
}
_VEC_SCHEMA = {
    "type": "array",
    "items": _SCALAR_SCHEMA,
    "minItems": 2,
    "maxItems": 2,
}
_SYMMETRY_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["translation", "rotation", "mirror", "glide"]},
        "a": _VEC_SCHEMA,
        "t": _VEC_SCHEMA,
        "conj": {"type": "boolean"},
        "meta": {"type": "object"},
    },
    "required": ["kind", "a", "t", "conj"],
}
_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"const": "configuration"},
        "name": {"type": "string"},
        "d": {"type": "integer"},
        "motif_base": {"type": "array", "items": _CIRCLE_SCHEMA},
        "motif_dual": {"type": "array", "items": _CIRCLE_SCHEMA},
        "lattice": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "array",
                    "items": _VEC_SCHEMA,
                    "minItems": 2,
                    "maxItems": 2,
                },
            ]
        },
        "symmetries": {"type": "array", "items": _SYMMETRY_SCHEMA},
    },
    "required": ["type", "name", "d", "motif_base", "motif_dual"],
}
_PACKED_SCHEMA = {
    "type": "object",
    "properties": {
        "circle": _CIRCLE_SCHEMA,
        "kind": {"enum": ["base", "dual", "super"]},
        "height": {"type": "integer"},
        "word": {"type": "array", "items": {"type": "string"}},
        "source": {"type": "string"},
    },
    "required": ["circle", "kind", "height", "word", "source"],
}
_PACKING_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"const": "packing"},
        "config": _CONFIG_SCHEMA,
        "mode": {"type": "string"},
        "limits": {
            "type": "object",
            "properties": {
                "max_height": {"type": "integer"},
                "min_radius": {"type": "number"},
                "window": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 4,
                    "maxItems": 4,
                },
            },
            "required": ["max_height", "min_radius", "window"],
        },
        "circles": {"type": "array", "items": _PACKED_SCHEMA},
    },
    "required": ["type", "config", "mode", "limits", "circles"],
}


def _scalar_out(x: Scalar):
    return str(x) if isinstance(x, QuadExt) else float(x)


def _scalar_in(v, where: str) -> Scalar:
    if isinstance(v, str):
        try:
            return parse_scalar(v)
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    return float(v)


def _circle_out(c: InversiveCircle) -> List[object]:
    return [_scalar_out(x) for x in c.key()]


def _circle_in(vals: Sequence[object], where: str) -> InversiveCircle:
    return InversiveCircle(
        *(_scalar_in(v, f"{where}[{i}]") for i, v in enumerate(vals))
    )


def _vec_out(v: Tuple[Scalar, Scalar]) -> List[object]:
    return [_scalar_out(v[0]), _scalar_out(v[1])]


def _vec_in(vals: Sequence[object], where: str) -> Tuple[Scalar, Scalar]:
    return (
        _scalar_in(vals[0], f"{where}[0]"),
        _scalar_in(vals[1], f"{where}[1]"),
    )


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


def _config_in(doc: Dict[str, object]) -> Configuration:
    lattice = doc.get("lattice")
    symmetries = [
        SymmetryDecl(
            s["kind"],
            PlanarIsometry(
                _vec_in(s["a"], f"symmetries[{i}].a"),
                _vec_in(s["t"], f"symmetries[{i}].t"),
                bool(s["conj"]),
            ),
            dict(s.get("meta", {})),
        )
        for i, s in enumerate(doc.get("symmetries", []))
    ]
    return Configuration(
        doc["name"],
        doc["d"],
        [
            _circle_in(c, f"motif_base[{i}]")
            for i, c in enumerate(doc["motif_base"])
        ],
        [
            _circle_in(c, f"motif_dual[{i}]")
            for i, c in enumerate(doc["motif_dual"])
        ],
        None
        if lattice is None
        else (
            _vec_in(lattice[0], "lattice[0]"),
            _vec_in(lattice[1], "lattice[1]"),
        ),
        symmetries,
    )


def _packing_out(p: Packing) -> Dict[str, object]:
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
        "circles": [
            {
                "circle": _circle_out(pc.circle),
                "kind": pc.kind,
                "height": pc.height,
                "word": list(pc.word),
                "source": pc.source,
            }
            for pc in p.circles
        ],
    }


def _packing_in(doc: Dict[str, object]) -> Packing:
    lim = doc["limits"]
    circles = [
        PackedCircle(
            _circle_in(pc["circle"], f"circles[{i}].circle"),
            pc["kind"],
            pc["height"],
            tuple(pc["word"]),
            pc["source"],
        )
        for i, pc in enumerate(doc["circles"])
    ]
    return Packing(
        _config_in(doc["config"]),
        doc["mode"],
        GenerationLimits(
            lim["max_height"],
            lim["min_radius"],
            Window(*lim["window"]),
        ),
        circles,
    )


def to_json(obj: Union[Packing, Configuration]) -> str:
    """Schema-shaped document with exact scalars as canonical strings."""
    doc = (
        _config_out(obj)
        if isinstance(obj, Configuration)
        else _packing_out(obj)
    )
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def from_json(text: Union[str, bytes]) -> Union[Packing, Configuration]:
    """Parse and validate a document produced by to_json.

    Raises ValueError naming the offending field for schema violations
    and malformed exact scalars alike.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("document must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "configuration":
        schema = _CONFIG_SCHEMA
    elif kind == "packing":
        schema = _PACKING_SCHEMA
    else:
        raise ValueError(f"unknown document type {kind!r}")
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as err:
        raise ValueError(f"invalid document at {err.json_path}: {err.message}") from None
    return _config_in(doc) if kind == "configuration" else _packing_in(doc)
