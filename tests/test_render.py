"""Emission tests: deterministic SVG bytes and lossless JSON round trips.

Covers style validation, the frozen circle counts for the square
configuration, canonical ordering independence from generation order,
the y-axis flip, nine-digit fixed-notation numbers, and JSON round trips
for configurations and packings with exact and float scalars, including
schema and scalar diagnostics.  A packing holds proper circles with
finite scalars, of one lane and the mode's kind, and each way in refuses
anything else.  ``to_json`` writes a
packing's circles from integer columns; it is held byte for byte to the
object writer it replaced, kept here as ``reference_to_json``, and the
column formatter and parser to ``str(QuadExt)`` and ``parse_scalar``.
Packings build their circle objects only on demand, and once built the
list is the packing.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invpack

from invpack.configs import Configuration, Window, config_names, make_config
from invpack.engine import MODES, GenerationLimits, PackedCircle, Packing, generate
from invpack.exact import QuadExt, format_terms, int_array, parse_scalar, reduce_terms, scalar_terms
from invpack.inversive import InversiveCircle, from_center_radius, from_line
from invpack.render import RenderStyle, _config_out, from_json, to_json, to_svg
from invpack.wallpaper import make_wallpaper


@pytest.fixture(scope="module")
def square():
    return make_config("square")


@pytest.fixture(scope="module")
def square_packing(square):
    limits = GenerationLimits(2, 0.01, Window(-4.0, -4.0, 4.0, 4.0))
    return generate(square, "packing", limits)


def style(half=4.0, **kw):
    return RenderStyle(window=Window.square(half), **kw)


class TestStyle:
    def test_fill_mode_validation(self):
        with pytest.raises(ValueError, match="fill mode"):
            style(fill_mode="rainbow")

    def test_pixel_size_validation(self):
        with pytest.raises(ValueError, match="pixel"):
            style(width=0)

    def test_height_palette_override(self):
        st = style(fill_mode="by-height", palette={"base": "#111111", "h2": "#abcdef"})
        assert st.fill_for("base", 2) == "#abcdef"
        assert st.fill_for("base", 0) != "none"
        assert st.stroke_for("dual") == "#c03434"


class TestSvg:
    def test_square_config_frozen_counts(self, square):
        # centers within one radius of [-4,4]^2: 5x5 even grid for base,
        # 6x6 odd grid minus the four corners for dual
        st = style()
        svg = to_svg(square, st)
        assert svg.count("<circle") == 25 + 32
        assert svg.count(f'stroke="{st.stroke_for("base")}"') == 25
        assert svg.count(f'stroke="{st.stroke_for("dual")}"') == 32
        assert 'viewBox="-4 -4 8 8"' in svg
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")

    def test_byte_determinism_and_order_independence(self, square_packing):
        st = style(fill_mode="by-height")
        first = to_svg(square_packing, st)
        again = to_svg(square_packing, st)
        assert first == again
        shuffled = Packing(
            square_packing.config,
            square_packing.mode,
            square_packing.limits,
            list(reversed(square_packing.circles)),
        )
        assert to_svg(shuffled, st) == first

    def test_empty_packing_is_valid_svg(self, square):
        empty = Packing(square, "packing", GenerationLimits(), [])
        svg = to_svg(empty, style())
        assert "<circle" not in svg
        assert svg.startswith("<svg ") and svg.endswith("</svg>\n")

    def test_y_axis_flip(self, square):
        # the dual circle centered at (1,1) must render at cy = -1
        svg = to_svg(square, style(half=2.0))
        assert '<circle cx="1" cy="-1" r="1"' in svg

    def test_nine_digit_fixed_notation(self):
        tri = make_config("triangular")
        svg = to_svg(tri, style(half=2.0))
        # the dual radius 1/sqrt(3) prints with nine significant digits
        assert 'r="0.577350269"' in svg
        values = re.findall(r'(?:cx|cy|r|x1|y1|x2|y2)="([^"]*)"', svg)
        assert values
        assert not any("e" in v or "E" in v for v in values)


def config_fields_equal(a: Configuration, b: Configuration) -> bool:
    return (
        a.name == b.name
        and a.d == b.d
        and a.motif_base == b.motif_base
        and a.motif_dual == b.motif_dual
        and a.lattice == b.lattice
        and [(s.kind, s.iso) for s in a.symmetries]
        == [(s.kind, s.iso) for s in b.symmetries]
    )


class TestJson:
    def test_config_round_trip(self, square):
        back = from_json(to_json(square))
        assert isinstance(back, Configuration)
        assert config_fields_equal(square, back)

    @pytest.mark.parametrize("name", config_names())
    def test_config_parses_each_distinct_scalar_once(self, name, monkeypatch):
        text = to_json(make_config(name))
        doc = json.loads(text)
        scalars = [x for key in ("motif_base", "motif_dual") for c in doc[key] for x in c]
        scalars += [x for v in doc["lattice"] or () for x in v]
        scalars += [x for s in doc["symmetries"] for key in ("a", "t") for x in s[key]]
        parsed = []
        monkeypatch.setattr(invpack.render, "parse_scalar", lambda x: parsed.append(x) or parse_scalar(x))
        assert to_json(from_json(text)) == text
        assert sorted(parsed) == sorted(set(scalars)) and len(set(scalars)) < len(scalars)

    def test_refined_config_keeps_exact_radii(self):
        # the tiny circles of radius (5-3*sqrt(2))/7 serialize through
        # their curvature 5+3*sqrt(2)
        cfg = make_wallpaper("pg")
        doc = to_json(cfg)
        assert '"(5+3*sqrt(2))"' in doc
        back = from_json(doc)
        assert config_fields_equal(cfg, back)

    def test_packing_round_trip(self, square_packing):
        back = from_json(to_json(square_packing))
        assert isinstance(back, Packing)
        assert back.mode == square_packing.mode
        assert back.limits == square_packing.limits
        assert back.circles == square_packing.circles
        assert config_fields_equal(back.config, square_packing.config)

    @pytest.mark.parametrize("exact", [True, False])
    def test_super_packing_round_trip(self, square, exact):
        limits = GenerationLimits(2, 0.05, Window(-1.0, -1.0, 1.0, 1.0))
        packing = generate(square, "super", limits, exact=exact)
        assert {c.kind for c in packing.circles} == {"super"}
        doc = to_json(packing)
        back = from_json(doc)
        assert back.mode == "super"
        assert back.circles == packing.circles
        assert to_json(back) == doc

    def test_float_circles_round_trip(self):
        cfg = Configuration(
            "probe",
            1,
            [InversiveCircle(15.0, 1.0, 4.0, 0.0)],
            [InversiveCircle(1.0, 1.0, 1.0, 1.0)],
        )
        back = from_json(to_json(cfg))
        assert back.motif_base == cfg.motif_base
        assert back.motif_dual == cfg.motif_dual

    def test_malformed_scalar_names_the_field(self, square):
        doc = to_json(square).replace('"2"', '"2+oops"', 1)
        with pytest.raises(ValueError, match=r"malformed exact scalar"):
            from_json(doc)

    def test_schema_violation_names_the_field(self):
        with pytest.raises(ValueError, match="d"):
            from_json(
                '{"type": "configuration", "name": "x", '
                '"motif_base": [], "motif_dual": []}'
            )

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown document type"):
            from_json('{"type": "sculpture"}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            from_json("[1, 2, 3]")

    def test_exact_scalar_parses_to_canonical_value(self, square):
        assert parse_scalar("(5-3*sqrt(2))/7") == QuadExt(5, -3, 7, 2)
        tiny = from_center_radius(
            (QuadExt(0, 0, 1, 2), QuadExt(0, 0, 1, 2)), QuadExt(5, -3, 7, 2)
        )
        cfg = Configuration("one", 2, [tiny], [tiny])
        back = from_json(to_json(cfg))
        assert back.motif_base[0].key() == tiny.key()


@pytest.fixture(scope="module")
def small_doc(square):
    limits = GenerationLimits(1, 0.1, Window(-1.0, -1.0, 1.0, 1.0))
    return json.loads(to_json(generate(square, "packing", limits)))


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for part in head:
            doc = doc[part]
        doc[last] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *head, last = path
        for part in head:
            doc = doc[part]
        del doc[last]
    return mutate


def _both(first, second):
    def mutate(doc):
        first(doc)
        second(doc)
    return mutate


def _relabel(kind):
    def mutate(doc):
        for pc in doc["circles"]:
            pc["kind"] = kind
    return mutate


# mutation of a valid packing document -> path of the error it must raise
MUTATIONS = {
    "missing config": (_drop(["config"]), "$"),
    "missing mode": (_drop(["mode"]), "$"),
    "missing limits": (_drop(["limits"]), "$"),
    "missing circles": (_drop(["circles"]), "$"),
    "missing config d": (_drop(["config", "d"]), "$.config"),
    "missing motif": (_drop(["config", "motif_dual"]), "$.config"),
    "missing symmetry conj": (_drop(["config", "symmetries", 0, "conj"]), "$.config.symmetries[0]"),
    "missing window": (_drop(["limits", "window"]), "$.limits"),
    "missing height": (_drop(["circles", 3, "height"]), "$.circles[3]"),
    "missing source": (_drop(["circles", 0, "source"]), "$.circles[0]"),
    "config not an object": (_set(["config"], []), "$.config"),
    "config type": (_set(["config", "type"], "packing"), "$.config.type"),
    "d as string": (_set(["config", "d"], "1"), "$.config.d"),
    "name as number": (_set(["config", "name"], 4), "$.config.name"),
    "lattice as number": (_set(["config", "lattice"], 5), "$.config.lattice"),
    "conj as string": (_set(["config", "symmetries", 0, "conj"], "no"), "$.config.symmetries[0].conj"),
    "symmetry kind": (_set(["config", "symmetries", 0, "kind"], "shear"), "$.config.symmetries[0].kind"),
    "circles as object": (_set(["circles"], {}), "$.circles"),
    "circle entry null": (_set(["circles", 2, "circle", 1], None), "$.circles[2].circle[1]"),
    "word as string": (_set(["circles", 1, "word"], "d0@0,0"), "$.circles[1].word"),
    "word letter as number": (_set(["circles", 1, "word"], ["d0@0,0", 7]), "$.circles[1].word[1]"),
    "min_radius as string": (_set(["limits", "min_radius"], "0.1"), "$.limits.min_radius"),
    "window entry as string": (_set(["limits", "window", 2], "1"), "$.limits.window[2]"),
    "short circle": (_set(["circles", 4, "circle"], ["1", "1", "0"]), "$.circles[4].circle"),
    "long window": (_set(["limits", "window"], [-1, -1, 1, 1, 0]), "$.limits.window"),
    "short lattice vector": (_set(["config", "lattice", 1], ["0"]), "$.config.lattice[1]"),
    "short motif circle": (_set(["config", "motif_base", 0], ["1"]), "$.config.motif_base[0]"),
    "line in motif": (_set(["config", "motif_base", 0], ["-6", "0", "0", "1"]), "$.config"),
    "kind bogus": (_set(["circles", 2, "kind"], "bogus"), "$.circles[2].kind"),
    "kind of another mode": (_relabel("dual"), "$.circles[0].kind"),
    "super kind in packing mode": (_set(["circles", 5, "kind"], "super"), "$.circles[5].kind"),
    "fractional height": (_set(["circles", 0, "height"], 1.5), "$.circles[0].height"),
    "boolean height": (_set(["circles", 0, "height"], True), "$.circles[0].height"),
    "string height": (_set(["circles", 0, "height"], "1"), "$.circles[0].height"),
    "mode bogus": (_set(["mode"], "bogus"), "$.mode"),
    "mode as number": (_set(["mode"], 1), "$.mode"),
    "window out of order": (_set(["limits", "window"], [1, -1, -1, 1]), "$.limits.window"),
    "zero min_radius": (_set(["limits", "min_radius"], 0), "$.limits.min_radius"),
    "negative min_radius": (_set(["limits", "min_radius"], -0.5), "$.limits.min_radius"),
    "negative max_height": (_set(["limits", "max_height"], -1), "$.limits.max_height"),
    "fractional max_height": (_set(["limits", "max_height"], 2.0), "$.limits.max_height"),
    "boolean max_height": (_set(["limits", "max_height"], True), "$.limits.max_height"),
    "infinite min_radius": (_set(["limits", "min_radius"], float("inf")), "$.limits.min_radius"),
    "min_radius past the float range": (_set(["limits", "min_radius"], 10**400), "$.limits.min_radius"),
    "malformed scalar": (_set(["circles", 3, "circle", 0], "2+oops"), "$.circles[3].circle[0]"),
    "malformed motif scalar": (_set(["config", "motif_dual", 0, 2], "x"), "$.config.motif_dual[0][2]"),
    "zero denominator": (_set(["circles", 3, "circle", 1], "1/0"), "$.circles[3].circle[1]"),
    "unsupported root": (_set(["circles", 3, "circle", 2], "(1+1*sqrt(5))"), "$.circles[3].circle[2]"),
    "boolean scalar": (_set(["circles", 2, "circle", 0], True), "$.circles[2].circle[0]"),
    "scalar before its kind": (
        _both(_set(["circles", 2, "kind"], "bogus"), _set(["circles", 2, "circle", 3], "x")),
        "$.circles[2].circle[3]",
    ),
    "scalar before a later entry": (
        _both(_drop(["circles", 4, "source"]), _set(["circles", 1, "circle", 0], "1/0")),
        "$.circles[1].circle[0]",
    ),
    "entry before a later scalar": (
        _both(_drop(["circles", 1, "source"]), _set(["circles", 4, "circle", 0], "x")),
        "$.circles[1]",
    ),
}


class TestJsonErrors:
    @pytest.mark.parametrize("case", sorted(MUTATIONS))
    def test_mutation_names_its_path(self, small_doc, case):
        mutate, path = MUTATIONS[case]
        doc = copy.deepcopy(small_doc)
        mutate(doc)
        with pytest.raises(ValueError, match=rf"^invalid document at {re.escape(path)}: "):
            from_json(json.dumps(doc))

    def test_infinite_window_corner_is_named(self, small_doc):
        # json reads 1e309 as infinity, which no window accepts
        text = json.dumps(small_doc).replace('"window": [-1.0,', '"window": [-1e309,')
        assert "-1e309" in text
        with pytest.raises(ValueError, match=r"^invalid document at \$\.limits\.window: "
                                             "window corners must be finite"):
            from_json(text)

    def test_infinite_min_radius_is_named(self, small_doc):
        # json reads 1e999 as infinity, as it reads the Infinity an
        # infinite floor used to be written as
        text = json.dumps(small_doc).replace('"min_radius": 0.1', '"min_radius": 1e999')
        assert "1e999" in text
        with pytest.raises(ValueError, match=r"^invalid document at \$\.limits\.min_radius: inf is not finite"):
            from_json(text)

    def test_unmutated_document_loads(self, small_doc):
        assert len(small_doc["circles"]) > 5
        back = from_json(json.dumps(small_doc))
        assert json.loads(to_json(back)) == small_doc

    def test_every_mode_accepts_its_own_kind(self, square):
        limits = GenerationLimits(1, 0.1, Window(-1.0, -1.0, 1.0, 1.0))
        for mode in ("packing", "dual", "super"):
            doc = to_json(generate(square, mode, limits))
            assert to_json(from_json(doc)) == doc


def test_invpack_imports_without_jsonschema():
    # every module, with the imports of jsonschema and scipy made to fail;
    # check_duality runs the 3-connectivity test that once needed scipy
    code = (
        "import pkgutil, sys\n"
        "sys.modules['jsonschema'] = None\n"
        "sys.modules['scipy'] = None\n"
        f"sys.path.insert(0, {str(Path(invpack.__file__).parents[1])!r})\n"
        "import importlib, invpack\n"
        "names = [m.name for m in pkgutil.iter_modules(invpack.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('invpack.' + name)\n"
        "from invpack import configs, engine, render\n"
        "lim = engine.GenerationLimits(1, 0.2, configs.Window.square(1.0))\n"
        "p = engine.generate(configs.make_config('square'), 'packing', lim)\n"
        "assert render.to_json(render.from_json(render.to_json(p))) == render.to_json(p)\n"
        "rep = configs.check_duality(configs.make_config('square'), configs.Window.square(5.0))\n"
        "assert rep.checks[-1].passed is True, rep.lines()\n"
        "print(len(names))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) >= 8


# ---------------------------------------------------------------------------
# the integer writer and reader against the object ones


def reference_to_json(p: Packing) -> str:
    """The packing writer ``to_json`` replaced: every packed circle through
    its objects, exact scalars by ``str(QuadExt)``, the whole document by
    ``json.dumps``."""

    def scalar(x):
        return str(x) if isinstance(x, QuadExt) else float(x)

    lim = p.limits
    doc = {
        "type": "packing",
        "config": _config_out(p.config),
        "mode": p.mode,
        "limits": {
            "max_height": lim.max_height,
            "min_radius": lim.min_radius,
            "window": [lim.window.x0, lim.window.y0, lim.window.x1, lim.window.y1],
        },
        "circles": [
            {
                "circle": [scalar(x) for x in pc.circle.key()],
                "kind": pc.kind,
                "height": pc.height,
                "word": list(pc.word),
                "source": pc.source,
            }
            for pc in p.circles
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


SMALL = {"packing": (2, 0.05), "dual": (2, 0.05), "super": (1, 0.05)}


class TestColumnWriter:
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "name", ["square", "triangular", "hexagonal", "apollonian", "wallpaper:p4", "wallpaper:p3"]
    )
    def test_generated_packings_match_the_object_writer(self, name, mode, exact):
        height, rho = SMALL[mode]
        packing = generate(make_config(name), mode, GenerationLimits(height, rho, Window.square(1.0)), exact)
        text = to_json(packing)
        assert len(packing) > 0
        assert text == reference_to_json(packing)
        back = from_json(text)
        assert to_json(back) == text
        assert reference_to_json(back) == text

    def test_hand_built_packings_match_the_object_writer(self, square, square_packing):
        tiny = from_center_radius((QuadExt(0, 0, 1, 2), QuadExt(1, 0, 3, 2)), QuadExt(5, -3, 7, 2))
        source = 'sêed ☃ "quoted"\\\n'
        odd = [
            PackedCircle(tiny, "base", 7, ("d0@0,0", "été"), source),
            PackedCircle(tiny, "base", 1, (), ""),
        ]
        floats = [PackedCircle(pc.circle.as_floats(), pc.kind, pc.height, pc.word, pc.source)
                  for pc in odd + square_packing.circles[:5]]
        lim = square_packing.limits
        for circles in ([], list(reversed(square_packing.circles)), odd, floats):
            packing = Packing(square, "packing", lim, circles)
            text = to_json(packing)
            assert text == reference_to_json(packing)
            assert to_json(from_json(text)) == text
        assert json.dumps(source) in to_json(Packing(square, "packing", lim, odd))


# integers of every size the columns meet: small ones, unreduced ones and
# ones past int64 in both directions
INTS = st.one_of(
    st.integers(-60, 60),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, -(2**63), 2**63 - 1, 2**62, -(2**62), 2**62 - 1, 3 * 2**61]),
)


class TestColumnScalars:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(INTS, INTS, INTS.filter(bool), st.sampled_from([1, 2, 3])),
                    min_size=1, max_size=6))
    def test_formatter_is_str_of_quadext(self, values):
        a, b, q, d = zip(*values)
        got = format_terms(int_array(a), int_array(b), int_array(q), np.array(d))
        assert got == [str(QuadExt(*v)) for v in values]

    @pytest.mark.parametrize("values", [[(0, 0, 1, 2)], [(6, 4, -10, 2)], [(3, 5, 4, 1), (2**63 - 1, 2**63 - 1, -2, 1)]])
    def test_formatter_edges(self, values):
        a, b, q, d = zip(*values)
        assert format_terms(int_array(a), int_array(b), int_array(q), np.array(d)) == [
            str(QuadExt(*v)) for v in values
        ]

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_parser_accepts_what_parse_scalar_accepts(self, data):
        self.check_parser(data.draw(SCALAR_TEXTS))

    @pytest.mark.parametrize("text", [
        "( 1 + 2 * sqrt( 2 ) ) / 3", " -7 / 21\n", "(4-6*sqrt(3))/2", "(1+1*sqrt(1))",
        "١٢", "1/0", "(1+2*sqrt(5))", "(1+2*sqrt(2))/", "+1", "1_0", "",
    ])
    def test_parser_examples(self, text):
        self.check_parser(text)

    @staticmethod
    def check_parser(text):
        want = reference_parse(text)
        try:
            got = parse_scalar(text)
        except (ValueError, ZeroDivisionError):
            got = None
        assert got == want
        terms = scalar_terms(text)
        assert (terms is None) == (want is None)
        if want is not None:
            a, b, q = reduce_terms(*(int_array([t]) for t in terms[:3]), np.array([terms[3]]))
            assert (a[0], b[0], q[0]) == (want.a, want.b, want.q)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reader_reads_what_parse_scalar_reads(self, small_doc, data):
        text = data.draw(SCALAR_TEXTS)
        want = reference_parse(text)
        doc = copy.deepcopy(small_doc)
        doc["circles"][1]["circle"][2] = text
        if want is None:
            with pytest.raises(ValueError, match=r"^invalid document at \$\.circles\[1\]\.circle\[2\]: "):
                from_json(json.dumps(doc))
        else:
            back = from_json(json.dumps(doc))
            assert back.circles[1].circle.h1 == want


_OLD_PAREN_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)"
    r"(?:\s*/\s*(\d+))?$"
)
_OLD_RAT_RE = re.compile(r"^(-?\d+)(?:\s*/\s*(\d+))?$")


def reference_parse(text: str):
    """``parse_scalar`` as it was written with two patterns, or None where
    it raised."""
    s = text.strip()
    try:
        m = _OLD_PAREN_RE.match(s)
        if m:
            a, sgn, b, d, q = m.groups()
            return QuadExt(int(a), int(b) if sgn == "+" else -int(b), int(q) if q else 1, int(d))
        m = _OLD_RAT_RE.match(s)
        if m:
            a, q = m.groups()
            return QuadExt(int(a), 0, int(q) if q else 1, 1)
    except (ValueError, ZeroDivisionError):
        return None
    return None


_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x1c", " ", " ", "　"])
_DIGITS = st.one_of(
    st.integers(0, 2**70).map(str),
    st.sampled_from(["0", "00", "007", "٣", "１２", "1_0", "+1", "²"]),
)


@st.composite
def _scalar_text(draw):
    w = lambda: draw(_SPACE)  # noqa: E731
    a = draw(st.sampled_from(["", "-", "--", "+"])) + draw(_DIGITS)
    if draw(st.booleans()):
        sign = draw(st.sampled_from(["+", "-", "+-", ""]))
        root = draw(st.sampled_from(["1", "2", "3", "0", "5", "02", "٢"]))
        text = f"({w()}{a}{w()}{sign}{w()}{draw(_DIGITS)}{w()}*{w()}sqrt({w()}{root}{w()}){w()})"
    else:
        text = a
    if draw(st.booleans()):
        text += f"{w()}/{w()}{draw(st.sampled_from(['0', '1', '6', '000', '12345678901234567890123']))}"
    text = w() + text + w()
    for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(list("()+-*/ sqrt0123456789x\x00"))) + text[i + 1:]
    return text


SCALAR_TEXTS = _scalar_text()


class TestLazyCircles:
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_generated_and_read_packings_agree(self, square, mode, exact):
        height, rho = SMALL[mode]
        packing = generate(square, mode, GenerationLimits(height, rho, Window.square(2.0)), exact)
        back = from_json(to_json(packing))
        assert len(packing) == len(back) > 10
        assert list(packing) == list(back)
        assert packing.circles == back.circles
        for pc in packing.circles[::5]:
            assert packing.find(pc.circle) == back.find(pc.circle) == pc
            assert packing.height_of(pc.circle) == back.height_of(pc.circle) == pc.height
            if mode != "packing":
                assert back.find(pc.circle.reversed()) == pc

    @pytest.mark.parametrize("read", [False, True])
    def test_the_list_is_the_packing_once_built(self, square, read):
        packing = generate(square, "packing", GenerationLimits(2, 0.05, Window.square(2.0)))
        if read:
            packing = from_json(to_json(packing))
        n = len(packing)
        dropped = packing.circles.pop()
        assert len(packing) == n - 1
        text = to_json(packing)
        assert text == reference_to_json(packing)
        assert len(json.loads(text)["circles"]) == n - 1
        assert packing.find(dropped.circle) is None

    def test_quadext_constructions_do_not_grow_with_the_packing(self, monkeypatch):
        # generate, to_json and from_json of square packing, exact, rho=0.01,
        # W=+-2: the count is that of the configuration and limits alone
        init = QuadExt.__init__
        count = [0]

        def counted(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        def run(height):
            cfg = make_config("square")
            monkeypatch.setattr(QuadExt, "__init__", counted)
            count[0] = 0
            back = from_json(to_json(generate(cfg, "packing", GenerationLimits(height, 0.01, Window.square(2.0)))))
            monkeypatch.setattr(QuadExt, "__init__", init)
            return count[0], len(back)

        (low, n_low), (high, n_high) = run(2), run(4)
        assert n_high > n_low + 100
        assert low == high


def _with(pc, circle=None, kind=None):
    return PackedCircle(circle or pc.circle, kind or pc.kind, pc.height, pc.word, pc.source)


def _float_circles(circles):
    return [_with(pc, pc.circle.as_floats()) for pc in circles]


# name -> (lane of the packing, a circle as broken, error, the circle named
# when circle 0 is broken: the first curvature sets the lane)
def _keyed(change):
    """A break of a packed circle by a change to its key."""
    return lambda pc: _with(pc, InversiveCircle(*change(list(pc.circle.key()))))


BROKEN = {
    "exact line": (True, lambda pc: _with(pc, from_line((QuadExt(0), QuadExt(1)), QuadExt(2))), "is a line", 0),
    "float line": (False, lambda pc: _with(pc, from_line((0.0, 1.0), 0.5)), "is a line", 0),
    "nan": (False, _keyed(lambda k: k[:2] + [float("nan"), k[3]]), "non-finite", 0),
    "infinite": (False, _keyed(lambda k: [float("inf")] + k[1:]), "non-finite", 0),
    "integer past the float range": (False, _keyed(lambda k: [10**400] + k[1:]), "non-finite", 0),
    "float in exact": (True, lambda pc: _with(pc, pc.circle.as_floats()), "mixes lanes", 1),
    "one float scalar": (True, _keyed(lambda k: k[:3] + [0.0]), "mixes lanes", 0),
    "exact in float": (False, _keyed(lambda k: [QuadExt(1)] + k[1:]), "mixes lanes", 0),
    "wrong kind": (True, lambda pc: _with(pc, kind="dual"), "'dual'", 0),
}


class TestPackingInvariants:
    @pytest.fixture(scope="class")
    def lanes(self, square_packing):
        exact = list(square_packing.circles[:6])
        return {True: exact, False: _float_circles(exact)}

    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_construction_names_the_circle(self, square, square_packing, lanes, case, at):
        exact, breaking, reason, at_zero = BROKEN[case]
        circles = list(lanes[exact])
        Packing(square, "packing", square_packing.limits, list(circles))
        circles[at] = breaking(circles[at])
        named = at or at_zero
        with pytest.raises(ValueError, match=rf"^packed circle {named} .*{re.escape(reason)}"):
            Packing(square, "packing", square_packing.limits, circles)

    @pytest.mark.parametrize("case", sorted(BROKEN))
    @pytest.mark.parametrize("read", [False, True])
    def test_edited_list_refused_by_to_json(self, square, case, read):
        exact, breaking, reason, _ = BROKEN[case]
        packing = generate(square, "packing", GenerationLimits(1, 0.1, Window.square(1.0)), exact)
        if read:
            packing = from_json(to_json(packing))
        packing.circles[3] = breaking(packing.circles[3])
        with pytest.raises(ValueError, match=rf"^packed circle 3 .*{re.escape(reason)}"):
            to_json(packing)

    def test_tiny_float_curvature_is_a_circle(self, square):
        # 0 < |b| <= 1e-9 is a line to ``is_line`` but not to the engine's
        # b != 0 rule, which a float super run may keep
        tiny = PackedCircle(InversiveCircle(0.0, 1e-10, 1.0, 0.0), "super", 1, ("d0@0,0",), "b0@0,0")
        assert tiny.circle.is_line
        packing = Packing(square, "super", GenerationLimits(1, 0.1, Window.square(1.0)), [tiny])
        text = to_json(packing)
        assert to_json(from_json(text)) == text
        svg = to_svg(packing, style())
        assert svg.count("<circle") == 1 and 'cx="10000000000"' in svg

    @pytest.mark.parametrize("exact", [True, False])
    def test_lookups_across_lanes(self, square, exact):
        limits = GenerationLimits(2, 0.05, Window.square(2.0))
        packing = from_json(to_json(generate(square, "dual", limits, exact)))
        other = generate(square, "dual", limits, not exact)
        for pc in other.circles[::7]:
            hit = packing.find(pc.circle)
            assert hit is not None and (hit.word, hit.source, hit.height) == (pc.word, pc.source, pc.height)
            assert packing.height_of(pc.circle.reversed()) == pc.height


@pytest.fixture(scope="module")
def float_doc(square):
    limits = GenerationLimits(1, 0.1, Window(-1.0, -1.0, 1.0, 1.0))
    return json.loads(to_json(generate(square, "packing", limits, exact=False)))


# (exact document?, mutation) -> path of the error it must raise
LANE_MUTATIONS = {
    "zero curvature": (True, _set(["circles", 3, "circle", 1], "0"), "$.circles[3].circle[1]"),
    "unreduced zero curvature": (
        True, _set(["circles", 3, "circle", 1], "(1-1*sqrt(1))"), "$.circles[3].circle[1]"
    ),
    "zero float curvature": (False, _set(["circles", 3, "circle", 1], 0.0), "$.circles[3].circle[1]"),
    "negative zero curvature": (False, _set(["circles", 3, "circle", 1], -0.0), "$.circles[3].circle[1]"),
    "number in exact": (True, _set(["circles", 3, "circle", 2], 0.5), "$.circles[3].circle[2]"),
    "string in float": (False, _set(["circles", 3, "circle", 2], "1/2"), "$.circles[3].circle[2]"),
    "first scalar float": (True, _set(["circles", 0, "circle", 0], 0.5), "$.circles[0].circle[1]"),
    "nan": (False, _set(["circles", 3, "circle", 0], float("nan")), "$.circles[3].circle[0]"),
    "infinity": (False, _set(["circles", 4, "circle", 2], float("-inf")), "$.circles[4].circle[2]"),
    "integer past the float range": (False, _set(["circles", 2, "circle", 0], 10**400), "$.circles[2].circle[0]"),
    "curvature past the float range": (False, _set(["circles", 0, "circle", 1], 10**400), "$.circles[0].circle[1]"),
    "nan before a zero": (
        False,
        _both(_set(["circles", 2, "circle", 3], float("nan")), _set(["circles", 1, "circle", 1], 0.0)),
        "$.circles[1].circle[1]",
    ),
    "zero curvature before a kind": (
        True,
        _both(_set(["circles", 2, "kind"], "dual"), _set(["circles", 2, "circle", 1], "0")),
        "$.circles[2].circle[1]",
    ),
}


@pytest.mark.parametrize("case", sorted(LANE_MUTATIONS))
def test_from_json_refuses_what_a_packing_cannot_hold(small_doc, float_doc, case):
    exact, mutate, path = LANE_MUTATIONS[case]
    doc = copy.deepcopy(small_doc if exact else float_doc)
    assert len(doc["circles"]) > 5
    mutate(doc)
    with pytest.raises(ValueError, match=rf"^invalid document at {re.escape(path)}: "):
        from_json(json.dumps(doc))
