"""Emission tests: deterministic SVG bytes and lossless JSON round trips.

Covers style validation, the frozen circle counts for the square
configuration, canonical ordering independence from generation order,
line clipping, the y-axis flip, nine-digit fixed-notation numbers, and
JSON round trips for configurations and packings with exact and float
scalars, including schema and scalar diagnostics.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import invpack

from invpack.configs import Configuration, Window, make_config
from invpack.engine import GenerationLimits, PackedCircle, Packing, generate
from invpack.exact import QuadExt, parse_scalar
from invpack.inversive import InversiveCircle, from_center_radius, from_line
from invpack.render import RenderStyle, from_json, to_json, to_svg
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

    def test_horizontal_line_clipped(self, square):
        line = from_line((0.0, 1.0), 0.5)
        pack = Packing(
            square,
            "packing",
            GenerationLimits(),
            [PackedCircle(line, "dual", 0, (), "seed")],
        )
        svg = to_svg(pack, style(half=2.0))
        assert svg.count("<line") == 1
        assert 'y1="-0.5"' in svg and 'y2="-0.5"' in svg
        assert 'x1="2"' in svg and 'x2="-2"' in svg

    def test_missing_line_emits_nothing(self, square):
        line = from_line((0.0, 1.0), 10.0)
        pack = Packing(
            square,
            "packing",
            GenerationLimits(),
            [PackedCircle(line, "dual", 0, (), "seed")],
        )
        svg = to_svg(pack, style(half=2.0))
        assert "<line" not in svg and "<circle" not in svg


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
    "malformed scalar": (_set(["circles", 3, "circle", 0], "2+oops"), "$.circles[3].circle[0]"),
    "malformed motif scalar": (_set(["config", "motif_dual", 0, 2], "x"), "$.config.motif_dual[0][2]"),
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
