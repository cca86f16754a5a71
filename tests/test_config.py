"""Configuration constructors, windows, validation and duality checks."""

from __future__ import annotations

import ast
import hashlib
import importlib
import importlib.util
import math
import re
import weakref
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invpack
from invpack.configs import (
    _SEED_KINDS,
    Catalog,
    Configuration,
    GeneratorCircle,
    TangencyGraph,
    ValidationReport,
    Window,
    _is_three_connected,
    _pair_classes,
    _row_lattice,
    check_duality,
    config_names,
    make_config,
    make_id,
    parse_id,
    tangency_graph,
    validate_base_dual,
)
from invpack.engine import MODES
from invpack.exact import QuadExt
from invpack.inversive import (
    InversiveCircle,
    PairClass,
    PlanarIsometry,
    apply_isometry,
    classify_pair,
    from_center_radius,
    from_line,
    inversive_product,
)
from invpack.lattice import LatticeOverflowError
from invpack.render import to_json


def key_of(c):
    return tuple(float(x) for x in (c.co_curvature, c.curvature, c.h1, c.h2))


class TestWindow:
    def test_meets_and_contains(self):
        w = Window.square(2.0)
        assert w.meets_disk(3.0, 0.0, 1.0)  # touches the edge
        assert not w.meets_disk(3.1, 0.0, 1.0)
        assert w.contains_disk(0.5, 0.5, 1.0)
        assert not w.contains_disk(1.5, 0.0, 1.0)

    def test_shrunk_to_nothing(self):
        assert Window.square(1.0).shrunk(2.0) is None

    @pytest.mark.parametrize("corners", [(-math.inf, -1, 1, 1), (0, 0, 1, math.inf),
                                         (math.nan, 0, 1, 1), (-1e309, 0, 1, 1)])
    def test_non_finite_corners_rejected(self, corners):
        with pytest.raises(ValueError, match="window corners must be finite"):
            Window(*corners)


class TestIds:
    def test_roundtrip(self):
        for ident in ("b0", "d3", "b2@-1,4", "d0@7,-2"):
            kind, idx, shift = parse_id(ident)
            assert make_id(kind, idx, shift) == ident

    def test_bad_prefix(self):
        with pytest.raises(ValueError):
            parse_id("x1")

    @pytest.mark.parametrize(
        "ident",
        ["b 1", "b+1", "b\u0661", "", "b", "b-1", "d-1@0,0", "b01", "b1@-0,0", "b1@2", "b1@2,3,4"],
    )
    def test_rejects_text_make_id_never_writes(self, ident):
        with pytest.raises(ValueError, match="bad circle id"):
            parse_id(ident)

    def test_negative_index_is_not_the_last_motif_circle(self):
        with pytest.raises(ValueError, match="bad circle id 'b-1'"):
            make_config("wallpaper:p4").circle_from_id("b-1")

    def test_shift_must_match_the_configuration(self):
        # a finite configuration has no translates, a lattice one no unshifted ids
        with pytest.raises(KeyError, match="no shift"):
            make_config("apollonian").circle_from_id("b0@5,5")
        with pytest.raises(KeyError, match="a lattice shift"):
            make_config("square").circle_from_id("b0")


class TestSquareConfig:
    def setup_method(self):
        self.cfg = make_config("square")

    def test_motif_and_lattice(self):
        assert self.cfg.d == 1
        assert len(self.cfg.motif_base) == 1
        assert len(self.cfg.motif_dual) == 1
        assert self.cfg.motif_base[0].key() == (
            QuadExt(-1), QuadExt(1), QuadExt(0), QuadExt(0))
        assert self.cfg.motif_dual[0].key() == (
            QuadExt(1), QuadExt(1), QuadExt(1), QuadExt(1))

    def test_window_enumeration_counts(self):
        w = Window.square(4.0)
        bases = self.cfg.circles_in_window("base", w)
        duals = self.cfg.circles_in_window("dual", w)
        # base centers on (2i,2j) inside [-4,4]^2; unit disks at |x|=6 miss it
        assert len(bases) == 25
        # dual centers on odd pairs up to (5,5); the four far corners miss
        assert len(duals) == 32
        inside = self.cfg.catalog(("base",), w).inside(w).circles()
        assert len(inside) == 9

    def test_known_members(self):
        b = self.cfg.circle_from_id("b0@1,0")
        assert key_of(b) == (3.0, 1.0, 2.0, 0.0)
        d = self.cfg.circle_from_id("d0@0,0")
        assert key_of(d) == (1.0, 1.0, 1.0, 1.0)

    def test_contains_circle_lookup(self):
        c = self.cfg.circle_from_id("b0@-2,3")
        assert self.cfg.contains_circle(c, "base") == "b0@-2,3"
        assert self.cfg.contains_circle(c, "dual") is None
        # reversed orientation is a different oriented circle
        assert self.cfg.contains_circle(c.reversed(), "base") is None

    def test_validation_passes(self):
        rep = validate_base_dual(self.cfg, Window.square(6.0))
        assert rep.ok, rep.lines()

    def test_duality_passes(self):
        rep = check_duality(self.cfg, Window.square(6.0))
        assert rep.ok, rep.lines()


class TestTriangularConfig:
    def setup_method(self):
        self.cfg = make_config("triangular")

    def test_dual_motif_values(self):
        d = self.cfg.motif_dual[0]
        s3 = QuadExt.sqrt_d(3)
        assert d.curvature == s3
        assert d.co_curvature == s3
        assert d.h1 == s3
        assert d.h2 == QuadExt(1, 0, 1, 3)

    def test_ring_counts(self):
        # each base is ringed by 6 duals, each dual by 3 bases
        w = Window.square(5.0)
        bases = self.cfg.circles_in_window("base", w)
        duals = self.cfg.circles_in_window("dual", w)
        center_base = next(g for g in bases if g.ident == "b0@0,0")
        ring = [
            g for g in duals
            if classify_pair(center_base.circle, g.circle) is PairClass.ORTHOGONAL
        ]
        assert len(ring) == 6
        center_dual = next(g for g in duals if g.ident == "d0@0,0")
        ring = [
            g for g in bases
            if classify_pair(center_dual.circle, g.circle) is PairClass.ORTHOGONAL
        ]
        assert len(ring) == 3

    def test_validation_passes(self):
        rep = validate_base_dual(self.cfg, Window.square(6.0))
        assert rep.ok, rep.lines()

    def test_duality_passes(self):
        rep = check_duality(self.cfg, Window.square(6.0))
        assert rep.ok, rep.lines()


class TestHexagonalConfig:
    def setup_method(self):
        self.cfg = make_config("hexagonal")

    def test_swapped_scaled_roles(self):
        d = self.cfg.motif_dual[0]
        s3 = QuadExt.sqrt_d(3)
        assert d.curvature == QuadExt(0, 1, 3, 3)  # radius sqrt(3)
        assert d.co_curvature == -s3
        b = self.cfg.motif_base[0]
        assert b.curvature == QuadExt(1, 0, 1, 3)
        assert b.h1 == s3

    def test_ring_counts(self):
        w = Window.square(6.0)
        bases = self.cfg.circles_in_window("base", w)
        duals = self.cfg.circles_in_window("dual", w)
        center_dual = next(g for g in duals if g.ident == "d0@0,0")
        ring = [
            g for g in bases
            if classify_pair(center_dual.circle, g.circle) is PairClass.ORTHOGONAL
        ]
        assert len(ring) == 6
        some_base = next(g for g in bases if g.ident == "b0@0,0")
        ring = [
            g for g in duals
            if classify_pair(some_base.circle, g.circle) is PairClass.ORTHOGONAL
        ]
        assert len(ring) == 3

    def test_validation_passes(self):
        rep = validate_base_dual(self.cfg, Window.square(8.0))
        assert rep.ok, rep.lines()


class TestApollonianConfig:
    def setup_method(self):
        self.cfg = make_config("apollonian")

    def test_counts_and_orientation(self):
        assert len(self.cfg.motif_base) == 4
        assert len(self.cfg.motif_dual) == 4
        enclosing = self.cfg.motif_base[3]
        assert float(enclosing.curvature) < 0
        # exact curvature 2*sqrt(3)-4
        assert enclosing.curvature == QuadExt(-4, 2, 1, 3)

    def test_enclosing_tangencies(self):
        enclosing = self.cfg.motif_base[3]
        for small in self.cfg.motif_base[:3]:
            assert (
                classify_pair(enclosing, small)
                is PairClass.EXTERNALLY_TANGENT
            )
        for outer in self.cfg.motif_dual[1:]:
            assert classify_pair(enclosing, outer) is PairClass.ORTHOGONAL

    def test_validation_passes(self):
        rep = validate_base_dual(self.cfg, Window.square(6.0))
        assert rep.ok, rep.lines()

    def test_duality_window_covers_duals(self):
        rep = check_duality(self.cfg, Window.square(7.0))
        assert rep.ok, rep.lines()
        hosted = [c for c in rep.checks if "dual graph" in c.name]
        assert hosted and hosted[0].detail.startswith("3 faces")


class TestTangencyGraph:
    def test_square_grid_graph(self):
        cfg = make_config("square")
        w = Window.square(3.0)
        g = tangency_graph(cfg, "base", w)
        assert len(g.vertices) == 9
        assert len(g.edges) == 12
        assert len(g.faces) == 4
        assert all(len(f) == 4 for f in g.faces)

    def test_face_boundaries_ring_a_dual(self):
        cfg = make_config("square")
        w = Window.square(3.0)
        g = tangency_graph(cfg, "base", w)
        from invpack.inversive import inversive_product

        duals = cfg.circles_in_window("dual", w)
        for face in g.faces:
            hosts = [
                d for d in duals
                if all(
                    inversive_product(d.circle, g.vertices[i].circle) == 0
                    for i in face
                )
            ]
            assert len(hosts) == 1


def brute_three_connected(n, edges, interior):
    """One breadth-first search per removed pair (a, b), in (a, b) order."""
    if n < 5 or len(interior) < 2:
        return None
    adj = {v: set() for v in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    for a in range(n):
        for b in range(a + 1, n):
            kept = [v for v in interior if v not in (a, b)]
            if len(kept) < 2:
                continue
            seen, todo = {kept[0]}, deque([kept[0]])
            while todo:
                for w in adj[todo.popleft()] - seen - {a, b}:
                    seen.add(w)
                    todo.append(w)
            if not seen.issuperset(kept):
                return (a, b)
    return True


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 11))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    interior = sorted(draw(st.sets(st.integers(0, n - 1)))) if n else []
    return n, sorted(edges), interior


class TestThreeConnected:
    @given(graphs())
    @settings(max_examples=400, deadline=None)
    def test_matches_pairwise_search(self, case):
        n, edges, interior = case
        verts = [GeneratorCircle(f"v{i}", "base", None) for i in range(n)]
        graph = TangencyGraph(verts, edges, [], {})
        ok, detail = _is_three_connected(graph, interior)
        want = brute_three_connected(n, edges, interior)
        if want is None or want is True:
            assert ok is want
        else:
            assert ok is False
            assert detail == f"removing {{v{want[0]},v{want[1]}}} splits the interior"

    def test_square_grid_passes(self):
        cfg = make_config("square")
        w = Window.square(5.0)
        assert check_duality(cfg, w).checks[-1].line() == (
            "[pass] base tangency graph 3-connected: all 300 removals keep 9 "
            "interior vertices connected"
        )


class TestMakeConfig:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            make_config("dodecahedral")

    def test_names_listing(self):
        names = config_names()
        assert "square" in names and "wallpaper:pgg" in names
        assert len([n for n in names if n.startswith("wallpaper:")]) == 17

    @pytest.mark.parametrize("name", [n for n in config_names() if n != "apollonian"])
    def test_cell_coords_of_lattice_vectors(self, name):
        cfg = make_config(name)
        (ax, ay), (bx, by) = cfg._lattice_float
        assert cfg._cell_coords(ax, ay) == (1.0, 0.0)
        assert cfg._cell_coords(bx, by) == (0.0, 1.0)
        for k in (-7, 3, 10**4):
            m, n = cfg._cell_coords(k * (ax + bx), k * (ay + by))
            assert m == pytest.approx(k, rel=1e-12) and n == pytest.approx(k, rel=1e-12)

    def test_lines_are_refused_by_id(self):
        # a line (b = 0) has no center or radius: the base line of an
        # Apollonian seed was once dropped silently from its packing, and a
        # dual line broke the catalog of a lattice configuration
        line = from_line((QuadExt(0), QuadExt(1)), QuadExt(-3))
        apo, square = make_config("apollonian"), make_config("square")
        with pytest.raises(ValueError, match="configuration apo: b4 is a line"):
            Configuration("apo", apo.d, apo.motif_base + [line], apo.motif_dual)
        with pytest.raises(ValueError, match="configuration sq: d1@0,0 is a line"):
            Configuration("sq", 1, square.motif_base, square.motif_dual + [line], square.lattice)

    def test_corrupted_config_detected(self):
        cfg = make_config("square")
        # shift the dual off-center: orthogonality with corner bases breaks
        from invpack.inversive import from_center_radius

        cfg2 = type(cfg)(
            "broken",
            1,
            cfg.motif_base,
            [from_center_radius((QuadExt(1), QuadExt(1)), QuadExt(1, 0, 2))],
            cfg.lattice,
        )
        rep = validate_base_dual(cfg2, Window.square(4.0))
        assert not rep.ok
        failed = [c for c in rep.checks if c.passed is False]
        assert failed and all(
            c.witnesses or "no circles" in c.detail for c in failed
        )


# sha256 of to_json(make_config(name)) for every built-in configuration, as
# the radical-center constructor of the wallpaper motifs made them
CONFIG_SHA256 = {
    "apollonian": "d165eb7db3e6ee92ff6123a1708f159b2520bc12bee4edee8b39fff155f07440",
    "hexagonal": "8273d200c532c89ac64b85426ae313a2c4a6276313ec1c5c93eac90181b45c4a",
    "square": "ad2f5c43ef91055d7685662fc8e6fcc76d12bd1805bbaffe0d6640d84c88733e",
    "triangular": "58bdd2a4dc3f4e22480b432823319011f18d799d4d0f3bb05b73fa328c28f92d",
    "wallpaper:p1": "0f642c9117b4e98a8ecab7e321332411bed147902e0ceacfdc32312a6f3f2162",
    "wallpaper:p2": "4d7c04f6aea9ceebea2dd7b8cb05a6a1a70715ce616f2eba8821d18fa5751ee3",
    "wallpaper:pm": "83da1ac615c70f5f13e9818c8e94816e892b20ab90c8a50a7d84f5e370064905",
    "wallpaper:pg": "c4138b5facdb667ffdd9ce6b60c55217ee2e832ac7342f4a348a9ce67a7f9382",
    "wallpaper:cm": "ea48a9bb05ad3cdca4a87124836dd8e7a1b029bd5d8a1565a5222b7e77e59284",
    "wallpaper:pmm": "ee699c8682fc12e21e257162f701e2eb3b33cbc1c453c0eb402e5cb90ceb1e31",
    "wallpaper:pmg": "5cbdee572112d55c707778f73ee9a83b20c233c05b8ce9095955ef8c5a2c428e",
    "wallpaper:pgg": "c5963d03d7fbf093731c21fb5389a6d81701265255ec2606d50c33df6762f746",
    "wallpaper:cmm": "4b6cea573cfd3d8c4452ba93eb49c04adb41806d0def551e37a438cf43c2d853",
    "wallpaper:p4": "05b842394c3dfcd123712fbd84313ed44d327c43e5fae282c6da5f799bedd887",
    "wallpaper:p4m": "d0a6ab3002f2216b3a707bc13e16f42508ff061ccd32fb170c97a8e1bfa8dd48",
    "wallpaper:p4g": "edc8a2cb896591b32c05bb483673b2e526d576460ea27c79267c70b62c73494a",
    "wallpaper:p3": "c3aca5c71be547695ab74fa146c7671c1ba142608be11307d0907bb11b0bbafa",
    "wallpaper:p3m1": "e545e86210e0656c83dccf907bf452ef8a20380ed5114c8597ae4f9d90367a7b",
    "wallpaper:p31m": "3b43690fc5958be37933e635e57281949b8c541264467f99bd03087d9db24601",
    "wallpaper:p6": "49bd415c8f4f0ddaa2ae25429b580481272a542e547f4cf7b54bf46d218d7a46",
    "wallpaper:p6m": "7b27dcac9f5788a434179d185ad218cf312861d7241b2a0b56159ce32a6fdc97",
}


class TestFreshConfigurations:
    """``make_config`` does all of its work when called: each configuration
    comes back complete and exact, with no derived state, so that a timed
    job on a fresh configuration pays for everything it uses."""

    @pytest.mark.parametrize("name", config_names())
    def test_document_pinned(self, name):
        text = to_json(make_config(name))
        assert hashlib.sha256(text.encode()).hexdigest() == CONFIG_SHA256[name]

    def test_exact_scalars_made(self, monkeypatch):
        # 67,917 when the wallpaper faces were radical-center solves
        made, init = [], QuadExt.__init__
        monkeypatch.setattr(QuadExt, "__init__", lambda *a, **k: made.append(a) or init(*a, **k))
        for name in config_names():
            make_config(name)
        assert len(made) <= 6000

    @pytest.mark.parametrize("name", config_names())
    def test_fresh_and_eager(self, name):
        cfg = make_config(name)
        assert cfg.row_lattices == {}
        for kind in ("base", "dual"):
            motif = cfg.motif(kind)
            assert type(motif) is list and motif
            for c in motif:
                assert type(c) is InversiveCircle
                assert all(type(x) is QuadExt for x in c.key())


# where a configuration's name may appear as a string in the package: the
# constructors that give the built-in configurations their names, and the
# curvature relations stated on particular configurations
_NAMES_ALLOWED = {
    "configs.py": {"_square_config", "_triangular_config", "_hexagonal_config",
                   "_apollonian_config", "_BUILTIN", "config_names", "make_config"},
    "wallpaper.py": {"make_wallpaper"},
    "arithmetic.py": {"builtin_relations"},
}


def named_strings(source, names):
    """(top-level definition, line, text) of each string constant in the
    module source that is a configuration name or starts with "wallpaper:".
    A top-level definition is a def or class name, or an assigned name."""
    out = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            owner = stmt.name
        else:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            owner = ",".join(t.id for t in targets if isinstance(t, ast.Name))
        out += [
            (owner, node.lineno, node.value)
            for node in ast.walk(stmt)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value in names or node.value.startswith("wallpaper:"))
        ]
    return out


class TestNoNameKeys:
    def test_names_only_where_configurations_are_made(self):
        names = set(config_names())
        found = [
            (path.name, owner, line, text)
            for path in sorted(Path(invpack.__file__).parent.glob("*.py"))
            for owner, line, text in named_strings(path.read_text(), names)
            if owner not in _NAMES_ALLOWED.get(path.name, ())
        ]
        assert found == []

    def test_guard_sees_names(self):
        names = set(config_names())
        source = (
            'TABLE = {("square", "dual"): 1}\n'
            "def f(cfg):\n"
            '    return cfg.name == "wallpaper:p6m" or f"wallpaper:{cfg}"\n'
            "class C:\n"
            '    """square"""\n'
        )
        assert named_strings(source, names) == [
            ("TABLE", 1, "square"), ("f", 3, "wallpaper:p6m"), ("f", 3, "wallpaper:"), ("C", 5, "square"),
        ]


# public names of the package that nothing in src, perfbench or tools calls,
# each kept for a reason of its own; every other public name needs a caller
_SURFACE_KEPT = {
    "configs.tangency_graph": "the graph that defines a polyhedral packing; check_duality builds it",
    "engine.normal_form": "the structure theorem made constructive: symmetries = reflections x| isometries",
    "engine.commuting_letters": "the commuting relations that normal_form's reduced words obey",
    "engine.Packing.height_of": "a circle's height, the documented equal of its peeled word length",
    "inversive.InversiveCircle.quadric_residual": "the zero-residual invariant every circle satisfies",
    "inversive.PlanarIsometry.inverse": "the group inverse of a symmetry",
    "inversive.from_line": "the constructor of lines, the b = 0 circles of the inversive model",
    "inversive.InversiveCircle.exact_center": "the exact center, read back from what from_center_radius takes",
    "inversive.InversiveCircle.exact_radius": "the exact signed radius, read back from what from_center_radius takes",
    "arithmetic.CurvatureRelation.evaluate": "the exact value of a relation, what the row sweep decides",
    "render.to_svg": "the picture of a packing",
    "symmetry.verify_isometry": "the yes/no symmetry test; isometry_violation names the witness",
}
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _mentions(node, skip):
    """Identifiers a syntax tree names: names, attributes, and the parts of
    dotted strings (``"Configuration.contains_circle"``) other than those
    in ``skip``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in skip
              and _DOTTED.match(n.value)):
            out.update(n.value.split("."))
    return out


def _not_counted(tree):
    """Ids of the docstrings and ``__all__`` strings of a module."""
    skip = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant):
            skip.add(id(n.value))
        elif isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets):
            skip.update(id(x) for x in ast.walk(n.value))
    return skip


def _public_defs(tree):
    """(qualified name, node) of each public top-level function and class,
    and of each public method of a public class."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                for m in stmt.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield f"{stmt.name}.{m.name}", m


def uncalled(package, callers):
    """Qualified names ("module.name") of the public names in ``package``
    (module name -> source) that no source in ``package`` or ``callers``
    names outside their own definition.  ``__init__`` is neither a
    definition nor a caller: its re-exports do not count.  Names match by
    identifier alone, so a method that shares its name with a called one
    counts as called."""
    trees = {mod: ast.parse(src) for mod, src in package.items() if mod != "__init__"}
    skips = {mod: _not_counted(tree) for mod, tree in trees.items()}
    named = sum((_mentions(t, skips[m]) for m, t in trees.items()), Counter())
    for src in callers:
        tree = ast.parse(src)
        named += _mentions(tree, _not_counted(tree))
    found = set()
    for mod, tree in trees.items():
        for qual, node in _public_defs(tree):
            name = qual.rsplit(".", 1)[-1]
            if named[name] <= _mentions(node, skips[mod])[name]:
                found.add(f"{mod}.{qual}")
    return found


class TestPublicSurface:
    def test_every_public_name_has_a_caller_or_a_reason(self):
        root = Path(invpack.__file__).resolve().parents[2]
        package = {p.stem: p.read_text() for p in Path(invpack.__file__).parent.glob("*.py")}
        callers = [p.read_text() for d in ("perfbench", "tools") for p in sorted((root / d).glob("*.py"))]
        assert callers
        assert uncalled(package, callers) == set(_SURFACE_KEPT)

    def test_every_traced_target_resolves(self):
        # a rename in the package would otherwise break only traced bench runs
        path = Path(invpack.__file__).resolve().parents[2] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        targets = [t[:2] for t in tracing.SPANS] + list(tracing.COUNTS)
        assert targets
        for module, attr in targets:
            owner = importlib.import_module(f"invpack.{module}")
            *cls, name = attr.split(".")
            found = vars(getattr(owner, cls[0])).get(name) if cls else getattr(owner, name, None)
            assert callable(found), f"{module}.{attr}"

    def test_guard_sees_an_uncalled_name(self):
        package = {
            "m": (
                "def planted():\n"
                "    return planted()\n"
                "class C:\n"
                "    def used(self):\n"
                "        return self.hidden\n"
                "    def hidden(self):\n"
                "        return 1\n"
                "    def spare(self):\n"
                '        """planted"""\n'
            ),
            "__init__": 'from .m import planted\n__all__ = ["planted", "spare"]\n',
        }
        callers = ['"""C.spare"""\nfrom m import C\nC().used()\n__all__ = ["spare"]\n']
        assert uncalled(package, callers) == {"m.planted", "m.C.spare"}
        assert uncalled(package, callers + ['trace = ("m", "C.spare")']) == {"m.planted"}


# configuration -> its exact translations by (m, n) and translates by
# (kind, index, m, n), built by ``per_translate_catalog`` on first use
_TRANSLATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _translate(cfg, kind, i, m, n):
    """Motif circle i of ``kind`` moved exactly by m v1 + n v2, memoized."""
    memo = _TRANSLATES.setdefault(cfg, {})
    if (kind, i, m, n) not in memo:
        if (m, n) not in memo:
            memo[m, n] = cfg.translation(m, n)
        memo[kind, i, m, n] = apply_isometry(memo[m, n], cfg.motif(kind)[i])
    return memo[kind, i, m, n]


def per_translate_catalog(cfg, kind, w, predicate="meets", expand=0.0):
    """The catalog as it was built before the array catalog: one exact
    translate per (m, n) of the shift range, tested by the window."""
    if predicate == "meets":
        keep = lambda c: w.meets_circle(c, expand)  # noqa: E731
    else:
        keep = lambda c: w.contains_circle(c)  # noqa: E731
    if cfg.lattice is None:
        return [make_id(kind, i, None) for i, c in enumerate(cfg.motif(kind)) if keep(c)]
    out = []
    for i, c in enumerate(cfg.motif(kind)):
        (cx, cy), r = c.center(), abs(c.radius())
        m_lo, m_hi, n_lo, n_hi = cfg._shift_range((cx, cy), r, w, expand)
        for m in range(m_lo, m_hi + 1):
            for n in range(n_lo, n_hi + 1):
                if keep(_translate(cfg, kind, i, m, n)):
                    out.append(make_id(kind, i, (m, n)))
    return sorted(out)


class TestArrayCatalog:
    """The array catalog keeps the same circles, in the same order, as the
    per-translate loop, including circles tangent to the window, where a
    plain float test on float centers would differ."""

    # benchmark cells beyond the shallow ones every configuration gets:
    # (mode, max height, min radius, window half side)
    DEEP = {
        "square": [("packing", 6, 0.007, 2.0), ("super", 3, 0.02, 2.0),
                   ("packing", 5, 0.005, 2.0)],
        "hexagonal": [("dual", 4, 0.01, 3.0)],
    }

    @classmethod
    def cases(cls, name, cfg):
        """(window half side, catalog pad) of the benchmark cells of a
        configuration, plus pad 0."""
        from invpack.engine import GenerationLimits, _margin_schedule

        height = 1 if name.startswith("wallpaper:") else 2
        cells = [(m, 1 if m == "super" else height, 0.05, 1.0) for m in ("packing", "dual", "super")]
        out = {(1.0, 0.0)}
        for mode, h, rho, half in cells + cls.DEEP.get(name, []):
            lim = GenerationLimits(h, rho, Window.square(half))
            out.add((half, _margin_schedule(cfg, mode, lim)[0]))
        return sorted(out)

    @pytest.mark.parametrize("name", config_names())
    def test_same_ids_as_per_translate_loop(self, name):
        cfg = make_config(name)
        offsets = [(0.0, 0.0), (3.5, -1.7)]
        if cfg.lattice is not None:
            (ax, ay), (bx, by) = [(float(x), float(y)) for x, y in cfg.lattice]
            offsets.append((ax - 2 * bx, ay - 2 * by))
        for ox, oy in offsets:
            for half, pad in self.cases(name, cfg):
                w = Window(ox - half, oy - half, ox + half, oy + half)
                for kind in ("base", "dual"):
                    got = cfg.catalog((kind,), w, pad)
                    assert got.idents == per_translate_catalog(cfg, kind, w, "meets", pad)
                    if pad == 0.0:
                        wrapped = [g.ident for g in cfg.circles_in_window(kind, w)]
                        assert wrapped == got.idents
                        inside = got.inside(w).idents
                        assert inside == per_translate_catalog(cfg, kind, w, "inside")

    @pytest.mark.parametrize(
        "name, window, kind, tangent",
        [("wallpaper:p4", Window(-1, -3, 5, 3), "dual", ("d13@-1,-1", "d13@-1,0")),
         ("square", Window(-2, -2, 2, 2), "dual", ("d0@-2,0",)),
         ("apollonian", Window(0.5, -1, 2, 1), "dual", ("d0",))],
    )
    def test_tangent_circles_decided_as_before(self, name, window, kind, tangent):
        cfg = make_config(name)
        got = cfg.catalog((kind,), window).idents
        assert got == per_translate_catalog(cfg, kind, window)
        for ident in tangent:
            c = cfg.circle_from_id(ident)
            (cx, cy), r = c.center(), abs(c.radius())
            dx = max(window.x0 - cx, 0.0, cx - window.x1)
            dy = max(window.y0 - cy, 0.0, cy - window.y1)
            # within rounding of the window, so the exact translate decides
            assert abs((dx * dx + dy * dy) ** 0.5 - r) < 1e-12
            assert (ident in got) == window.meets_circle(c)

    def test_catalog_arrays_rebuild_the_circles(self):
        cfg = make_config("triangular")
        w = Window(2.5, -3.0, 6.0, 1.0)
        cat = cfg.catalog(("dual",), w, expand=0.5)
        for ident, kind, index, shift, g in zip(
            cat.idents, cat.kind.tolist(), cat.index.tolist(), cat.shift.tolist(), cat
        ):
            assert make_id(kind, index, tuple(shift)) == ident == g.ident
            assert g.circle == cfg.circle_from_id(ident)


def _tangent_windows(cfg, kind):
    """Windows with edges on motif circle 0 of ``kind``, and on its
    translate by v1 + v2 (where the float test rounds differently)."""
    c = cfg.motif(kind)[0]
    (cx, cy), r = c.center(), abs(c.radius())
    out = [Window(cx - r, cy - r, cx + r, cy + r), Window(cx - r, cy - r - 2.0, cx + r + 3.0, cy + r)]
    if cfg.lattice is not None:
        (ax, ay), (bx, by) = cfg._lattice_float
        x, y = cx + ax + bx, cy + ay + by
        out += [Window(x - r, y - r, x + r + 1.5, y + r + 1.5), Window(x - r - 2.0, y - r - 1.0, x + r, y + r)]
    return out


class TestCatalogRows:
    """A catalog's rows are the exact translates of its circles on the
    lattice of its kinds in its mode, and ``inside`` keeps the circles the
    per-translate loop keeps."""

    @pytest.mark.parametrize("name", config_names())
    def test_rows_are_the_exact_translates_on_the_mode_lattice(self, name):
        cfg, w = make_config(name), Window.square(1.5)
        for mode in (None, *MODES):
            # every kind alone, and the seed kinds together; on the super
            # lattice a dual's motif row follows the base motif's
            for kinds in {("base",), ("dual",)} | ({_SEED_KINDS[mode]} if mode else set()):
                cat = cfg.catalog(kinds, w, mode=mode)
                assert cat.lat is _row_lattice(cfg, mode, kinds[0])
                assert cat.idents == [i for k in kinds for i in per_translate_catalog(cfg, k, w)]
                assert [make_id(*k) for k in zip(cat.kind.tolist(), cat.index.tolist(), (
                    None if cfg.lattice is None else tuple(s) for s in cat.shift.tolist()))] == cat.idents
                want = cat.lat.rows_of([reference_placed(cfg, i) for i in cat.idents])
                assert cat.rows.dtype == np.int64 and cat.rows.tolist() == want.tolist()

    def test_kinds_of_two_lattices_refused(self):
        cfg = make_config("square")
        for mode in (None, "packing", "dual"):
            with pytest.raises(ValueError, match="share no one row lattice"):
                cfg.catalog(("base", "dual"), Window.square(1.0), mode=mode)
        with pytest.raises(ValueError, match="share no one row lattice"):
            cfg.catalog((), Window.square(1.0))

    @pytest.mark.parametrize("name", config_names())
    def test_inside_matches_the_per_translate_loop_on_tangent_windows(self, name):
        cfg = make_config(name)
        for kind in ("base", "dual"):
            for w in _tangent_windows(cfg, kind):
                cat = cfg.catalog((kind,), w)
                inside = cat.inside(w)
                assert inside.idents == per_translate_catalog(cfg, kind, w, "inside")
                kept = set(inside.idents)
                assert inside.rows.tolist() == [r for i, r in zip(cat.idents, cat.rows.tolist()) if i in kept]
                assert inside.view.tolist() == inside.lat.as_float(inside.rows).tolist()
        # the base motif circle spanning the first window is inside it
        w = _tangent_windows(cfg, "base")[0]
        assert "b0" in [i.partition("@")[0] for i in cfg.catalog(("base",), w).inside(w).idents]

    def test_a_tie_derives_no_other_lattice(self):
        # d0@-2,0 is tangent to the window (``test_tangent_circles_decided_as_before``)
        cfg, w = make_config("square"), Window.square(2.0)
        cat = cfg.catalog(("dual",), w, mode="dual")
        assert "d0@-2,0" in cat.idents
        assert list(cfg.row_lattices) == [(("dual",), ("dual",))]


# ---------------------------------------------------------------------------
# ids and lookups on lattice rows against the exact objects they replace


def reference_placed(cfg, ident):
    """The circle of an id as exact objects: its motif circle, translated
    by ``apply_isometry`` in a lattice configuration."""
    kind, i, shift = parse_id(ident)
    return cfg.motif(kind)[i] if shift is None else _translate(cfg, kind, i, *shift)


def reference_contains_circle(cfg, c, kind):
    """``Configuration.contains_circle`` on exact objects: a motif circle
    of the same curvature, translated by the (m, n) that the float center
    offset rounds to within 1e-6, must have c's key."""
    cands = [(i, mc) for i, mc in enumerate(cfg.motif(kind)) if mc.curvature == c.curvature]
    for i, mc in cands:
        shift = None
        if cfg.lattice is not None:
            (cx, cy), (mx, my) = c.center(), mc.center()
            m_f, n_f = cfg._cell_coords(cx - mx, cy - my)
            shift = (round(m_f), round(n_f))
            if abs(m_f - shift[0]) > 1e-6 or abs(n_f - shift[1]) > 1e-6:
                continue
        if reference_placed(cfg, make_id(kind, i, shift)).key() == c.key():
            return make_id(kind, i, shift)
    return None


class TestRowLookups:
    @pytest.mark.parametrize("name", config_names())
    def test_every_catalogued_id_round_trips(self, name):
        cfg = make_config(name)
        for kind in ("base", "dual"):
            cat = cfg.catalog((kind,), Window.square(3.0))
            assert len(cat) > 0
            for ident, g in zip(cat.idents, cat):
                want = reference_placed(cfg, ident)
                c = cfg.circle_from_id(ident)
                assert c == want and g.circle == want
                assert cfg.contains_circle(c, kind) == ident

    @pytest.mark.parametrize("name", config_names())
    def test_non_members_answer_none_as_before(self, name):
        cfg = make_config(name)
        nudge = PlanarIsometry.translation((QuadExt(1, 0, 1000), QuadExt(0)))
        for kind, other in (("base", "dual"), ("dual", "base")):
            c = cfg.circle_from_id(cfg.catalog((kind,), Window.square(1.0)).idents[0])
            off = apply_isometry(nudge, c)
            with pytest.raises(ArithmeticError, match="does not lie on the integer lattice"):
                _row_lattice(cfg, None, kind).rows_of([off])
            for probe, as_kind in ((c.reversed(), kind), (c, other), (off, kind), (c.as_floats(), kind)):
                assert cfg.contains_circle(probe, as_kind) is None
                assert reference_contains_circle(cfg, probe, as_kind) is None
            assert reference_contains_circle(cfg, c, kind) == cfg.contains_circle(c, kind)

    @pytest.mark.parametrize("name", ["square", "triangular", "hexagonal"])
    def test_checks_and_catalog_build_no_exact_scalars(self, name, monkeypatch):
        # a fresh configuration for the catalog, which then derives its lattice
        cfg, fresh = make_config(name), make_config(name)
        made, init = [], QuadExt.__init__
        monkeypatch.setattr(QuadExt, "__init__", lambda *a, **k: made.append(a) or init(*a, **k))
        validate_base_dual(cfg, Window.square(6.0))
        check_duality(cfg, Window.square(6.0))
        fresh.catalog(("base",), Window.square(7.0))
        assert made == []

    @pytest.mark.parametrize("name", [n for n in config_names() if n != "apollonian"])
    def test_reach(self, name):
        cfg = make_config(name)
        for kind in ("base", "dual"):
            for i in range(len(cfg.motif(kind))):
                near, far = make_id(kind, i, (10**7, -10**7)), make_id(kind, i, (10**12, -10**12))
                assert cfg.contains_circle(cfg.circle_from_id(near), kind) == near
                with pytest.raises(LatticeOverflowError):
                    cfg.contains_circle(reference_placed(cfg, far), kind)
                # m^2 = 2^64 is 0 in int64
                for ident in (far, make_id(kind, i, (2**32, 0))):
                    with pytest.raises(LatticeOverflowError):
                        cfg.circle_from_id(ident)

    def test_tie_with_a_pad_decided_as_before(self):
        # b0@2,0 lies at distance 2 from the window, its radius plus the pad
        cfg, w = make_config("square"), Window.square(2.0)
        got = cfg.catalog(("base",), w, expand=1.0).idents
        assert "b0@2,0" in got and got == per_translate_catalog(cfg, "base", w, expand=1.0)

    def test_far_row_names_its_overflow(self):
        # the row of a far circle leaves int64 as Python integers
        cfg = make_config("square")
        far = reference_placed(cfg, "b0@3000000000,0")
        with pytest.raises(LatticeOverflowError, match="a circle's row"):
            _row_lattice(cfg, None, "base").rows_of([far])

    def test_finite_ids_are_the_motif(self):
        cfg = make_config("apollonian")
        cat = cfg.catalog(("base",), Window.square(3.0))
        assert [g.circle for g in cat] == [cfg.circle_from_id(i) for i in cat.idents]
        assert all(cfg.circle_from_id(f"b{i}") is c for i, c in enumerate(cfg.motif_base))


# ---------------------------------------------------------------------------
# the row checks against the per-circle references


def reference_classified_pairs(group_a, group_b=None):
    """Pairs classified one exact circle at a time, trusting the float
    product only when it is far below the tangency threshold."""
    if group_b is None:
        pairs = [(group_a[i], group_a[j]) for i in range(len(group_a))
                 for j in range(i + 1, len(group_a))]
    else:
        pairs = [(u, v) for u in group_a for v in group_b]
    for u, v in pairs:
        if inversive_product(u.circle.as_floats(), v.circle.as_floats()) < -1.2:
            yield u, v, PairClass.DISJOINT_EXTERIORS
        else:
            yield u, v, classify_pair(u.circle, v.circle)


def reference_ring_of(center, others):
    """Circles orthogonal to ``center`` in angular order, if they form a
    ring of at least three, each externally tangent to the next."""
    (cx, cy) = center.circle.center()
    ring = [g for g in others if classify_pair(center.circle, g.circle) is PairClass.ORTHOGONAL]
    if len(ring) < 3:
        return None
    ring.sort(key=lambda g: math.atan2(g.circle.center()[1] - cy, g.circle.center()[0] - cx))
    for i, g in enumerate(ring):
        if classify_pair(g.circle, ring[(i + 1) % len(ring)].circle) is not PairClass.EXTERNALLY_TANGENT:
            return None
    return ring


def reference_validate(cfg, w):
    """``validate_base_dual`` one exact circle and one pair at a time."""
    rep = ValidationReport(cfg.name)
    bases = cfg.circles_in_window("base", w)
    duals = cfg.circles_in_window("dual", w)
    if not bases or not duals:
        rep.add("nonempty", False, detail="window contains no circles")
        return rep
    rep.add("nonempty", True, detail=f"{len(bases)} base, {len(duals)} dual")
    same = {PairClass.EXTERNALLY_TANGENT, PairClass.DISJOINT_EXTERIORS}
    for label, pairs, ok in (
        ("base-base pairs tangent or disjoint", reference_classified_pairs(bases), same),
        ("dual-dual pairs tangent or disjoint", reference_classified_pairs(duals), same),
        ("base-dual pairs orthogonal, tangent or disjoint",
         reference_classified_pairs(bases, duals), same | {PairClass.ORTHOGONAL}),
    ):
        bad = [(u, v, cl) for u, v, cl in pairs if cl not in ok]
        rep.add(label, not bad, [f"{u.ident}|{v.ident}:{cl.value}" for u, v, cl in bad[:4]])
    inner = w.shrunk(cfg.safe_margin()) if cfg.lattice is not None else w
    ring_fail, checked = [], 0
    for center_group, other_group, label in ((bases, duals, "base"), (duals, bases, "dual")):
        for g in center_group:
            (cx, cy), r = g.circle.center(), g.circle.radius()
            if cfg.lattice is not None and (inner is None or not inner.contains_disk(cx, cy, r)):
                continue
            checked += 1
            if reference_ring_of(g, other_group) is None:
                ring_fail.append(f"{label}:{g.ident}")
    rep.add("every interior circle ringed by >= 3 orthogonal circles",
            None if checked == 0 else not ring_fail, ring_fail[:4],
            detail=f"{checked} circles checked")
    if inner is not None and inner.x0 < inner.x1 and inner.y0 < inner.y1:
        disks = [(g.circle.center(), float(g.circle.exact_radius())) for g in bases + duals]
        uncovered = []
        for (x, y) in inner.sample_grid(24):
            if not any((r >= 0 and math.hypot(x - cx, y - cy) <= r + 1e-9)
                       or (r < 0 and math.hypot(x - cx, y - cy) >= -r - 1e-9)
                       for (cx, cy), r in disks):
                uncovered.append(f"({x:.3f},{y:.3f})")
        rep.add("closed disks cover the interior window", not uncovered, uncovered[:4],
                detail="24x24 sample grid")
    counts = [len(cfg.circles_in_window("base", Window(w.x0 * f, w.y0 * f, w.x1 * f, w.y1 * f)))
              + len(cfg.circles_in_window("dual", Window(w.x0 * f, w.y0 * f, w.x1 * f, w.y1 * f)))
              for f in (1.0 / 3.0, 2.0 / 3.0, 1.0)]
    rep.add("growth of circle counts in nested windows", None, detail=f"counts={counts}")
    return rep


def reference_tangency_graph(circles, w):
    """``tangency_graph`` on exact circles, one pair at a time."""
    verts = [g for g in circles if w.contains_circle(g.circle)]
    n = len(verts)
    adj = {i: [] for i in range(n)}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if classify_pair(verts[i].circle, verts[j].circle) is PairClass.EXTERNALLY_TANGENT:
                adj[i].append(j)
                adj[j].append(i)
                edges.append((i, j))
    centers = [g.circle.center() for g in verts]

    def angle(i, j):
        return math.atan2(centers[j][1] - centers[i][1], centers[j][0] - centers[i][0])

    order = {v: sorted(adj[v], key=lambda u: angle(v, u)) for v in range(n)}
    pos = {(v, u): k for v in range(n) for k, u in enumerate(order[v])}
    faces, seen = [], set()
    for v0 in range(n):
        for u0 in order[v0]:
            cycle, (v, u) = [], (v0, u0)
            while (v, u) not in seen:
                seen.add((v, u))
                cycle.append(v)
                v, u = u, order[u][(pos[(u, v)] - 1) % len(order[u])]
            area = sum(centers[a][0] * centers[b][1] - centers[b][0] * centers[a][1]
                       for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            if area > 1e-9 and len(set(cycle)) == len(cycle) and len(cycle) >= 3:
                faces.append(cycle)
    return TangencyGraph(verts, edges, faces, adj)


def reference_duality(cfg, w):
    """``check_duality`` with a host search over every partner circle."""
    rep = ValidationReport(cfg.name)
    inner = w.shrunk(cfg.safe_margin()) if cfg.lattice is not None else w
    bases, duals = cfg.circles_in_window("base", w), cfg.circles_in_window("dual", w)
    for graph_circles, partners, label in (
        (bases, duals, "base graph faces host one orthogonal dual"),
        (duals, bases, "dual graph faces host one orthogonal base"),
    ):
        graph = reference_tangency_graph(graph_circles, w)
        bad, n_checked = [], 0
        for face in graph.faces:
            boundary = [graph.vertices[i] for i in face]
            cx = sum(g.circle.center()[0] for g in boundary) / len(boundary)
            cy = sum(g.circle.center()[1] for g in boundary) / len(boundary)
            if cfg.lattice is not None and (inner is None or not inner.contains_point(cx, cy)):
                continue
            n_checked += 1
            hosts = [p for p in partners
                     if all(inversive_product(p.circle, g.circle) == 0 for g in boundary)]
            if len(hosts) != 1:
                bad.append(f"face[{'+'.join(g.ident for g in boundary)}]:{len(hosts)} hosts")
        rep.add(label, None if n_checked == 0 else not bad, bad[:4],
                detail=f"{n_checked} faces checked")
    base_graph = reference_tangency_graph(bases, w)
    if cfg.lattice is None:
        interior = list(range(len(base_graph.vertices)))
    else:
        v1, v2 = cfg._lattice_float
        core = w.shrunk(max(math.hypot(*v1), math.hypot(*v2)))
        interior = [i for i, g in enumerate(base_graph.vertices)
                    if core is not None and core.contains_circle(g.circle)]
    ok3, detail = _is_three_connected(base_graph, interior)
    rep.add("base tangency graph 3-connected", ok3, detail=detail)
    return rep


def _broken_square(radius=QuadExt(1, 0, 2)):
    """The square configuration with its dual shrunk to ``radius``: most
    checks have failures to report."""
    cfg = make_config("square")
    dual = from_center_radius((QuadExt(1), QuadExt(1)), radius)
    return type(cfg)("broken", 1, cfg.motif_base, [dual], cfg.lattice)


class TestRowChecks:
    @pytest.mark.parametrize("name", config_names())
    def test_pair_classes_match_classify_pair(self, name):
        # every base/base, dual/dual and base/dual pair, and every pair with
        # the second circle reversed, which makes equal pairs opposite,
        # tangent ones internally tangent and disjoint ones nested
        cfg = make_config(name)
        w = Window.square(1.0)
        fams = {kind: cfg.catalog((kind,), w) for kind in ("base", "dual")}
        seen = set()
        for a, b in (("base", "base"), ("dual", "dual"), ("base", "dual")):
            fa, fb = fams[a], fams[b]
            flipped = Catalog(fb.kind, fb.index, fb.shift, fb.idents, fb.lat, -fb.rows)
            for other, sign in ((fb, 1), (flipped, -1)):
                got = _pair_classes(fa, other)
                for i, u in enumerate(fa):
                    for j, v in enumerate(fb):
                        want = classify_pair(u.circle, v.circle if sign > 0 else v.circle.reversed())
                        assert got[i, j] is want, (u.ident, v.ident, sign)
                        seen.add(want)
        assert {PairClass.EQUAL, PairClass.OPPOSITE, PairClass.EXTERNALLY_TANGENT,
                PairClass.INTERNALLY_TANGENT, PairClass.DISJOINT_EXTERIORS,
                PairClass.NESTED} <= seen

    @pytest.mark.parametrize(
        "name, half",
        [("square", 6.0), ("triangular", 6.0), ("hexagonal", 6.0), ("apollonian", 6.0),
         ("wallpaper:p4g", 3.0), ("wallpaper:p31m", 3.0), ("wallpaper:pgg", 4.0),
         ("wallpaper:cm", 3.0)],
    )
    def test_reports_match_per_circle_reference(self, name, half):
        cfg = make_config(name)
        w = Window.square(half)
        assert validate_base_dual(cfg, w).lines() == reference_validate(cfg, w).lines()
        assert check_duality(cfg, w).lines() == reference_duality(cfg, w).lines()

    def test_failures_match_per_circle_reference(self):
        cfg, w = _broken_square(), Window.square(6.0)
        got, duality = validate_base_dual(cfg, w), check_duality(cfg, w)
        assert [c.passed for c in got.checks] == [True, True, True, False, False, False, None]
        assert [c.passed for c in duality.checks] == [False, None, True]
        assert got.lines() == reference_validate(cfg, w).lines()
        assert duality.lines() == reference_duality(cfg, w).lines()

    def test_configuration_without_an_orbit_lattice_is_reported(self):
        # the reflections in duals of radius 7/10 close no integer lattice
        # on the base rows, so no orbit can be generated, but the checks
        # run on the translations' lattices and report the failures
        cfg, w = _broken_square(QuadExt(7, 0, 10)), Window.square(6.0)
        with pytest.raises(ArithmeticError, match="span no integer lattice"):
            _row_lattice(cfg, "packing", "base")
        got = validate_base_dual(cfg, w)
        assert not got.ok
        assert got.lines() == reference_validate(cfg, w).lines()
        assert check_duality(cfg, w).lines() == reference_duality(cfg, w).lines()
