"""Spans and counters recorded around calls into ``invpack``, from outside.

``Tracer.install`` wraps the public functions listed in SPANS and COUNTS and
re-binds every ``invpack`` module attribute that referred to the original,
because modules import names such as ``reflect`` and ``as_float`` directly.
``Tracer.uninstall`` restores them.  A span records its name, start, end and
parent span; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, size of a result or None); a dotted attribute is a
# method, wrapped on its class.
SPANS: Tuple[Tuple[str, str, Optional[Callable[[object], int]]], ...] = (
    ("engine", "generate", len),
    ("configs", "make_config", None),
    ("configs", "Configuration.circles_in_window", len),
    ("configs", "Configuration.contains_circle", None),
    ("configs", "validate_base_dual", None),
    ("configs", "check_duality", None),
    ("wallpaper", "make_wallpaper", None),
    ("inversive", "reflect", None),
    ("inversive", "inversive_product", None),
    ("inversive", "apply_isometry", None),
    ("render", "to_json", len),
    ("render", "from_json", None),
    ("arithmetic", "sweep_relation_words", lambda reps: reps[0].words_checked if reps else 0),
    ("arithmetic", "integrality_report", None),
    ("symmetry", "classify_wallpaper", None),
    ("symmetry", "trivial_intersection", None),
)
# calls counted without a span: they are too many and too short to time
COUNTS = (("exact", "QuadExt.__init__"), ("exact", "QuadExt.__float__"))

# per-layer metric -> (unit, how it is read from the trace)
METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "engine.generate_calls": ("count", ("calls", "engine.generate")),
    "engine.generate_s": ("s", ("time", "engine.generate")),
    "engine.self_s": ("s", ("self", "engine")),
    "engine.circles": ("count", ("size", "engine.generate")),
    "engine.errors": ("count", ("errors", "engine.generate")),
    "configs.make_s": ("s", ("time", "configs.make_config")),
    "configs.catalog_calls": ("count", ("calls", "configs.Configuration.circles_in_window")),
    "configs.catalog_circles": ("count", ("size", "configs.Configuration.circles_in_window")),
    "configs.catalog_s": ("s", ("time", "configs.Configuration.circles_in_window")),
    "configs.contains_calls": ("count", ("calls", "configs.Configuration.contains_circle")),
    "configs.contains_s": ("s", ("time", "configs.Configuration.contains_circle")),
    "configs.validate_s": ("s", ("time", "configs.validate_base_dual", "configs.check_duality")),
    "configs.self_s": ("s", ("self", "configs")),
    "wallpaper.make_s": ("s", ("time", "wallpaper.make_wallpaper")),
    "wallpaper.self_s": ("s", ("self", "wallpaper")),
    "inversive.reflect_calls": ("count", ("calls", "inversive.reflect")),
    "inversive.reflect_s": ("s", ("time", "inversive.reflect")),
    "inversive.product_calls": ("count", ("calls", "inversive.inversive_product")),
    "inversive.product_s": ("s", ("time", "inversive.inversive_product")),
    "inversive.isometry_calls": ("count", ("calls", "inversive.apply_isometry")),
    "inversive.isometry_s": ("s", ("time", "inversive.apply_isometry")),
    "inversive.self_s": ("s", ("self", "inversive")),
    "exact.quadext_new": ("count", ("count", "exact.QuadExt.__init__")),
    "exact.to_float_calls": ("count", ("count", "exact.QuadExt.__float__")),
    "render.to_json_s": ("s", ("time", "render.to_json")),
    "render.json_bytes": ("bytes", ("size", "render.to_json")),
    "render.from_json_s": ("s", ("time", "render.from_json")),
    "render.errors": ("count", ("errors", "render.to_json", "render.from_json")),
    "render.self_s": ("s", ("self", "render")),
    "arithmetic.sweep_s": ("s", ("time", "arithmetic.sweep_relation_words")),
    "arithmetic.sweep_words": ("count", ("size", "arithmetic.sweep_relation_words")),
    "arithmetic.integrality_s": ("s", ("time", "arithmetic.integrality_report")),
    "arithmetic.self_s": ("s", ("self", "arithmetic")),
    "symmetry.classify_s": ("s", ("time", "symmetry.classify_wallpaper")),
    "symmetry.trivial_s": ("s", ("time", "symmetry.trivial_intersection")),
    "symmetry.self_s": ("s", ("self", "symmetry")),
}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()
        self.errors: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, size: Optional[Callable[[object], int]]) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, names, parents, starts, ends = self._stack, self.name, self.parent, self.start, self.end
        errors, sizes = self.errors, self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if size is not None:
                sizes[name] += size(out)
            return out

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner = importlib.import_module(f"invpack.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "invpack" or mod_name.startswith("invpack.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for module, attr, size in SPANS:
            self._replace(module, attr, lambda fn, n=f"{module}.{attr}", s=size: self._span(n, fn, s))
        for module, attr in COUNTS:
            self._replace(module, attr, lambda fn, n=f"{module}.{attr}": self._counter(n, fn))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    # -- summaries --------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, time (outermost spans of that name only, so
        recursion is not counted twice) and self time; per module: self."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        # a span nested in a span of the same name adds no time of its own
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            nested[live] |= name[anc[live]] == name[live]
            anc[live] = parent[anc[live]]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        time = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
        self_by_name = np.bincount(name, weights=own, minlength=k)
        out: Dict[str, Dict[str, float]] = {"calls": {}, "time": {}, "self": {}}
        for i, label in enumerate(self.names):
            out["calls"][label] = int(calls[i])
            out["time"][label] = float(time[i])
            module = label.split(".", 1)[0]
            out["self"][module] = out["self"].get(module, 0.0) + float(self_by_name[i])
        return out

    def metrics(self) -> Dict[str, Dict[str, object]]:
        totals = self.totals()
        tables = {
            "calls": totals["calls"],
            "time": totals["time"],
            "self": totals["self"],
            "size": self.sizes,
            "errors": self.errors,
            "count": self.counts,
        }
        out = {}
        for metric, (unit, (table, *keys)) in METRICS.items():
            value = sum(tables[table].get(key, 0) for key in keys)
            out[metric] = {"value": value, "unit": unit}
        return out
