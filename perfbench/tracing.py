"""Span tracing around the program's public functions, from outside it.

Tracer.patched() replaces each traced function in every rastershape module
namespace that holds it (``descriptor.centroid``, ``evaluation.query``,
``cli.load_image``, ...) with a wrapper that records a span, and restores
the originals on exit. DescriptorDatabase is traced by wrapping its
``__init__``. Spans stay in memory as [name, start, end, parent] lists and
are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("shape_io", "raster", "descriptor", "matcher", "evaluation", "cli")

TRACED = {
    "shape_io": ("load_image", "load_directory", "centroid", "max_radius",
                 "contains_points", "occlude", "save_image"),
    "raster": ("circular_grid", "spiral_grid"),
    "descriptor": ("extract",),
    "matcher": ("query", "load_database", "save_database"),
    "evaluation": ("sweep", "occlusion_experiment", "timed_retrieval",
                   "retrieval_efficiency", "select_occlusion_queries"),
    "cli": ("main",),
}

ROOT = "bench.pass"


# per-call counts, taken from the arguments and result after the span ends
COUNTERS = {
    "shape_io.contains_points": lambda a, kw, r: ("shape_io.points", len(r)),
    "raster.circular_grid": lambda a, kw, r: ("raster.points_built", len(r)),
    "raster.spiral_grid": lambda a, kw, r: ("raster.points_built", len(r)),
    "descriptor.extract": lambda a, kw, r: ("descriptor.values", len(r)),
    # records scanned: the database minus the excluded query itself
    "matcher.query": lambda a, kw, r: (
        "matcher.distances",
        len(a[0].records) - ((a[3] if len(a) > 3 else kw.get("exclude_id")) is not None)),
    "matcher.load_database": lambda a, kw, r: ("matcher.load_bytes", os.path.getsize(a[0])),
    "matcher.save_database": lambda a, kw, r: ("matcher.save_bytes", os.path.getsize(a[1])),
    "evaluation.sweep": lambda a, kw, r: (
        "evaluation.timed_match_s", sum(c.total_time_s for c in r.cells)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        spans, stack, counts, errors = self.spans, self.stack, self.counts, self.errors
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                key, value = counter(args, kwargs, result)
                counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers in every module namespace; restore on exit."""
        from rastershape import matcher

        swaps = []
        for layer, names in TRACED.items():
            home = sys.modules[f"rastershape.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                swaps.append((original, self._wrap(f"{layer}.{fname}", original)))
        db_cls = matcher.DescriptorDatabase
        db_init = db_cls.__init__
        with replaced(swaps):
            db_cls.__init__ = self._wrap("matcher.DescriptorDatabase", db_init)
            try:
                yield
            finally:
                db_cls.__init__ = db_init

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)


@contextlib.contextmanager
def replaced(swaps):
    """Swap each (original, replacement) function in every rastershape module."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "rastershape" or n.startswith("rastershape.")]
    saved = []
    try:
        for original, replacement in swaps:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, replacement)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], counts: dict[str, float], errors: dict[str, int],
                  scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics over ``spans``, each sum multiplied by ``scale``."""
    own = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for s, o in zip(spans, own):
        dur[s[0]] += s[2] - s[1]
        calls[s[0]] += 1
        layer_self[s[0].split(".", 1)[0]] += o
    ext_self = sum(o for s, o in zip(spans, own) if s[0] == "descriptor.extract")
    m = {
        "shape_io.decode_s": dur["shape_io.load_image"],
        "shape_io.decode_calls": calls["shape_io.load_image"],
        "shape_io.geometry_s": dur["shape_io.centroid"] + dur["shape_io.max_radius"],
        "shape_io.geometry_calls": calls["shape_io.centroid"] + calls["shape_io.max_radius"],
        "shape_io.membership_s": dur["shape_io.contains_points"],
        "shape_io.points": counts.get("shape_io.points", 0),
        "shape_io.occlude_s": dur["shape_io.occlude"],
        "raster.grid_s": dur["raster.circular_grid"] + dur["raster.spiral_grid"],
        "raster.grid_calls": calls["raster.circular_grid"] + calls["raster.spiral_grid"],
        "raster.points_built": counts.get("raster.points_built", 0),
        "descriptor.extract_s": dur["descriptor.extract"],
        "descriptor.extract_calls": calls["descriptor.extract"],
        "descriptor.self_s": ext_self,
        "descriptor.values": counts.get("descriptor.values", 0),
        "matcher.query_s": dur["matcher.query"],
        "matcher.query_calls": calls["matcher.query"],
        "matcher.distances": counts.get("matcher.distances", 0),
        "matcher.db_build_s": dur["matcher.DescriptorDatabase"],
        "matcher.load_s": dur["matcher.load_database"],
        "matcher.load_bytes": counts.get("matcher.load_bytes", 0),
        "matcher.save_s": dur["matcher.save_database"],
        "matcher.save_bytes": counts.get("matcher.save_bytes", 0),
        "evaluation.self_s": layer_self["evaluation"],
        "evaluation.timed_match_s": counts.get("evaluation.timed_match_s", 0.0),
        "cli.self_s": layer_self["cli"],
    }
    m = {k: v * scale for k, v in m.items()}
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors.get(layer, 0)
    return m
