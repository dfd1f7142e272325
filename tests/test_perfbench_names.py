"""perfbench/tracing.py reaches into the program by name: each of those names
still exists and takes the arguments perfbench passes.

A rename would otherwise fail only in the benchmark's own run.
"""

import importlib
import importlib.util
from pathlib import Path

from rastershape import evaluation
from rastershape.descriptor import CIRC_RADIAL
from rastershape.matcher import DescriptorDatabase
from rastershape.raster import RasterSpec, cycle_count
from rastershape.shape_io import max_radius

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_name_resolves():
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"rastershape.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"rastershape.{layer}.{name}"
    assert isinstance(DescriptorDatabase.records, property)


def test_traced_run_counts_every_stage(toy_corpus):
    # the spans and counters perfbench reads, on a one-cell sweep and occlusion run
    tracer = tracing.Tracer()
    with tracer.patched():
        sweep = evaluation.sweep(toy_corpus, CIRC_RADIAL, separations=(8,), samples=(4,),
                                 threads=1)
        occlusion = evaluation.occlusion_experiment(toy_corpus, [(CIRC_RADIAL, 8, 4)],
                                                    threads=1)
    assert len(sweep.cells) == len(occlusion.cells) == 1
    assert not hasattr(evaluation.occlusion_experiment, "__wrapped__")  # restored
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.errors)
    # each shape read is extracted in one extract_all call: the sweep and the
    # occlusion database read the corpus, the occlusion queries are read once
    shapes = 2 * len(toy_corpus) + len(occlusion.queries)
    assert metrics["shape_io.geometry_calls"] == 2 * shapes  # one centroid, one max_radius
    spec = RasterSpec("circular", 8, 4)
    cycles = (2 * sum(cycle_count(spec, max_radius(s)) for s in toy_corpus)
              + sum(cycle_count(spec, max_radius(q)) for q in occlusion.queries))
    assert metrics["shape_io.points"] == 4 * cycles
    # the sweep runs one untimed warm-up query, then the timed loop
    assert metrics["matcher.query_calls"] == len(toy_corpus) + 1 + len(occlusion.queries)
    assert metrics["matcher.distances"] > 0  # counted from each database's records
    # every database, built from columns as the experiments build theirs,
    # passes the one constructor the tracer wraps
    assert metrics["matcher.db_build_s"] > 0
    assert metrics["evaluation.timed_match_s"] > 0
    assert metrics["shape_io.occlude_s"] > 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)
