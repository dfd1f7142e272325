"""The measuring process: set-up, timed passes and optional tracing.

run.py starts this process once per workload, after the corpus is on disk,
so its peak memory counts the program and not the generator. It drives
only public functions of rastershape, on one thread, and writes its raw
measurements and the program's outputs as JSON for run.py to check.

    python3 perfbench/measure.py --workload sweep --entry DIR --seed N \
        --seconds S --trace 0|1 --out result.json [--spans spans.json]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from rastershape import cli, descriptor, evaluation, matcher, shape_io

import reference
import speed as speed_mod
import tracing

SETUP_REPEATS = {"sweep": 9, "occlude": 9, "serve": 3}
# Nominal seconds per pass on the reference machine (see speed.py), and the
# fewest passes per run. The pass count follows from --seconds alone, not
# from measured speed, so every commit runs the same number of passes.
PASS_SECONDS = {"sweep": 20.0, "occlude": 4.5, "serve": 4.0}
MIN_PASSES = {"sweep": 1, "occlude": 3, "serve": 3}
# Speed probes (speed.py): kernel passes per probe, the most seconds of
# program work between two probes, and the probes on each side of a stretch
# of program time that set its scale. A probe runs before every unit and,
# inside a unit, between calls of descriptor.extract and matcher.query once
# the interval has passed: every 50 ms in a sweep cell, an occlusion
# configuration or a serve index, once per serve query of tens of ms.
PROBE_REPS = 1
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW = {"sweep": 4, "occlude": 4, "serve": 8}
# Stream passes per probe: extraction-bound occlude tracks a probe with some
# memory traffic; the matcher and the database loader track the loop alone.
PROBE_STREAM = {"sweep": 0, "occlude": 1, "serve": 0}


def new_speed(workload: str) -> speed_mod.Speed:
    return speed_mod.Speed(PROBE_REPS, PROBE_WINDOW[workload], PROBE_STREAM[workload])


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES[workload], round(seconds / PASS_SECONDS[workload]))


class Recorder:
    """Raw times of each named unit (a cell, a configuration or a query
    image) and of each query, with the pass they ran in and the speed probe
    taken last before them. ``scaled()`` turns them into per-pass times at
    reference speed.

    A unit's time is kept as segments between probes, so a probe taken
    inside it (``tick``) is not counted and each segment takes the scale of
    the probes around it. A query's latency is summed over the units of a
    pass, which keeps one latency per query shape; the cells' latencies
    differ by vector length, and a median taken over their mixture would
    jump between them.
    """

    def __init__(self, speed: speed_mod.Speed | None = None,
                 interval: float | None = None) -> None:
        self.speed = speed
        self.interval = interval if speed is not None else None
        self.unit_rows: list[tuple[str, int, int, float]] = []
        self.query_rows: list[tuple[str, int, int, float]] = []
        self.unit = ""
        self.ordinal = 0
        self.start = 0.0
        self.unit_raw = 0.0
        self.probe = -1
        self.pass_no = -1

    def new_pass(self) -> None:
        self.pass_no += 1

    def _sample(self) -> None:
        if self.speed is not None:
            self.probe = self.speed.sample()

    def _close_segment(self) -> None:
        elapsed = time.perf_counter() - self.start
        self.unit_raw += elapsed
        self.unit_rows.append((self.unit, self.pass_no, self.probe, elapsed))

    def begin(self, unit: str) -> None:
        self._sample()
        self.unit, self.ordinal, self.unit_raw = unit, 0, 0.0
        self.start = time.perf_counter()

    def tick(self) -> None:
        """Between two program calls inside a unit: probe if one is due."""
        if self.interval is not None and time.perf_counter() - self.start >= self.interval:
            self._close_segment()
            self._sample()
            self.start = time.perf_counter()

    def end(self) -> float:
        """Close the unit; returns its raw time without the probes inside it."""
        self._close_segment()
        return self.unit_raw

    def end_pass(self) -> None:
        # closes the last unit's probe window
        self._sample()

    def query(self, seconds: float, exclude_id: str | None) -> None:
        # a query is known by its excluded id, or by its place in the unit
        if exclude_id is None:
            key = f"#{self.ordinal}"
            self.ordinal += 1
        else:
            key = exclude_id
        self.query_rows.append((key, self.pass_no, self.probe, seconds))

    def scaled(self, rows) -> dict[str, list[float]]:
        """{name: [seconds at reference speed, per pass]} for unit or query rows."""
        out: dict[str, list[float]] = {}
        for name, pass_no, probe, seconds in rows:
            per_pass = out.setdefault(name, [])
            per_pass.extend([0.0] * (pass_no + 1 - len(per_pass)))
            per_pass[pass_no] += seconds * self.speed.factor(probe)
        return out


def _cells(rec: Recorder, keys: list[str]):
    """Progress callback that closes one unit per reported cell."""
    pending = iter(keys[1:])

    def progress(_cell) -> None:
        rec.end()
        nxt = next(pending, None)
        if nxt is not None:
            rec.begin(nxt)

    rec.begin(keys[0])
    return progress


class Sweep:
    """evaluation.sweep on the four corner cells, for both paper variants."""

    # the query latencies are those of matcher.query inside the experiment
    times_matcher = True

    def __init__(self, entry: Path, seed: int):
        self.corpus = entry / "corpus"

    def setup(self) -> None:
        self.shapes = shape_io.load_directory(self.corpus)

    def run_pass(self, rec: Recorder) -> dict:
        out = {}
        pairs = [(d, s) for d in reference.SWEEP_SEPARATIONS for s in reference.SWEEP_SAMPLES]
        for variant in reference.SWEEP_VARIANTS:
            progress = _cells(rec, [f"{variant}/{d}/{s}" for d, s in pairs])
            report = evaluation.sweep(self.shapes, variant,
                                      separations=reference.SWEEP_SEPARATIONS,
                                      samples=reference.SWEEP_SAMPLES,
                                      k=reference.K, threads=1, progress=progress)
            out[variant] = [[c.separation_px, c.samples_per_cycle, c.efficiency_pct]
                            for c in report.cells]
        return out


class Occlude(Sweep):
    """evaluation.occlusion_experiment on the four standard configurations."""

    def __init__(self, entry: Path, seed: int):
        super().__init__(entry, seed)
        self.seed = seed

    def run_pass(self, rec: Recorder) -> list:
        progress = _cells(rec, [f"{v}/{d}/{s}" for v, d, s in reference.OCCLUSION_CONFIGS])
        report = evaluation.occlusion_experiment(
            self.shapes, reference.OCCLUSION_CONFIGS,
            per_category=reference.OCCLUSION_PER_CATEGORY,
            fraction=reference.OCCLUSION_FRACTION, seed=self.seed, k=reference.K,
            threads=1, progress=progress)
        return [[c.variant, c.separation_px, c.samples_per_cycle, c.efficiency_pct]
                for c in report.cells]


class Serve:
    """cli index once per set-up, then cli query per image, in-process."""

    # the query latency is that of a whole cli query
    times_matcher = False

    def __init__(self, entry: Path, seed: int):
        self.corpus = entry / "corpus"
        self.queries = sorted(str(p) for p in (entry / "queries").iterdir())
        self.db = str(entry / "serve.rdb")
        self.index_codes: list[int] = []

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def setup(self) -> None:
        code, _ = self._cli(["index", str(self.corpus), "--variant", "circ_radial",
                             "--sep", "8", "--samples", "24", "--out", self.db])
        self.index_codes.append(code)

    def run_pass(self, rec: Recorder) -> list:
        out = []
        for image in self.queries:
            name = Path(image).name
            rec.begin(name)
            code, text = self._cli(["query", self.db, image, "--k", str(reference.K)])
            rec.query(rec.end(), name)
            out.append([name, code, text])
        return out


WORKLOADS = {"sweep": Sweep, "occlude": Occlude, "serve": Serve}


@contextlib.contextmanager
def unit_hooks(rec: Recorder, time_queries: bool):
    """Wrap the public matcher.query and descriptor.extract wherever they were
    imported: time each query if ``time_queries``, and let the recorder probe
    between calls."""
    clock = time.perf_counter
    query, extract = matcher.query, descriptor.extract

    def timed_query(db, q, k, exclude_id=None):
        start = clock()
        result = query(db, q, k, exclude_id=exclude_id)
        if time_queries:
            rec.query(clock() - start, exclude_id)
        rec.tick()
        return result

    def ticking_extract(*args, **kwargs):
        result = extract(*args, **kwargs)
        rec.tick()
        return result

    with tracing.replaced([(query, timed_query), (extract, ticking_extract)]):
        yield


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ru_maxrss also counts the parent's pages shared at fork, so the
    generator would show; VmHWM starts afresh at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(args) -> dict:
    work = WORKLOADS[args.workload](Path(args.entry), args.seed)
    result: dict = {"pass_s": [], "traced_pass_s": [], "outputs": []}
    setup_tracer = tracing.Tracer()
    if args.trace:
        with setup_tracer.patched(), setup_tracer.span(tracing.ROOT):
            work.setup()
    else:
        # each set-up is a unit of one pass, probed like the passes
        setup_rec = Recorder(new_speed(args.workload), PROBE_INTERVAL_S)
        setup_rec.new_pass()
        result["setup_raw_s"] = []
        with unit_hooks(setup_rec, time_queries=False):
            for i in range(SETUP_REPEATS[args.workload]):
                setup_rec.begin(f"setup {i}")
                work.setup()
                result["setup_raw_s"].append(setup_rec.end())
        setup_rec.end_pass()
        result["setup_s"] = [t for (t,) in setup_rec.scaled(setup_rec.unit_rows).values()]

    # a traced run reads raw times only, so it takes no probes
    speed = None if args.trace else new_speed(args.workload)
    rec = Recorder(speed, PROBE_INTERVAL_S)
    pass_tracer = tracing.Tracer()
    passes = pass_count(args.workload, args.seconds)
    deadline = time.perf_counter() + args.seconds
    traced_next = False
    while True:
        start = time.perf_counter()
        try:
            if traced_next:
                unrecorded = Recorder()
                unrecorded.new_pass()
                with pass_tracer.patched(), pass_tracer.span(tracing.ROOT):
                    out = work.run_pass(unrecorded)
            else:
                rec.new_pass()
                with unit_hooks(rec, work.times_matcher):
                    out = work.run_pass(rec)
                rec.end_pass()
        except Exception:  # the program failed: run.py counts the pass as failed
            traceback.print_exc()
            out = None
        result["traced_pass_s" if traced_next else "pass_s"].append(time.perf_counter() - start)
        result["outputs"].append(out)
        traced_next = bool(args.trace) and not traced_next
        if not args.trace and len(result["pass_s"]) == passes:
            break
        if args.trace and result["traced_pass_s"] and time.perf_counter() >= deadline:
            break
    result["peak_rss_kb"] = peak_rss_kb()
    if speed is not None:
        result["units"] = rec.scaled(rec.unit_rows)
        result["queries"] = rec.scaled(rec.query_rows)
        result["units_raw_s"] = sum(row[3] for row in rec.unit_rows) / len(result["pass_s"])
        result["probe_s"] = speed.samples
    result["index_codes"] = getattr(work, "index_codes", [])
    result["numpy"] = np.__version__

    if args.trace:
        n = len(result["traced_pass_s"])
        setup_m = tracing.layer_metrics(setup_tracer.spans, setup_tracer.counts,
                                      setup_tracer.errors)
        pass_m = tracing.layer_metrics(pass_tracer.spans, pass_tracer.counts,
                                     pass_tracer.errors, scale=1.0 / n)
        per_layer = {k: v + pass_m[k] for k, v in setup_m.items()}
        own = tracing.self_times(pass_tracer.spans)
        covered = sum(o for s, o in zip(pass_tracer.spans, own) if s[0] != tracing.ROOT)
        per_layer["trace.coverage_pct"] = 100.0 * covered / sum(result["traced_pass_s"])
        # the first pass runs cold, so it is left out when another untraced one exists
        untraced = result["pass_s"][1:] or result["pass_s"]
        per_layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(result["traced_pass_s"]) / statistics.median(untraced) - 1.0)
        per_layer["trace.spans"] = len(setup_tracer.spans) + len(pass_tracer.spans)
        result["per_layer"] = per_layer
        if args.spans:
            tracer = tracing.Tracer()
            tracer.spans = setup_tracer.spans + [
                [s[0], s[1], s[2], s[3] + len(setup_tracer.spans) if s[3] >= 0 else -1]
                for s in pass_tracer.spans]
            tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--entry", required=True, help="corpus cache entry directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="JSON file for the raw results")
    p.add_argument("--spans", help="JSON file for the spans of a traced run")
    args = p.parse_args(argv)
    result = run(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
