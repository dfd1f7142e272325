"""rastershape benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload sweep|occlude|serve|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The corpus for the seed is generated from
tests/synthcorpus.py and cached under .perfbench-cache/; a separate
measuring process (perfbench/measure.py) then times the program on it,
and this process checks every output against the reference before it
prints the metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones of a traced
run. Run records and spans go to .perfbench-out/. The exit code is 0 only
when every output matched its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import corpus
import reference

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ".perfbench-out"
WORKLOADS = ("sweep", "occlude", "serve")
CHILD_TIMEOUT_S = 150
TIE_TOLERANCE = 1e-12
DISTANCE_TOLERANCE = 1e-6
# fixed per workload, so the tail names the same percentile on every run
TAIL_PERCENTILE = {"sweep": 95.0, "occlude": 75.0, "serve": 90.0}
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("query_p50_ms", "ms"),
              ("query_tail_ms", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_bytes": "bytes", "_pct": "%"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _preflight() -> None:
    for need in ("src/rastershape/__init__.py", "tests/synthcorpus.py", "tests/oracles.py"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} not found; run from the repository root")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(p / 100.0 * len(sorted_values))) - 1]


def _tail(values: list[float], preferred: float) -> tuple[float, float]:
    """(percentile, value): ``preferred`` if ten samples lie beyond it, else the
    highest ladder percentile that has ten beyond."""
    n = len(values)
    for p in (preferred,) + tuple(q for q in LADDER if q < preferred):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, _percentile(sorted(values), p)
    raise BenchError(f"only {n} latency samples; need at least 11 for a tail")


# ---------------------------------------------------------------- checks

def _admissible(bounds: list[int], total: int, value: float) -> bool:
    lo, hi = bounds
    return any(value == reference.efficiency(h, total) for h in range(lo, hi + 1))


def check_sweep(result: dict, manifest: dict) -> tuple[int, int, list[str]]:
    total = len([f for f in manifest["files"] if f.startswith("corpus/")])
    cells = [(d, s) for d in reference.SWEEP_SEPARATIONS for s in reference.SWEEP_SAMPLES]
    attempted = failed = 0
    notes = []
    for out in result["outputs"]:
        for variant in reference.SWEEP_VARIANTS:
            got = (out or {}).get(variant, [])
            for i, (d, s) in enumerate(cells):
                attempted += 1
                bounds = manifest["sweep"][variant][i]
                cell = got[i] if i < len(got) else None
                if cell is None or cell[:2] != [d, s] or not _admissible(bounds, total, cell[2]):
                    failed += 1
                    notes.append(f"{variant} d={d} s={s}: got {cell}, reference recognizes "
                                 f"{bounds[0]}..{bounds[1]} of {total}")
    return attempted, failed, notes


def check_occlude(result: dict, manifest: dict) -> tuple[int, int, list[str]]:
    categories = {Path(f).stem.rsplit("-", 1)[0] for f in manifest["files"]}
    total = len(categories) * reference.OCCLUSION_PER_CATEGORY
    attempted = failed = 0
    notes = []
    for out in result["outputs"]:
        for i, (variant, d, s) in enumerate(reference.OCCLUSION_CONFIGS):
            attempted += 1
            bounds = manifest["occlude"][i]
            cell = out[i] if out and i < len(out) else None
            if cell is None or cell[:3] != [variant, d, s] \
                    or not _admissible(bounds, total, cell[3]):
                failed += 1
                notes.append(f"{variant} {d}/{s}: got {cell}, reference recognizes "
                             f"{bounds[0]}..{bounds[1]} of {total}")
    return attempted, failed, notes


def _read_db(path: Path) -> tuple[str, list]:
    """(header, [(id, category, value strings)]); empty when unreadable."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        records = []
        for line in lines[1:]:
            rec_id, category, _, values = line.split("\t")
            records.append((rec_id, category, values.split(",")))
        return lines[0], records
    except (OSError, UnicodeError, ValueError, IndexError):
        return "", []


def check_serve(result: dict, manifest: dict, entry: Path) -> tuple[int, int, list[str]]:
    from oracles import ref_distance, ref_topk

    attempted = failed = 0
    notes = []
    samples = corpus.SERVE_SAMPLES
    for code in result["index_codes"]:
        attempted += 1
        if code != 0:
            failed += 1
            notes.append(f"index exited {code}")

    # the database the index wrote, against descriptors from the generated masks
    attempted += 1
    header, rows = _read_db(entry / "serve.rdb")
    want = [(i, c, [f"{v / samples:.6f}" for v in vec]) for i, c, vec in manifest["records"]]
    if not header.startswith("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24") \
            or rows != want:
        failed += 1
        bad = next((w for w, r in zip(want, rows) if w != r), None)
        notes.append(f"database differs from the reference (first differing record {bad})")
    records = [SimpleNamespace(id=i, category=c,
                               vector=SimpleNamespace(values=[float(v) for v in vals]))
               for i, c, vals in rows]
    by_id = {r.id: r for r in records}

    expected: dict[str, list] = {}
    for out in result["outputs"]:
        if out is None:
            attempted += 1
            failed += 1
            notes.append("a pass raised")
            continue
        for name, code, text in out:
            attempted += 1
            if name not in expected:
                q = [v / samples for v in manifest["queries"][name]]
                expected[name] = [q, ref_topk(records, q, 3)]
            q, top = expected[name]
            problem = None if code == 0 else f"exit {code}"
            lines = [ln.split("\t") for ln in text.splitlines()]
            if problem is None and len(lines) != len(top):
                problem = f"{len(lines)} matches, reference has {len(top)}"
            seen = set()
            for rank, (fields, (ref_id, ref_dist)) in enumerate(zip(lines, top), start=1):
                if problem is not None:
                    break
                if len(fields) != 4 or fields[0] != str(rank) or fields[1] not in by_id \
                        or fields[1] in seen or fields[2] != by_id[fields[1]].category:
                    problem = f"rank {rank}: bad line {fields}"
                    break
                seen.add(fields[1])
                # a different id is admissible only at an exact tie in distance
                got_dist = ref_distance(q, by_id[fields[1]].vector.values)
                if fields[1] != ref_id and abs(got_dist - ref_dist) > TIE_TOLERANCE:
                    problem = f"rank {rank}: {fields[1]}, reference {ref_id}"
                elif abs(float(fields[3]) - ref_dist) > DISTANCE_TOLERANCE:
                    problem = f"rank {rank}: distance {fields[3]}, reference {ref_dist:.9f}"
                    break
            if problem is not None:
                failed += 1
                notes.append(f"query {name}: {problem}")
    return attempted, failed, notes


# ---------------------------------------------------------------- record

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "rastershape").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(workload: str, seed: int, manifest: dict, result: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "threads": 1,
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "generator_pin": corpus.GENERATOR_PIN,
        "corpus_sha256": corpus.corpus_hash(manifest),
    }


# ---------------------------------------------------------------- running a workload

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("RASTERSHAPE_THREADS", None)
    # one thread: no BLAS or OpenMP pools in the measuring process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    entry, manifest = corpus.materialise(ROOT, seed, "serve" if workload == "serve" else "base")
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    spans_path = out_dir / f"{stem}-spans.json"
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        result_path = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
               "--entry", str(entry), "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced)), "--out", str(result_path)]
        if traced:
            cmd += ["--spans", str(spans_path)]
        try:
            proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"measuring process exceeded {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"measuring process exited {proc.returncode}")
        result = json.loads(result_path.read_text())

    if workload == "sweep":
        attempted, failed, notes = check_sweep(result, manifest)
    elif workload == "occlude":
        attempted, failed, notes = check_occlude(result, manifest)
    else:
        attempted, failed, notes = check_serve(result, manifest, entry)

    info = {"attempted": attempted, "failed": failed, "notes": notes,
            "passes": len(result["pass_s"])}
    if traced:
        metrics = dict(result["per_layer"])
        calls = metrics.pop("shape_io.geometry_calls")
        extracts = metrics["descriptor.extract_calls"]
        metrics["shape_io.geometry_calls_per_extract"] = calls / extracts if extracts else 0.0
        info["traced_passes"] = len(result["traced_pass_s"])
        coverage = metrics["trace.coverage_pct"]
        info["attempted"] += 1
        if not 90.0 <= coverage <= 110.0:
            info["failed"] += 1
            notes.append(f"span self times cover {coverage:.1f}% of traced pass time")
    else:
        if not result["queries"]:
            raise BenchError(f"{workload}: no matcher.query calls were timed")
        # each unit and each query at its median over the passes, at reference speed
        latency = sorted(statistics.median(v) for v in result["queries"].values())
        tail_p, tail_v = _tail(latency, TAIL_PERCENTILE[workload])
        wall = sum(statistics.median(v) for v in result["units"].values())
        metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "wall_s": wall,
            "query_p50_ms": 1000.0 * statistics.median(latency),
            "query_tail_ms": 1000.0 * tail_v,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        info.update(tail_percentile=tail_p, queries=len(latency), pass_s=result["pass_s"],
                    setup_reps_s=result["setup_s"], setup_raw_s=result["setup_raw_s"],
                    wall_raw_s=result["units_raw_s"], probe_s=result["probe_s"],
                    speed=result["units_raw_s"] / wall)
    info["error_pct"] = 100.0 * info["failed"] / info["attempted"]
    record = run_record(workload, seed, manifest, result)
    record.update(info, metrics=metrics)
    record["ambiguous_queries"] = _ambiguity(workload, manifest)
    (out_dir / f"{stem}-record.json").write_text(json.dumps(record, indent=1))
    return record


def _ambiguity(workload: str, manifest: dict) -> int:
    """Queries whose recognition depends on how exact ties round."""
    if workload == "sweep":
        return sum(hi - lo for row in manifest["sweep"].values() for lo, hi in row)
    if workload == "occlude":
        return sum(hi - lo for lo, hi in manifest["occlude"])
    return 0


def unit_of(name: str) -> str:
    if name == "shape_io.geometry_calls_per_extract":
        return "calls/extract"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return dict(END_TO_END).get(name, "count")


def _report(record: dict) -> None:
    w = record["workload"]
    for name, value in record["metrics"].items():
        print(f"{w:8s} {name:38s} {value:16.6f} {unit_of(name)}")
    if "tail_percentile" in record:
        print(f"{w:8s} query_tail_ms is p{record['tail_percentile']:g} of "
              f"{record['queries']} queries, each at its median of {record['passes']} passes")
        print(f"{w:8s} times are at reference speed; this host ran {record['speed']:.3f}x "
              f"the reference's time (raw wall_s {record['wall_raw_s']:.3f} s)")
    print(f"{w:8s} error_pct {record['error_pct']:.4f} % "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for note in record["notes"][:10]:
        print(f"{w:8s} MISMATCH {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rastershape benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        _preflight()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (BenchError, corpus.CorpusError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        _report(record)
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": unit_of(k)}
               for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
