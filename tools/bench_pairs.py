"""Summarise paired parent/change benchmark runs as one BENCH_<n>.json file.

Make both checkouts the same way, as sibling directories extracted from
their commits (a working tree's uncommitted change can be made a commit
object, without touching any branch, with ``git stash create``):

    mkdir parent change
    git archive <parent commit> | tar -x -C parent
    git archive <change commit> | tar -x -C change

A checkout made another way, such as the working tree itself, can differ in
file layout and in where its corpus cache lies; pairs run that way have
read setup time and peak memory apart where the code they time had not
changed. Each checkout then builds its own .perfbench-cache. Run the
benchmark in each, with one seed per pair and the order alternating from
pair to pair:

    for seed in 301 302 ... 310; do
        # odd seeds: parent first; even seeds: change first
        (cd parent && python3 perfbench/run.py --workload all --seed $seed --seconds 20 --trace 0)
        (cd change && python3 perfbench/run.py --workload all --seed $seed --seconds 20 --trace 0)
    done

Each run leaves one run record per workload in its checkout's
.perfbench-out/. Then, from the change's checkout:

    python3 tools/bench_pairs.py --parent ../parent/.perfbench-out \
        --change .perfbench-out --out BENCH_<n>.json

Records pair up by (workload, seed); traced records are ignored. For each
workload and end-to-end metric of BENCHMARK.json the output holds each
side's median, quartiles and values, the pairs the change won (ties count
for neither side), and three verdicts:
  gain          the change won at least nine tenths of the pairs and the
                medians differ by more than the parent's interquartile range;
  within_bound  the change's median is no worse than the parent's by more
                than the metric's bound;
  resolved      each side's interquartile range is within the bound of its
                median, or every change run beats every parent run.
It also holds, per workload, the corpus hash of each seed, which side ran
first in each pair and the failed operations per side; and each side's
commit and source hash and the machine the records name. Standard library only; exit code 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

MACHINE = ("cpu_model", "nproc", "cpus_usable", "python", "numpy")
SIDES = ("parent", "change")


class PairError(Exception):
    """The records cannot be paired."""


def load_records(out_dir: Path) -> dict[tuple[str, int], dict]:
    """{(workload, seed): record} of the untraced run records in ``out_dir``."""
    records = {}
    for path in sorted(out_dir.glob("*-trace0-record.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        record["_mtime"] = path.stat().st_mtime
        records[record["workload"], record["seed"]] = record
    if not records:
        raise PairError(f"{out_dir}: no untraced run records")
    return records


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    p, c = spread(parent), spread(change)
    # positive: the change is better
    gains = [sign * (a - b) for a, b in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    iqr = p["q3"] - p["q1"]
    worse = sign * (c["median"] - p["median"])
    narrow = all(s["q3"] - s["q1"] <= bound * abs(s["median"]) for s in (p, c))
    return {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "change_losses": sum(g < 0 for g in gains),
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "gain": wins >= math.ceil(0.9 * len(gains)) and -worse > iqr,
        "within_bound": worse <= bound * abs(p["median"]),
        # or every change run better than every parent run
        "resolved": narrow or max(sign * x for x in change) < min(sign * x for x in parent),
    }


def summarise(parent: dict, change: dict, benchmark: dict) -> dict:
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise PairError("no (workload, seed) has a record on both sides")
    for key in keys:
        if parent[key]["corpus_sha256"] != change[key]["corpus_sha256"]:
            raise PairError(f"{key[0]} seed {key[1]}: the two sides ran different corpora")
    everything = [r for side in (parent, change) for k, r in side.items() if k in keys]
    out = {
        "pairs": len({seed for _, seed in keys}),
        "seeds": sorted({seed for _, seed in keys}),
        "machine": {f: sorted({str(r.get(f)) for r in everything}) for f in MACHINE},
    }
    for side, records in zip(SIDES, (parent, change)):
        out[side] = {f: sorted({str(records[k].get(f)) for k in keys})
                     for f in ("git_commit", "source_sha256")}
    workloads = {}
    for name in sorted({w for w, _ in keys}):
        seeds = [seed for w, seed in keys if w == name]
        pairs = [(parent[name, s], change[name, s]) for s in seeds]
        entry = {
            "seeds": seeds,
            "corpus_sha256": [p["corpus_sha256"] for p, _ in pairs],
            "first": ["parent" if p["_mtime"] <= c["_mtime"] else "change" for p, c in pairs],
            "failed": {side: sum(pair[i]["failed"] for pair in pairs)
                       for i, side in enumerate(SIDES)},
            "attempted": {side: sum(pair[i]["attempted"] for pair in pairs)
                          for i, side in enumerate(SIDES)},
        }
        for metric in benchmark["end_to_end"]:
            m = metric["name"]
            entry[m] = {"unit": metric["unit"], "better": metric["better"],
                        "bound": metric["bound"],
                        **compare([p["metrics"][m] for p, _ in pairs],
                                  [c["metrics"][m] for _, c in pairs],
                                  metric["better"], metric["bound"])}
        workloads[name] = entry
    out["workloads"] = workloads
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="summarise paired parent/change benchmark runs")
    p.add_argument("--parent", required=True, type=Path, help="the parent's .perfbench-out")
    p.add_argument("--change", required=True, type=Path, help="the change's .perfbench-out")
    p.add_argument("--benchmark", default=Path("BENCHMARK.json"), type=Path)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    try:
        benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
        summary = summarise(load_records(args.parent), load_records(args.change), benchmark)
    except (OSError, ValueError, KeyError, PairError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for name, entry in summary["workloads"].items():
        for metric in benchmark["end_to_end"]:
            m = entry[metric["name"]]
            print(f"{name:8s} {metric['name']:14s} parent {m['parent']['median']:10.4f} "
                  f"change {m['change']['median']:10.4f} wins {m['change_wins']}/"
                  f"{len(entry['seeds'])} gain={m['gain']} within_bound={m['within_bound']} "
                  f"resolved={m['resolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
