"""Command-line front end: index, query, sweep, occlude, report.

``index``, ``sweep`` and ``occlude`` stream a directory through
``shape_io.iter_directory``; ``query`` refuses spec flags that the database
does not match before it reads the image.

Exit codes: 0 success, 1 internal error, 2 bad input or arguments.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .descriptor import VARIANT_KIND, VARIANTS, extract
from .errors import RasterShapeError
from .evaluation import (
    DEFAULT_K,
    DEFAULT_SAMPLES,
    DEFAULT_SEPARATIONS,
    STANDARD_OCCLUSION_CONFIGS,
    extract_records,
    occlusion_experiment,
    read_sweep_csv,
    sweep,
    write_occlusion_csv,
    write_sweep_csv,
)
from .matcher import DescriptorDatabase, load_database, query, save_database
from .raster import RasterSpec
from .shape_io import iter_directory, load_image, save_image


def cmd_index(args) -> int:
    spec = RasterSpec(VARIANT_KIND[args.variant], args.sep, args.samples)
    shapes = iter_directory(args.dir, threshold=args.threshold, invert=args.invert)
    [records] = extract_records(shapes, [(args.variant, spec)])
    db = DescriptorDatabase.from_records(spec, args.variant, records)
    save_database(db, args.out)
    print(f"indexed {len(records)} images -> {args.out}")
    return 0


def cmd_query(args) -> int:
    db = load_database(args.db)
    variant = args.variant or db.variant
    sep = db.spec.separation_px if args.sep is None else args.sep
    samples = db.spec.samples_per_cycle if args.samples is None else args.samples
    spec = RasterSpec(VARIANT_KIND[variant], sep, samples)
    if (spec, variant) != (db.spec, db.variant):
        print(
            f"error: requested extraction {variant} {spec} does not match "
            f"database {db.variant} {db.spec}",
            file=sys.stderr,
        )
        return 2
    shape = load_image(args.image, threshold=args.threshold, invert=args.invert)
    vector = extract(shape, db.spec, db.variant)
    k = args.k
    if k > len(db):
        print(f"warning: k={k} but database has only {len(db)} records",
              file=sys.stderr)
    matches = query(db, vector, k)
    for rank, m in enumerate(matches, start=1):
        print(f"{rank}\t{m.id}\t{m.category}\t{m.distance:.6f}")
    return 0


def cmd_sweep(args) -> int:
    def progress(cell):
        print(
            f"sep={cell.separation_px} samples={cell.samples_per_cycle} "
            f"efficiency={cell.efficiency_pct:.1f}% total={cell.total_time_s:.3f}s",
            file=sys.stderr,
        )

    # "." or "a/.." names its directory only once resolved; the root has no name
    directory = Path(args.dir).resolve()
    report = sweep(
        iter_directory(args.dir, threshold=args.threshold, invert=args.invert),
        args.variant, separations=args.seps, samples=args.samples, k=args.k,
        dataset_label=directory.name or str(directory), progress=progress,
    )
    write_sweep_csv(report, args.out or sys.stdout)
    if args.out:
        print(f"wrote {len(report.cells)} cells -> {args.out}")
    return 0


def cmd_occlude(args) -> int:
    if args.variant:
        configs = [(args.variant, d, s) for d in args.seps for s in args.samples]
    else:
        configs = list(STANDARD_OCCLUSION_CONFIGS)
    report = occlusion_experiment(
        iter_directory(args.dir, threshold=args.threshold, invert=args.invert),
        configs, per_category=args.per_category, fraction=args.fraction, seed=args.seed, k=args.k,
    )
    # --out is made only after the experiment has checked every argument
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for q in report.queries:
            save_image(q, out_dir / f"{q.id}.pgm")
        print(f"wrote {len(report.queries)} occluded images -> {out_dir}", file=sys.stderr)
    write_occlusion_csv(report, args.report or sys.stdout)
    if args.report:
        print(f"wrote {len(report.cells)} rows -> {args.report}")
    return 0


def cmd_report(args) -> int:
    report = read_sweep_csv(args.csv)
    metric = {
        "efficiency": ("efficiency_pct", "{:.1f}"),
        "total_time": ("total_time_s", "{:.3f}"),
        "avg_time": ("avg_time_s", "{:.3f}"),
    }[args.metric]
    field, fmt = metric
    seps = list(dict.fromkeys(c.separation_px for c in report.cells))
    samples = list(dict.fromkeys(c.samples_per_cycle for c in report.cells))
    values = {(c.separation_px, c.samples_per_cycle): getattr(c, field)
              for c in report.cells}

    print(f"{report.variant} on {report.dataset} ({field})")
    width = 9
    header = "sep\\smp".rjust(width) + "".join(str(s).rjust(width) for s in samples)
    print(header)
    for d in seps:
        row = str(d).rjust(width)
        for s in samples:
            v = values.get((d, s))
            row += (fmt.format(v) if v is not None else "-").rjust(width)
        print(row)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main().

    Parsing keeps no state in it, and every default is immutable (the
    ``--seps``/``--samples`` defaults are tuples), so one call cannot leak
    into the next.
    """
    parser = argparse.ArgumentParser(
        prog="rastershape",
        description="Raster shape vectors: extraction, retrieval, and benchmark sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_load_flags(p):
        p.add_argument("--threshold", type=int, default=127,
                       help="PGM foreground threshold (default 127)")
        p.add_argument("--invert", action="store_true",
                       help="invert the foreground rule")

    p = sub.add_parser("index", help="extract descriptors for a directory into a database file")
    p.add_argument("dir", help="directory of .pbm/.pgm images")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--sep", type=int, default=8, help="separation between cycles (default 8)")
    p.add_argument("--samples", type=int, default=24, help="samples per cycle (default 24)")
    p.add_argument("--out", required=True, help="database file to write")
    add_load_flags(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="rank database records against one image")
    p.add_argument("db", help="database file written by index")
    p.add_argument("image", help="query image (.pbm/.pgm)")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--variant", choices=VARIANTS,
                   help="assert the database variant (mismatch fails)")
    p.add_argument("--sep", type=int, help="assert the database separation")
    p.add_argument("--samples", type=int, help="assert the database sampling rate")
    add_load_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("sweep", help="efficiency/time grid over separations x samples")
    p.add_argument("dir")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--seps", type=int, nargs="+", default=DEFAULT_SEPARATIONS)
    p.add_argument("--samples", type=int, nargs="+", default=DEFAULT_SAMPLES)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--out", help="CSV path (default: stdout)")
    add_load_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("occlude", help="occluded-query retrieval experiment")
    p.add_argument("dir")
    p.add_argument("--fraction", type=float, default=0.2,
                   help="foreground fraction to erase (default 0.2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-category", type=int, default=2,
                   help="occluded queries per category (default 2)")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--variant", choices=VARIANTS,
                   help="sweep this variant over --seps x --samples instead of "
                        "the four standard configurations")
    p.add_argument("--seps", type=int, nargs="+", default=DEFAULT_SEPARATIONS)
    p.add_argument("--samples", type=int, nargs="+", default=DEFAULT_SAMPLES)
    p.add_argument("--out", help="directory for the occluded query images")
    p.add_argument("--report", help="CSV path for the efficiency table (default: stdout)")
    add_load_flags(p)
    p.set_defaults(func=cmd_occlude)

    p = sub.add_parser("report", help="render a sweep CSV as an aligned table")
    p.add_argument("csv")
    p.add_argument("--metric", choices=("efficiency", "total_time", "avg_time"),
                   default="efficiency")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RasterShapeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
