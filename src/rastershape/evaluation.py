"""Retrieval-efficiency and timing experiments over descriptor databases.

The protocol: extract one descriptor per shape, store them in a database,
query every descriptor back against the database with its own record
excluded, and call a query recognized when a same-category record appears
among the top k matches. Efficiency is the recognized percentage; timing
measures the matching loop only (extraction and I/O excluded).
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .descriptor import extract, variant_kind
from .errors import DatasetError, RasterShapeError
from .matcher import DescriptorDatabase, DescriptorRecord, query
from .raster import RasterSpec
from .shape_io import BinaryShape, occlude

DEFAULT_SEPARATIONS = (8, 16, 24, 32)
DEFAULT_SAMPLES = (4, 6, 8, 12, 24)
DEFAULT_K = 3

# the four configurations evaluated in the occlusion experiment
STANDARD_OCCLUSION_CONFIGS = (
    ("circ_radial", 24, 24),
    ("spiral_full", 32, 24),
    ("spiral_fixed", 24, 12),
    ("circ_angular", 16, 8),
)

SWEEP_CSV_COLUMNS = ("variant", "dataset", "separation", "samples",
                     "efficiency_pct", "total_time_s", "avg_time_s")
OCCLUSION_CSV_COLUMNS = ("variant", "separation", "samples", "efficiency_pct")


@dataclass(frozen=True)
class SweepCell:
    separation_px: int
    samples_per_cycle: int
    efficiency_pct: float
    total_time_s: float
    avg_time_s: float


@dataclass(frozen=True)
class SweepReport:
    variant: str
    dataset: str
    cells: tuple[SweepCell, ...]


@dataclass(frozen=True)
class OcclusionCell:
    variant: str
    separation_px: int
    samples_per_cycle: int
    efficiency_pct: float


@dataclass(frozen=True)
class OcclusionReport:
    fraction: float
    seed: int
    per_category: int
    cells: tuple[OcclusionCell, ...]


def extract_records(shapes: Sequence[BinaryShape], spec: RasterSpec,
                    variant: str) -> list[DescriptorRecord]:
    """Descriptor records for ``shapes`` in input order; bad input raises DatasetError."""
    def one(shape: BinaryShape) -> DescriptorRecord:
        try:
            return DescriptorRecord(shape.id, shape.category, extract(shape, spec, variant))
        except (RasterShapeError, ValueError) as exc:
            raise DatasetError(f"extracting {shape.id!r}: {exc}") from exc

    return [one(s) for s in shapes]


def _score(db: DescriptorDatabase, queries: Sequence[DescriptorRecord], k: int,
           warm_up: bool = False) -> tuple[float, float]:
    """(seconds of the matching loop, efficiency_pct) for one query pass.

    Arguments are checked before any query runs. With ``warm_up``, one
    untimed pass runs first.
    """
    if not queries:
        raise ValueError("no queries given")
    if warm_up:
        for q in queries:
            query(db, q.vector, k, exclude_id=q.id)
    start = time.perf_counter()
    results = [query(db, q.vector, k, exclude_id=q.id) for q in queries]
    total = time.perf_counter() - start

    recognized = sum(any(m.category == q.category for m in matches)
                     for q, matches in zip(queries, results))
    return total, 100.0 * recognized / len(queries)


def retrieval_efficiency(db: DescriptorDatabase, queries: Sequence[DescriptorRecord],
                         k: int = DEFAULT_K) -> float:
    """Percentage of queries with a same-category record in their top k.

    Each query runs with its own id excluded, so database members can be
    used as their own test set.
    """
    return _score(db, queries, k)[1]


def timed_retrieval(db: DescriptorDatabase, queries: Sequence[DescriptorRecord],
                    k: int = DEFAULT_K) -> tuple[float, float, float]:
    """(total_time_s, avg_time_s, efficiency_pct) for the full query loop.

    Runs one untimed warm-up pass, then times the query loop alone,
    single-threaded. Efficiency is scored from the timed results afterward.
    """
    total, efficiency = _score(db, queries, k, warm_up=True)
    return total, total / len(queries), efficiency


def sweep(dataset: Iterable[BinaryShape], variant: str,
          separations: Sequence[int] = DEFAULT_SEPARATIONS,
          samples: Sequence[int] = DEFAULT_SAMPLES,
          k: int = DEFAULT_K, dataset_label: str = "dataset",
          threads: int = 1,
          progress: Callable[[SweepCell], None] | None = None) -> SweepReport:
    """Leave-self-out retrieval over every (separation, samples) pair.

    Cells run sequentially, one thread throughout, so the timing columns
    do not interfere. ``threads`` accepts only 1.
    """
    kind = variant_kind(variant)
    if threads != 1:  # perfbench/measure.py still passes threads=1
        raise ValueError(f"threads must be 1 (extraction is serial), got {threads!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # every spec is checked before any extraction; equal specs run once
    specs = dict.fromkeys(RasterSpec(kind, d, s) for d in separations for s in samples)
    shapes = list(dataset)
    if not shapes:
        raise DatasetError("sweep needs a non-empty dataset")
    cells = []
    for spec in specs:
        records = extract_records(shapes, spec, variant)
        db = DescriptorDatabase.from_records(spec, variant, records)
        total, avg, efficiency = timed_retrieval(db, records, k)
        cell = SweepCell(spec.separation_px, spec.samples_per_cycle, efficiency, total, avg)
        cells.append(cell)
        if progress is not None:
            progress(cell)
    return SweepReport(variant, dataset_label, tuple(cells))


def select_occlusion_queries(dataset: Iterable[BinaryShape], per_category: int,
                             fraction: float, seed: int) -> list[BinaryShape]:
    """Occluded copies of the first ``per_category`` shapes of each category.

    Selection is by id order within each category; each copy gets its own
    cut direction derived from ``seed`` plus its position, so the whole set
    is reproducible from one seed.
    """
    if per_category < 1:
        raise ValueError(f"per_category must be >= 1, got {per_category}")
    groups: dict[str, list[BinaryShape]] = {}
    for shape in dataset:
        groups.setdefault(shape.category, []).append(shape)
    selected = []
    for cat in sorted(groups):
        members = sorted(groups[cat], key=lambda s: s.id)
        if len(members) < per_category:
            raise DatasetError(
                f"category {cat!r} has {len(members)} shapes, need {per_category}"
            )
        selected.extend(members[:per_category])
    return [occlude(shape, fraction, seed + i) for i, shape in enumerate(selected)]


def occlusion_experiment(dataset: Iterable[BinaryShape],
                         variant_specs: Sequence[tuple[str, int, int]] = STANDARD_OCCLUSION_CONFIGS,
                         per_category: int = 2, fraction: float = 0.2, seed: int = 0,
                         k: int = DEFAULT_K, threads: int = 1,
                         progress: Callable[[OcclusionCell], None] | None = None) -> OcclusionReport:
    """Retrieval efficiency of occluded queries against the clean database.

    The database holds every unoccluded shape; queries are the occluded
    copies (absent from the database, so nothing is excluded). ``threads``
    accepts only 1.
    """
    specs = [(variant, RasterSpec(variant_kind(variant), d, s))
             for variant, d, s in variant_specs]
    if threads != 1:  # perfbench/measure.py still passes threads=1
        raise ValueError(f"threads must be 1 (extraction is serial), got {threads!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    shapes = list(dataset)
    queries = select_occlusion_queries(shapes, per_category, fraction, seed)
    cells = []
    for variant, spec in specs:
        records = extract_records(shapes, spec, variant)
        db = DescriptorDatabase.from_records(spec, variant, records)
        query_records = extract_records(queries, spec, variant)
        efficiency = retrieval_efficiency(db, query_records, k)
        cell = OcclusionCell(variant, spec.separation_px, spec.samples_per_cycle, efficiency)
        cells.append(cell)
        if progress is not None:
            progress(cell)
    return OcclusionReport(fraction, seed, per_category, tuple(cells))


@contextlib.contextmanager
def _opened(target, mode: str):
    """``target`` itself if it is a file object, else the named file, closed on exit."""
    if hasattr(target, "write") or hasattr(target, "read"):
        yield target
    else:
        with open(target, mode, newline="", encoding="utf-8") as f:
            yield f


def _write_csv(dest, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _opened(dest, "w") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def write_sweep_csv(report: SweepReport, dest) -> None:
    """CSV with one row per cell: efficiency at 1 decimal, times at 3."""
    _write_csv(dest, SWEEP_CSV_COLUMNS, (
        [report.variant, report.dataset, cell.separation_px, cell.samples_per_cycle,
         f"{cell.efficiency_pct:.1f}", f"{cell.total_time_s:.3f}", f"{cell.avg_time_s:.3f}"]
        for cell in report.cells))


def read_sweep_csv(source) -> SweepReport:
    """Parse a CSV written by write_sweep_csv(); errors name the row and file."""
    rows = []
    with _opened(source, "r") as f:
        where = "" if f is source else f"{Path(source).name}: "
        try:
            for row in csv.reader(f):
                rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"{where}sweep report CSV row {len(rows) + 1}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{where}not UTF-8 text") from None
    if not rows or tuple(rows[0]) != SWEEP_CSV_COLUMNS:
        raise ValueError(f"{where}not a sweep report CSV (bad or missing header)")
    body = [(n, row) for n, row in enumerate(rows[1:], start=2) if row]
    if not body:
        raise ValueError(f"{where}sweep report CSV has no data rows")
    cells = []
    first_row: dict[tuple[int, int], int] = {}
    for n, row in body:
        at = f"{where}sweep report CSV row {n}: "
        if len(row) != len(SWEEP_CSV_COLUMNS):
            raise ValueError(f"{at}expected {len(SWEEP_CSV_COLUMNS)} columns, got {len(row)}")
        try:
            cell = (int(row[2]), int(row[3]))
            efficiency, total, avg = numbers = [float(text) for text in row[4:]]
        except ValueError as exc:
            raise ValueError(f"{at}{exc}") from None
        for text, value in zip(row[4:], numbers):
            if not math.isfinite(value):
                raise ValueError(f"{at}non-finite value {text!r}")
        if not (0 <= efficiency <= 100 and total >= 0 and avg >= 0):
            raise ValueError(f"{at}efficiency_pct outside [0, 100] or a negative time")
        if first_row.setdefault(cell, n) != n:
            raise ValueError(f"{at}repeats separation {cell[0]}, samples {cell[1]} "
                             f"(first on row {first_row[cell]})")
        cells.append(SweepCell(*cell, *numbers))
    if len({(row[0], row[1]) for _, row in body}) != 1:
        raise ValueError(f"{where}sweep report CSV mixes variants or datasets")
    return SweepReport(body[0][1][0], body[0][1][1], tuple(cells))


def write_occlusion_csv(report: OcclusionReport, dest) -> None:
    _write_csv(dest, OCCLUSION_CSV_COLUMNS, (
        [cell.variant, cell.separation_px, cell.samples_per_cycle, f"{cell.efficiency_pct:.1f}"]
        for cell in report.cells))
