"""Retrieval-efficiency and timing experiments over descriptor databases.

The protocol: extract one descriptor per shape, store them in a database,
query every descriptor back against the database with its own record
excluded, and call a query recognized when a same-category record appears
among the top k matches. Efficiency is the recognized percentage; timing
measures the matching loop only (extraction and I/O excluded).
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .descriptor import extract_all, variant_kind
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

# a sweep CSV read back holds at most MAX_CSV_LINES lines, the header
# included, of at most MAX_CSV_LINE characters each, line break included:
# a 256 x 256 grid with a dataset label of several hundred characters fits,
# and the rows read stay within about 64 MiB of text, whatever the input
MAX_CSV_LINES = 1 << 16
MAX_CSV_LINE = 1024

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
    # the occluded query shapes; not part of the report's value or its CSV
    queries: tuple[BinaryShape, ...] = field(default=(), compare=False, repr=False)


def extract_records(shapes: Iterable[BinaryShape], configs: Iterable[tuple[str, RasterSpec]]
                    ) -> list[list[DescriptorRecord]]:
    """One record list per ``(variant, spec)`` config, each in input order.

    ``configs`` and ``shapes`` are each read once, through _extracted, so a
    stream of shapes is held one at a time.
    """
    configs = list(configs)
    out: list[list[DescriptorRecord]] = [[] for _ in configs]
    for _ in _extracted(shapes, configs, out):
        pass
    return out


def _extracted(shapes: Iterable[BinaryShape], configs: Sequence[tuple[str, RasterSpec]],
               out: Sequence[list[DescriptorRecord]]) -> Iterator[BinaryShape]:
    """Each shape of ``shapes``, yielded after one ``extract_all`` call has
    appended its record under each config to that config's list in ``out``.
    A shape that cannot be extracted raises DatasetError naming it.
    """
    for shape in shapes:
        try:
            vectors = extract_all(shape, configs)
        except (RasterShapeError, ValueError) as exc:
            raise DatasetError(f"extracting {shape.id!r}: {exc}") from exc
        for vector, records in zip(vectors, out):
            records.append(DescriptorRecord(shape.id, shape.category, vector))
        yield shape


def _score(db: DescriptorDatabase, queries: Sequence[DescriptorRecord],
           k: int) -> tuple[float, float]:
    """(seconds of the matching loop, efficiency_pct) for one query pass.

    Each query runs with its own id excluded. An empty ``queries`` is
    refused before any query runs.
    """
    if not queries:
        raise ValueError("no queries given")
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

    Scores the first query alone, untimed, so the timed loop starts warm,
    then times the whole loop alone, single-threaded: ``len(queries) + 1``
    queries run. Efficiency is scored from the timed results afterward.
    """
    _score(db, queries[:1], k)
    total, efficiency = _score(db, queries, k)
    return total, total / len(queries), efficiency


def _check_run(k: int, threads: int) -> None:
    if threads != 1:  # perfbench/measure.py still passes threads=1
        raise ValueError(f"threads must be 1 (extraction is serial), got {threads!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def sweep(dataset: Iterable[BinaryShape], variant: str,
          separations: Sequence[int] = DEFAULT_SEPARATIONS,
          samples: Sequence[int] = DEFAULT_SAMPLES,
          k: int = DEFAULT_K, dataset_label: str = "dataset",
          threads: int = 1,
          progress: Callable[[SweepCell], None] | None = None) -> SweepReport:
    """Leave-self-out retrieval over every (separation, samples) pair.

    Every argument is checked before the first shape is read. ``dataset``
    is then read once, each shape extracted under every cell's spec before
    the next is read, so a stream of shapes is held one at a time while
    every cell's vectors are kept. Cells are then scored sequentially, one
    thread throughout, so the timing columns do not interfere. ``threads``
    accepts only 1.
    """
    kind = variant_kind(variant)
    _check_run(k, threads)
    # every spec is checked before any extraction; equal specs run once
    specs = list(dict.fromkeys(RasterSpec(kind, d, s) for d in separations for s in samples))
    if not specs:
        raise ValueError("sweep needs at least one separation and one sampling rate")
    cell_records = extract_records(dataset, [(variant, spec) for spec in specs])
    if not cell_records[0]:
        raise DatasetError("sweep needs a non-empty dataset")
    cells = []
    for spec, records in zip(specs, cell_records):
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

    Every argument is checked before the first shape is read. ``dataset``
    is then read once, keeping only the ``per_category`` smallest ids of
    each category, so a stream is held one shape at a time plus the kept
    ones. Each copy gets its own cut direction derived from ``seed`` plus
    its position, so the whole set is reproducible from one seed.
    """
    if per_category < 1:
        raise ValueError(f"per_category must be >= 1, got {per_category}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"occlusion fraction must be in [0, 1), got {fraction}")
    kept: dict[str, list[BinaryShape]] = {}
    for shape in dataset:
        members = kept.setdefault(shape.category, [])
        bisect.insort(members, shape, key=lambda s: s.id)
        del members[per_category:]
    selected = []
    for cat in sorted(kept):
        if len(kept[cat]) < per_category:
            raise DatasetError(f"category {cat!r} has {len(kept[cat])} shapes, need {per_category}")
        selected += kept[cat]
    return [occlude(shape, fraction, seed + i) for i, shape in enumerate(selected)]


def occlusion_experiment(dataset: Iterable[BinaryShape],
                         variant_specs: Sequence[tuple[str, int, int]] = STANDARD_OCCLUSION_CONFIGS,
                         per_category: int = 2, fraction: float = 0.2, seed: int = 0,
                         k: int = DEFAULT_K, threads: int = 1,
                         progress: Callable[[OcclusionCell], None] | None = None) -> OcclusionReport:
    """Retrieval efficiency of occluded queries against the clean database.

    The database holds every unoccluded shape; queries are the occluded
    copies (absent from the database, so nothing is excluded), and the
    report carries them as ``queries``. A repeated configuration runs once,
    as equal cells do in sweep. ``threads`` accepts only 1.

    Every argument is checked before the first shape is read. ``dataset``
    is then read once, by select_occlusion_queries, each shape extracted
    under every config as it passes, so a stream is held as that function
    holds it. A category with too few shapes is the one argument fault
    found only after the stream, once every shape has been extracted.
    """
    # every spec is checked before any extraction; equal configs run once
    configs = list(dict.fromkeys((variant, RasterSpec(variant_kind(variant), d, s))
                                 for variant, d, s in variant_specs))
    _check_run(k, threads)
    if not configs:
        raise ValueError("occlusion experiment needs at least one configuration")
    records: list[list[DescriptorRecord]] = [[] for _ in configs]
    queries = select_occlusion_queries(_extracted(dataset, configs, records),
                                       per_category, fraction, seed)
    if not queries:
        raise DatasetError("occlusion experiment needs a non-empty dataset")
    query_records = extract_records(queries, configs)
    cells = []
    for (variant, spec), db_records, q_records in zip(configs, records, query_records):
        db = DescriptorDatabase.from_records(spec, variant, db_records)
        efficiency = retrieval_efficiency(db, q_records, k)
        cell = OcclusionCell(variant, spec.separation_px, spec.samples_per_cycle, efficiency)
        cells.append(cell)
        if progress is not None:
            progress(cell)
    return OcclusionReport(fraction, seed, per_category, tuple(cells), tuple(queries))


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
    """Parse a CSV written by write_sweep_csv(); errors name the row and file.

    At most MAX_CSV_LINES lines of MAX_CSV_LINE characters are read; an
    input beyond either cap is refused, so an endless one is not read on.
    """
    rows = []
    with _opened(source, "r") as f:
        where = "" if f is source else f"{Path(source).name}: "
        try:
            for row in csv.reader(_bounded_lines(f, where)):
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


def _bounded_lines(f, where: str) -> Iterator[str]:
    """The lines of the text file ``f``; ValueError, after ``where``, at a
    line longer than MAX_CSV_LINE or more lines than MAX_CSV_LINES. A row
    is named by its line, which is its row in any CSV write_sweep_csv
    writes, unless a dataset label holds a line break."""
    for n in range(1, MAX_CSV_LINES + 2):
        line = f.readline(MAX_CSV_LINE + 1)
        if not line:
            return
        if n > MAX_CSV_LINES:
            raise ValueError(f"{where}sweep report CSV is longer than {MAX_CSV_LINES} lines")
        if len(line) > MAX_CSV_LINE:
            raise ValueError(f"{where}sweep report CSV row {n}: longer than "
                             f"{MAX_CSV_LINE} characters")
        yield line


def write_occlusion_csv(report: OcclusionReport, dest) -> None:
    _write_csv(dest, OCCLUSION_CSV_COLUMNS, (
        [cell.variant, cell.separation_px, cell.samples_per_cycle, f"{cell.efficiency_pct:.1f}"]
        for cell in report.cells))
