"""Retrieval-efficiency and timing experiments over descriptor databases.

The protocol: extract one descriptor per shape, store them in a database,
query every descriptor back against the database with its own record
excluded, and call a query recognized when a same-category record appears
among the top k matches. Efficiency is the recognized percentage; timing
measures the matching loop only (extraction and I/O excluded).

Extraction is columnar from the lookup to the database. _extracted takes
a stream one shape at a time: each is measured and looked up under every
config (``descriptor._hits``), and only its hits and cycle counts are
kept. Blocks of at most _BLOCK_POINTS hits are grouped at once
(``descriptor._grouped``, as ``extract_all`` groups one shape) into
per-config columns of ids, categories, cycle counts and integer counts, in
the narrowest dtype that holds them. ``descriptor._layout`` gives each
shape's vector length and denominator from its cycle count. Every
database is a count database, built straight from those columns, and
holds the counts once; only an experiment's query records divide them
into values, by ``descriptor._vectors`` as ``extract_all`` does, and each
carries its counts beside them. So a stream holds one decoded image and
one bounded block of hits, besides the columns, and it stops at the first
shape that would take a config's database, or the sum of all its
configs' databases, past the size cap, matcher.MAX_DATABASE_VALUES.
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

import numpy as np

from .descriptor import _grouped, _hits, _layout, _vectors, variant_kind
from .errors import DatasetError, RasterShapeError
from .matcher import DescriptorDatabase, DescriptorRecord, _check_size, query
from .raster import RasterSpec
from .shape_io import BinaryShape, _integer, occlude

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


# lattice hits a stream holds, over every config, before it groups them
# into values: with one decoded image, all it holds of the shapes it has read
_BLOCK_POINTS = 1 << 16


class _Columns:
    """The records of a stream of shapes under each of ``configs``, by column.

    _extracted fills it in stream order: ``ids`` and ``categories`` are
    every config's, and each config's lattice hits are held until the
    stream has held _BLOCK_POINTS hits over all configs, or ends. Then
    each config's held hits are grouped at once, by one ``_grouped`` call,
    into one more block of its ``cycles`` (each shape's cycle count) and
    ``counts``, integers in the narrowest dtype that holds them. Once the
    stream has ended, ``database(i)`` builds config i's count database
    straight from its columns, with no vector or record per row.
    ``records(i)`` builds config i's query records by ``descriptor._vectors``,
    each vector a view of one array of counts as float64 and one of values.
    """

    def __init__(self, configs: Sequence[tuple[str, RasterSpec]]) -> None:
        for variant, spec in configs:
            variant_kind(variant, spec)
        self.configs = configs
        self.ids: list[str] = []
        self.categories: list[str] = []
        self.cycles: list[list[np.ndarray]] = [[] for _ in configs]
        self.counts: list[list[np.ndarray]] = [[] for _ in configs]
        self._hits: list[list[np.ndarray]] = [[] for _ in configs]
        self._cycles: list[list[int]] = [[] for _ in configs]
        self._held = 0
        self._widths = [0] * len(configs)  # each config's longest vector

    def hold(self, shape: BinaryShape, found: Sequence[tuple[np.ndarray, int]]) -> None:
        """Keep ``shape``'s labels and its ``_hits`` under each config.

        DatasetError naming ``shape``, which is then not held, if a config's
        records would pass the database cap (matcher.MAX_DATABASE_VALUES)
        with it, or all configs' records together would: each config's
        database is its rows times its widest row, so they are held to the
        cap in sum, and the stream stops at the first shape past either.
        """
        widths = [max(width, _layout(variant, spec, n)[0])
                  for width, (variant, spec), (_, n) in zip(self._widths, self.configs, found)]
        rows = len(self.ids) + 1
        try:
            _check_size(rows, max(widths))
        except ValueError as exc:
            variant, spec = self.configs[widths.index(max(widths))]
            raise DatasetError(f"holding {shape.id!r} under {variant} sep={spec.separation_px} "
                               f"samples={spec.samples_per_cycle}: {exc}") from None
        try:
            _check_size(rows, sum(widths))
        except ValueError as exc:
            raise DatasetError(f"holding {shape.id!r} under {len(widths)} configs together: "
                               f"{exc}") from None
        self._widths = widths
        self.ids.append(shape.id)
        self.categories.append(shape.category)
        for hits, cycles, (shape_hits, n) in zip(self._hits, self._cycles, found):
            hits.append(shape_hits)
            cycles.append(n)
            self._held += shape_hits.size
        if self._held >= _BLOCK_POINTS:
            self.flush()

    def flush(self) -> None:
        """Group every held hit into each config's columns."""
        if not self._held:
            return
        for i, (variant, spec) in enumerate(self.configs):
            cycles = np.array(self._cycles[i], dtype=np.intp)
            self.counts[i].append(_grouped(variant, spec, np.concatenate(self._hits[i]), cycles))
            self.cycles[i].append(cycles)
            self._hits[i].clear()
            self._cycles[i].clear()
        self._held = 0

    def column(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Config i's (cycles, counts), each one array: its blocks are
        joined at the first read, in place of the blocks."""
        for blocks, empty in ((self.cycles[i], np.empty(0, np.intp)),
                              (self.counts[i], np.empty(0, np.uint8))):
            if len(blocks) != 1:
                blocks[:] = [np.concatenate([empty, *blocks])]
        return self.cycles[i][0], self.counts[i][0]

    def database(self, i: int) -> DescriptorDatabase:
        """Config i's count database, built from its columns."""
        variant, spec = self.configs[i]
        cycles, counts = self.column(i)
        lengths, dens = _layout(variant, spec, cycles)
        return DescriptorDatabase(spec, variant, self.ids, self.categories, lengths, counts, dens)

    def records(self, i: int) -> list[DescriptorRecord]:
        """Config i's records, their vectors built from its columns by
        ``descriptor._vectors``, as ``extract_all`` builds one shape's."""
        variant, spec = self.configs[i]
        cycles, counts = self.column(i)
        return [DescriptorRecord(rec_id, category, vector) for rec_id, category, vector in zip(
            self.ids, self.categories, _vectors(variant, spec, counts,
                                                *_layout(variant, spec, cycles)))]


def _extracted(shapes: Iterable[BinaryShape], columns: _Columns) -> Iterator[BinaryShape]:
    """Each shape of ``shapes``, yielded once its lattice hits under every
    config are held in ``columns``; the last block is grouped when the
    stream ends. Each shape is looked up before the next is read, so a
    shape that cannot be extracted raises DatasetError naming it, before
    any later shape is read.
    """
    for shape in shapes:
        try:
            found = _hits(shape, columns.configs)
        except (RasterShapeError, ValueError) as exc:
            raise DatasetError(f"extracting {shape.id!r}: {exc}") from exc
        columns.hold(shape, found)
        yield shape
    columns.flush()


def _extract_columns(shapes: Iterable[BinaryShape],
                     configs: Sequence[tuple[str, RasterSpec]]) -> _Columns:
    """The columns of ``shapes`` under ``configs``, each checked before the
    first shape is read; ``shapes`` is read once, through _extracted."""
    columns = _Columns(configs)
    for _ in _extracted(shapes, columns):
        pass
    return columns


def extract_databases(shapes: Iterable[BinaryShape], configs: Iterable[tuple[str, RasterSpec]]
                      ) -> list[DescriptorDatabase]:
    """One database per ``(variant, spec)`` config, each in input order.

    Every config is checked before the first shape is read. ``configs``
    and ``shapes`` are each read once, through _extracted, so a stream of
    shapes is held one at a time, with a bounded block of lattice hits.
    """
    columns = _extract_columns(shapes, list(configs))
    return [columns.database(i) for i in range(len(columns.configs))]


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
    if _integer("k", k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def sweep(dataset: Iterable[BinaryShape], variant: str,
          separations: Sequence[int] = DEFAULT_SEPARATIONS,
          samples: Sequence[int] = DEFAULT_SAMPLES,
          k: int = DEFAULT_K, dataset_label: str = "dataset",
          threads: int = 1,
          progress: Callable[[SweepCell], None] | None = None) -> SweepReport:
    """Leave-self-out retrieval over every (separation, samples) pair.

    Every argument is checked before the first shape is read. ``dataset``
    is then read once, through _extracted, each shape looked up under every
    cell's spec before the next is read, so a stream holds one image and a
    bounded block of hits at a time, while every cell's columns are kept.
    Each cell's database is built from its columns, and its leave-self-out
    queries are records whose vectors are views of them. Cells are then
    scored sequentially, one thread throughout, so the timing columns do
    not interfere. ``threads`` accepts only 1.
    """
    kind = variant_kind(variant)
    _check_run(k, threads)
    # every spec is checked before any extraction; equal specs run once
    specs = list(dict.fromkeys(RasterSpec(kind, d, s) for d in separations for s in samples))
    if not specs:
        raise ValueError("sweep needs at least one separation and one sampling rate")
    columns = _extract_columns(dataset, [(variant, spec) for spec in specs])
    if not columns.ids:
        raise DatasetError("sweep needs a non-empty dataset")
    cells = []
    for i, spec in enumerate(specs):
        total, avg, efficiency = timed_retrieval(columns.database(i), columns.records(i), k)
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
    per_category, seed = _integer("per_category", per_category), _integer("seed", seed)
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
    is then read once, by select_occlusion_queries, each shape looked up
    under every config as it passes through _extracted, so a stream is held
    as that function holds it, plus a bounded block of hits. The queries go
    through the same stream. A category with too few shapes is the one
    argument fault found only after the stream, once every shape has been
    extracted.
    """
    # every spec is checked before any extraction; equal configs run once
    configs = list(dict.fromkeys((variant, RasterSpec(variant_kind(variant), d, s))
                                 for variant, d, s in variant_specs))
    _check_run(k, threads)
    if not configs:
        raise ValueError("occlusion experiment needs at least one configuration")
    columns = _Columns(configs)
    queries = select_occlusion_queries(_extracted(dataset, columns),
                                       per_category, fraction, seed)
    if not queries:
        raise DatasetError("occlusion experiment needs a non-empty dataset")
    query_columns = _extract_columns(queries, configs)
    cells = []
    for i, (variant, spec) in enumerate(configs):
        efficiency = retrieval_efficiency(columns.database(i), query_columns.records(i), k)
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
    """CSV with one row per cell: efficiency at 1 decimal, times at 6, so
    a query of a few microseconds still reads above zero."""
    _write_csv(dest, SWEEP_CSV_COLUMNS, (
        [report.variant, report.dataset, cell.separation_px, cell.samples_per_cycle,
         f"{cell.efficiency_pct:.1f}", f"{cell.total_time_s:.6f}", f"{cell.avg_time_s:.6f}"]
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
