"""Descriptor databases and Euclidean top-k retrieval.

Databases are plain line-oriented text files (RASTERDB v1) holding one
labeled vector per record. Retrieval is an exact scan of every record:
each database keeps its vectors as one read-only, zero-padded
``(N, L_max)`` matrix, built once, and a query ranks all N rows in one
vectorized pass. Datasets here are a few hundred to a few thousand records
and the benchmark harness times exactly this scan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .descriptor import ShapeVector, variant_kind
from .errors import DatabaseFormatError, EmptyDatabaseError, IncompatibleVectorError
from .raster import RasterSpec

FORMAT_NAME = "RASTERDB"
FORMAT_VERSION = "v1"
HEADER_FIELDS = ("kind", "variant", "sep", "samples")
# largest N x L_max matrix a database may hold (512 MiB of float64), checked before allocating
MAX_DATABASE_VALUES = 1 << 26
# a tab or any line boundary str.splitlines() knows would split a record line
_FIELD_BREAK = re.compile("[\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


@dataclass(frozen=True, eq=False)
class DescriptorRecord:
    id: str
    category: str
    vector: ShapeVector


@dataclass(frozen=True, eq=False)
class DescriptorDatabase:
    """Immutable collection of records sharing one spec and variant."""

    spec: RasterSpec
    variant: str
    records: tuple[DescriptorRecord, ...]
    # row i holds records[i]'s values, zero-padded to the longest record
    _matrix: np.ndarray = field(init=False, repr=False)
    _rows: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        records = tuple(self.records)
        width = max((len(rec.vector) for rec in records), default=0)
        if len(records) * width > MAX_DATABASE_VALUES:
            raise ValueError(f"{len(records)} records x {width} values is above "
                             f"the cap of {MAX_DATABASE_VALUES} values")
        matrix = np.zeros((len(records), width), order="F")
        rows: dict[str, int] = {}
        for row, rec in enumerate(records):
            if rec.id in rows:
                raise ValueError(f"duplicate record id {rec.id!r}")
            rows[rec.id] = row
            if rec.vector.variant != self.variant or rec.vector.spec != self.spec:
                raise ValueError(
                    f"record {rec.id!r} was extracted under a different spec/variant"
                )
            matrix[row, :len(rec.vector)] = rec.vector.values
        matrix.flags.writeable = False
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_rows", rows)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Match:
    id: str
    category: str
    distance: float


def _distances(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``q`` to each row of the ``(n, width)`` matrix.

    Implicit zero-padding: missing trailing cycles hold no shape samples, so
    ``q`` and the rows are both padded with zeros to the longer width. The
    differences sit in a column-major array of at least two rows, so numpy
    adds each row's squares strictly left to right (it sums pairwise only
    along the contiguous axis). Extra zero columns then add exact zeros, and
    a record's distance does not depend on the width of the matrix it is in.
    """
    n, width = rows.shape
    diff = np.zeros((max(n, 2), max(width, q.size)), order="F")
    diff[:n, :width] = rows
    diff[:n, :q.size] -= q
    diff *= diff
    return np.sqrt(diff.sum(axis=1)[:n])


def distance(a: ShapeVector, b: ShapeVector) -> float:
    """Euclidean distance; the shorter vector is zero-padded to the longer."""
    if a.variant != b.variant or a.spec != b.spec:
        raise IncompatibleVectorError(
            f"cannot compare {a.variant}/{a.spec} with {b.variant}/{b.spec}"
        )
    return float(_distances(b.values[np.newaxis], a.values)[0])


def query(db: DescriptorDatabase, q: ShapeVector, k: int,
          exclude_id: str | None = None) -> list[Match]:
    """The k records nearest to ``q``, ascending by distance.

    Ties keep database insertion order. ``exclude_id`` drops one record
    (used for leave-self-out evaluation). Returns fewer than k matches only
    when the database, after exclusion, is smaller than k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if q.variant != db.variant or q.spec != db.spec:
        raise IncompatibleVectorError(
            f"query is {q.variant}/{q.spec}, database is {db.variant}/{db.spec}"
        )
    dists = _distances(db._matrix, q.values)
    order = np.argsort(dists, kind="stable")
    excluded = db._rows.get(exclude_id)
    if excluded is not None:
        order = order[order != excluded]
    if not order.size:
        raise EmptyDatabaseError("no records to query (database empty after exclusion)")
    return [Match(db.records[i].id, db.records[i].category, float(dists[i]))
            for i in order[:k]]


def _header_line(db: DescriptorDatabase) -> str:
    return (f"{FORMAT_NAME} {FORMAT_VERSION} kind={db.spec.kind} variant={db.variant} "
            f"sep={db.spec.separation_px} samples={db.spec.samples_per_cycle}")


def save_database(db: DescriptorDatabase, path) -> None:
    """Write the database as RASTERDB v1 text, values at 6 decimals.

    An id or category holding a tab or a line break cannot be read back, so
    it raises ValueError before anything is written.
    """
    lines = [_header_line(db)]
    for rec in db.records:
        for what, text in (("id", rec.id), ("category", rec.category)):
            if _FIELD_BREAK.search(text):
                raise ValueError(f"record {rec.id!r}: {what} holds a tab or line break")
        values = ",".join(f"{v:.6f}" for v in rec.vector.values)
        lines.append(f"{rec.id}\t{rec.category}\t{len(rec.vector)}\t{values}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def load_database(path) -> DescriptorDatabase:
    """Read a RASTERDB v1 file written by save_database()."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise DatabaseFormatError(f"{path.name}: not UTF-8 text") from None
    if not lines:
        raise DatabaseFormatError(f"{path.name}: empty file")
    head = lines[0].split()
    if not head or head[0] != FORMAT_NAME:
        raise DatabaseFormatError(f"{path.name}: not a descriptor database: {lines[0][:60]!r}")
    if len(head) < 2 or head[1] != FORMAT_VERSION:
        version = head[1] if len(head) > 1 else "(missing)"
        raise DatabaseFormatError(
            f"{path.name}: unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    fields = {}
    for part in head[2:]:
        key, sep, value = part.partition("=")
        if not sep or key not in HEADER_FIELDS or key in fields:
            raise DatabaseFormatError(f"{path.name}:1: bad header field {part!r}")
        fields[key] = value
    try:
        variant = fields["variant"]
        spec = RasterSpec(fields["kind"], int(fields["sep"]), int(fields["samples"]))
        variant_kind(variant, spec)
    except (KeyError, ValueError) as exc:
        raise DatabaseFormatError(f"{path.name}:1: bad header: {exc}") from exc

    first_line: dict[str, int] = {}
    rows = []  # (lineno, id, category, offset into flat, length)
    flat: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DatabaseFormatError(f"{path.name}:{lineno}: expected 4 fields, got {len(parts)}")
        rec_id, rec_category, length_text, values_text = parts
        if rec_id in first_line:
            raise DatabaseFormatError(
                f"{path.name}:{lineno}: duplicate record id {rec_id!r} "
                f"(first on line {first_line[rec_id]})"
            )
        first_line[rec_id] = lineno
        try:
            length = int(length_text)
            values = [float(v) for v in values_text.split(",")] if values_text else []
        except ValueError as exc:
            raise DatabaseFormatError(f"{path.name}:{lineno}: bad record: {exc}") from exc
        if length != len(values):
            raise DatabaseFormatError(
                f"{path.name}:{lineno}: declared {length} values, found {len(values)}"
            )
        rows.append((lineno, rec_id, rec_category, len(flat), length))
        flat.extend(values)

    # one range check over every value in the file; NaN fails both comparisons
    every = np.array(flat, dtype=float)
    bad = ~((every >= 0.0) & (every <= 1.0))
    if bad.any():
        at = int(np.argmax(bad))
        lineno = next(row[0] for row in reversed(rows) if row[3] <= at)
        raise DatabaseFormatError(
            f"{path.name}:{lineno}: value {every[at]!r} outside [0, 1]"
        )
    records = tuple(
        DescriptorRecord(rec_id, rec_category,
                         ShapeVector(variant, spec, every[start:start + length]))
        for _, rec_id, rec_category, start, length in rows
    )
    try:
        return DescriptorDatabase(spec, variant, records)
    except ValueError as exc:
        raise DatabaseFormatError(f"{path.name}: {exc}") from exc
