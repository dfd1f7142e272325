"""Descriptor databases and Euclidean top-k retrieval.

A database is stored by column: record ids, categories, vector lengths and
one read-only, zero-padded, column-major ``(N, L_max)`` matrix of values.
DescriptorDatabase.from_records builds one from extracted records;
load_database reads a RASTERDB v1 file (UTF-8 text, one labeled vector per
line, lines separated by line feeds alone, at most MAX_DATABASE_BYTES)
straight into the columns, in one columnar pass with no loop over the
lines and no per-record objects. It reads values only in the fixed
6-decimal notation save_database writes, a digit, a dot and six digits:
every value of the file is checked and converted at once, as integer
millionths, and any other token is a bad record. Only a file that pass
refuses is read line by line, to name its first fault. A database is the
sequence of its records, each built when it is read.

Retrieval takes one of two scans.

A count database is one whose every value is a whole count over its
variant's one denominator (descriptor.count_denominator: the sample count
for circ_radial and spiral_full, 1 for spiral_fixed), with every squared
count norm at most descriptor.EXACT_NORM, so every database extracted in
this package is one. It keeps a second matrix, of the counts as float64.
A query known to hold such counts (ShapeVector's ``_exact`` flag, set by
extraction for free) is ranked in integer arithmetic: one matrix-vector
product gives each row's |c|^2 - 2 c.q, exact in float64 under that norm
bound, so records at equal exact distance tie exactly and ties keep
insertion order. The reported distance is sqrt(|c - q|^2 / den^2) from the
exact integer |c - q|^2: the correctly rounded root of the correctly
rounded squared distance, and bit for bit the float kernel's distance
whenever that kernel's sum is exact (any power-of-two denominator).

Every other database (circ_angular, whose shapes each divide by their own
cycle count, loaded RASTERDB v1 files whose 6-decimal values are not such
counts, or values built by hand) and every other query take the float
scan, pruned by a proven bound. One matrix-vector product gives every
row's squared distance to the query up to one rounding margin per query,
set by the largest row norm R and the query's norm. The bound relies on
ShapeVector and DescriptorDatabase refusing values outside [0, 1]: so R <=
sqrt(L_max), and no NaN, inf or overflow reaches a ranking. Only the rows
within twice that margin of the k-th smallest estimate go through the
exact distance kernel. It squares the differences in place in the copy of
those rows that indexing makes and reads each row's sum from the last
column of a ``cumsum``, which adds strictly left to right: each row is
summed the same way whatever rows it is given with. One stable sort by
distance then ranks the candidates. So a query returns the same matches,
bit for bit, as ranking every row with that kernel; ties keep insertion
order among records at equal floating-point distance, which records at
equal exact distance need not be. Datasets here are a few hundred to a few
thousand records, and the benchmark harness times exactly these scans.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .descriptor import (
    EXACT_NORM,
    ShapeVector,
    check_unit_range,
    count_denominator,
    variant_kind,
    whole_counts,
)
from .errors import DatabaseFormatError, EmptyDatabaseError, IncompatibleVectorError
from .raster import RasterSpec
from .shape_io import read_bounded

FORMAT_NAME = "RASTERDB"
FORMAT_VERSION = "v1"
HEADER_FIELDS = ("kind", "variant", "sep", "samples")
# largest N x L_max matrix a database may hold (512 MiB of float64), checked before allocating
MAX_DATABASE_VALUES = 1 << 26
# largest RASTERDB file read: 9 bytes ("d.dddddd," or with a line feed) for
# each value at MAX_DATABASE_VALUES, and one more per value (64 MiB in all)
# for the header, ids, categories and lengths: 640 MiB
MAX_DATABASE_BYTES = 10 * MAX_DATABASE_VALUES
# largest array a query beyond the matrix width sums at once (8 MiB of float64)
_BLOCK_VALUES = 1 << 20
# the line boundaries str.splitlines() knows besides "\n"
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# a tab or any line boundary would split a record line
_FIELD_BREAK = re.compile(f"[\t\n{_LINE_BREAKS}]")
# a lone surrogate, as os.fsdecode gives for a file name's undecodable bytes
_SURROGATE = re.compile("[\ud800-\udfff]")
# A value and its comma, "d.dddddd,", are 9 bytes. Less ord("0"), wrapping
# as uint8, a digit is 0-9 and any other byte is above 9, and the dot and
# the comma become _DOT and _COMMA.
_DOT, _COMMA = np.frombuffer(b".,", np.uint8) - ord("0")
_MICRO = 1_000_000
# 10, 100, ..., 10^18: a count has one digit more than these it is not below
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)
# query()'s pruning margin, derived in _candidates: its slack over the worst
# rounding error, the unit roundoff and the smallest subnormal
_SLACK = 16
_UNIT = 2.0 ** -53
_TINY = 2.0 ** -1074


@dataclass(frozen=True, eq=False)
class DescriptorRecord:
    id: str
    category: str
    vector: ShapeVector


@dataclass(frozen=True, eq=False, init=False)
class DescriptorDatabase(Sequence):
    """Immutable labeled vectors sharing one spec and variant, stored by column.

    Record i is ``ids[i]``, ``categories[i]`` and the first ``lengths[i]``
    values of row i of ``matrix``, the read-only, zero-padded, column-major
    ``(N, L_max)`` array. The database is also the sequence of its records,
    in insertion order: indexing builds a DescriptorRecord when it is read,
    len() builds none, and ``records`` is the database itself. A count
    database (see the module docstring) also keeps ``_counts``, the values
    times their denominator ``_den`` in the same layout, and their squared
    norms; any other database keeps None there.
    """

    spec: RasterSpec
    variant: str
    ids: tuple[str, ...]
    categories: tuple[str, ...]
    lengths: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)
    _rows: dict[str, int] = field(repr=False)
    _norms: np.ndarray = field(repr=False)  # each row's squared norm
    _radius: float = field(repr=False)  # the largest row norm
    _den: int | None = field(repr=False)  # the values' one denominator, if any
    _counts: np.ndarray | None = field(repr=False)  # matrix * _den, for a count database
    _count_norms: np.ndarray | None = field(repr=False)  # each row of _counts' squared norm

    def __init__(self, spec: RasterSpec, variant: str, ids: Sequence[str],
                 categories: Sequence[str], lengths: Sequence[int], values) -> None:
        """``values``: every record's values in record order, each in [0, 1] (else ValueError)."""
        variant_kind(variant, spec)
        ids, categories = tuple(ids), tuple(categories)
        lengths = np.array(lengths, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        n = len(ids)
        if (len(categories) != n or lengths.shape != (n,) or (lengths < 0).any()
                or lengths.sum() != values.size):
            raise ValueError("ids, categories, lengths and values do not agree")
        check_unit_range(values)
        width = int(lengths.max(initial=0))
        if n * width > MAX_DATABASE_VALUES:
            raise ValueError(f"{n} records x {width} values is above "
                             f"the cap of {MAX_DATABASE_VALUES} values")
        rows = dict(zip(ids, range(n)))
        if len(rows) < n:
            seen: set[str] = set()
            for rec_id in ids:
                if rec_id in seen:
                    raise ValueError(f"duplicate record id {rec_id!r}")
                seen.add(rec_id)
        matrix = np.zeros((n, width), order="F")
        matrix[np.arange(width) < lengths[:, np.newaxis]] = values
        norms = np.einsum("ij,ij->i", matrix, matrix)  # read by query's bound
        den = count_denominator(variant, spec)
        counts = count_norms = None
        # the first row first: a loaded file's 6-decimal values fail there at once
        first = values[:lengths[0]] if n else values
        if den is not None and whole_counts(first, den) is not None:
            counts = whole_counts(matrix, den)
        if counts is not None:
            count_norms = np.einsum("ij,ij->i", counts, counts)
            if count_norms.max(initial=0.0) > EXACT_NORM:
                counts = count_norms = None
        for array in (matrix, lengths, norms, counts, count_norms):
            if array is not None:
                array.flags.writeable = False
        vars(self).update(spec=spec, variant=variant, ids=ids, categories=categories,
                          lengths=lengths, matrix=matrix, _rows=rows, _norms=norms,
                          _radius=math.sqrt(norms.max(initial=0.0)), _den=den,
                          _counts=counts, _count_norms=count_norms)

    @classmethod
    def from_records(cls, spec: RasterSpec, variant: str,
                     records: Iterable[DescriptorRecord]) -> DescriptorDatabase:
        """The database of ``records``, each extracted under ``spec`` and ``variant``."""
        records = tuple(records)
        for rec in records:
            vector = rec.vector
            # an extracted vector holds the very spec object it was extracted under
            if vector.variant != variant or (vector.spec is not spec and vector.spec != spec):
                raise ValueError(
                    f"record {rec.id!r} was extracted under a different spec/variant"
                )
        values = [rec.vector.values for rec in records]
        return cls(spec, variant, [rec.id for rec in records],
                   [rec.category for rec in records], [v.size for v in values],
                   np.concatenate([np.empty(0), *values]))

    @property
    def records(self) -> Sequence[DescriptorRecord]:
        return self

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int | slice) -> DescriptorRecord | list[DescriptorRecord]:
        i = range(len(self))[i]
        if isinstance(i, range):  # a slice
            return [self[j] for j in i]
        vector = ShapeVector(self.variant, self.spec, self.matrix[i, :self.lengths[i]])
        return DescriptorRecord(self.ids[i], self.categories[i], vector)


@dataclass(frozen=True)
class Match:
    id: str
    category: str
    distance: float


def _distances(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``q`` to each row of ``rows``, an ``(n, width)``
    array the kernel owns: it is overwritten with the squared differences.

    Implicit zero-padding: missing trailing cycles hold no shape samples, so
    ``q`` and the rows are both padded with zeros to the longer width. Each
    row's sum is the last column of ``cumsum(axis=1)``, which adds strictly
    left to right, whatever the array's layout or number of rows. Extra zero
    columns then add exact zeros, and a record's distance does not depend on
    the width of the matrix it is in or on the other rows it is given with.

    The part of ``q`` beyond the matrix adds the same squares to every row.
    Those go in column blocks of at most ``_BLOCK_VALUES`` values, each
    block holding the running sums in its first column, so every row is
    still summed left to right and a long query allocates no more than the
    rows and one block.
    """
    n, width = rows.shape
    head = q[:width]
    rows[:, :head.size] -= head
    rows *= rows
    sums = rows.cumsum(axis=1)[:, -1] if width else np.zeros(n)
    tail = q[width:]
    if tail.size:
        tail = tail * tail
        step = max(1, _BLOCK_VALUES // max(n, 1) - 1)
        for start in range(0, tail.size, step):
            part = tail[start:start + step]
            block = np.empty((n, 1 + part.size))
            block[:, 0] = sums
            block[:, 1:] = part
            sums = block.cumsum(axis=1)[:, -1]
    return np.sqrt(sums)


def distance(a: ShapeVector, b: ShapeVector) -> float:
    """Euclidean distance; the shorter vector is zero-padded to the longer.

    Two vectors that both hold exact counts are compared as query() compares
    them in a count database, from the exact integer squared distance, so a
    match there reports the very distance this returns; any other pair goes
    through the float kernel.
    """
    if a.variant != b.variant or a.spec != b.spec:
        raise IncompatibleVectorError(
            f"cannot compare {a.variant}/{a.spec} with {b.variant}/{b.spec}"
        )
    if a._exact and b._exact:
        den = count_denominator(a.variant, a.spec)
        if a.values.size < b.values.size:
            a, b = b, a
        diff = np.rint(a.values * den)
        diff[:b.values.size] -= np.rint(b.values * den)
        return math.sqrt(float(diff @ diff) / (den * den))
    return float(_distances(b.values[np.newaxis].copy(), a.values)[0])


def query(db: DescriptorDatabase, q: ShapeVector, k: int,
          exclude_id: str | None = None) -> list[Match]:
    """The k records nearest to ``q``, ascending by distance.

    Ties keep database insertion order: ties at equal exact distance in a
    count database, ties at equal floating-point distance otherwise (see
    the module docstring). ``exclude_id`` drops one record
    (used for leave-self-out evaluation). Returns fewer than k matches only
    when the database, after exclusion, is smaller than k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # a query extracted under the database's spec holds that very spec object
    if q.variant != db.variant or (q.spec is not db.spec and q.spec != db.spec):
        raise IncompatibleVectorError(
            f"query is {q.variant}/{q.spec}, database is {db.variant}/{db.spec}"
        )
    excluded = db._rows.get(exclude_id)
    if len(db) == (excluded is not None):  # no record, or only the excluded one
        raise EmptyDatabaseError("no records to query (database empty after exclusion)")
    if q._exact and db._counts is not None:
        return _exact_matches(db, q.values, k, excluded)
    rows = _candidates(db, q.values, k, excluded)
    dists = _distances(db.matrix[rows], q.values).tolist()
    rows = rows.tolist()
    # the rows ascend, so a stable sort by distance keeps ties in insertion order
    return [Match(db.ids[rows[j]], db.categories[rows[j]], dists[j])
            for j in sorted(range(len(rows)), key=dists.__getitem__)[:k]]


def _exact_matches(db: DescriptorDatabase, q: np.ndarray, k: int,
                   excluded: int | None) -> list[Match]:
    """query() in a count database for ``q``, whole counts over its denominator.

    With c a row's counts and q the query's, |c - q|^2 = |c|^2 - 2 c.q + |q|^2
    and every term is an exact integer (descriptor.EXACT_NORM), so ``gram``,
    |c|^2 - 2 c.q from one matrix-vector product, ranks the rows exactly.
    The rows at or below its k-th value, the excluded one set to inf, are
    taken in insertion order, so one stable sort ranks exact ties in that
    order too. Doubling is exact, so ``rint(q * -2 den)`` is -2 times the
    query's counts.
    """
    den = db._den
    q = q * (-2 * den)
    np.rint(q, out=q)
    counts = db._counts
    head = q[:counts.shape[1]]
    gram = counts[:, :head.size] @ head
    gram += db._count_norms
    if excluded is not None:
        gram[excluded] = np.inf
    at = min(k, gram.size - (excluded is not None)) - 1
    rows = (gram <= np.partition(gram, at)[at]).nonzero()[0]
    grams = gram[rows].tolist()
    rows = rows.tolist()
    q_norm = float(q @ q) / 4
    scale = den * den
    return [Match(db.ids[rows[j]], db.categories[rows[j]],
                  math.sqrt((grams[j] + q_norm) / scale))
            for j in sorted(range(len(rows)), key=grams.__getitem__)[:k]]


def _candidates(db: DescriptorDatabase, q: np.ndarray, k: int,
                excluded: int | None) -> np.ndarray:
    """The rows but ``excluded``, ascending, that can be among the k nearest to ``q``.

    Why no row of the exact top k is dropped: pad every row ``r`` and ``q``
    with zeros to W = max(width, len(q)), and let u = 2^-53, R the largest
    row norm and M = (R + |q|)^2, which bounds every |r - q|^2 and every
    term and partial sum below, whatever the row. The bound relies on every
    value lying in [0, 1]: then M <= 4 W, so nothing overflows or is NaN.

    - ``approx`` is the Gram form |r|^2 - 2 r.q, from the stored norms and
      one matrix-vector product with -2 q; it leaves out |q|^2, the same for
      every row. In any summation order, BLAS's included, it is within
      about (W + 2) u M of the exact |r - q|^2 - |q|^2.
    - _distances sums (r_i - q_i)^2 left to right, as ``cumsum`` adds, so
      its square is within (W + 2) u M of the exact one too.
    - Underflow adds at most about W + 2 smallest subnormals to either.

    So e = (W + 2) (u M + 2^-1074) bounds both errors for every row, and
    ``err`` is _SLACK = 16 times it. Let ``kth`` be the k-th smallest
    ``approx``, the excluded row aside: k rows have kernel squares at most
    kth + |q|^2 + 2e. A row kept out has ``approx`` above the computed
    kth + 2 err, which rounding puts at most e below the exact sum, so its
    kernel square is above kth + |q|^2 + 2 err - 3e. The gap is over 27 e:
    as W + 2 >= 2, over 50 u times the larger square (or 54 subnormals),
    and two squares 6 u apart already have distinct correctly rounded
    square roots. So a pruned row is strictly farther than k others, and no
    tie-break can bring it back. With k at or above the rows left, ``kth`` is
    the largest finite ``approx``, so every row but the excluded one is kept.
    """
    n, width = db.matrix.shape
    head = q[:width]
    approx = db.matrix[:, :head.size] @ (head * -2)
    approx += db._norms
    reach = db._radius + math.sqrt(q @ q)
    err = _SLACK * (max(width, q.size) + 2) * (reach * reach * _UNIT + _TINY)
    if excluded is not None:
        approx[excluded] = np.inf
    at = min(k, n - (excluded is not None)) - 1
    kth = float(np.partition(approx, at)[at])
    return (approx <= kth + 2 * err).nonzero()[0]


def _header_line(spec: RasterSpec, variant: str) -> str:
    return (f"{FORMAT_NAME} {FORMAT_VERSION} kind={spec.kind} variant={variant} "
            f"sep={spec.separation_px} samples={spec.samples_per_cycle}")


def save_database(db: DescriptorDatabase, path) -> None:
    """Write the database as RASTERDB v1 text, values at 6 decimals.

    An id or category holding a tab or a line break cannot be read back, and
    one holding a lone surrogate cannot be written as UTF-8, so either raises
    ValueError before anything is written. The text goes to a temporary file
    beside ``path``, which then replaces ``path`` in one step: a reader sees
    the old file or the new one, and a failed write leaves the old file as
    it was and no temporary file behind.
    """
    lines = [_header_line(db.spec, db.variant)]
    for row, (rec_id, category, length) in enumerate(
            zip(db.ids, db.categories, db.lengths.tolist())):
        for what, text in (("id", rec_id), ("category", category)):
            if _FIELD_BREAK.search(text):
                raise ValueError(f"record {rec_id!r}: {what} holds a tab or line break")
            if _SURROGATE.search(text):
                raise ValueError(f"record {rec_id!r}: {what} is not UTF-8 text")
        values = ",".join(f"{v:.6f}" for v in db.matrix[row, :length].tolist())
        lines.append(f"{rec_id}\t{category}\t{length}\t{values}")
    path = Path(path)
    # os.urandom, not the secrets module: importing that loads OpenSSL, ~4 MB of memory
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        temp.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def load_database(path) -> DescriptorDatabase:
    """Read a RASTERDB v1 file written by save_database().

    Lines are separated by line feeds alone, blank lines are skipped, the
    header and each length are spelled exactly as save_database writes
    them, and each value is fixed 6-decimal notation. After the header, one
    columnar pass, _columns, reads every record with no loop over the
    lines. Only a file it refuses is read again, line by line, by
    _first_fault, to name the fault: the first in file order, as when each
    line was parsed on its own; bad records and structural faults come
    before values out of range, and those before the size cap.
    """
    path = Path(path)
    try:
        text = _read_capped(path).decode("utf-8")
    except UnicodeDecodeError:
        raise DatabaseFormatError(f"{path.name}: not UTF-8 text") from None
    if not text:
        raise DatabaseFormatError(f"{path.name}: empty file")
    first = text.partition("\n")[0]
    head = first.split()
    if not head or head[0] != FORMAT_NAME:
        raise DatabaseFormatError(f"{path.name}: not a descriptor database: {first[:60]!r}")
    if len(head) < 2 or head[1] != FORMAT_VERSION:
        version = head[1] if len(head) > 1 else "(missing)"
        raise DatabaseFormatError(
            f"{path.name}: unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    cut = _line_break(text)
    if 0 <= cut < len(first):
        raise DatabaseFormatError(f"{path.name}:1: bad header: line break {text[cut]!r}")
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
    # only the header save_database writes: no other spacing, field order or
    # number notation (int() also takes "+8", "08" and other scripts' digits)
    header = _header_line(spec, variant)
    if first != header:
        raise DatabaseFormatError(f"{path.name}:1: bad header: expected {header!r}")
    refusal = None
    try:
        db = _columns(spec, variant, text) if cut < 0 else None
    except ValueError as exc:  # a duplicate id, a value out of range or the size cap
        db, refusal = None, exc
    if db is not None:
        return db
    fault = _first_fault(text)
    raise DatabaseFormatError(f"{path.name}:{fault}" if fault else f"{path.name}: {refusal}")


def _read_capped(path: Path) -> bytes:
    """The bytes of ``path``; DatabaseFormatError past MAX_DATABASE_BYTES,
    of which at most one more byte is read."""
    with open(path, "rb") as f:
        data = read_bounded(f, MAX_DATABASE_BYTES + 1)
    if len(data) > MAX_DATABASE_BYTES:
        raise DatabaseFormatError(f"{path.name}: longer than {MAX_DATABASE_BYTES} bytes, "
                                  f"the cap of a database file")
    return data


def _line_break(text: str) -> int:
    """Where ``text`` first holds a line boundary other than "\n", or -1.

    save_database writes no other one, and str.splitlines() would split there.
    """
    return min((at for at in map(text.find, _LINE_BREAKS) if at >= 0), default=-1)


def _columns(spec: RasterSpec, variant: str, text: str) -> DescriptorDatabase | None:
    """The database of ``text``, a file with a valid header and no line
    break but "\n"; None if a record is malformed.

    Tabs and line feeds are single bytes in UTF-8, so their positions in
    the UTF-8 bytes check the structure: after the header, every line that
    is not blank holds exactly three tabs, so its first tab comes after the
    line feed before it and its third before its own. A value and its
    separator are 9 bytes, so a line's value count is the bytes after its
    third tab, its line feed included, over 9. Each length field must spell
    its count as str() does: as many bytes as the count has digits, each
    the count's digit of its place. _micro_units then checks every value;
    ValueError from the constructor is a duplicate id, a value outside
    [0, 1] or the size cap.
    """
    if not text.endswith("\n"):  # the last line may end without one
        text += "\n"
    raw = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    starts, ends = ends[:-1] + 1, ends[1:]  # every line after the header
    blank = starts == ends
    if blank.any():
        starts, ends = starts[~blank], ends[~blank]
    tabs = np.flatnonzero(raw == ord("\t"))
    if tabs.size != 3 * ends.size:
        return None
    tabs = tabs.reshape(-1, 3)
    if (tabs[:, 0] < starts).any() or (tabs[:, 2] >= ends).any():
        return None
    found = (ends - tabs[:, 2]) // 9
    width = tabs[:, 2] - tabs[:, 1] - 1
    if (width != np.searchsorted(_TENS, found, side="right") + 1).any():
        return None
    for place in range(int(width.max(initial=0))):
        has = place < width
        if (raw[tabs[has, 2] - 1 - place] - ord("0") != found[has] // 10 ** place % 10).any():
            return None
    del raw  # each copy of the file goes once read, which keeps the load's peak low
    if blank.any():
        text = "\n".join(filter(None, text.split("\n"))) + "\n"
    # [header, id, category, length, values, id, ..., values]
    fields = text.replace("\n", "\t").split("\t")
    fields.pop()  # after the last line feed
    micro, bad = _micro_units(fields[4::4])
    if bad is not None:
        return None
    micro /= _MICRO
    return DescriptorDatabase(spec, variant, fields[1::4], fields[2::4], found, micro)


def _first_fault(text: str) -> str | None:
    """The first fault of a RASTERDB file with a valid header, as
    ``"<line>: <what>"``, or None if its records hold no fault but the size cap.

    It reads the records line by line and builds no database: the loader
    runs it only to name the fault of a file its columnar pass refused.
    """
    cut = _line_break(text)
    broken = text.count("\n", 0, cut) + 1 if cut >= 0 else 0
    first_line: dict[str, int] = {}  # record id -> its line, in file order
    lengths: list[int] = []
    texts: list[str] = []
    fault = None  # the first structural fault, returned after earlier values parse
    for lineno, line in enumerate(text.split("\n")[1:], start=2):
        if not line:
            continue
        if lineno == broken:
            fault = f"{lineno}: bad record: line break {text[cut]!r}"
            break
        parts = line.split("\t")
        if len(parts) != 4:
            fault = f"{lineno}: expected 4 fields, got {len(parts)}"
            break
        rec_id, _, length_text, values_text = parts
        if rec_id in first_line:
            fault = (f"{lineno}: duplicate record id {rec_id!r} "
                     f"(first on line {first_line[rec_id]})")
            break
        first_line[rec_id] = lineno
        found = values_text.count(",") + 1 if values_text else 0
        if length_text != str(found):
            try:
                length = int(length_text)
            except ValueError as exc:
                fault = f"{lineno}: bad record: {exc}"
                break
            fault = (f"{lineno}: declared {length} values, found {found}" if length != found
                     else f"{lineno}: bad record: length {length_text!r} is not canonical")
        # a length fault's line is read too: a bad value on it is reported first
        texts.append(values_text)
        lengths.append(found)
        if fault is not None:
            break

    def line_of(value: int) -> int:  # the line holding the file's value-th value, from 0
        row = int(np.searchsorted(np.cumsum(lengths), value, side="right"))
        return list(first_line.values())[row]

    micro, bad = _micro_units(texts)
    if bad is not None:
        return (f"{line_of(bad[0])}: bad record: "
                f"value {bad[1]!r} is not fixed 6-decimal notation")
    if fault is not None:
        return fault
    over = micro > _MICRO
    if over.any():  # the range fault: name the first bad value's line
        at = int(np.argmax(over))
        return f"{line_of(at)}: value {float(micro[at] / _MICRO)} outside [0, 1]"
    return None


def _micro_units(texts: list[str]) -> tuple[np.ndarray, tuple[int, str] | None]:
    """Every comma-separated value of ``texts`` in millionths, as exact floats.

    A value is a digit, a dot and six digits, so with its comma it is one
    row of 9 bytes, and the file's values are checked and read as one array
    of such rows. Its seven digit columns are read one at a time into one
    integer array, and each buffer is dropped once read, so no array is
    larger than the values. Each value is its integer count of millionths,
    so ``micro / 1e6`` is float(token) exactly: both are exact doubles and
    IEEE division rounds correctly. Else the second item is the index and
    text of the first token of any other form.
    """
    data = ",".join(filter(None, texts)).encode()
    if not data:
        return np.empty(0), None
    # the bytes less ord("0"), then a final comma and NUL padding to whole rows
    rows = np.empty(-(-(len(data) + 1) // 9) * 9, np.uint8)
    np.subtract(np.frombuffer(data, np.uint8), ord("0"), out=rows[:len(data)])
    rows[len(data)] = _COMMA
    rows[len(data) + 1:] = -ord("0") % 256
    rows = rows.reshape(-1, 9)
    del data
    bad = (rows[:, 1] != _DOT) | (rows[:, 8] != _COMMA)
    if bad.any() or rows[:, 0].max() > 9 or rows[:, 2:8].max() > 9:
        # the rows before the first bad one are canonical tokens, so it
        # starts the first bad token, 9 bytes per row into the joined text
        at = int(np.argmax(bad | (rows[:, 0] > 9) | (rows[:, 2:8] > 9).any(axis=1)))
        token = (rows.ravel()[9 * at:] + ord("0")).tobytes().split(b",", 1)[0]
        return np.empty(0), (at, token.decode())
    micro = rows[:, 0].astype(np.uint32)
    for col in range(2, 8):
        micro *= 10
        micro += rows[:, col]
    del rows
    return micro.astype(float), None
