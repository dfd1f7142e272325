"""Descriptor databases and Euclidean top-k retrieval.

A database is stored by column: record ids, categories, vector lengths and
one read-only, zero-padded, column-major ``(N, L_max)`` float64 matrix.
Every database the program builds or loads is a count database: its
matrix holds whole counts, and each row has its own denominator, the
sample count for circ_radial and spiral_full, 1 for spiral_fixed, the
shape's cycle count for circ_angular, and 10^6 for a loaded file. A value
is made, ``count / den`` and so bit for bit the value it stands for, only
where one is read (``matrix``, a record or save_database's text). The
experiments and ``cli index`` extract straight into columns of integer
counts (see ``evaluation``), with no vector, record or float value per
row, and DescriptorDatabase._of_counts builds from them;
DescriptorDatabase.from_records builds one from records a library caller
holds; load_database reads a RASTERDB v1 file (UTF-8 text, one labeled
vector per line, lines separated by line feeds alone, at most
MAX_DATABASE_BYTES) straight into the columns, in one columnar pass with
no loop over the lines and no per-record objects. It reads values only in
the fixed 6-decimal notation save_database writes, a digit, a dot and six
digits: every value of the file is checked and read at once, as a whole
count of millionths, and any other token is a bad record. Only a file that
pass refuses is read line by line, to name its first fault. The public
constructor keeps the values a caller gives it. A database is the sequence
of its records, each built when it is read.

One exact rule ranks a query that carries its counts, as every extracted
vector does, in a count database. Take the query's counts q over p and a
row's counts c over m, and divide p and m by their gcd g, to P and M (g is
p's gcd with every row's denominator, so M is each row's own). Then the
row's key, (P |c|^2 - 2 M c.q) / M^2 = (p^2 d^2 - |q|^2) / P, is monotone
in the row's distance d. Its numerator is an exact integer in float64,
whatever the summation order, while P |c|^2 and 2 M |c| |q| are below
2^53: each query checks that from the largest squared count norm and the
largest row denominator, both kept at build. Under one denominator M is
one number, and the numerators themselves rank the rows; for the query's
own denominator P = M = 1, and the key is |c|^2 - 2 c.q. Under per-row
denominators the key is the numerator over M^2, correctly rounded, so no
two keys order rows against their exact distances: the rows at or below
the k-th key hold the exact top k, and only they are ranked again, by
exact integers. Either way, records at equal exact distance keep insertion
order. A match's distance is sqrt(N / (p M)^2) from the exact integer N =
|P c - M q|^2, P times the numerator plus M^2 |q|^2 in Python integers:
the correctly rounded root of the correctly rounded squared distance, and
bit for bit the float kernel's whenever that kernel's sum is exact.

A query past that bound or built from values, and any query in a database
built from values, takes the float kernel, _distances, over every row and
one stable sort: records at equal floating-point distance keep insertion
order. No workload of the program reaches it. Datasets here are a few
hundred to a few thousand records, and the benchmark harness times exactly
these scans.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .descriptor import ShapeVector, _counted, check_unit_range, variant_kind
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
# every integer below this is exact in float64
_EXACT = 1 << 53


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
    ``(N, L_max)`` array of values. The database is also the sequence of
    its records, in insertion order: indexing builds a DescriptorRecord
    when it is read, len() builds none, and ``records`` is the database
    itself.

    A count database (see the module docstring) holds one matrix,
    ``_counts``: whole counts as float64 in the same layout, row i over
    ``_dens[i]``, with half of each row's squared norm, the largest squared
    norm and the gcd and largest of the denominators. Its values are made, ``counts
    / den``, only where they are read: ``matrix`` and each record, whose
    vector carries its counts, make theirs at each read. A database built
    from values holds them, ``_values``, and None in the count fields.
    """

    spec: RasterSpec
    variant: str
    ids: tuple[str, ...]
    categories: tuple[str, ...]
    lengths: np.ndarray = field(repr=False)
    _rows: dict[str, int] = field(repr=False)
    _counts: np.ndarray | None = field(repr=False)  # a count database's counts
    _dens: np.ndarray | None = field(repr=False)  # each row of _counts' denominator, as float64
    _half_norms: np.ndarray | None = field(repr=False)  # each row of _counts' squared norm / 2
    _norm_max: int = field(repr=False)  # the largest squared norm of a row of _counts
    _den_gcd: int = field(repr=False)  # the gcd of _dens
    _den_max: int = field(repr=False)  # the largest of _dens
    _values: np.ndarray | None = field(repr=False)  # a database built from values

    def __init__(self, spec: RasterSpec, variant: str, ids: Sequence[str],
                 categories: Sequence[str], lengths: Sequence[int], values) -> None:
        """``values``: every record's values in record order, each in [0, 1]
        (else ValueError), kept as they are and ranked by the float kernel."""
        variant_kind(variant, spec)
        ids, categories = tuple(ids), tuple(categories)
        lengths = np.array(lengths, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if (len(categories) != len(ids) or lengths.shape != (len(ids),) or (lengths < 0).any()
                or lengths.sum() != values.size):
            raise ValueError("ids, categories, lengths and values do not agree")
        check_unit_range(values)
        self._fill(spec, variant, ids, categories, lengths, values)

    @classmethod
    def _of_counts(cls, spec: RasterSpec, variant: str, ids: Sequence[str],
                   categories: Sequence[str], lengths: Sequence[int], counts: np.ndarray,
                   dens) -> DescriptorDatabase:
        """The count database of ``counts``, every record's whole counts in
        record order and any real dtype, record i's over ``dens[i]`` (or
        over ``dens`` for every record), positive integers: the database of
        their values, built with no values. ValueError if a count lies
        outside [0, its denominator]. ``variant`` and ``spec`` are checked
        and ``lengths`` sum to the counts.
        """
        db = object.__new__(cls)
        ids = tuple(ids)
        db._fill(spec, variant, ids, tuple(categories), np.array(lengths, dtype=np.intp),
                 counts, np.broadcast_to(dens, len(ids)).astype(np.int64))
        return db

    def _fill(self, spec: RasterSpec, variant: str, ids: tuple[str, ...],
              categories: tuple[str, ...], lengths: np.ndarray, flat: np.ndarray,
              dens: np.ndarray | None = None) -> None:
        """Set every field from columns that agree: ``flat`` holds every
        record's values in [0, 1], or with ``dens`` their whole counts, row
        i's over ``dens[i]``. ValueError at a count outside [0, its
        denominator], past MAX_DATABASE_VALUES or at a repeated id, before
        the matrix is allocated."""
        if dens is not None:
            den_gcd, den_max = int(np.gcd.reduce(dens)), int(dens.max(initial=0))
            low, high = float(flat.min(initial=0)), float(flat.max(initial=0))
            if (dens.min(initial=1) < 1 or not (low >= 0 and high <= den_max)
                    or den_gcd != den_max and not (flat <= np.repeat(dens, lengths)).all()):
                raise ValueError("descriptor values must lie in [0, 1]")
        n, width = len(ids), int(lengths.max(initial=0))
        _check_size(n, width)
        rows = dict(zip(ids, range(n)))
        if len(rows) < n:
            seen: set[str] = set()
            for rec_id in ids:
                if rec_id in seen:
                    raise ValueError(f"duplicate record id {rec_id!r}")
                seen.add(rec_id)
        matrix = np.zeros((n, width), order="F")
        matrix[np.arange(width) < lengths[:, np.newaxis]] = flat
        counted = dict(_counts=None, _dens=None, _half_norms=None, _norm_max=0, _den_gcd=0,
                       _den_max=0, _values=matrix)
        if dens is not None:
            norms = np.einsum("ij,ij->i", matrix, matrix)
            counted = dict(_counts=matrix, _dens=dens.astype(float),
                           _norm_max=int(norms.max(initial=0)),
                           _half_norms=np.multiply(norms, 0.5, out=norms), _den_gcd=den_gcd,
                           _den_max=den_max, _values=None)
        for array in (lengths, matrix, counted["_dens"], counted["_half_norms"]):
            if array is not None:
                array.flags.writeable = False
        vars(self).update(spec=spec, variant=variant, ids=ids, categories=categories,
                          lengths=lengths, _rows=rows, **counted)

    @classmethod
    def from_records(cls, spec: RasterSpec, variant: str,
                     records: Iterable[DescriptorRecord]) -> DescriptorDatabase:
        """The database of ``records``, each extracted under ``spec`` and
        ``variant``: a count database if every vector carries its counts."""
        records = tuple(records)
        for rec in records:
            vector = rec.vector
            # an extracted vector holds the very spec object it was extracted under
            if vector.variant != variant or (vector.spec is not spec and vector.spec != spec):
                raise ValueError(
                    f"record {rec.id!r} was extracted under a different spec/variant"
                )
        vectors = [rec.vector for rec in records]
        columns = (spec, variant, [rec.id for rec in records],
                   [rec.category for rec in records], [v.values.size for v in vectors])
        if all(v._counts is not None for v in vectors):
            counts = np.concatenate([np.empty(0), *(v._counts for v in vectors)])
            return cls._of_counts(*columns, counts, [v._den for v in vectors])
        return cls(*columns, np.concatenate([np.empty(0), *(v.values for v in vectors)]))

    @property
    def matrix(self) -> np.ndarray:
        """The values, read-only, zero-padded and column-major; a count
        database makes them, ``counts / den``, at each read."""
        if self._counts is None:
            return self._values
        matrix = self._counts / self._dens[:, np.newaxis]
        matrix.flags.writeable = False
        return matrix

    @property
    def records(self) -> Sequence[DescriptorRecord]:
        return self

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int | slice) -> DescriptorRecord | list[DescriptorRecord]:
        i = range(len(self))[i]
        if isinstance(i, range):  # a slice
            return [self[j] for j in i]
        if self._counts is None:
            vector = ShapeVector(self.variant, self.spec, self._row(i))
        else:  # an extracted record's vector, with its counts
            vector = _counted(self.variant, self.spec, self._row(i),
                              self._counts[i, :self.lengths[i]], int(self._dens[i]))
        return DescriptorRecord(self.ids[i], self.categories[i], vector)

    def _row(self, i: int) -> np.ndarray:
        """Record i's values: a view of ``_values``, or made from its counts."""
        if self._counts is None:
            return self._values[i, :self.lengths[i]]
        return self._counts[i, :self.lengths[i]] / self._dens[i]


def _check_size(n: int, width: int) -> None:
    """ValueError if ``n`` records of at most ``width`` values pass MAX_DATABASE_VALUES."""
    if n * width > MAX_DATABASE_VALUES:
        raise ValueError(f"{n} records x {width} values is above "
                         f"the cap of {MAX_DATABASE_VALUES} values")


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

    Two vectors that both carry their counts are compared as query()
    compares them in a count database, from the exact integer squared
    distance, so a match there reports the very distance this returns; any
    other pair, or one past the exact bound, goes through the float kernel.
    """
    if a.variant != b.variant or a.spec != b.spec:
        raise IncompatibleVectorError(
            f"cannot compare {a.variant}/{a.spec} with {b.variant}/{b.spec}"
        )
    if a._counts is not None and b._counts is not None:
        # a as the query, over p, and b as the row, over m (module docstring)
        p, m = a._den, b._den
        g = math.gcd(p, m)
        big_p, big_m = p // g, m // g
        a_norm, b_norm = int(a._counts @ a._counts), int(b._counts @ b._counts)
        if _within_exact(big_p, big_m, b_norm, a_norm):
            width = min(a.values.size, b.values.size)
            dot = int(a._counts[:width] @ b._counts[:width])
            exact = big_p * (big_p * b_norm - 2 * big_m * dot) + big_m * big_m * a_norm
            return math.sqrt(exact / (p * big_m) ** 2)
    return float(_distances(b.values[np.newaxis].copy(), a.values)[0])


def _within_exact(big_p: int, big_m: int, c_norm: int, q_norm: int) -> bool:
    """Whether P |c|^2, 2 M |c| |q|, M^2 and |q|^2 are below 2^53, for
    squared count norms |c|^2 and |q|^2: then P |c|^2 - 2 M c.q, every term
    and partial sum of it in any order, M^2 and |q|^2 are exact integers in
    float64. The test is in integers, 2 M |c| |q| squared."""
    return (big_p * c_norm < _EXACT and q_norm < _EXACT and big_m * big_m < _EXACT
            and 4 * big_m * big_m * c_norm * q_norm < _EXACT * _EXACT)


def query(db: DescriptorDatabase, q: ShapeVector, k: int,
          exclude_id: str | None = None) -> list[Match]:
    """The k records nearest to ``q``, ascending by distance.

    Ties keep database insertion order: ties at equal exact distance for a
    query that carries its counts in a count database, ties at equal
    floating-point distance otherwise (see the module docstring).
    ``exclude_id`` drops one record (used for leave-self-out evaluation).
    Returns fewer than k matches only when the database, after exclusion,
    is smaller than k.
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
    if q._counts is not None and db._counts is not None:
        matches = _exact_matches(db, q, k, excluded)
        if matches is not None:
            return matches
    dists = _distances(db.matrix.copy(), q.values)
    # a stable sort keeps ties in insertion order
    rows = [i for i in np.argsort(dists, kind="stable").tolist() if i != excluded][:k]
    return [Match(db.ids[i], db.categories[i], float(dists[i])) for i in rows]


def _exact_matches(db: DescriptorDatabase, q: ShapeVector, k: int,
                   excluded: int | None) -> list[Match] | None:
    """query() by the exact rule of the module docstring, for ``q`` and
    ``db`` that both hold counts; None past its bound.

    ``num`` is half each row's key numerator, P |c|^2 / 2 - M c.q, from one
    matrix-vector product and one subtraction from the halved squared row
    norms: a multiple of 1/2 below 2^52, so exact too. The rows at or below
    the k-th key, the excluded one set to inf, are taken in insertion
    order, so one stable sort by an exact number ranks exact ties in that
    order too.
    """
    p, counts = q._den, db._counts
    g = math.gcd(p, db._den_gcd)
    big_p, big_m = p // g, db._den_max // g
    q_norm = int(q._counts @ q._counts)
    if not _within_exact(big_p, big_m, db._norm_max, q_norm):
        return None
    one = db._den_gcd == db._den_max  # every row's denominator is big_m
    head = q._counts[:counts.shape[1]]
    num = counts[:, :head.size] @ head
    if not one:
        m = db._dens if g == 1 else db._dens // g
        num *= m
    elif big_m != 1:
        num *= big_m
    np.subtract(db._half_norms if big_p == 1 else db._half_norms * big_p, num, out=num)
    key = num if one else num / (m * m)
    if excluded is not None:
        key[excluded] = np.inf
    at = min(k, key.size - (excluded is not None)) - 1
    rows = (key <= np.partition(key, at)[at]).nonzero()[0]
    nums, rows = num[rows].tolist(), rows.tolist()
    two_p = 2 * big_p  # N = 2 P num + M^2 |q|^2
    if one:  # the numerators rank exactly
        mq, scale = big_m * big_m * q_norm, (p * big_m) ** 2
        return [Match(db.ids[rows[j]], db.categories[rows[j]],
                      math.sqrt((int(two_p * nums[j]) + mq) / scale))
                for j in sorted(range(len(rows)), key=nums.__getitem__)[:k]]
    # over one common denominator, lcm(M)^2, the numerators rank exactly
    ms = [int(mj) for mj in m[rows].tolist()]
    common = math.lcm(*ms) ** 2
    exact = [int(2 * n) * (common // (mj * mj)) for n, mj in zip(nums, ms)]
    return [Match(db.ids[rows[j]], db.categories[rows[j]],
                  math.sqrt((int(two_p * nums[j]) + ms[j] * ms[j] * q_norm) / (p * ms[j]) ** 2))
            for j in sorted(range(len(rows)), key=exact.__getitem__)[:k]]


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
        values = ",".join(f"{v:.6f}" for v in db._row(row).tolist())
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
    the count's digit of its place. _micro_units then checks every value,
    and the database holds them as counts of millionths; ValueError from
    DescriptorDatabase._of_counts is a duplicate id, a value outside [0,
    1] or the size cap.
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
    return DescriptorDatabase._of_counts(spec, variant, fields[1::4], fields[2::4], found, micro,
                                         _MICRO)


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
