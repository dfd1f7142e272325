import contextlib
import math
import os
import re
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rastershape.descriptor import (
    CIRC_ANGULAR,
    CIRC_RADIAL,
    SPIRAL_FIXED,
    SPIRAL_FULL,
    ShapeVector,
    _layout,
    _vectors,
)
from rastershape.errors import (
    DatabaseFormatError,
    EmptyDatabaseError,
    IncompatibleVectorError,
)
from rastershape.matcher import (
    MAX_DATABASE_BYTES,
    MAX_DATABASE_VALUES,
    DescriptorDatabase,
    DescriptorRecord,
    Match,
    _distances,
    _exact_matches,
    _within_exact,
    distance,
    load_database,
    query,
    save_database,
)
from rastershape.evaluation import extract_databases
from rastershape.raster import MAX_LATTICE_POINTS, RasterSpec

from conftest import regimes, traced_peak
from oracles import ref_distance, ref_topk

SPEC = RasterSpec("circular", 8, 24)


def vec(values, variant=CIRC_RADIAL, spec=SPEC):
    return ShapeVector(variant, spec, np.asarray(values, dtype=float))


def random_db(rng, n_records=200, categories=8, max_len=12):
    records = []
    for i in range(n_records):
        length = int(rng.integers(3, max_len))
        records.append(DescriptorRecord(
            f"rec-{i}", f"cat{int(rng.integers(categories))}",
            vec(rng.random(length)),
        ))
    return DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(records))


# ----------------------------------------------------------------- distance

def test_distance_examples():
    assert distance(vec([0, 0]), vec([0.75, 1.0])) == 1.25
    assert distance(vec([0.25, 0.5]), vec([0.25, 0.5])) == 0.0
    assert distance(vec([1]), vec([1, 0, 0])) == 0.0


def test_distance_incompatible():
    with pytest.raises(IncompatibleVectorError):
        distance(vec([1]), vec([1], variant=SPIRAL_FULL, spec=RasterSpec("spiral", 8, 24)))
    with pytest.raises(IncompatibleVectorError):
        distance(vec([1]), vec([1], spec=RasterSpec("circular", 16, 24)))


def test_distance_zero_padding_consistency():
    rng = np.random.default_rng(91)
    for _ in range(200):
        v = rng.random(int(rng.integers(1, 10)))
        padded = np.concatenate([v, np.zeros(int(rng.integers(0, 6)))])
        assert distance(vec(v), vec(padded)) == 0.0


def test_distance_matches_reference():
    rng = np.random.default_rng(92)
    for _ in range(300):
        a = rng.random(int(rng.integers(1, 10)))
        b = rng.random(int(rng.integers(1, 10)))
        assert distance(vec(a), vec(b)) == pytest.approx(ref_distance(a, b), abs=1e-12)


# -------------------------------------------------------------------- query

def test_query_single_record():
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL,
                            (DescriptorRecord("a-1", "a", vec([0.5, 0.5])),))
    matches = query(db, vec([0.5, 0.5]), 3)
    assert matches == [Match("a-1", "a", 0.0)]
    with pytest.raises(EmptyDatabaseError):
        query(db, vec([0.5, 0.5]), 3, exclude_id="a-1")


def test_query_validation():
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL,
                            (DescriptorRecord("a-1", "a", vec([0.5])),))
    with pytest.raises(ValueError):
        query(db, vec([0.5]), 0)
    for k in (1.0, 2.5, None):
        with pytest.raises(TypeError, match=f"^k must be an integer, got {k!r}$"):
            query(db, vec([0.5]), k)
    assert query(db, vec([0.5]), np.int64(1)) == query(db, vec([0.5]), 1)
    with pytest.raises(IncompatibleVectorError):
        query(db, vec([0.5], spec=RasterSpec("circular", 16, 24)), 1)


def test_query_ties_keep_insertion_order():
    records = (
        DescriptorRecord("a-1", "a", vec([0.2, 0.2])),
        DescriptorRecord("b-1", "b", vec([0.2, 0.2])),
        DescriptorRecord("c-1", "c", vec([0.2, 0.2])),
        DescriptorRecord("d-1", "d", vec([0.9, 0.9])),
    )
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, records)
    got = [m.id for m in query(db, vec([0.2, 0.2]), 4)]
    assert got == ["a-1", "b-1", "c-1", "d-1"]
    got = [m.id for m in query(db, vec([0.2, 0.2]), 4, exclude_id="b-1")]
    assert got == ["a-1", "c-1", "d-1"]


def test_query_k_larger_than_database():
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL,
                            (DescriptorRecord("a-1", "a", vec([0.1])),
                             DescriptorRecord("b-1", "b", vec([0.4]))))
    assert len(query(db, vec([0.0]), 10)) == 2


def test_query_matches_full_sort_oracle():
    rng = np.random.default_rng(93)
    db = random_db(rng)
    for trial in range(50):
        q = rng.random(int(rng.integers(3, 12)))
        exclude = f"rec-{int(rng.integers(250))}" if trial % 3 else None
        got = query(db, vec(q), 3, exclude_id=exclude)
        expected = ref_topk(db.records, list(q), 3, exclude_id=exclude)
        assert [m.id for m in got] == [rec_id for rec_id, _ in expected]
        for m, (_, dist) in zip(got, expected):
            assert m.distance == pytest.approx(dist, abs=1e-12)


def test_query_result_distances_non_decreasing():
    rng = np.random.default_rng(94)
    db = random_db(rng, n_records=60)
    for _ in range(20):
        got = query(db, vec(rng.random(6)), 10)
        dists = [m.distance for m in got]
        assert dists == sorted(dists)


def db_of(*vectors):
    records = tuple(DescriptorRecord(f"r-{i}", f"c{i % 3}", vec(v)) for i, v in enumerate(vectors))
    return DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, records)


def assert_matches_oracle(db, q, k, exclude_id=None):
    """query() equals the full-sort oracle; each distance is distance() exactly."""
    got = query(db, vec(q), k, exclude_id=exclude_id)
    records = list(db.records)
    expected = ref_topk(records, list(q), k, exclude_id=exclude_id)
    assert [m.id for m in got] == [rec_id for rec_id, _ in expected]
    by_id = {rec.id: rec for rec in records}
    for m, (_, dist) in zip(got, expected):
        assert m.distance == pytest.approx(dist, abs=1e-12)
        assert m.distance == distance(vec(q), by_id[m.id].vector)
        assert m.category == by_id[m.id].category
    return got


def test_query_longer_than_every_record():
    db = db_of([0.1, 0.9], [0.5], [0.3, 0.3, 0.3, 0.3])
    q = [0.2, 0.4, 0.6, 0.8, 1.0, 0.7, 0.5, 0.3, 0.1, 0.9, 0.25, 0.75]
    assert_matches_oracle(db, q, 3)
    assert_matches_oracle(db, q, 2, exclude_id="r-1")


def test_query_mixed_lengths_with_empty_vectors():
    db = db_of([], [0.5, 0.5, 0.5], [0.2], [], [0.9, 0.1, 0.0, 0.6, 0.4], [0.5, 0.5])
    for q in ([], [0.5], [0.5, 0.5], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]):
        for k in (1, 2, 4, 6, 10):
            assert_matches_oracle(db, q, k)
            assert_matches_oracle(db, q, k, exclude_id="r-0")
    # the empty records tie exactly; insertion order decides
    assert [m.id for m in query(db, vec([]), 2)] == ["r-0", "r-3"]


def test_query_all_records_zero_length():
    db = db_of([], [], [])
    got = assert_matches_oracle(db, [0.6, 0.8], 3)
    assert [(m.id, m.distance) for m in got] == [("r-0", 1.0), ("r-1", 1.0), ("r-2", 1.0)]
    got = assert_matches_oracle(db, [], 2, exclude_id="r-0")
    assert [(m.id, m.distance) for m in got] == [("r-1", 0.0), ("r-2", 0.0)]


def test_query_empty_database():
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, ())
    assert ref_topk(db.records, [0.5], 3) == []
    with pytest.raises(EmptyDatabaseError):
        query(db, vec([0.5]), 3)
    with pytest.raises(EmptyDatabaseError):
        query(db, vec([]), 1, exclude_id="r-0")


def test_query_exclude_id_not_in_database():
    db = db_of([0.1], [0.2, 0.3], [0.4])
    got = assert_matches_oracle(db, [0.25], 3, exclude_id="missing")
    assert got == query(db, vec([0.25]), 3)
    assert len(got) == 3


def test_query_exclusion_leaves_fewer_than_k():
    db = db_of([0.1], [0.2, 0.3], [0.4])
    got = assert_matches_oracle(db, [0.25], 5, exclude_id="r-1")
    assert [m.id for m in got] == ["r-0", "r-2"]


def test_query_ties_straddling_kth_place():
    # r-1, r-2, r-4 and r-5 lie at one exact distance from the query; the
    # k-th place falls inside that group
    tie = [0.5, 0.25]
    db = db_of([0.9, 0.9], tie, tie, [0.0, 0.25], tie, tie, [1.0, 0.25])
    q = [0.5, 0.25]
    for k in (1, 2, 3, 4, 5):
        got = assert_matches_oracle(db, q, k)
        assert [m.id for m in got] == ["r-1", "r-2", "r-4", "r-5", "r-3"][:k]
    for exclude in ("r-1", "r-4", "r-3"):
        for k in (1, 2, 3, 4):
            got = assert_matches_oracle(db, q, k, exclude_id=exclude)
            assert exclude not in [m.id for m in got]
    got = query(db, vec(q), 3, exclude_id="r-2")
    assert [m.id for m in got] == ["r-1", "r-4", "r-5"]
    # r-3 and r-6 tie at 0.5 (exact in binary); with k = 5 the cut falls between them
    got = assert_matches_oracle(db, q, 5, exclude_id="r-1")
    assert [m.id for m in got] == ["r-2", "r-4", "r-5", "r-3", "r-6"]


def test_query_randomized_against_oracle():
    rng = np.random.default_rng(96)
    records = []
    for i in range(60):
        values = rng.random(int(rng.integers(0, 41)))
        if i % 7 == 0:
            values[rng.random(values.size) < 0.5] = 0.0
        records.append(DescriptorRecord(f"rec-{i}", f"cat{i % 5}", vec(values)))
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(records))
    for trial in range(1000):
        q = rng.random(int(rng.integers(0, 41)))
        exclude = f"rec-{int(rng.integers(70))}" if trial % 2 else None
        assert_matches_oracle(db, q, int(rng.integers(1, 6)), exclude_id=exclude)


def test_match_distance_equals_distance_exactly():
    rng = np.random.default_rng(97)
    db = random_db(rng, n_records=80, max_len=40)
    for _ in range(30):
        q = vec(rng.random(int(rng.integers(1, 50))))
        by_id = {rec.id: rec for rec in db.records}
        for m in query(db, q, len(db)):
            assert m.distance == distance(q, by_id[m.id].vector)
            assert m.distance == distance(by_id[m.id].vector, q)


def one_array_distances(rows, q):
    """The kernel before tail blocks: both sides padded to the longer width in one array."""
    n, width = rows.shape
    diff = np.zeros((max(n, 2), max(width, q.size)), order="F")
    diff[:n, :width] = rows
    diff[:n, :q.size] -= q
    diff *= diff
    return np.sqrt(diff.sum(axis=1)[:n])


def test_distances_bit_identical_to_one_array_kernel(monkeypatch):
    rng = np.random.default_rng(98)
    for block in (2, 3, 7, 64, 1 << 20):
        monkeypatch.setattr("rastershape.matcher._BLOCK_VALUES", block)
        for _ in range(150):
            rows = [rng.random(int(rng.integers(0, 12))) for _ in range(int(rng.integers(1, 9)))]
            for v in rows:
                v[rng.random(v.size) < 0.3] = 0.0
            db = db_of(*rows)
            q = rng.random(int(rng.integers(0, 40)))
            got = {m.id: m.distance for m in query(db, vec(q), len(db))}
            expected = one_array_distances(db.matrix, q)
            assert np.array([got[i] for i in db.ids]).tobytes() == expected.tobytes()


@st.composite
def kernel_cases(draw):
    """Rows and a query from one value regime: one row (as distance() passes),
    zero width, an empty query and queries longer than the rows all occur."""
    values = draw(regimes)
    n = draw(st.integers(1, 6))
    width = draw(st.integers(0, 16))
    rows = draw(arrays(float, (n, width), elements=values))
    q = draw(arrays(float, draw(st.integers(0, 30)), elements=values))
    return rows, q


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=kernel_cases(), block=st.sampled_from((2, 3, 7, 64, 1 << 20)),
       order=st.sampled_from("CF"))
@example(case=(np.zeros((1, 0)), np.empty(0)), block=2, order="C")
@example(case=(np.full((1, 3), 0.5), np.empty(0)), block=2, order="C")
@example(case=(np.zeros((3, 0)), np.full(9, 0.25)), block=3, order="F")
@example(case=(np.full((1, 2), 0.75), np.linspace(0, 1, 20)), block=2, order="C")
def test_distances_equal_the_one_array_kernel_bit_for_bit(case, block, order):
    rows, q = case
    expected = one_array_distances(rows, q)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rastershape.matcher._BLOCK_VALUES", block)
        got = _distances(rows.copy(order=order), q)
        if len(rows) == 1:
            assert np.float64(distance(vec(q), vec(rows[0]))).tobytes() == expected.tobytes()
    assert got.tobytes() == expected.tobytes()


def test_ties_at_the_kth_distance_keep_insertion_order():
    # five distinct vectors, each exactly 0.25 from the query; the ids'
    # text order (r-10 before r-2) is not their insertion order
    tied = ([0.5, 0.25], [0.0, 0.25], [0.25, 0.5], [0.25, 0.0], [0.25, 0.25, 0.25])
    db = db_of(*(tied[i % 5] for i in range(60)))
    q = vec([0.25, 0.25])
    for k in (3, len(db)):
        assert query(db, q, k) == [Match(f"r-{i}", f"c{i % 3}", 0.25) for i in range(k)]
    got = query(db, q, len(db), exclude_id="r-1")
    assert [m.id for m in got] == [f"r-{i}" for i in range(60) if i != 1]


def test_query_accepts_an_equal_spec_and_refuses_another():
    db = db_of([0.1, 0.2], [0.9], [0.3, 0.3, 0.3])
    equal = RasterSpec("circular", 8, 24)
    assert equal == db.spec and equal is not db.spec
    assert query(db, vec([0.3, 0.3], spec=equal), 2) == query(db, vec([0.3, 0.3]), 2)
    with pytest.raises(IncompatibleVectorError, match="query is circ_radial/"):
        query(db, vec([0.3, 0.3], spec=RasterSpec("circular", 8, 12)), 2)


def test_long_query_memory_bounded():
    # 1,000 one-value records and a 256,000-value query: a single padded
    # difference array would be 1,000 x 256,000 float64, 2 GB
    db = db_of(*([0.5] for _ in range(1000)))
    q = vec(np.full(256_000, 0.25))
    tracemalloc.start()
    try:
        got = query(db, q, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    # 256,000 squares of 0.25 sum exactly to 16,000
    assert got == [Match(f"r-{i}", f"c{i}", math.sqrt(16_000.0)) for i in range(3)]


def test_float_query_of_counts_holds_one_value_matrix():
    # counts over 10^6, as a loaded file's, and a query over 24 past the exact
    # bound: the values made from the counts are the kernel's own to overwrite,
    # so the scan holds them and nothing else of their size
    n, width = 64, 16_384
    counts = np.repeat(np.arange(1, n + 1) * 10_000.0, width)
    db = DescriptorDatabase(SPEC, CIRC_RADIAL, [f"r-{i}" for i in range(n)],
                            [f"c{i % 3}" for i in range(n)], [width] * n, counts, 10 ** 6)
    q = counts_vector([12] * width, CIRC_RADIAL, SPEC, 24)  # every value 0.5
    assert _exact_matches(db, q, 3, None) is None
    got, peak = traced_peak(query, db, q, 3)
    assert got[0] == Match("r-49", "c1", 0.0)
    assert peak < 1.25 * n * width * 8


# --------------------------------------------------------------- exact scan

def exact_topk(rows, dens, q, p, k, exclude=None):
    """The exact rational top k: ``rows`` are lists of counts, row i's over
    ``dens[i]``, and ``q`` counts over ``p``, zero-padded to one length.
    Rows rank by squared distance as a Fraction, then by insertion index;
    each distance is the correctly rounded root of the correctly rounded
    square. (row, distance) pairs."""
    def square(row, m):
        width = max(len(row), len(q))
        a, b = list(row) + [0] * (width - len(row)), list(q) + [0] * (width - len(q))
        return sum((Fraction(x, m) - Fraction(y, p)) ** 2 for x, y in zip(a, b))
    ranked = sorted((square(row, m), i) for i, (row, m) in enumerate(zip(rows, dens))
                    if i != exclude)
    return [(i, math.sqrt(float(sq))) for sq, i in ranked[:k]]


def counts_db(rows, variant, spec, dens):
    """The count database of ``rows``, lists of counts, row i's over dens[i]
    (or over ``dens`` for every row), built from its columns."""
    return DescriptorDatabase(
        spec, variant, [f"r-{i}" for i in range(len(rows))],
        [f"c{i % 3}" for i in range(len(rows))], [len(row) for row in rows],
        np.array([c for row in rows for c in row], dtype=float), dens)


def counts_vector(counts, variant, spec, den):
    """An extracted vector's form: its counts over ``den`` and their values."""
    return _vectors(variant, spec, np.array(counts, dtype=float), [len(counts)], [den])[0]


@contextlib.contextmanager
def float_kernel_forbidden():
    """Fail on any call of the float kernel, which the exact rule never makes."""
    def forbidden(rows, q):
        raise AssertionError("the float kernel ran")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rastershape.matcher._distances", forbidden)
        yield


ONE_DENOMINATOR = [
    (CIRC_RADIAL, RasterSpec("circular", 8, 3)), (CIRC_RADIAL, SPEC),
    (SPIRAL_FULL, RasterSpec("spiral", 8, 7)), (SPIRAL_FIXED, RasterSpec("spiral", 8, 24)),
    (CIRC_RADIAL, RasterSpec("circular", 8, 49)),  # (1 / 49) * 49 rounds below 1
    (CIRC_RADIAL, RasterSpec("circular", 8, (1 << 21) - 1))]


@st.composite
def count_cases(draw):
    """Counts over one denominator, counts over per-row denominators (as
    circ_angular's cycle counts), or rows over 10^6 (as a loaded file's)
    with a query over 24: few distinct counts, so exact ties are common;
    near 2^21 (the largest s), one count per vector."""
    kind = draw(st.sampled_from(("one", "rows", "loaded")))
    if kind == "one":
        variant, spec = draw(st.sampled_from(ONE_DENOMINATOR))
        _, p = _layout(variant, spec, 1)
        row_den = st.just(p)
    elif kind == "rows":
        variant, spec = CIRC_ANGULAR, RasterSpec("circular", 8, 4)
        row_den = st.sampled_from((1, 2, 3, 4, 6, 7, 12))
        p = draw(row_den)
    else:
        variant, spec, row_den, p = CIRC_RADIAL, SPEC, st.just(10 ** 6), 24

    def vector(den):
        counts = st.sampled_from(sorted({0, 1, den // 3, den // 2, den - 1, den}))
        return draw(st.lists(counts, max_size=1 if den > 1 << 20 else 6))

    dens = draw(st.lists(row_den, max_size=12))
    rows = [vector(m) for m in dens]
    q = vector(p)
    k = draw(st.integers(1, len(rows) + 2))
    exclude = draw(st.none() | st.integers(0, len(rows)))
    return variant, spec, rows, dens, q, p, k, exclude


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=count_cases())
@example(case=(CIRC_RADIAL, RasterSpec("circular", 8, 6), [[4, 4], [6, 4]], [6, 6], [5, 2], 6,
               1, None))
@example(case=(CIRC_RADIAL, RasterSpec("circular", 8, 49), [[0], [2]], [49, 49], [1], 49, 2,
               None))
@example(case=(CIRC_ANGULAR, RasterSpec("circular", 8, 4), [[1, 1], [2, 2], [0, 3]], [3, 6, 7],
               [1, 1], 3, 1, 0))
# keys -1 + 1/m^2 that round to one float: only the exact compare puts the
# second row, exactly nearer, first
@example(case=(CIRC_ANGULAR, RasterSpec("circular", 8, 4), [[999949], [999950]],
               [999950, 999951], [1], 1, 2, None))
def test_count_database_query_is_the_exact_rational_top_k(case):
    variant, spec, rows, dens, q, p, k, exclude = case
    db = counts_db(rows, variant, spec, dens)
    query_vector = counts_vector(q, variant, spec, p)
    exclude_id = None if exclude is None else f"r-{exclude}"
    expected = exact_topk(rows, dens, q, p, k, exclude)
    with float_kernel_forbidden():
        if not expected:
            with pytest.raises(EmptyDatabaseError):
                query(db, query_vector, k, exclude_id=exclude_id)
            return
        got = query(db, query_vector, k, exclude_id=exclude_id)
        assert [(m.id, m.distance) for m in got] == [(f"r-{i}", dist) for i, dist in expected]
        for m in got:
            assert m.distance == distance(query_vector, db[int(m.id[2:])].vector)


@st.composite
def float32_cases(draw):
    """Count databases at the edge of float32: L_max counts over at most
    den_max, with L_max den_max^2 just below 2^24 (held as float32) or at
    or just past it (float64), rows over den_max or a little less and
    counts up to den_max, so a dot product reaches the edge; queries over
    den_max (within the per-query bound |c|^2 |q|^2 < 2^48) or over 10^6
    (past it, on a float32 matrix too, so the product runs in float64)."""
    width = draw(st.integers(1, 6))
    edge = math.isqrt((2 ** 24 - 1) // width)  # the largest float32 den_max
    den_max = edge + draw(st.sampled_from((0, 0, 1, 2)))
    row_den = st.sampled_from((den_max, den_max - 1, den_max - 2))
    dens = [den_max] + draw(st.lists(row_den, max_size=7))

    def vector(den, size):
        counts = st.sampled_from(sorted({0, 1, den // 2, den - 1, den}))
        return draw(st.lists(counts, min_size=size, max_size=size))

    rows = [vector(m, draw(st.integers(0, width))) for m in dens]
    rows[0] = vector(den_max, width)  # the matrix is width wide
    p = draw(st.sampled_from((den_max, 10 ** 6)))
    q = vector(p, draw(st.integers(0, width + 2)))
    k = draw(st.integers(1, len(rows)))
    return rows, dens, q, p, k


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=float32_cases())
# one count each over 4095 and 4096: 4095^2 is the largest product below
# 2^24, and 4096 takes the matrix to float64
@example(case=([[4095], [4094], [0]], [4095, 4095, 4094], [4095], 4095, 3))
@example(case=([[4096], [4095], [1]], [4096, 4096, 4095], [4096], 4096, 3))
# a query of 10^6 over 10^6 against a float32 matrix: past the per-query bound
@example(case=([[4095, 0], [4094, 4095]], [4095, 4095], [10 ** 6, 10 ** 6], 10 ** 6, 2))
# P = 10^6 over rows' 2047: P times twice the key numerator passes 2^53
@example(case=([[0, 0, 0, 0], [1023], []], [2047] * 3, [999999], 10 ** 6, 1))
def test_float32_counts_rank_as_the_exact_rational_top_k(case):
    rows, dens, q, p, k = case
    spec = RasterSpec("circular", 8, 4)
    db = counts_db(rows, CIRC_ANGULAR, spec, dens)
    width, den_max = db._counts.shape[1], max(dens)
    assert db._counts.dtype == (np.float32 if width * den_max ** 2 < 2 ** 24 else np.float64)
    query_vector = counts_vector(q, CIRC_ANGULAR, spec, p)
    expected = exact_topk(rows, dens, q, p, k)
    with float_kernel_forbidden():
        got = query(db, query_vector, k)
    assert [(m.id, np.float64(m.distance).tobytes()) for m in got] == \
        [(f"r-{i}", np.float64(dist).tobytes()) for i, dist in expected]


def test_exact_ties_keep_insertion_order_where_rounding_does_not():
    # both rows are sqrt(5)/6 from the query in exact arithmetic, yet the
    # float kernel puts the first a rounding above the second
    spec = RasterSpec("circular", 8, 6)
    db = counts_db([[4, 4], [6, 4]], CIRC_RADIAL, spec, 6)
    q = counts_vector([5, 2], CIRC_RADIAL, spec, 6)
    floats = _distances(db.matrix.copy(), q.values)
    assert floats[0] > floats[1]
    tie = math.sqrt(5 / 36)
    with float_kernel_forbidden():
        assert query(db, q, 2) == [Match("r-0", "c0", tie), Match("r-1", "c1", tie)]
        assert query(db, q, 1) == [Match("r-0", "c0", tie)]


def test_count_norms_stay_within_the_exact_bound_at_the_lattice_cap():
    # An extract has n cycles x s samples <= MAX_LATTICE_POINTS, so its
    # squared count norm n s^2 is largest at n = 1 and s = MAX_LATTICE_POINTS:
    # each cell below holds vectors of n counts s, that largest norm for its
    # s, and a query over the same s (P = M = 1) is ranked exactly
    for s in (3, 24, 1 << 10, (1 << 21) - 1, 1 << 21):
        spec = RasterSpec("circular", 8, s)
        n = MAX_LATTICE_POINTS // s
        db = counts_db([[s] * n, [s // 3] * n, []], CIRC_RADIAL, spec, s)
        assert db._norm_max == n * s * s <= 2 ** 21 * s <= 2 ** 42
        assert _within_exact(1, 1, n * s * s, n * s * s)
        q = counts_vector([s // 3] * n, CIRC_RADIAL, spec, s)
        with float_kernel_forbidden():
            assert [(m.id, m.distance) for m in query(db, q, 3)] == [
                ("r-1", 0.0), ("r-2", math.sqrt(n * (s // 3) ** 2 / s ** 2)),
                ("r-0", math.sqrt(n * (s - s // 3) ** 2 / s ** 2))]
    # spiral_fixed: 2^21 counts of 1 over 1
    assert _within_exact(1, 1, MAX_LATTICE_POINTS, MAX_LATTICE_POINTS)


def test_count_database_beyond_the_exact_bound_takes_the_float_scan():
    # counts over 2^26: the first row's squared count norm is 2^53, past the bound
    den = 1 << 26
    db = counts_db([[den, den], [den], [den // 2, den // 2]], CIRC_RADIAL, SPEC, den)
    assert db._norm_max == 2 ** 53
    q = counts_vector([den], CIRC_RADIAL, SPEC, den)
    assert not _within_exact(1, 1, db._norm_max, den * den)
    assert scan_bits(db, q, 3) == full_scan_bits(db, q, 3)
    with float_kernel_forbidden(), pytest.raises(AssertionError, match="float kernel"):
        query(db, q, 3)


def test_distance_beyond_the_exact_bound_is_the_float_kernels():
    # counts over 2^26 whose squared norms pass 2^53: both orders take the
    # float kernel, as query() does past the bound, and return its bits
    den = 1 << 26
    rng = np.random.default_rng(35)
    for _ in range(50):
        a, b = (counts_vector([den, den, *rng.integers(0, den + 1, int(rng.integers(0, 6)))],
                              CIRC_RADIAL, SPEC, den) for _ in range(2))
        assert not _within_exact(1, 1, int(b._counts @ b._counts), int(a._counts @ a._counts))
        for x, y in ((a, b), (b, a)):
            expected = _distances(y.values[np.newaxis].copy(), x.values)[0]
            assert np.float64(distance(x, y)).tobytes() == expected.tobytes()
            with float_kernel_forbidden(), pytest.raises(AssertionError, match="float kernel"):
                distance(x, y)


def test_per_row_denominators_are_checked_in_no_more_memory_than_one():
    # circ_angular's form: 40,000 rows of 24 uint8 counts, row i over its
    # own cycle count; the check of each row against its own denominator
    # costs no array per value, so the build peaks as one denominator's does
    n, width = 40_000, 24
    rng = np.random.default_rng(36)
    dens = rng.integers(1, 201, n)
    counts = (rng.random((n, width)) * (dens[:, np.newaxis] + 1)).astype(np.uint8).ravel()
    ids, categories, lengths = [f"r-{i}" for i in range(n)], ["c"] * n, [width] * n
    spec = RasterSpec("circular", 16, width)

    def build(dens):
        return DescriptorDatabase(spec, CIRC_ANGULAR, ids, categories, lengths, counts, dens)

    build(dens), build(200)  # numpy's first calls of a loop cache what they look up
    per_row, per_row_peak = traced_peak(build, dens)
    one, one_peak = traced_peak(build, 200)
    assert per_row._dens.tolist() == dens.tolist() and one._den_max == 200
    # 64 KiB of slack: the two peaks can differ by a few hundred bytes of
    # allocator and interpreter noise, and an array per value costs megabytes
    assert per_row_peak <= one_peak + 64 * 1024
    # a count above its own row's denominator, but not above the largest one
    over = counts.copy()
    over[np.argmin(dens) * width] = dens.min() + 1
    with pytest.raises(ValueError, match=re.escape("lie in [0, 1]")):
        DescriptorDatabase(spec, CIRC_ANGULAR, ids, categories, lengths, over, dens)


def scan_bits(db, q, k, exclude_id=None):
    return [(m.id, m.category, np.float64(m.distance).tobytes())
            for m in query(db, q, k, exclude_id=exclude_id)]


def full_scan_bits(db, q, k, exclude_id=None):
    """The float kernel over every row, ranked by one stable sort."""
    dists = _distances(db.matrix.copy(), q.values)
    order = [i for i in np.argsort(dists, kind="stable").tolist() if db.ids[i] != exclude_id]
    return [(db.ids[i], db.categories[i], dists[i].tobytes()) for i in order[:k]]


def test_loaded_and_circ_angular_databases_rank_exactly(toy_corpus, tmp_path):
    # a loaded file holds counts over 10^6, and circ_angular each shape's
    # counts over its own cycle count: both rank an extracted query by the
    # exact rule, as the exact rational ranking of their counts does
    circular = RasterSpec("circular", 8, 24)
    radial, angular = extract_databases(toy_corpus, [(CIRC_RADIAL, circular),
                                                     (CIRC_ANGULAR, circular)])
    save_database(radial, tmp_path / "toy.rdb")
    loaded = load_database(tmp_path / "toy.rdb")
    assert loaded._dens.tolist() == [10 ** 6] * len(loaded)
    # counts over 10^6 are held as float64, an extracted database's as float32
    assert (loaded._counts.dtype, radial._counts.dtype) == (np.float64, np.float32)
    assert sorted(set(angular._dens.tolist())) != [angular._den_max]  # per-row denominators
    for db, recs in ((loaded, radial), (angular, angular)):
        rows = [db._counts[i, :n].astype(int).tolist() for i, n in enumerate(db.lengths)]
        for j, rec in enumerate(recs):
            q = rec.vector
            expected = exact_topk(rows, db._dens.astype(int).tolist(),
                                  q._counts.astype(int).tolist(), q._den, len(db), j)
            with float_kernel_forbidden():
                got = query(db, q, len(db), exclude_id=rec.id)
            assert [(m.id, m.distance) for m in got] == [(db.ids[i], d) for i, d in expected]


def test_float32_counts_are_read_as_float64_values(toy_corpus, tmp_path):
    # every reader makes float32 counts float64 before it divides: under
    # numpy 1.x's value-based casting, a float32 array over a float64 scalar
    # stays float32. So the values, the records and the saved text are
    # those of the exact counts, for all four variants
    circular, spiral = RasterSpec("circular", 8, 24), RasterSpec("spiral", 8, 24)
    configs = [(CIRC_RADIAL, circular), (CIRC_ANGULAR, circular), (SPIRAL_FULL, spiral),
               (SPIRAL_FIXED, spiral)]
    for db in extract_databases(toy_corpus, configs):
        assert db._counts.dtype == np.float32
        counts = [[int(c) for c in db._counts[i, :n]] for i, n in enumerate(db.lengths)]
        dens = [int(m) for m in db._dens]
        values = [[c / m for c in row] for row, m in zip(counts, dens)]
        width = db._counts.shape[1]
        assert db.matrix.dtype == np.float64
        assert db.matrix.tolist() == [row + [0.0] * (width - len(row)) for row in values]
        for i, rec in enumerate(db):
            assert db._row(i).dtype == rec.vector.values.dtype == rec.vector._counts.dtype \
                == np.float64
            assert db._row(i).tolist() == rec.vector.values.tolist() == values[i]
            assert rec.vector._counts.tolist() == counts[i]
        save_database(db, tmp_path / "db.rdb")
        lines = (tmp_path / "db.rdb").read_text(encoding="utf-8").split("\n")[1:-1]
        assert [line.split("\t")[3] for line in lines] == \
            [",".join(f"{c / m:.6f}" for c in row) for row, m in zip(counts, dens)]


# ----------------------------------------------------------------- database

def test_database_validation():
    rec = DescriptorRecord("a-1", "a", vec([0.5]))
    with pytest.raises(ValueError, match="duplicate"):
        DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, (rec, DescriptorRecord("a-1", "b", vec([0.2]))))
    other = DescriptorRecord("b-1", "b", vec([0.5], spec=RasterSpec("circular", 16, 24)))
    with pytest.raises(ValueError, match="different spec"):
        DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, (rec, other))


def test_database_columns():
    db = db_of([0.25, 0.5], [], [1.0, 0.0, 0.75])
    assert db.ids == ("r-0", "r-1", "r-2")
    assert db.categories == ("c0", "c1", "c2")
    assert db.lengths.tolist() == [2, 0, 3]
    assert db.matrix.tolist() == [[0.25, 0.5, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.75]]
    assert db.matrix.flags.f_contiguous
    for array in (db.matrix, db.lengths):
        assert not array.flags.writeable
    with pytest.raises(AttributeError):
        db.ids = ()
    assert len(db.records) == len(db) == 3
    last = db.records[-1]
    assert (last.id, last.category, last.vector.values.tolist()) == ("r-2", "c2", [1.0, 0.0, 0.75])
    assert db.records[1].vector.values.size == 0
    with pytest.raises(IndexError):
        db.records[3]
    assert [rec.id for rec in db.records] == list(db.ids)
    for part in (slice(1, 3), slice(None, None, -1), slice(5, 9)):
        assert [(r.id, r.category, r.vector.values.tolist()) for r in db.records[part]] == \
            [(r.id, r.category, r.vector.values.tolist()) for r in list(db.records)[part]]
    for dens in (None, 24):  # values, or counts over dens: the same checks
        with pytest.raises(ValueError, match="do not agree"):
            DescriptorDatabase(SPEC, CIRC_RADIAL, ["a-1"], ["a"], [2], [0.5], dens)
        with pytest.raises(ValueError, match="do not agree"):
            DescriptorDatabase(SPEC, CIRC_RADIAL, ["a-1", "b-1"], ["a"], [1, 1], [0, 0], dens)
        with pytest.raises(ValueError, match="duplicate record id 'a-1'"):
            DescriptorDatabase(SPEC, CIRC_RADIAL, ["a-1", "b-1", "a-1"], ["a"] * 3, [0, 0, 0],
                               [], dens)
        with pytest.raises(ValueError, match="needs a spiral raster"):
            DescriptorDatabase(SPEC, SPIRAL_FULL, [], [], [], [], dens)


def test_database_is_the_sequence_of_its_records():
    db = db_of([0.25, 0.5], [], [1.0, 0.0, 0.75], [0.125])
    assert isinstance(db, Sequence)
    assert db.records is db
    assert [(r.id, r.category, r.vector.values.tolist()) for r in db] == \
        [(r.id, r.category, r.vector.values.tolist()) for r in list(db.records)]
    assert (db[-1].id, db[-1].vector.values.tolist()) == ("r-3", [0.125])
    assert [r.id for r in db[1:3]] == ["r-1", "r-2"]
    assert [r.id for r in db[::-2]] == ["r-3", "r-1"]
    assert db[7:] == []
    for at in (4, -5):
        with pytest.raises(IndexError):
            db[at]
    rebuilt = DescriptorDatabase.from_records(db.spec, db.variant, db)
    assert rebuilt.ids == db.ids and rebuilt.categories == db.categories
    assert rebuilt.lengths.tolist() == db.lengths.tolist()
    assert rebuilt.matrix.tobytes(order="A") == db.matrix.tobytes(order="A")
    assert rebuilt.matrix.flags.f_contiguous


def test_values_outside_the_unit_interval_are_refused(tmp_path):
    refused = r"^descriptor values must lie in \[0, 1\]$"
    for bad in (np.nan, np.inf, -np.inf, -0.25, 1.000001, 12.0):
        with pytest.raises(ValueError, match=refused):
            vec([0.5, bad])
        with pytest.raises(ValueError, match=refused):
            DescriptorDatabase(SPEC, CIRC_RADIAL, ["a-1"], ["a"], [2], [0.5, bad])
    # the extremes are accepted, and every one saves as a value load reads
    edges = [0.0, 1.0, 6.9e-162, 0.9999996]
    assert vec(edges).values.tolist() == edges
    assert len(vec([])) == 0
    db = DescriptorDatabase(SPEC, CIRC_RADIAL, ["a-1", "b-1"], ["a", "b"], [3, 1], edges)
    path = tmp_path / "edges.rdb"
    save_database(db, path)
    assert path.read_text().splitlines()[1:] == ["a-1\ta\t3\t0.000000,1.000000,0.000000",
                                                 "b-1\tb\t1\t1.000000"]
    assert load_database(path).matrix.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]


def test_database_size_capped_before_allocation(tmp_path, monkeypatch):
    # 1,001 x 70,000 float64 would be a 560 MB matrix
    records = (DescriptorRecord("w-1", "w", vec(np.full(70_000, 0.5))),
               *(DescriptorRecord(f"n-{i}", "n", vec([0.5])) for i in range(1000)))
    assert len(records) * 70_000 > MAX_DATABASE_VALUES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1001 records x 70000 values is above the cap"):
            DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path = tmp_path / "wide.rdb"
    path.write_text("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
                    "w-1\tw\t70000\t" + ",".join(["0.500000"] * 70_000) + "\n"
                    + "".join(f"n-{i}\tn\t1\t0.500000\n" for i in range(1000)))
    with pytest.raises(DatabaseFormatError, match=r"wide\.rdb: 1001 records x 70000 values"):
        load_database(path)
    # the cap is inclusive
    monkeypatch.setattr("rastershape.matcher.MAX_DATABASE_VALUES", 6)
    pair = (DescriptorRecord("p-1", "p", vec([0.5, 0.5])),)
    assert len(DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, records[1:3] + pair)) == 3
    with pytest.raises(ValueError, match="4 records x 2 values is above the cap of 6"):
        DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, records[1:4] + pair)
    # a file both out of range and over the cap: the range fault names its line
    path.write_text("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
                    "a-1\ta\t4\t0.500000,0.500000,0.500000,0.500000\n"
                    "b-1\tb\t4\t0.500000,0.500000,2.500000,0.500000\n")
    with pytest.raises(DatabaseFormatError, match=r"wide\.rdb:3: value 2\.5 outside \[0, 1\]$"):
        load_database(path)


def test_database_file_capped_in_bytes(tmp_path, monkeypatch):
    # 9 bytes per value at the values cap, and one more for ids and the rest
    assert MAX_DATABASE_BYTES == 10 * MAX_DATABASE_VALUES == 671_088_640
    text = "RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\na-1\ta\t1\t0.500000\n"
    monkeypatch.setattr("rastershape.matcher.MAX_DATABASE_BYTES", len(text))
    refused = f": longer than {len(text)} bytes, the cap of a database file$"
    path = tmp_path / "cap.rdb"
    for extra, loads in (("", True), ("\n", False)):
        path.write_text(text + extra)
        # a regular file, and the same bytes through a pipe, which reports size 0
        read, write = os.pipe()
        os.write(write, (text + extra).encode())
        os.close(write)
        try:
            for source, name in ((path, "cap.rdb"), (f"/dev/fd/{read}", str(read))):
                if loads:
                    assert load_database(source).matrix.tolist() == [[0.5]]
                else:
                    with pytest.raises(DatabaseFormatError, match=f"^{name}{refused}"):
                        load_database(source)
        finally:
            os.close(read)
    # an input with no end is read only to the cap
    with pytest.raises(DatabaseFormatError, match=f"^zero{refused}"):
        load_database("/dev/zero")


def test_large_database_loads_in_memory_near_its_matrix(tmp_path):
    # 64 records of 2^14 values each: a 9 MiB file and an 8 MiB matrix
    n, width = 64, 1 << 14
    micro = np.random.default_rng(26).integers(0, 10**6 + 1, n * width)
    rows = np.full((micro.size, 9), ord(","), np.uint8)
    rows[:, 1] = ord(".")
    rows[:, [0, 2, 3, 4, 5, 6, 7]] = micro[:, np.newaxis] // 10 ** np.arange(6, -1, -1) % 10 + ord("0")
    values = rows.reshape(n, -1)
    path = tmp_path / "large.rdb"
    path.write_bytes(b"RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n" + b"".join(
        f"r-{i}\tr\t{width}\t".encode() + values[i, :-1].tobytes() + b"\n" for i in range(n)))
    del rows, values
    tracemalloc.start()
    try:
        db = load_database(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert db.matrix.tobytes() == (micro.reshape(n, width) / 1e6).tobytes()
    # one copy of the file at a time, the values as text, bytes, millionths
    # and the matrix: 4.5 times the matrix here, where a float array of
    # every byte of the values alone is 9 times it
    assert peak < 6 * db.matrix.nbytes


def _fail_half_way(self, data):
    """Stands in for Path.write_bytes: writes half of ``data``, then fails."""
    with open(self, "wb") as f:
        f.write(data[:len(data) // 2])
    raise OSError("No space left on device")


def test_save_failed_write_keeps_the_existing_database(tmp_path, monkeypatch):
    path = tmp_path / "t.rdb"
    save_database(DescriptorDatabase.from_records(
        SPEC, CIRC_RADIAL, (DescriptorRecord("a-1", "a", vec([0.5])),)), path)
    before = path.read_bytes()
    db = DescriptorDatabase.from_records(
        SPEC, CIRC_RADIAL, (DescriptorRecord("b-1", "b", vec([0.25, 0.75] * 50)),))
    monkeypatch.setattr(Path, "write_bytes", _fail_half_way)
    with pytest.raises(OSError, match="No space left on device"):
        save_database(db, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.rdb"]


def test_save_failed_write_leaves_no_file(tmp_path, monkeypatch):
    db = DescriptorDatabase.from_records(
        SPEC, CIRC_RADIAL, (DescriptorRecord("b-1", "b", vec([0.25, 0.75] * 50)),))
    monkeypatch.setattr(Path, "write_bytes", _fail_half_way)
    with pytest.raises(OSError, match="No space left on device"):
        save_database(db, tmp_path / "t.rdb")
    monkeypatch.undo()
    assert not any(tmp_path.iterdir())


def test_save_refuses_fields_that_would_split_a_line(tmp_path):
    path = tmp_path / "t.rdb"
    breaks = [chr(i) for i in range(0x3000) if len(f"a{chr(i)}b".splitlines()) > 1]
    assert len(breaks) == 10
    for ch in ["\t", *breaks]:
        for rec_id, category, what in ((f"odd{ch}name-1", "odd", "id"),
                                       ("odd-1", f"odd{ch}name", "category")):
            db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL,
                                    (DescriptorRecord(rec_id, category, vec([0.5])),))
            with pytest.raises(ValueError, match=f"record .*: {what} holds a tab or line break"):
                save_database(db, path)
            assert not any(tmp_path.iterdir())
    # a field that is not UTF-8 (a lone surrogate from an undecodable file name)
    for ch in ("\ud800", "\udcff", "\udfff"):
        for rec_id, category, what in ((f"odd{ch}-1", "a", "id"), ("odd-1", f"a{ch}", "category")):
            db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL,
                                                 (DescriptorRecord(rec_id, category, vec([0.5])),))
            with pytest.raises(ValueError, match=re.escape(f"record {rec_id!r}: {what} is not UTF-8 text")):
                save_database(db, path)
            assert not any(tmp_path.iterdir())
    # other control characters and spaces round-trip
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL,
                            (DescriptorRecord("odd \x1f\x7fname-1", "odd \x1f", vec([0.5])),))
    save_database(db, path)
    loaded = load_database(path).records[0]
    assert (loaded.id, loaded.category) == ("odd \x1f\x7fname-1", "odd \x1f")


def test_load_accepts_exactly_what_save_writes(tmp_path):
    path = tmp_path / "t.rdb"
    chars = [chr(i) for i in range(0x3000)]
    breaks = [ch for ch in chars if ch == "\t" or len(f"a{ch}b".splitlines()) > 1]
    # every other character round-trips in an id and in a category
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, (
        DescriptorRecord(f"c{ch}{i}-1", f"c{ch}", vec([0.5]))
        for i, ch in enumerate(chars) if ch not in breaks))
    save_database(db, path)
    loaded = load_database(path)
    assert (loaded.ids, loaded.categories) == (db.ids, db.categories)
    # a line holding a tab or a line break other than "\n" in its first
    # three fields is refused, by line number, and never loads
    header = "RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\na-1\ta\t1\t0.500000\n"
    for ch in breaks:
        if ch == "\n":
            continue
        match = (r"t\.rdb:3: expected 4 fields, got 5$" if ch == "\t" else
                 f"t\\.rdb:3: bad record: line break {re.escape(repr(ch))}$")
        for fields in (f"odd{ch}name-1\todd\t1", f"odd-1\todd{ch}\t1", f"odd-1\todd\t1{ch}"):
            path.write_bytes(f"{header}{fields}\t0.500000\n".encode())
            with pytest.raises(DatabaseFormatError, match=match):
                load_database(path)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(95)
    db = random_db(rng, n_records=100)
    path = tmp_path / "blobs.rdb"
    save_database(db, path)
    loaded = load_database(path)
    assert loaded.spec == db.spec
    assert loaded.variant == db.variant
    assert len(loaded.records) == 100
    for a, b in zip(db.records, loaded.records):
        assert (a.id, a.category) == (b.id, b.category)
        rounded = [float(f"{v:.6f}") for v in a.vector.values]
        assert b.vector.values.tolist() == rounded


def test_save_load_empty_database(tmp_path):
    db = DescriptorDatabase.from_records(RasterSpec("spiral", 16, 12), SPIRAL_FULL, ())
    path = tmp_path / "empty.rdb"
    save_database(db, path)
    assert path.read_text().splitlines() == [
        "RASTERDB v1 kind=spiral variant=spiral_full sep=16 samples=12"
    ]
    loaded = load_database(path)
    assert len(loaded) == len(loaded.records) == 0
    assert loaded.spec == db.spec


def test_load_rejects_other_versions(tmp_path):
    path = tmp_path / "v2.rdb"
    path.write_text("RASTERDB v2 kind=circular variant=circ_radial sep=8 samples=24\n")
    with pytest.raises(DatabaseFormatError, match="v2"):
        load_database(path)


def test_load_rejects_malformed(tmp_path):
    cases = [
        ("not a database\n", "not a descriptor database"),
        ("", "empty"),
        ("RASTERDB v1 kind=circular variant=spiral_full sep=8 samples=24\n", "variant"),
        ("RASTERDB v1 kind=spiral variant=circ_angular sep=8 samples=24\n",
         r"\.rdb:1: bad header: variant circ_angular needs a circular raster"),
        ("RASTERDB v1 kind=circular variant=bogus sep=8 samples=24\n",
         r"\.rdb:1: bad header: unknown variant 'bogus'"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8\n", "header"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t2\t0.100000\n", "declared 2"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\n", "4 fields"),
        # five fields, then three: eight fields in all, each in its place
        # were the line feed a tab
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t1\t0.500000\tc-1\nc\t0\t\n", r"\.rdb:2: expected 4 fields, got 5$"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t1\t0.500000\nb-1\tb\t2\t0.100000,x\n",
         r"\.rdb:3: bad record: value 'x' is not fixed 6-decimal notation$"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\tone\t0.5\n",
         r"\.rdb:2: bad record: invalid literal for int\(\) with base 10: 'one'"),
        # a file with several faults names the first in file order
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t1\tx\nb-1\tb\n", r"\.rdb:2: bad record: .* 'x'"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t2\tx\n", r"\.rdb:2: bad record: .* 'x'"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t1\t0.500000\nb-1\tb\t1\t7.000000\nc-1\tc\t2\t0.500000\n",
         r"\.rdb:4: declared 2"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24 bogus=1\n",
         r"\.rdb:1: bad header field 'bogus=1'"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24 sep=16\n",
         r"\.rdb:1: bad header field 'sep=16'"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t1\t0.500000\nb-1\tb\t1\t0.250000\na-1\tc\t1\t0.100000\n",
         r"\.rdb:4: duplicate record id 'a-1' \(first on line 2\)"),
        (b"RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         b"a-1\ta\t1\t0.5\xff\n", r"bad-\d+\.rdb: not UTF-8 text"),
        # lines end at "\n" alone
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\r\n",
         r"\.rdb:1: bad header: line break '\\r'$"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t1\t0.500000\r\nb-1\tb\n", r"\.rdb:2: bad record: line break '\\r'$"),
    ]
    # a value in fixed 6-decimal notation above 1 is out of range; any other
    # token is a bad record
    for value in ("nan", "inf", "-inf", "-5", "1.000001", "9.999999"):
        match = (f"value {re.escape(value)} outside \\[0, 1\\]$"
                 if re.fullmatch(r"[0-9]\.[0-9]{6}", value) else
                 f"bad record: value '{value}' is not fixed 6-decimal notation$")
        cases.append(("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
                      "a-1\ta\t2\t0.100000,0.200000\n\n"
                      f"b-1\tb\t3\t0.100000,{value},0.300000\n", r"\.rdb:4: " + match))
    # a bad value first on its line, after a zero-length record
    cases.append(("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
                  "a-1\ta\t1\t0.500000\nb-1\tb\t0\t\nc-1\tc\t2\t1.500000,0.500000\n",
                  r"\.rdb:4: value 1\.5 outside \[0, 1\]$"))
    for i, (text, match) in enumerate(cases):
        path = tmp_path / f"bad-{i}.rdb"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(DatabaseFormatError, match=match):
            load_database(path)


def test_load_refuses_non_canonical_header_and_lengths(tmp_path):
    header = "RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24"
    record = "a-1\ta\t1\t0.500000\n"
    expected = re.escape(f"h.rdb:1: bad header: expected {header!r}") + "$"
    for odd in ("RASTERDB\xa0v1 kind=circular variant=circ_radial sep=8 samples=24",
                "RASTERDB v1 kind=circular variant=circ_radial sep=+8 samples=24",
                "RASTERDB v1 kind=circular variant=circ_radial sep=8\u3000samples=\u0662\u0664",
                "RASTERDB v1 kind=circular variant=circ_radial sep=08 samples=24",
                "RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24 ",
                "RASTERDB  v1 kind=circular variant=circ_radial sep=8 samples=24",
                "RASTERDB v1 variant=circ_radial kind=circular sep=8 samples=24",
                "RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=2_4"):
        path = tmp_path / "h.rdb"
        path.write_text(f"{odd}\n{record}", encoding="utf-8")
        with pytest.raises(DatabaseFormatError, match=expected):
            load_database(path)
    for length in ("+1", " 1", "01", "1 ", "\u0661", "1_0"):
        path = tmp_path / "n.rdb"
        path.write_text(f"{header}\n{record}b-1\tb\t{length}\t0.250000\n", encoding="utf-8")
        message = (re.escape(f"n.rdb:3: bad record: length {length!r} is not canonical")
                   if int(length) == 1 else r"n\.rdb:3: declared 10 values, found 1")
        with pytest.raises(DatabaseFormatError, match=message + "$"):
            load_database(path)
    # the first fault in file order is still the one named
    path = tmp_path / "f.rdb"
    path.write_text(f"{header}\nb-1\tb\t01\t0.250000\na-1\ta\tone\t0.5\n", encoding="utf-8")
    with pytest.raises(DatabaseFormatError, match=r"f\.rdb:2: bad record: length '01'"):
        load_database(path)
    path.write_text(f"{header}\nb-1\tb\t01\tx\n", encoding="utf-8")
    with pytest.raises(DatabaseFormatError, match=r"f\.rdb:2: bad record: value 'x'"):
        load_database(path)
    path.write_text(f"{header}\n{record}", encoding="utf-8")
    assert load_database(path).ids == ("a-1",)


def test_header_format_exact(tmp_path):
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL,
                            (DescriptorRecord("a-1", "a", vec([0.123456789, 1.0])),))
    path = tmp_path / "one.rdb"
    save_database(db, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24"
    assert lines[1] == "a-1\ta\t2\t0.123457,1.000000"
