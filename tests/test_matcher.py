import numpy as np
import pytest

from rastershape.descriptor import CIRC_RADIAL, SPIRAL_FULL, ShapeVector
from rastershape.errors import (
    DatabaseFormatError,
    EmptyDatabaseError,
    IncompatibleVectorError,
)
from rastershape.matcher import (
    DescriptorDatabase,
    DescriptorRecord,
    Match,
    distance,
    load_database,
    query,
    save_database,
)
from rastershape.raster import RasterSpec

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
    return DescriptorDatabase(SPEC, CIRC_RADIAL, tuple(records))


# ----------------------------------------------------------------- distance

def test_distance_examples():
    assert distance(vec([0, 0]), vec([3, 4])) == 5.0
    assert distance(vec([0.25, 0.5]), vec([0.25, 0.5])) == 0.0
    assert distance(vec([1]), vec([1, 0, 0])) == 0.0


def test_distance_incompatible():
    with pytest.raises(IncompatibleVectorError):
        distance(vec([1]), vec([1], variant=SPIRAL_FULL, spec=RasterSpec("spiral", 8, 24)))
    with pytest.raises(IncompatibleVectorError):
        distance(vec([1]), vec([1], spec=RasterSpec("circular", 16, 24)))


def test_distance_metric_properties():
    rng = np.random.default_rng(90)
    for _ in range(10_000):
        la, lb, lc = rng.integers(1, 9, 3)
        a, b, c = vec(rng.random(la)), vec(rng.random(lb)), vec(rng.random(lc))
        dab = distance(a, b)
        assert dab == distance(b, a)
        assert distance(a, a) == 0.0
        assert dab <= distance(a, c) + distance(c, b) + 1e-9
        assert dab >= 0.0


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
    db = DescriptorDatabase(SPEC, CIRC_RADIAL,
                            (DescriptorRecord("a-1", "a", vec([0.5, 0.5])),))
    matches = query(db, vec([0.5, 0.5]), 3)
    assert matches == [Match("a-1", "a", 0.0)]
    with pytest.raises(EmptyDatabaseError):
        query(db, vec([0.5, 0.5]), 3, exclude_id="a-1")


def test_query_validation():
    db = DescriptorDatabase(SPEC, CIRC_RADIAL,
                            (DescriptorRecord("a-1", "a", vec([0.5])),))
    with pytest.raises(ValueError):
        query(db, vec([0.5]), 0)
    with pytest.raises(IncompatibleVectorError):
        query(db, vec([0.5], spec=RasterSpec("circular", 16, 24)), 1)


def test_query_ties_keep_insertion_order():
    records = (
        DescriptorRecord("a-1", "a", vec([0.2, 0.2])),
        DescriptorRecord("b-1", "b", vec([0.2, 0.2])),
        DescriptorRecord("c-1", "c", vec([0.2, 0.2])),
        DescriptorRecord("d-1", "d", vec([0.9, 0.9])),
    )
    db = DescriptorDatabase(SPEC, CIRC_RADIAL, records)
    got = [m.id for m in query(db, vec([0.2, 0.2]), 4)]
    assert got == ["a-1", "b-1", "c-1", "d-1"]
    got = [m.id for m in query(db, vec([0.2, 0.2]), 4, exclude_id="b-1")]
    assert got == ["a-1", "c-1", "d-1"]


def test_query_k_larger_than_database():
    db = DescriptorDatabase(SPEC, CIRC_RADIAL,
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
    return DescriptorDatabase(SPEC, CIRC_RADIAL, records)


def assert_matches_oracle(db, q, k, exclude_id=None):
    """query() equals the full-sort oracle; each distance is distance() exactly."""
    got = query(db, vec(q), k, exclude_id=exclude_id)
    expected = ref_topk(db.records, list(q), k, exclude_id=exclude_id)
    assert [m.id for m in got] == [rec_id for rec_id, _ in expected]
    by_id = {rec.id: rec for rec in db.records}
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
    db = DescriptorDatabase(SPEC, CIRC_RADIAL, ())
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
    db = DescriptorDatabase(SPEC, CIRC_RADIAL, tuple(records))
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


# ----------------------------------------------------------------- database

def test_database_validation():
    rec = DescriptorRecord("a-1", "a", vec([0.5]))
    with pytest.raises(ValueError, match="duplicate"):
        DescriptorDatabase(SPEC, CIRC_RADIAL, (rec, DescriptorRecord("a-1", "b", vec([0.2]))))
    other = DescriptorRecord("b-1", "b", vec([0.5], spec=RasterSpec("circular", 16, 24)))
    with pytest.raises(ValueError, match="different spec"):
        DescriptorDatabase(SPEC, CIRC_RADIAL, (rec, other))


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
    db = DescriptorDatabase(RasterSpec("spiral", 16, 12), SPIRAL_FULL, ())
    path = tmp_path / "empty.rdb"
    save_database(db, path)
    assert path.read_text().splitlines() == [
        "RASTERDB v1 kind=spiral variant=spiral_full sep=16 samples=12"
    ]
    loaded = load_database(path)
    assert loaded.records == ()
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
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24 bogus=1\n",
         r"\.rdb:1: bad header field 'bogus=1'"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24 sep=16\n",
         r"\.rdb:1: bad header field 'sep=16'"),
        ("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         "a-1\ta\t1\t0.500000\nb-1\tb\t1\t0.250000\na-1\tc\t1\t0.100000\n",
         r"\.rdb:4: duplicate record id 'a-1' \(first on line 2\)"),
        (b"RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
         b"a-1\ta\t1\t0.5\xff\n", r"bad-\d+\.rdb: not UTF-8 text"),
    ]
    for value in ("nan", "inf", "-inf", "-5", "1.000001"):
        cases.append(("RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24\n"
                      "a-1\ta\t2\t0.100000,0.200000\n\n"
                      f"b-1\tb\t3\t0.100000,{value},0.300000\n", r"\.rdb:4: value"))
    for i, (text, match) in enumerate(cases):
        path = tmp_path / f"bad-{i}.rdb"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(DatabaseFormatError, match=match):
            load_database(path)


def test_header_format_exact(tmp_path):
    db = DescriptorDatabase(SPEC, CIRC_RADIAL,
                            (DescriptorRecord("a-1", "a", vec([0.123456789, 1.0])),))
    path = tmp_path / "one.rdb"
    save_database(db, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24"
    assert lines[1] == "a-1\ta\t2\t0.123457,1.000000"
