import io
import re

import numpy as np
import pytest

from rastershape.descriptor import CIRC_RADIAL, SPIRAL_FIXED, SPIRAL_FULL, ShapeVector, extract
from rastershape.errors import DatasetError, IncompatibleVectorError
from rastershape.evaluation import (
    _extract_columns,
    MAX_CSV_LINE,
    MAX_CSV_LINES,
    OcclusionReport,
    SweepCell,
    SweepReport,
    extract_databases,
    occlusion_experiment,
    read_sweep_csv,
    retrieval_efficiency,
    select_occlusion_queries,
    sweep,
    timed_retrieval,
    write_occlusion_csv,
    write_sweep_csv,
)
from rastershape.matcher import DescriptorDatabase, DescriptorRecord, query
from rastershape.raster import RasterSpec, cycle_count
from rastershape.shape_io import BinaryShape, contains_points, max_radius

from conftest import EndlessStream, blob_shape, traced_peak

SPEC = RasterSpec("circular", 8, 24)


def vec(values):
    return ShapeVector(CIRC_RADIAL, SPEC, np.asarray(values, dtype=float))


def records_from(rows):
    return [DescriptorRecord(rid, cat, vec(values)) for rid, cat, values in rows]


def test_efficiency_twin_categories_is_100():
    # every category holds two bit-identical vectors
    rows = []
    rng = np.random.default_rng(4)
    for c in range(5):
        values = rng.random(6)
        rows.append((f"c{c}-1", f"c{c}", values))
        rows.append((f"c{c}-2", f"c{c}", values.copy()))
    recs = records_from(rows)
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(recs))
    assert retrieval_efficiency(db, recs, k=3) == 100.0


def test_efficiency_singleton_categories_is_0():
    rng = np.random.default_rng(5)
    recs = records_from([(f"c{i}-1", f"c{i}", rng.random(6)) for i in range(8)])
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(recs))
    assert retrieval_efficiency(db, recs, k=3) == 0.0


def test_efficiency_validation():
    rng = np.random.default_rng(6)
    rows = []
    for c in range(4):
        base = rng.random(6)
        for i in range(5):
            rows.append((f"c{c}-{i}", f"c{c}", np.clip(base + rng.normal(0, 0.01, 6), 0, 1)))
    recs = records_from(rows)
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(recs))
    assert 0.0 <= retrieval_efficiency(db, recs, k=3) <= 100.0
    for score in (retrieval_efficiency, timed_retrieval):
        with pytest.raises(ValueError):
            score(db, [], k=3)
    shapes = [blob_shape(i, id=f"b-{i}") for i in range(3)]
    # an unknown variant is named before any shape is read, extracted or occluded
    never = (pytest.fail("dataset read") for _ in range(1))
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        sweep(shapes, "bogus")
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        sweep(never, "bogus", separations=(), samples=())
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        occlusion_experiment(shapes, [("bogus", 8, 4)])
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        occlusion_experiment(never, [(CIRC_RADIAL, 8, 4), ("bogus", 8, 4)])
    # extraction is serial: any other thread count is refused, also before reading
    with pytest.raises(ValueError, match="threads must be 1"):
        sweep(never, CIRC_RADIAL, threads=2)
    with pytest.raises(ValueError, match="threads must be 1"):
        occlusion_experiment(never, threads=2)
    other = DescriptorRecord("x-1", "x",
                             ShapeVector(CIRC_RADIAL, RasterSpec("circular", 16, 24),
                                         np.array([0.5])))
    with pytest.raises(IncompatibleVectorError):
        retrieval_efficiency(db, [other], k=3)


def test_timed_retrieval_accounting():
    rng = np.random.default_rng(7)
    rows = [(f"c{i % 3}-{i}", f"c{i % 3}", rng.random(5)) for i in range(12)]
    recs = records_from(rows)
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(recs))
    total, avg, eff = timed_retrieval(db, recs, k=3)
    assert avg == total / len(recs)
    assert total >= 0.0
    assert eff == retrieval_efficiency(db, recs, k=3)

    total1, avg1, _ = timed_retrieval(db, recs[:1], k=3)
    assert avg1 == total1


def test_timed_retrieval_warms_up_with_one_query(monkeypatch):
    # one untimed warm-up query, the first, then the timed pass; the
    # untimed efficiency runs no warm-up at all
    rng = np.random.default_rng(9)
    recs = records_from([(f"c{i % 3}-{i}", f"c{i % 3}", rng.random(5)) for i in range(12)])
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(recs))
    calls = []

    def counting(db, q, k, exclude_id=None):
        calls.append(exclude_id)
        return query(db, q, k, exclude_id=exclude_id)

    monkeypatch.setattr("rastershape.evaluation.query", counting)
    _, _, timed_eff = timed_retrieval(db, recs, k=3)
    assert calls == [recs[0].id] + [r.id for r in recs]
    calls.clear()
    assert retrieval_efficiency(db, recs, k=3) == timed_eff
    assert calls == [r.id for r in recs]
    calls.clear()
    # one query: its warm-up is that same query
    total, avg, eff = timed_retrieval(db, recs[-1:], k=3)
    assert calls == [recs[-1].id] * 2
    assert avg == total and eff == retrieval_efficiency(db, recs[-1:], k=3)


def test_efficiency_invariant_to_record_order():
    rng = np.random.default_rng(8)
    rows = []
    for c in range(4):
        base = rng.random(6)
        for i in range(4):
            rows.append((f"c{c}-{i}", f"c{c}", np.clip(base + rng.normal(0, 0.02, 6), 0, 1)))
    recs = records_from(rows)
    db = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(recs))
    base_eff = retrieval_efficiency(db, recs, k=3)
    order = rng.permutation(len(recs))
    shuffled = [recs[i] for i in order]
    db2 = DescriptorDatabase.from_records(SPEC, CIRC_RADIAL, tuple(shuffled))
    assert retrieval_efficiency(db2, shuffled, k=3) == base_eff


def test_sweep_grid_and_cells(toy_corpus):
    report = sweep(toy_corpus, CIRC_RADIAL, separations=(8, 16, 24, 32),
                   samples=(4, 6, 8, 12, 24), dataset_label="toy")
    assert len(report.cells) == 20
    assert report.variant == CIRC_RADIAL
    assert report.dataset == "toy"
    pairs = [(c.separation_px, c.samples_per_cycle) for c in report.cells]
    assert len(set(pairs)) == 20
    for cell in report.cells:
        assert 0.0 <= cell.efficiency_pct <= 100.0
        assert cell.avg_time_s == cell.total_time_s / len(toy_corpus)


def test_sweep_single_cell_and_duplicates(toy_corpus):
    report = sweep(toy_corpus, CIRC_RADIAL, separations=(8, 8), samples=(24,))
    assert len(report.cells) == 1
    # specs that normalize to the same integers run once
    report = sweep(toy_corpus, CIRC_RADIAL, separations=(8, 8.0, np.int64(8)), samples=(24,))
    assert [(c.separation_px, c.samples_per_cycle) for c in report.cells] == [(8, 24)]
    assert type(report.cells[0].separation_px) is int


def test_occlusion_repeated_configs_run_once(toy_corpus):
    configs = [(CIRC_RADIAL, 8, 4), (CIRC_RADIAL, 8, 4), (CIRC_RADIAL, 8.0, np.int64(4)),
               (SPIRAL_FULL, 8, 4), (CIRC_RADIAL, 8, 4)]
    report = occlusion_experiment(toy_corpus, configs, per_category=1)
    assert [(c.variant, c.separation_px, c.samples_per_cycle) for c in report.cells] == \
        [(CIRC_RADIAL, 8, 4), (SPIRAL_FULL, 8, 4)]
    assert type(report.cells[0].separation_px) is int
    assert report == occlusion_experiment(toy_corpus, configs[2:4], per_category=1)


def test_sweep_trend_on_toy_corpus(toy_corpus):
    report = sweep(toy_corpus, CIRC_RADIAL, separations=(8, 32), samples=(4, 24))
    grid = {(c.separation_px, c.samples_per_cycle): c.efficiency_pct
            for c in report.cells}
    assert grid[(8, 24)] >= grid[(32, 4)]


def test_sweep_rejects_empty_and_broken_datasets():
    with pytest.raises(DatasetError):
        sweep([], CIRC_RADIAL)
    with pytest.raises(DatasetError, match="^occlusion experiment needs a non-empty dataset$"):
        occlusion_experiment([])
    empty = BinaryShape(np.zeros((4, 4), dtype=bool), id="void-7")
    with pytest.raises(DatasetError, match="void-7"):
        sweep([blob_shape(1, id="b-1"), empty], CIRC_RADIAL,
              separations=(8,), samples=(4,))
    with pytest.raises(DatasetError, match="^extracting 'void-7': "):
        occlusion_experiment([blob_shape(1, id="b-1"), empty])


def test_sweep_deterministic_except_times(toy_corpus):
    a = sweep(toy_corpus, SPIRAL_FULL, separations=(8, 16), samples=(4, 8))
    b = sweep(toy_corpus, SPIRAL_FULL, separations=(8, 16), samples=(4, 8))
    for ca, cb in zip(a.cells, b.cells):
        assert (ca.separation_px, ca.samples_per_cycle) == (cb.separation_px, cb.samples_per_cycle)
        assert ca.efficiency_pct == cb.efficiency_pct


def test_sweep_csv_round_trip():
    report = SweepReport("circ_radial", "toy", (
        SweepCell(8, 4, 83.3333, 0.1234567, 0.0102881),
        SweepCell(8, 24, 100.0, 0.2, 0.0166666),
    ))
    buf = io.StringIO()
    write_sweep_csv(report, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == \
        "variant,dataset,separation,samples,efficiency_pct,total_time_s,avg_time_s"
    parsed = read_sweep_csv(io.StringIO(text))
    assert parsed.variant == "circ_radial" and parsed.dataset == "toy"
    assert parsed.cells[0] == SweepCell(8, 4, 83.3, 0.123, 0.010)
    buf2 = io.StringIO()
    write_sweep_csv(parsed, buf2)
    assert buf2.getvalue() == text.replace("83.3333", "83.3") \
        .replace("0.1234567", "0.123").replace("0.0102881", "0.010") \
        .replace("0.2,", "0.200,").replace("0.0166666", "0.017")


def test_read_sweep_csv_rejects_garbage():
    with pytest.raises(ValueError):
        read_sweep_csv(io.StringIO("nope\n"))
    with pytest.raises(ValueError):
        read_sweep_csv(io.StringIO(
            "variant,dataset,separation,samples,efficiency_pct,total_time_s,avg_time_s\n"))


def test_read_sweep_csv_rejects_non_finite_cells():
    header = "variant,dataset,separation,samples,efficiency_pct,total_time_s,avg_time_s\n"
    good = "circ_radial,toy,8,4,50.0,0.010,0.001\n"
    for row in ("circ_radial,toy,8,24,nan,inf,0.001\n",
                "circ_radial,toy,8,24,50.0,0.010,-inf\n",
                "circ_radial,toy,8,24,50.0,NaN,0.001\n"):
        with pytest.raises(ValueError, match="row 3: non-finite value"):
            read_sweep_csv(io.StringIO(header + good + row))
    # a repeated cell would hide the first one's row, and a percentage or
    # time out of range is no report write_sweep_csv writes
    for row, message in (("circ_radial,toy,8,4,60.0,0.010,0.001\n",
                          r"row 3: repeats separation 8, samples 4 \(first on row 2\)"),
                         ("circ_radial,toy,8,24,150.0,-1.0,0.001\n",
                          r"row 3: efficiency_pct outside \[0, 100\] or a negative time"),
                         ("circ_radial,toy,8,24,-0.1,0.010,0.001\n", "row 3: efficiency_pct"),
                         ("circ_radial,toy,8,24,50.0,0.010,-0.001\n", "row 3: efficiency_pct")):
        with pytest.raises(ValueError, match=message):
            read_sweep_csv(io.StringIO(header + good + row))
    edges = read_sweep_csv(io.StringIO(header + good + "circ_radial,toy,8,24,100.0,0.0,0.0\n"))
    assert edges.cells[1] == SweepCell(8, 24, 100.0, 0.0, 0.0)


HEADER = "variant,dataset,separation,samples,efficiency_pct,total_time_s,avg_time_s\n"


def test_read_sweep_csv_stops_at_its_line_caps(tmp_path):
    # a good header before 300 MB of zero bytes, which take no disk space:
    # the second line is refused once it passes MAX_CSV_LINE characters
    path = tmp_path / "sparse.csv"
    with open(path, "wb") as f:
        f.write(HEADER.encode())
        f.truncate(300 << 20)
    error, peak = traced_peak(read_sweep_csv, path)
    assert str(error) == \
        f"sparse.csv: sweep report CSV row 2: longer than {MAX_CSV_LINE} characters"
    assert peak < 1 << 20
    # one line of exactly MAX_CSV_LINE characters, its line feed included, is read
    row = "circ_radial,toy,8,4,50.0,0.010,0.001"
    row += "0" * (MAX_CSV_LINE - len(row) - 1) + "\n"
    assert read_sweep_csv(io.StringIO(HEADER + row)).cells[0].avg_time_s == 0.001


def test_read_sweep_csv_refuses_endless_streams():
    def read(head, body):
        return read_sweep_csv(io.TextIOWrapper(io.BufferedReader(EndlessStream(head, body)),
                                               encoding="utf-8", newline=""))

    error, peak = traced_peak(read, HEADER.encode(), b"x" * 4096)
    assert str(error) == f"sweep report CSV row 2: longer than {MAX_CSV_LINE} characters"
    assert peak < 1 << 20
    # rows with no end: refused after MAX_CSV_LINES lines, before any is parsed
    rows = b"circ_radial,toy,8,4,50.0,0.010,0.001\n" * 100
    error, peak = traced_peak(read, HEADER.encode(), rows)
    assert str(error) == f"sweep report CSV is longer than {MAX_CSV_LINES} lines"
    assert peak < 500 * MAX_CSV_LINES


def test_occlusion_query_selection(toy_corpus):
    queries = select_occlusion_queries(toy_corpus, 2, 0.2, 0)
    assert len(queries) == 6
    assert [q.id for q in queries] == [
        "bar-1-occ", "bar-2-occ", "disk-1-occ", "disk-2-occ", "ring-1-occ", "ring-2-occ",
    ]
    with pytest.raises(DatasetError, match="disk"):
        select_occlusion_queries([s for s in toy_corpus if s.category != "disk"]
                                 + [s for s in toy_corpus if s.id == "disk-1"], 2, 0.2, 0)


def test_occlusion_per_category_below_one_is_refused(toy_corpus, monkeypatch):
    # refused before any shape is occluded or extracted
    monkeypatch.setattr("rastershape.evaluation.occlude", lambda *a: pytest.fail("occluded"))
    monkeypatch.setattr("rastershape.evaluation._hits", lambda *a: pytest.fail("extracted"))
    for n in (-1, 0):
        with pytest.raises(ValueError, match=f"^per_category must be >= 1, got {n}$"):
            select_occlusion_queries(toy_corpus, n, 0.2, 0)
        with pytest.raises(ValueError, match=f"^per_category must be >= 1, got {n}$"):
            occlusion_experiment(toy_corpus, per_category=n)


def test_occlusion_negative_seed_is_refused(toy_corpus, monkeypatch):
    # refused by name before any shape is occluded or extracted
    monkeypatch.setattr("rastershape.evaluation.occlude", lambda *a: pytest.fail("occluded"))
    monkeypatch.setattr("rastershape.evaluation._hits", lambda *a: pytest.fail("extracted"))
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        select_occlusion_queries(toy_corpus, 2, 0.2, -1)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        occlusion_experiment(toy_corpus, seed=-1)


def test_occlusion_report_carries_its_queries(toy_corpus):
    report = occlusion_experiment(toy_corpus, [(CIRC_RADIAL, 8, 4)], fraction=0.3, seed=2)
    expected = select_occlusion_queries(toy_corpus, 2, 0.3, 2)
    assert [q.id for q in report.queries] == [q.id for q in expected]
    assert all(np.array_equal(a.mask, b.mask) for a, b in zip(report.queries, expected))
    # the shapes are no part of the report's value or its repr
    assert report == OcclusionReport(0.3, 2, 2, report.cells)
    assert "queries" not in repr(report)


def test_k_below_one_is_refused_before_extraction(toy_corpus, monkeypatch):
    calls = []
    monkeypatch.setattr("rastershape.evaluation._hits", lambda *a: calls.append(a))
    for k in (-1, 0):
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            sweep(toy_corpus, CIRC_RADIAL, k=k)
        with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
            occlusion_experiment(toy_corpus, k=k)
    assert calls == []


def test_integer_arguments_are_checked_before_the_first_shape_is_read(toy_corpus):
    # k, seed and per_category must be Python or numpy integers: anything
    # else is refused by name before the stream is read, where a float
    # used to fail only once every shape had been read, or at the first
    read = []

    def stream():
        for shape in toy_corpus:
            read.append(shape.id)
            yield shape

    for bad in (2.5, 3.0, None, "3"):
        got = re.escape(repr(bad))
        with pytest.raises(TypeError, match=f"^k must be an integer, got {got}$"):
            sweep(stream(), CIRC_RADIAL, k=bad)
        for name in ("k", "seed", "per_category"):
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got {got}$"):
                occlusion_experiment(stream(), **{name: bad})
        with pytest.raises(TypeError, match=f"^per_category must be an integer, got {got}$"):
            select_occlusion_queries(stream(), bad, 0.2, 0)
        with pytest.raises(TypeError, match=f"^seed must be an integer, got {got}$"):
            select_occlusion_queries(stream(), 2, 0.2, bad)
    assert read == []
    configs = [(CIRC_RADIAL, 8, 4)]
    assert occlusion_experiment(stream(), configs, per_category=np.int64(1), seed=np.uint8(2),
                                k=np.int32(1)) == \
        occlusion_experiment(toy_corpus, configs, per_category=1, seed=2, k=1)
    assert read == [shape.id for shape in toy_corpus]


def test_lattice_parameters_are_checked_before_extraction(toy_corpus, monkeypatch):
    calls = []
    monkeypatch.setattr("rastershape.evaluation._hits", lambda *a: calls.append(a))
    for seps, samples, bad in (((8, 8.5), (4,), "separation_px must be a positive integer, got 8.5"),
                               ((8,), (4.9,), "samples_per_cycle must be a positive integer, got 4.9"),
                               ((8,), (4, 0), "samples_per_cycle must be a positive integer, got 0")):
        with pytest.raises(ValueError, match=f"^{bad}$"):
            sweep(toy_corpus, CIRC_RADIAL, separations=seps, samples=samples)
        configs = [(CIRC_RADIAL, d, s) for d in seps for s in samples]
        with pytest.raises(ValueError, match=f"^{bad}$"):
            occlusion_experiment(toy_corpus, configs)
    assert calls == []


def test_extract_databases_reads_each_shape_once(toy_corpus):
    read = []

    def stream():
        for shape in toy_corpus:
            read.append(shape.id)
            yield shape

    configs = [(CIRC_RADIAL, SPEC), (SPIRAL_FULL, RasterSpec("spiral", 16, 8))]
    dbs = extract_databases(stream(), configs)
    assert read == [s.id for s in toy_corpus]
    for (variant, spec), db in zip(configs, dbs):
        assert (db.variant, db.spec) == (variant, spec)
        assert list(db.ids) == read
        assert all(np.array_equal(r.vector.values, extract(s, spec, variant).values)
                   for r, s in zip(db, toy_corpus))
    assert [len(db) for db in extract_databases(iter(()), configs)] == [0, 0]
    # a one-pass iterable of configs gives the same databases
    again = extract_databases(toy_corpus, (config for config in configs))
    assert [list(db.ids) for db in again] == [read, read]
    assert all(a.spec == b.spec and np.array_equal(a.lengths, b.lengths)
               and np.array_equal(a.matrix, b.matrix) for a, b in zip(again, dbs))


@pytest.mark.parametrize("block", (3, 1 << 16))
def test_fault_in_a_lookup_propagates_unwrapped(block, toy_corpus, monkeypatch):
    # only bad input becomes DatasetError: a fault in the third lookup,
    # after a flush or inside the first block, reaches the caller as it is
    monkeypatch.setattr("rastershape.evaluation._BLOCK_POINTS", block)
    calls = []

    def failing(shape, xs, ys):
        calls.append(shape.id)
        if len(calls) == 3:
            raise RuntimeError("bug")
        return contains_points(shape, xs, ys)

    monkeypatch.setattr("rastershape.descriptor.contains_points", failing)
    for run in (lambda: extract_databases(toy_corpus, [(CIRC_RADIAL, SPEC)]),
                lambda: sweep(toy_corpus, CIRC_RADIAL, separations=(8,), samples=(4,)),
                lambda: occlusion_experiment(toy_corpus, [(CIRC_RADIAL, 8, 4)])):
        calls.clear()
        with pytest.raises(RuntimeError, match="^bug$"):
            run()
        assert len(calls) == 3


def test_stream_stops_at_the_first_shape_past_the_database_cap(synthetic_corpus, monkeypatch):
    # with the cap lowered to 2^14 values, spiral_fixed 8/24 (vectors of up
    # to 504 counts) passes it a few dozen shapes into the 460: that shape
    # is named, no later one is read, and the stream held no more than a
    # bounded block of hits and the counts before it
    cap = 1 << 14
    monkeypatch.setattr("rastershape.matcher.MAX_DATABASE_VALUES", cap)
    spec = RasterSpec("spiral", 8, 24)
    widths = np.maximum.accumulate([24 * cycle_count(spec, max_radius(s)) for s in synthetic_corpus])
    past = int(np.argmax(widths * np.arange(1, widths.size + 1) > cap))
    assert 10 < past < 100
    read = []

    def stream():
        for shape in synthetic_corpus:
            read.append(shape.id)
            yield shape

    refused, peak = traced_peak(extract_databases, stream(), [(SPIRAL_FIXED, spec)])
    assert isinstance(refused, DatasetError)
    assert str(refused) == (
        f"holding {synthetic_corpus[past].id!r} under spiral_fixed sep=8 samples=24: "
        f"{past + 1} records x {widths[past]} values is above the cap of {cap} values")
    assert read == [s.id for s in synthetic_corpus[:past + 1]]
    assert peak < cap * 8  # the bytes of a float64 matrix at the cap
    # a sweep of that one cell refuses at the same shape, naming the cell
    read.clear()
    with pytest.raises(DatasetError, match=f"^holding {synthetic_corpus[past].id!r} under "
                                           "spiral_fixed sep=8 samples=24: "):
        sweep(stream(), SPIRAL_FIXED, separations=(8,), samples=(24,))
    assert len(read) == past + 1


def test_stream_stops_at_the_first_shape_past_the_cap_over_all_configs(synthetic_corpus,
                                                                       monkeypatch):
    # a run holds every config's columns at once, so the cap bounds their
    # sum too: with it lowered to 2^15, a four-cell spiral_fixed sweep stops
    # at the first shape whose rows times the sum of the cells' widest rows
    # pass it, while each cell alone is still within the cap, and names it;
    # no later shape is read, and what the run held stays below the cap
    cap = 1 << 15
    monkeypatch.setattr("rastershape.matcher.MAX_DATABASE_VALUES", cap)
    separations = (8, 16, 24, 32)
    widths = np.array([np.maximum.accumulate([24 * cycle_count(RasterSpec("spiral", d, 24),
                                                                max_radius(s))
                                              for s in synthetic_corpus])
                       for d in separations])
    rows = np.arange(1, len(synthetic_corpus) + 1)
    past = int(np.argmax(widths.sum(axis=0) * rows > cap))
    assert 10 < past < 100
    assert (widths[:, past] * (past + 1) <= cap).all()
    read = []

    def stream():
        for shape in synthetic_corpus:
            read.append(shape.id)
            yield shape

    refused, peak = traced_peak(sweep, stream(), SPIRAL_FIXED, separations, (24,))
    assert isinstance(refused, DatasetError)
    assert str(refused) == (
        f"holding {synthetic_corpus[past].id!r} under 4 configs together: "
        f"{past + 1} records x {widths[:, past].sum()} values is above the cap of {cap} values")
    assert read == [s.id for s in synthetic_corpus[:past + 1]]
    assert peak < cap * 8  # the bytes of float64 matrices at the cap in all
    # extract_databases holds its configs to the same sum
    read.clear()
    refused, _ = traced_peak(extract_databases, stream(),
                             [(SPIRAL_FIXED, RasterSpec("spiral", d, 24)) for d in separations])
    assert str(refused).startswith(f"holding {synthetic_corpus[past].id!r} under 4 configs")
    assert len(read) == past + 1


def test_count_database_from_its_columns_holds_one_matrix(synthetic_corpus):
    # the benchmark's widest cell, spiral_fixed 8/24: 460 vectors of up to
    # 504 counts. Built from its columns, the database holds its float32
    # count matrix and no other copy of the cell, float64 or float32, at no
    # point of the build
    spec = RasterSpec("spiral", 8, 24)
    columns = _extract_columns(synthetic_corpus, [(SPIRAL_FIXED, spec)])
    db, peak = traced_peak(columns.database, 0)
    assert db._counts is not None and db._values is None
    assert db._counts.nbytes == len(synthetic_corpus) * 504 * 4
    assert peak <= 1.5 * db._counts.nbytes


def test_experiments_stream_their_dataset(toy_corpus):
    # a one-pass iterator gives the same report as the list, times apart
    cells = dict(separations=(8, 32), samples=(4, 24))
    streamed = sweep(iter(toy_corpus), SPIRAL_FULL, **cells)
    listed = sweep(toy_corpus, SPIRAL_FULL, **cells)
    assert ([(c.separation_px, c.samples_per_cycle, c.efficiency_pct) for c in streamed.cells]
            == [(c.separation_px, c.samples_per_cycle, c.efficiency_pct) for c in listed.cells])
    expected = select_occlusion_queries(toy_corpus, 2, 0.3, 4)
    for order in (toy_corpus, toy_corpus[::-1]):
        report = occlusion_experiment(iter(order), fraction=0.3, seed=4)
        assert report == occlusion_experiment(toy_corpus, fraction=0.3, seed=4)
        assert all(np.array_equal(a.mask, b.mask) for a, b in zip(report.queries, expected))
        selected = select_occlusion_queries(iter(order), 2, 0.3, 4)
        assert [q.id for q in selected] == [q.id for q in expected]
        assert all(np.array_equal(a.mask, b.mask) for a, b in zip(selected, expected))


def test_checks_come_before_the_first_shape_is_read(toy_corpus):
    never = (pytest.fail("dataset read") for _ in range(1))
    for fraction in (1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match=r"^occlusion fraction must be in \[0, 1\)"):
            occlusion_experiment(never, fraction=fraction)
        with pytest.raises(ValueError, match=r"^occlusion fraction must be in \[0, 1\)"):
            select_occlusion_queries(never, 2, fraction, 0)
    with pytest.raises(ValueError, match="^per_category must be >= 1, got 0$"):
        select_occlusion_queries(never, 0, 0.2, 0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        select_occlusion_queries(never, 2, 0.2, -1)
    # an empty configuration list is refused as sweep refuses an empty grid
    with pytest.raises(ValueError, match="^occlusion experiment needs at least one configuration$"):
        occlusion_experiment(never, [])
    with pytest.raises(ValueError, match="^sweep needs at least one separation"):
        sweep(never, CIRC_RADIAL, separations=())
    # too few shapes in a category is found only once the stream has been read
    with pytest.raises(DatasetError, match="^category 'bar' has 4 shapes, need 5$"):
        occlusion_experiment(iter(toy_corpus), per_category=5)


def test_occlusion_fraction_zero_is_perfect(toy_corpus):
    report = occlusion_experiment(toy_corpus, fraction=0.0, seed=3)
    assert all(cell.efficiency_pct == 100.0 for cell in report.cells)


def test_occlusion_deterministic(toy_corpus):
    a = occlusion_experiment(toy_corpus, fraction=0.2, seed=11)
    b = occlusion_experiment(toy_corpus, fraction=0.2, seed=11)
    assert a == b


def test_occlusion_csv(tmp_path):
    report = OcclusionReport(0.2, 0, 2, (
        __import__("rastershape.evaluation", fromlist=["OcclusionCell"])
        .OcclusionCell("circ_radial", 24, 24, 86.9565),
    ))
    out = tmp_path / "occ.csv"
    write_occlusion_csv(report, out)
    assert out.read_text().splitlines() == [
        "variant,separation,samples,efficiency_pct",
        "circ_radial,24,24,87.0",
    ]


def test_monotone_inside_counts_for_divisor_sampling(toy_corpus):
    # s | s2 makes the sample set a superset: raw inside counts cannot drop
    pairs = [(4, 8), (4, 12), (4, 24), (6, 12), (6, 24), (8, 24), (12, 24)]
    for variant, kind in ((CIRC_RADIAL, "circular"), (SPIRAL_FULL, "spiral")):
        for shape in toy_corpus[:4]:
            for d in (8, 24):
                for s, s2 in pairs:
                    v1 = extract(shape, RasterSpec(kind, d, s), variant)
                    v2 = extract(shape, RasterSpec(kind, d, s2), variant)
                    count1 = round(s * float(v1.values.sum()))
                    count2 = round(s2 * float(v2.values.sum()))
                    assert count2 >= count1
