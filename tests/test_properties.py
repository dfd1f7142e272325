"""Property tests (Hypothesis): geometry and extraction against the oracles,
RASTERDB loading and querying on damaged files, the value grammar against
float(), query against the full-sort oracle, and PNM decoding and the CLI
commands on damaged images and sweep CSVs.

Every test runs a fixed, derandomized set of examples with no example
database, so a run is reproducible and leaves no files behind.
"""

import contextlib
import io
import math
from fractions import Fraction
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rastershape import descriptor, evaluation
from rastershape.descriptor import VARIANT_KIND, VARIANTS, ShapeVector, extract, extract_all
from rastershape.cli import main
from rastershape.errors import DatabaseFormatError, EmptyDatabaseError, PnmFormatError
from rastershape.matcher import (
    DescriptorDatabase,
    DescriptorRecord,
    Match,
    _distances,
    _first_fault,
    _LINE_BREAKS,
    distance,
    load_database,
    query,
    save_database,
)
from rastershape.raster import (MAX_LATTICE_POINTS, RasterSpec, circular_grid, cycle_count,
                               spiral_grid)
from rastershape import shape_io
from rastershape.shape_io import (
    MAX_PIXELS,
    BinaryShape,
    centroid,
    contains_points,
    load_image,
    max_radius,
    occlude,
    save_image,
)

from conftest import dyadic, grid_points, regimes
from oracles import (ref_centroid, ref_count_vector, ref_extract, ref_max_radius,
                     ref_occlude, ref_topk)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# nonempty masks up to 24 x 24
masks = (st.tuples(st.integers(1, 24), st.integers(1, 24))
         .flatmap(lambda hw: arrays(bool, hw))
         .filter(lambda mask: mask.any()))
cells = st.tuples(st.sampled_from(VARIANTS), st.integers(1, 12), st.integers(1, 24))


def _ring(hw):
    mask = np.ones(hw, dtype=bool)
    mask[1:-1, 1:-1] = False
    return mask


def _framed(mask, pad):
    top, left, bottom, right = pad
    return np.pad(mask, ((top, bottom), (left, right)))


sizes = st.tuples(st.integers(1, 24), st.integers(1, 24))
lines = st.integers(1, 40)
# random masks, single rows and columns, full frames, one-pixel rings (holed
# once both sides reach 3), and any of these framed by empty margins
plain_masks = st.one_of(
    masks,
    lines.map(lambda w: np.ones((1, w), dtype=bool)),
    lines.map(lambda h: np.ones((h, 1), dtype=bool)),
    sizes.map(lambda hw: np.ones(hw, dtype=bool)),
    sizes.map(_ring),
)
geometry_masks = st.one_of(
    plain_masks,
    st.tuples(plain_masks, st.tuples(*[st.integers(0, 6)] * 4)).map(lambda mp: _framed(*mp)),
)


@FIXED
@given(mask=geometry_masks)
def test_geometry_equals_oracle(mask):
    shape = BinaryShape(mask, id="g-1")
    rows = mask.tolist()
    # r_max first: the one pass fills the centroid too
    r_max = max_radius(shape)
    own = centroid(shape)
    assert (own.cx, own.cy) == ref_centroid(rows)
    assert r_max == ref_max_radius(rows, own.cx, own.cy)
    # repeated calls, in either order, give the same values
    assert centroid(shape) == own and max_radius(shape) == r_max
    fresh = BinaryShape(mask, id="g-1")
    assert centroid(fresh) == own and max_radius(fresh) == r_max


# masks whose rows end inside a byte of the packed rows
odd_width_masks = (st.tuples(st.integers(1, 12), st.integers(1, 40).filter(lambda w: w % 8))
                   .flatmap(lambda hw: st.one_of(arrays(bool, hw), st.just(np.ones(hw, bool)))))


@FIXED
@given(mask=odd_width_masks)
def test_packed_rows_keep_every_pixel_and_no_padding(mask):
    shape = BinaryShape(mask, id="p-1")
    got = shape.mask
    assert got.dtype == bool and not got.flags.writeable and np.array_equal(got, mask)
    assert shape.mask is not got and (shape.width, shape.height) == mask.shape[::-1]
    rows = mask.tolist()
    if mask.any():
        c = centroid(shape)
        assert (c.cx, c.cy) == ref_centroid(rows)
        assert max_radius(shape) == ref_max_radius(rows, c.cx, c.cy)
    # the padding columns of the last byte, then columns and rows past the frame
    height, width = mask.shape
    past_x, every_y = np.meshgrid(np.arange(width, 8 * -(-width // 8) + 9), np.arange(height))
    xs = [*past_x.ravel(), -1, 0, width - 1, 0]
    ys = [*every_y.ravel(), 0, -1, height, height + 7]
    assert not contains_points(shape, xs, ys).any()


@FIXED
@given(mask=masks.filter(lambda m: m.sum() > 1), fraction=st.floats(0.0, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_occluded_shape_has_its_own_geometry(mask, fraction, seed):
    shape = BinaryShape(mask, id="g-1")
    parent = centroid(shape), max_radius(shape)
    cut = occlude(shape, fraction, seed)
    assert cut.mask.any()
    rows = cut.mask.tolist()
    c = centroid(cut)
    assert (c.cx, c.cy) == ref_centroid(rows)
    assert max_radius(cut) == ref_max_radius(rows, c.cx, c.cy)
    assert (centroid(shape), max_radius(shape)) == parent


# [0, 1), with both ends the experiments use
fractions = st.one_of(st.sampled_from((0.0, 0.99)), st.floats(0.0, 1.0, exclude_max=True))


def _direction(seed):
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
    return math.cos(angle), math.sin(angle)


@FIXED
@given(mask=geometry_masks, fraction=fractions, seed=st.integers(0, 2**32 - 1))
# the nearest clean cuts erase 2 of 2 and 3 of 3 pixels: a pixel is kept
@example(mask=np.ones((1, 2), dtype=bool), fraction=0.75, seed=0)
@example(mask=np.ones((3, 1), dtype=bool), fraction=0.9, seed=0)
def test_occlude_equals_full_sort_oracle(mask, fraction, seed):
    cut = occlude(BinaryShape(mask, id="o-1"), fraction, seed)
    assert cut.mask.tolist() == ref_occlude(mask.tolist(), fraction, *_direction(seed))


@FIXED
@given(mask=geometry_masks, fraction=fractions,
       direction=st.sampled_from(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                                  (math.sqrt(0.5), math.sqrt(0.5)))))
@example(mask=np.ones((1, 3), dtype=bool), fraction=0.9, direction=(0.0, 1.0))
def test_occlude_with_tied_projections_equals_full_sort_oracle(mask, fraction, direction):
    # a seeded angle almost never makes two projections equal; an axis or a
    # diagonal makes whole rows, columns or anti-diagonals tie
    cos, sin = direction
    axis = SimpleNamespace(**{**vars(math), "cos": lambda angle: cos, "sin": lambda angle: sin})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shape_io, "math", axis)
        cut = occlude(BinaryShape(mask, id="o-1"), fraction, 0)
    assert cut.mask.tolist() == ref_occlude(mask.tolist(), fraction, cos, sin)


def grid_for(shape, spec):
    c = centroid(shape)
    build = circular_grid if spec.kind == "circular" else spiral_grid
    return build(c, spec, cycle_count(spec, max_radius(shape)))


def on_half_pixel(grid) -> bool:
    """Whether a sample sits on a pixel-rounding boundary (x.5) to within 1e-9."""
    frac = np.abs(np.concatenate([grid.xs, grid.ys])) % 1.0
    return bool(np.any(np.abs(frac - 0.5) < 1e-9))


@FIXED
@given(mask=masks, cell=cells)
def test_vector_on_grid_equals_count_oracle(mask, cell):
    # membership and grouping over the points of the grid extract builds, ties included
    variant, d, s = cell
    shape = BinaryShape(mask, id="h-1")
    grid = grid_for(shape, RasterSpec(VARIANT_KIND[variant], d, s))
    expected = ref_count_vector(mask.tolist(), shape.width, shape.height, variant, s,
                                grid.n_cycles, grid_points(grid))
    assert extract(shape, grid.spec, variant).values.tolist() == expected


@FIXED
@given(mask=masks, cell=cells)
def test_extract_equals_straight_line_oracle(mask, cell):
    # The oracle computes its own points with plain math.cos/sin, which can
    # differ from the library's quarter-turn-folded values by an ulp. A
    # sample that falls exactly on a half pixel then rounds to different
    # pixels in the two (mask [[1, 1]], d=1, s=12 is one such case), so the
    # comparison is made away from such ties; the test above covers them.
    variant, d, s = cell
    shape = BinaryShape(mask, id="h-1")
    spec = RasterSpec(VARIANT_KIND[variant], d, s)
    assume(not on_half_pixel(grid_for(shape, spec)))
    expected = ref_extract(mask.tolist(), shape.width, shape.height, variant, d, s)
    assert extract(shape, spec, variant).values.tolist() == expected


@FIXED
@given(mask=masks, cell_list=st.lists(cells, min_size=1, max_size=6),
       repeat=st.integers(0, 5), cap=st.sampled_from((MAX_LATTICE_POINTS, 64, 1)))
@example(mask=np.ones((5, 3), dtype=bool), cell_list=[(v, 2, 4) for v in VARIANTS],
         repeat=1, cap=64)
def test_extract_all_equals_lone_extracts(mask, cell_list, repeat, cap):
    # every variant, circular and spiral specs mixed, one config repeated
    # with its own spec object and the first spelled again as an equal spec;
    # a small cap splits the lookups over several contains_points calls
    shape = BinaryShape(mask, id="h-1")
    configs = [(v, RasterSpec(VARIANT_KIND[v], d, s)) for v, d, s in cell_list]
    configs.append(configs[repeat % len(configs)])
    variant, spec = configs[0]
    configs.append((variant, RasterSpec(spec.kind, spec.separation_px, spec.samples_per_cycle)))
    expected = [extract(shape, spec, variant) for variant, spec in configs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(descriptor, "MAX_LATTICE_POINTS", cap)
        got = extract_all(shape, configs)
    assert [(g.variant, id(g.spec)) for g in got] == [(v, id(spec)) for v, spec in configs]
    assert [g.values.tobytes() for g in got] == [e.values.tobytes() for e in expected]


@FIXED
@given(mask_list=st.lists(geometry_masks, min_size=1, max_size=6),
       cell_list=st.lists(cells, min_size=1, max_size=4),
       block=st.sampled_from((2, 3, 40, 1 << 16)), cap=st.sampled_from((MAX_LATTICE_POINTS, 64)))
@example(mask_list=[np.ones((5, 3), dtype=bool), np.ones((1, 9), dtype=bool),
                    _framed(_ring((4, 11)), (2, 0, 1, 5))],
         cell_list=[(v, 2, 4) for v in VARIANTS], block=3, cap=64)
def test_column_stream_equals_lone_extract_alls(mask_list, cell_list, block, cap):
    # shapes of mixed frame sizes (widths not a multiple of 8 among them)
    # and extents, every variant, lookups split under a small cap, and
    # blocks from a few hits (each shape grouped on its own) to the default
    # (the whole stream grouped at once): every record is bit for bit the
    # shape's lone extract_all, in stream order
    shapes = [BinaryShape(m, id=f"s{i}-1", category=f"c{i % 3}") for i, m in enumerate(mask_list)]
    configs = [(v, RasterSpec(VARIANT_KIND[v], d, s)) for v, d, s in cell_list]
    expected = [extract_all(shape, configs) for shape in shapes]
    columns = evaluation._Columns(configs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_BLOCK_POINTS", block)
        patch.setattr(descriptor, "MAX_LATTICE_POINTS", cap)
        streamed = list(evaluation._extracted(iter(shapes), columns))
    assert [id(s) for s in streamed] == [id(s) for s in shapes]
    assert columns.ids == [s.id for s in shapes]
    assert columns.categories == [s.category for s in shapes]
    for i, (variant, spec) in enumerate(configs):
        want = [vectors[i] for vectors in expected]
        records = columns.records(i)
        db = columns.database(i)
        assert [r.id for r in records] == list(db.ids) == columns.ids
        assert [r.category for r in records] == list(db.categories) == columns.categories
        assert db.lengths.tolist() == [len(w) for w in want]
        assert [r.vector.values.tobytes() for r in records] == [w.values.tobytes() for w in want]
        assert [db.matrix[j, :len(w)].tobytes() for j, w in enumerate(want)] == \
            [w.values.tobytes() for w in want]
        for rec, w in zip(records, want):
            assert (rec.vector.variant, rec.vector.spec, rec.vector._den) == (variant, spec, w._den)
            assert rec.vector._counts.tobytes() == w._counts.tobytes()
            assert not rec.vector.values.flags.writeable
            assert not rec.vector._counts.flags.writeable


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("scratch")


@FIXED
@given(mask_list=st.lists(geometry_masks, min_size=2, max_size=6),
       cell=cells, block=st.sampled_from((2, 3, 40, 1 << 16)))
@example(mask_list=[np.ones((5, 3), dtype=bool), np.ones((1, 9), dtype=bool),
                    _framed(_ring((4, 11)), (2, 0, 1, 5))],
         cell=("spiral_fixed", 2, 4), block=3)
@example(mask_list=[np.ones((3, 3), dtype=bool)] * 2, cell=("circ_radial", 1, 24), block=1 << 16)
@example(mask_list=[np.ones((3, 3), dtype=bool), np.ones((9, 9), dtype=bool)],
         cell=("circ_angular", 1, 6), block=2)
def test_count_database_from_columns_equals_publicly_built_one(scratch, mask_list, cell, block):
    # a database built from a stream's integer counts, in blocks from one
    # shape to the whole stream, and one from_records builds from the same
    # shapes' extracted vectors, which carry their counts, read and rank
    # the same, bit for bit; the public constructor over their values
    # keeps values, and reads the same
    variant, d, s = cell
    spec = RasterSpec(VARIANT_KIND[variant], d, s)
    shapes = [BinaryShape(m, id=f"s{i}-1", category=f"c{i % 3}") for i, m in enumerate(mask_list)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_BLOCK_POINTS", block)
        [counted] = evaluation.extract_databases(iter(shapes), [(variant, spec)])
    vectors = [extract(shape, spec, variant) for shape in shapes]
    records = DescriptorDatabase.from_records(spec, variant, [
        DescriptorRecord(sh.id, sh.category, v) for sh, v in zip(shapes, vectors)])
    public = DescriptorDatabase(spec, variant, [sh.id for sh in shapes],
                                [sh.category for sh in shapes], [len(v) for v in vectors],
                                np.concatenate([v.values for v in vectors]))
    for db in (counted, records):
        assert db._counts is not None and db._values is None
        assert db._dens.tobytes() == counted._dens.tobytes()
    assert public._counts is None and public._values is not None
    for db in (records, public):
        assert counted.matrix.tobytes(order="A") == db.matrix.tobytes(order="A")
        assert db.matrix.flags.f_contiguous
        for a, b, v in zip(counted, db, vectors):
            assert (a.id, a.category) == (b.id, b.category)
            assert a.vector.values.tobytes() == b.vector.values.tobytes() == v.values.tobytes()
    for a, b, v in zip(counted, records, vectors):
        assert a.vector._den == b.vector._den == v._den
        assert a.vector._counts.tobytes() == b.vector._counts.tobytes() == v._counts.tobytes()
    texts = []
    for db in (counted, records, public):
        save_database(db, scratch / "db-1.rdb")
        texts.append((scratch / "db-1.rdb").read_bytes())
    assert texts[0] == texts[1] == texts[2]
    for shape, vector in zip(shapes, vectors):
        got = [[(m.id, m.category, np.float64(m.distance).tobytes())
                for m in query(db, vector, len(shapes), exclude_id=shape.id)]
               for db in (counted, records)]
        assert got[0] == got[1]


def rational_ranking(rows, q, k, exclude):
    """The exact top k of ``rows`` and ``q``, lists of Fractions zero-padded
    to one length: by squared distance, then insertion index. Each distance
    is the correctly rounded root of the correctly rounded square."""
    def square(row):
        width = max(len(row), len(q))
        return sum((a - b) ** 2 for a, b in zip(row + [0] * (width - len(row)),
                                                 q + [0] * (width - len(q))))
    ranked = sorted((square(row), i) for i, row in enumerate(rows) if i != exclude)
    return [(i, math.sqrt(float(sq))) for sq, i in ranked[:k]]


@FIXED
@given(mask_list=st.lists(geometry_masks, min_size=1, max_size=5),
       copies=st.lists(st.integers(0, 4), max_size=3), cell=cells, k=st.integers(1, 9))
@example(mask_list=[np.ones((3, 3), dtype=bool), np.ones((9, 9), dtype=bool)], copies=[0, 1],
         cell=("circ_angular", 1, 6), k=2)
@example(mask_list=[_ring((7, 7)), np.ones((1, 9), dtype=bool)], copies=[1],
         cell=("spiral_full", 2, 24), k=1)
def test_every_query_is_the_exact_rational_ranking(scratch, mask_list, copies, cell, k):
    # all four variants: an extracted database, and the same database saved
    # and loaded, rank every shape's extracted query as the exact rational
    # ranking does, ties (copies of a shape) in insertion order. A value is
    # read as its count over its denominator (the sample count, 1, or for
    # circ_angular the shape's own cycle count); a loaded value as the
    # decimal fraction it is written as
    variant, d, s = cell
    spec = RasterSpec(VARIANT_KIND[variant], d, s)
    masks = mask_list + [mask_list[i % len(mask_list)] for i in copies]
    shapes = [BinaryShape(m, id=f"s{i}-1", category=f"c{i % 3}") for i, m in enumerate(masks)]
    [db] = evaluation.extract_databases(shapes, [(variant, spec)])
    save_database(db, scratch / "exact-1.rdb")
    loaded = load_database(scratch / "exact-1.rdb")
    queries = [extract(shape, spec, variant) for shape in shapes]

    def rational(vector, shape):
        den = {"circ_angular": cycle_count(spec, max_radius(shape)), "spiral_fixed": 1}.get(
            variant, s)
        return [Fraction(round(v * den), den) for v in vector.values.tolist()]

    exact = [rational(v, shape) for v, shape in zip(queries, shapes)]
    lines = (scratch / "exact-1.rdb").read_text().splitlines()[1:]
    written = [[Fraction(t) for t in line.split("\t")[3].split(",") if t] for line in lines]
    for target, rows in ((db, exact), (loaded, written)):
        for j, (shape, vector) in enumerate(zip(shapes, queries)):
            expected = rational_ranking(rows, exact[j], k, j)
            if not expected:
                with pytest.raises(EmptyDatabaseError):
                    query(target, vector, k, exclude_id=shape.id)
                continue
            got = query(target, vector, k, exclude_id=shape.id)
            assert [(m.id, m.distance) for m in got] == [(shapes[i].id, dist)
                                                        for i, dist in expected]


@FIXED
@given(mask=geometry_masks, cell_list=st.lists(cells, min_size=1, max_size=4))
@example(mask=np.ones((1, 1), dtype=bool), cell_list=[(v, 1, 1) for v in VARIANTS])
@example(mask=np.ones((3, 7), dtype=bool), cell_list=[(v, 2, 24) for v in VARIANTS])
def test_extract_all_vectors_equal_publicly_built_ones(mask, cell_list):
    # extract_all skips ShapeVector's checks; every vector it returns is still
    # one the public constructor accepts and builds the same, and read-only
    shape = BinaryShape(mask, id="h-1")
    configs = [(v, RasterSpec(VARIANT_KIND[v], d, s)) for v, d, s in cell_list]
    got = extract_all(shape, configs)
    assert len(got) == len(configs)
    for (variant, spec), vector in zip(configs, got):
        public = ShapeVector(variant, spec, vector.values)
        assert type(vector) is ShapeVector
        assert vector.variant == public.variant and vector.spec is spec
        assert vector.values.dtype == public.values.dtype
        assert vector.values.shape == public.values.shape
        assert vector.values.tobytes() == public.values.tobytes()
        # it carries its counts over its denominator; a vector built from values carries none
        n = cycle_count(spec, max_radius(shape))
        assert vector._den == {"circ_angular": n, "spiral_fixed": 1}.get(variant,
                                                                         spec.samples_per_cycle)
        assert vector._counts.dtype == float and vector._counts.shape == vector.values.shape
        assert (vector._counts / vector._den).tobytes() == vector.values.tobytes()
        assert public._counts is None and public._den is None
        assert not vector.values.flags.writeable and not vector._counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vector.values[...] = 0


@FIXED
@given(bad=st.floats().filter(lambda x: not 0 <= x <= 1), at=st.integers(0, 3))
@example(bad=math.nan, at=0)
@example(bad=math.inf, at=3)
@example(bad=-math.inf, at=1)
def test_database_refuses_values_its_vectors_did_not_check(bad, at):
    # a vector built by extract_all's private path is never range-checked
    # itself; the database still checks every count it is given
    spec = RasterSpec("circular", 8, 4)
    values = np.linspace(0, 1, 4)
    values[at] = bad
    vector = descriptor._counted("circ_radial", spec, values.copy(), values * 4, 4)
    with pytest.raises(ValueError, match=re.escape("lie in [0, 1]")):
        DescriptorDatabase.from_records(spec, "circ_radial", [DescriptorRecord("a-1", "a", vector)])
    with pytest.raises(ValueError, match=re.escape("lie in [0, 1]")):
        DescriptorDatabase(spec, "circ_radial", ["a-1"], ["a"], [4], values)
    with pytest.raises(ValueError, match=re.escape("lie in [0, 1]")):
        ShapeVector("circ_radial", spec, values)


@pytest.fixture(scope="module")
def rdb(tmp_path_factory):
    """A scratch path and the bytes of a small valid RASTERDB file."""
    spec = RasterSpec("spiral", 8, 4)
    records = tuple(
        DescriptorRecord(f"c{i % 2}-{i}", f"c{i % 2}",
                         ShapeVector("spiral_full", spec, np.linspace(0, 1, n)))
        for i, n in enumerate((3, 0, 5, 1)))
    path = tmp_path_factory.mktemp("rdb") / "db-1.rdb"
    save_database(DescriptorDatabase.from_records(spec, "spiral_full", records), path)
    return path, path.read_bytes()


def loads_or_format_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        db = load_database(path)
    except DatabaseFormatError:
        return
    assert isinstance(db, DescriptorDatabase)


edits = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.binary(max_size=4)),
                 min_size=1, max_size=4)


@FIXED
@given(cut=st.integers(0, 10**6), noise=st.binary(max_size=300), changes=edits)
def test_damaged_database_loads_or_raises_format_error(rdb, cut, noise, changes):
    path, valid = rdb
    loads_or_format_error(path, valid[:cut % (len(valid) + 1)])
    loads_or_format_error(path, noise)
    loads_or_format_error(path, valid.split(b"\n", 1)[0] + b"\n" + noise)
    loads_or_format_error(path, edited(valid, changes))


@FIXED
@given(changes=edits)
def test_columnar_pass_accepts_only_files_with_no_fault(rdb, changes):
    # a database is returned only by the columnar pass, so every file that
    # loads must be one the line-by-line reading finds no fault in
    path, valid = rdb
    path.write_bytes(edited(valid, changes))
    try:
        load_database(path)
    except DatabaseFormatError:
        return
    assert _first_fault(path.read_bytes().decode()) is None


def edited(data: bytes, changes) -> bytes:
    """``data`` with each (at, drop, insert) edit applied in turn."""
    data = bytearray(data)
    for at, drop, insert in changes:
        at %= len(data) + 1
        data[at:at + drop] = insert
    return bytes(data)


@pytest.fixture(scope="module")
def query_image(tmp_path_factory):
    path = tmp_path_factory.mktemp("image") / "disk-1.pgm"
    yy, xx = np.mgrid[0:15, 0:15]
    save_image(BinaryShape((yy - 7) ** 2 + (xx - 7) ** 2 <= 30), path)
    return str(path)


@FIXED
@given(changes=edits)
def test_cli_query_on_damaged_database_exits_0_or_2(rdb, query_image, changes):
    path, valid = rdb
    path.write_bytes(edited(valid, changes))
    assert_exits_0_or_2(["query", str(path), query_image])


def assert_exits_0_or_2(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2), err.getvalue()


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    return tmp_path_factory.mktemp("query") / "q.rdb"


HEADER = "RASTERDB v1 kind=circular variant=circ_radial sep=8 samples=24"


def test_every_canonical_value_loads_as_its_float(db_path):
    # all 1,000,001 values of fixed 6-decimal notation in [0, 1], built as one array
    micro = np.arange(10**6 + 1)
    rows = np.full((micro.size, 9), ord(","), np.uint8)
    rows[:, 1] = ord(".")
    rows[:, [0, 2, 3, 4, 5, 6, 7]] = micro[:, np.newaxis] // 10 ** np.arange(6, -1, -1) % 10 + ord("0")
    values = rows.tobytes()[:-1].decode()
    tokens = values.split(",")
    sample = [*range(0, 10**6, 7), 10**6]
    assert [tokens[m] for m in sample] == [f"{m / 1e6:.6f}" for m in sample]
    db_path.write_text(f"{HEADER}\nall-1\tall\t{len(tokens)}\t{values}\n")
    loaded = load_database(db_path)
    assert loaded.matrix.tobytes() == np.array(list(map(float, tokens))).tobytes()


# tokens float() reads but that are not fixed 6-decimal notation, and some it
# refuses; each makes its line a bad record
NON_CANONICAL = ["1", ".5", "1e-3", " 0.5", "+0.500000", "0.5000000", "-0.000000", "nan",
                 "inf", "-nan", "Infinity", "1e400", "-0", "1.", "1_0", "1.5", "0.50000",
                 "00.50000", "0.500000 ", "\u20030.5", "\u0663", "\u0663.000000",
                 "\u0663\u066b5", "0.5\x00", "", "x", "_1", "1__0", "0x10"]
canonical = st.integers(0, 10**6).map(lambda m: f"{m / 1e6:.6f}")
non_canonical = st.one_of(
    st.sampled_from(NON_CANONICAL),
    st.floats().map(repr),
    st.lists(st.sampled_from(" +-0123456789_.eE\u0663"), max_size=10).map("".join),
    st.text(st.characters(exclude_characters=",\t\n"), max_size=9),
).filter(lambda token: not re.fullmatch("[0-9][.][0-9]{6}", token))


def splits(text: str) -> bool:
    return len(f"{text}x".splitlines()) > 1


@FIXED
@given(lines=st.lists(st.lists(canonical, min_size=1, max_size=4), min_size=1, max_size=4),
       at=st.integers(0, 30), junk=st.none() | non_canonical, crlf=st.booleans())
def test_non_canonical_value_is_a_bad_record(db_path, lines, at, junk, crlf):
    assume(junk is not None or crlf)
    row = at % len(lines)
    if junk is not None:
        lines[row].insert(at % (len(lines[row]) + 1), junk)
    records = [f"r-{i}\tc\t{len(line)}\t{','.join(line)}" for i, line in enumerate(lines)]
    if crlf:
        records[row] += "\r"
    body = "\n".join(records)
    db_path.write_bytes(f"{HEADER}\n{body}\n".encode())
    with pytest.raises(DatabaseFormatError) as info:
        load_database(db_path)
    prefix = f"q.rdb:{row + 2}: bad record: "
    if splits(records[row]):  # a line break other than "\n", or a CRLF line end
        brk = next(ch for ch in records[row] if splits(ch))
        assert str(info.value) == f"{prefix}line break {brk!r}"
    else:
        assert str(info.value) == f"{prefix}value {junk!r} is not fixed 6-decimal notation"


# an id or category: anything but a tab, a line break or a lone surrogate
field_text = st.text(st.characters(exclude_characters="\t\n" + _LINE_BREAKS,
                                   exclude_categories=("Cs",)), max_size=5)


def reference_parse(text: str):
    """ids, categories and value lists of a valid RASTERDB text, read plainly."""
    ids, categories, values = [], [], []
    for line in text.split("\n")[1:]:
        if line:
            rec_id, category, _, tokens = line.split("\t")
            ids.append(rec_id)
            categories.append(category)
            values.append([float(token) for token in tokens.split(",")] if tokens else [])
    return ids, categories, values


@FIXED
@given(records=st.lists(st.tuples(field_text, field_text, st.lists(canonical, max_size=12)),
                        max_size=6, unique_by=lambda record: record[0]),
       blanks=st.lists(st.integers(0, 2), min_size=7, max_size=7), final_lf=st.booleans())
@example(records=[("", "", []), ("\u00e9\x00\x1f-1", "\u00e9", ["1.000000", "0.000001"]),
                  ("b-1", "", ["0.500000"])], blanks=[1, 2, 0, 0, 0, 0, 1], final_lf=False)
def test_every_valid_form_loads_as_a_plain_parse(db_path, records, blanks, final_lf):
    # blank lines before, between and after the records, no final line feed,
    # empty ids and categories, zero-length records, other scripts and
    # control characters in ids, and mixed widths, up to two-digit lengths
    lines = [HEADER]
    for (rec_id, category, tokens), gap in zip(records, blanks):
        lines += [""] * gap + [f"{rec_id}\t{category}\t{len(tokens)}\t{','.join(tokens)}"]
    lines += [""] * blanks[-1]
    text = "\n".join(lines) + "\n" * final_lf
    db_path.write_bytes(text.encode())
    loaded = load_database(db_path)
    ids, categories, values = reference_parse(text)
    expected = np.zeros((len(values), max(map(len, values), default=0)), order="F")
    for row, vector in enumerate(values):
        expected[row, :len(vector)] = vector
    assert (loaded.ids, loaded.categories) == (tuple(ids), tuple(categories))
    assert loaded.lengths.tolist() == list(map(len, values))
    assert loaded.matrix.shape == expected.shape
    assert loaded.matrix.tobytes(order="F") == expected.tobytes(order="F")
    assert _first_fault(text) is None


dyadic_vectors = st.lists(dyadic, max_size=8)


@FIXED
@given(rows=st.lists(dyadic_vectors, max_size=10), q=dyadic_vectors,
       copy=st.integers(0, 12), k=st.integers(1, 12), exclude=st.none() | st.integers(0, 12))
def test_query_equals_oracle_before_and_after_round_trip(db_path, rows, q, copy, k, exclude):
    spec = RasterSpec("circular", 8, 24)
    records = [DescriptorRecord(f"r-{i}", f"c{i % 3}", ShapeVector("circ_radial", spec, v))
               for i, v in enumerate(rows)]
    if copy < len(rows):  # a query equal to a record ties with each of its copies
        q = rows[copy]
    query_vector = ShapeVector("circ_radial", spec, q)
    exclude_id = None if exclude is None else f"r-{exclude}"
    expected = ref_topk(records, q, k, exclude_id=exclude_id)
    db = DescriptorDatabase.from_records(spec, "circ_radial", records)
    save_database(db, db_path)
    loaded = load_database(db_path)
    assert loaded.ids == db.ids and loaded.categories == db.categories
    assert loaded.lengths.tolist() == db.lengths.tolist() == [len(v) for v in rows]
    assert loaded.matrix.shape == db.matrix.shape
    assert loaded.matrix.tobytes(order="F") == db.matrix.tobytes(order="F")
    for d in (db, loaded):
        if not expected:
            with pytest.raises(EmptyDatabaseError):
                query(d, query_vector, k, exclude_id=exclude_id)
            continue
        got = query(d, query_vector, k, exclude_id=exclude_id)
        assert [(m.id, m.distance) for m in got] == expected
        for m in got:
            rec = records[int(m.id[2:])]
            assert m.category == rec.category
            assert m.distance == distance(query_vector, rec.vector)


def full_scan(db, q, k, exclude_id=None):
    """query() as an unpruned scan: the exact kernel over a copy of every
    row, one stable argsort, then the exclusion."""
    dists = _distances(db.matrix.copy(), q.values)
    order = np.argsort(dists, kind="stable")
    if exclude_id in db.ids:
        order = order[order != db.ids.index(exclude_id)]
    if not order.size:
        raise EmptyDatabaseError("no records to query (database empty after exclusion)")
    return [Match(db.ids[i], db.categories[i], float(dists[i])) for i in order[:k].tolist()]


def scan_outcome(scan, db, q, k, exclude_id):
    """The matches with their distances' bits, or the exception; a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return [(m.id, m.category, np.float64(m.distance).tobytes())
                    for m in scan(db, q, k, exclude_id=exclude_id)]
        except EmptyDatabaseError as exc:
            return type(exc), str(exc)


@st.composite
def scan_cases(draw):
    values = draw(regimes)

    def vector(max_size):
        return np.array(draw(st.lists(values, max_size=max_size)), dtype=float)

    def near(v):
        # a copy, or a copy one ulp nearer 0 or 1 in one place
        v = v.copy()
        if v.size and draw(st.booleans()):
            at = draw(st.integers(0, v.size - 1))
            v[at] = np.nextafter(v[at], draw(st.sampled_from([0.0, 1.0])))
        return v

    rows = []
    for _ in range(draw(st.integers(0, 12))):
        rows.append(near(rows[draw(st.integers(0, len(rows) - 1))])
                    if rows and draw(st.booleans()) else vector(8))
    q = near(rows[draw(st.integers(0, len(rows) - 1))]) if rows and draw(st.booleans()) \
        else vector(draw(st.sampled_from([8, 20])))
    k = draw(st.integers(1, len(rows) + 2))
    exclude = draw(st.none() | st.integers(0, len(rows)))
    return rows, q, k, exclude


def scan_db(rows):
    spec = RasterSpec("circular", 8, 24)
    return DescriptorDatabase.from_records(spec, "circ_radial", [
        DescriptorRecord(f"r-{i}", f"c{i % 3}", ShapeVector("circ_radial", spec, v))
        for i, v in enumerate(rows)])


@settings(FIXED, max_examples=400)
@given(case=scan_cases())
def test_pruned_query_is_the_full_scan_bit_for_bit(case):
    rows, q, k, exclude = case
    db = scan_db(rows)
    query_vector = ShapeVector("circ_radial", db.spec, q)
    exclude_id = None if exclude is None else f"r-{exclude}"
    assert scan_outcome(query, db, query_vector, k, exclude_id) == \
        scan_outcome(full_scan, db, query_vector, k, exclude_id)


def test_pruned_query_at_the_bound_edges():
    # r-0 and r-1 both lie at 0.0, the square of r-1's distance underflowing;
    # the Gram form rounds r-0's square up to a subnormal, which only the
    # bound's absolute term covers
    db = scan_db([np.array([6.9e-162]), np.array([6.8e-162])])
    q = ShapeVector("circ_radial", db.spec, np.array([6.9e-162]))
    assert scan_outcome(query, db, q, 1, None) == scan_outcome(full_scan, db, q, 1, None) \
        == [("r-0", "c0", np.float64(0.0).tobytes())]


# one small valid file per netpbm format, split where its raster starts
VALID_PNM = [
    (b"P1\n# bits\n5 3\n", b"10110\n0 1 0 0 1\n11111\n"),
    (b"P2\n4 2 # dims\n255\n", b"0 17 255 128\n#row\n3 200 64 9\n"),
    (b"P4\n10 2\n", bytes([0x80, 0x40, 0x61, 0xC0])),
    (b"P5 3\n2 200\n", bytes([0, 200, 7, 199, 150, 130])),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def loads_or_pnm_error(path, data: bytes) -> None:
    """load_image gives a shape or a PnmFormatError, allocating far less than MAX_PIXELS."""
    path.write_bytes(data)
    tracemalloc.start()
    try:
        assert isinstance(load_image(path), BinaryShape)
    except PnmFormatError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < MAX_PIXELS // 64


@st.composite
def damaged_pnm(draw) -> bytes:
    """A valid file cut short, its header before random bytes, or edited."""
    header, raster = draw(st.sampled_from(VALID_PNM))
    valid = header + raster
    how = draw(st.sampled_from(("cut", "noise", "edit")))
    if how == "cut":
        return valid[:draw(st.integers(0, len(valid)))]
    if how == "noise":
        return header + draw(st.binary(max_size=100))
    return edited(valid, draw(edits))


@FIXED
@given(data=damaged_pnm(), noise=st.binary(max_size=300))
def test_damaged_pnm_loads_or_raises_format_error(fuzz_dir, data, noise):
    path = fuzz_dir / "fuzz-1.pgm"
    loads_or_pnm_error(path, data)
    loads_or_pnm_error(path, noise)


@FIXED
@given(data=damaged_pnm())
def test_cli_query_on_damaged_image_exits_0_or_2(rdb, fuzz_dir, data):
    path, valid = rdb
    path.write_bytes(valid)
    image = fuzz_dir / "query-1.pgm"
    image.write_bytes(data)
    assert_exits_0_or_2(["query", str(path), str(image)])


@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    """Six valid images in three categories; tests add one damaged file."""
    directory = tmp_path_factory.mktemp("images")
    yy, xx = np.mgrid[0:15, 0:15]
    for i, r2 in enumerate((30, 20, 12, 40, 25, 16)):
        save_image(BinaryShape((yy - 7) ** 2 + (xx - 7) ** 2 <= r2), directory / f"c{i % 3}-{i}.pgm")
    return directory


@FIXED
@given(data=damaged_pnm())
def test_cli_index_and_sweep_on_damaged_file_exit_0_or_2(image_dir, fuzz_dir, data):
    (image_dir / "c0-9.pgm").write_bytes(data)
    assert_exits_0_or_2(["index", str(image_dir), "--variant", "spiral_fixed", "--sep", "4",
                         "--samples", "6", "--out", str(fuzz_dir / "index.rdb")])
    assert_exits_0_or_2(["sweep", str(image_dir), "--variant", "circ_radial", "--seps", "4",
                         "--samples", "6", "--k", "2"])


VALID_SWEEP_CSV = (b"variant,dataset,separation,samples,efficiency_pct,total_time_s,avg_time_s\n"
                   b"circ_radial,toy,8,4,50.0,0.012,0.001\n"
                   b"circ_radial,toy,8,24,75.5,0.020,0.002\n"
                   b"circ_radial,toy,16,4,25.0,0.010,0.001\n")


@FIXED
@given(cut=st.integers(0, 10**6), noise=st.binary(max_size=100), changes=edits)
def test_cli_report_on_damaged_sweep_csv_exits_0_or_2(fuzz_dir, cut, noise, changes):
    path = fuzz_dir / "sweep.csv"
    header = VALID_SWEEP_CSV.split(b"\n", 1)[0] + b"\n"
    for data in (VALID_SWEEP_CSV[:cut % (len(VALID_SWEEP_CSV) + 1)], header + noise,
                 edited(VALID_SWEEP_CSV, changes)):
        path.write_bytes(data)
        assert_exits_0_or_2(["report", str(path)])
