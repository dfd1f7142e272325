"""Property tests (Hypothesis): geometry and extraction against the oracles,
and RASTERDB loading on damaged files.

Every test runs a fixed, derandomized set of examples with no example
database, so a run is reproducible and leaves no files behind.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rastershape.descriptor import VARIANT_KIND, VARIANTS, ShapeVector, extract
from rastershape.errors import DatabaseFormatError
from rastershape.matcher import (
    DescriptorDatabase,
    DescriptorRecord,
    load_database,
    save_database,
)
from rastershape.raster import RasterSpec, circular_grid, cycle_count, spiral_grid
from rastershape.shape_io import BinaryShape, Centroid, centroid, max_radius, occlude

from conftest import grid_points
from oracles import ref_centroid, ref_count_vector, ref_extract, ref_max_radius

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
points = st.builds(Centroid, st.floats(-40.0, 70.0), st.floats(-40.0, 70.0))


@FIXED
@given(mask=geometry_masks, c=points)
def test_geometry_equals_oracle(mask, c):
    shape = BinaryShape.from_mask(mask, id="g-1")
    rows = mask.tolist()
    # any point first: it must not stand in for the centroid's r_max
    assert max_radius(shape, c) == ref_max_radius(rows, c.cx, c.cy)
    own = centroid(shape)
    assert (own.cx, own.cy) == ref_centroid(rows)
    r_max = max_radius(shape, own)
    assert r_max == ref_max_radius(rows, own.cx, own.cy)
    # repeated calls, in either order, give the same values
    assert centroid(shape) == own and max_radius(shape, own) == r_max
    assert max_radius(shape, c) == ref_max_radius(rows, c.cx, c.cy)
    assert max_radius(shape, centroid(shape)) == r_max


@FIXED
@given(mask=masks.filter(lambda m: m.sum() > 1), fraction=st.floats(0.0, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_occluded_shape_has_its_own_geometry(mask, fraction, seed):
    shape = BinaryShape.from_mask(mask, id="g-1")
    parent = centroid(shape), max_radius(shape, centroid(shape))
    cut = occlude(shape, fraction, seed)
    assert cut.mask.any()
    rows = cut.mask.tolist()
    c = centroid(cut)
    assert (c.cx, c.cy) == ref_centroid(rows)
    assert max_radius(cut, c) == ref_max_radius(rows, c.cx, c.cy)
    assert (centroid(shape), max_radius(shape, centroid(shape))) == parent


def grid_for(shape, spec):
    c = centroid(shape)
    build = circular_grid if spec.kind == "circular" else spiral_grid
    return build(c, spec, cycle_count(spec, max_radius(shape, c)))


def on_half_pixel(grid) -> bool:
    """Whether a sample sits on a pixel-rounding boundary (x.5) to within 1e-9."""
    frac = np.abs(np.concatenate([grid.xs, grid.ys])) % 1.0
    return bool(np.any(np.abs(frac - 0.5) < 1e-9))


@FIXED
@given(mask=masks, cell=cells)
def test_vector_on_grid_equals_count_oracle(mask, cell):
    # membership and grouping over the points of the grid extract builds, ties included
    variant, d, s = cell
    shape = BinaryShape.from_mask(mask, id="h-1")
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
    shape = BinaryShape.from_mask(mask, id="h-1")
    spec = RasterSpec(VARIANT_KIND[variant], d, s)
    assume(not on_half_pixel(grid_for(shape, spec)))
    expected = ref_extract(mask.tolist(), shape.width, shape.height, variant, d, s)
    assert extract(shape, spec, variant).values.tolist() == expected


@pytest.fixture(scope="module")
def rdb(tmp_path_factory):
    """A scratch path and the bytes of a small valid RASTERDB file."""
    spec = RasterSpec("spiral", 8, 4)
    records = tuple(
        DescriptorRecord(f"c{i % 2}-{i}", f"c{i % 2}",
                         ShapeVector("spiral_full", spec, np.linspace(0, 1, n)))
        for i, n in enumerate((3, 0, 5, 1)))
    path = tmp_path_factory.mktemp("rdb") / "db-1.rdb"
    save_database(DescriptorDatabase(spec, "spiral_full", records), path)
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
    data = bytearray(valid)
    for at, drop, insert in changes:
        at %= len(data) + 1
        data[at:at + drop] = insert
    loads_or_format_error(path, bytes(data))
