import re

import numpy as np
import pytest

from rastershape import descriptor
from rastershape.descriptor import (
    CIRC_ANGULAR,
    CIRC_RADIAL,
    SPIRAL_FIXED,
    SPIRAL_FULL,
    VARIANTS,
    ShapeVector,
    extract,
    extract_all,
)
from rastershape.errors import DatasetError, EmptyShapeError
from rastershape.evaluation import extract_databases
from rastershape.raster import (MAX_LATTICE_POINTS, RasterSpec, circular_grid, cycle_count,
                               spiral_grid)
from rastershape.shape_io import BinaryShape, centroid, contains_points, max_radius

from conftest import blob_shape, coprime6_blob_mask, grid_points
from oracles import ref_count_vector, ref_extract


def disk_shape(radius=100, size=211):
    yy, xx = np.mgrid[0:size, 0:size]
    c = size // 2
    return BinaryShape((xx - c) ** 2 + (yy - c) ** 2 <= radius ** 2, id="disk-1")


def annulus_shape(inner=40, outer=80, size=171):
    yy, xx = np.mgrid[0:size, 0:size]
    c = size // 2
    d2 = (xx - c) ** 2 + (yy - c) ** 2
    return BinaryShape((d2 >= inner ** 2) & (d2 <= outer ** 2), id="ring-1")


def single_pixel_shape():
    mask = np.zeros((15, 15), dtype=bool)
    mask[7, 5] = True
    return BinaryShape(mask, id="dot-1")


# ---------------------------------------------------------- analytic fixtures

def test_disk_circular_radial():
    vec = extract(disk_shape(), RasterSpec("circular", 32, 4), CIRC_RADIAL)
    assert vec.values.tolist() == [1.0, 1.0, 1.0, 0.0]


def test_annulus_circular_radial():
    vec = extract(annulus_shape(), RasterSpec("circular", 32, 8), CIRC_RADIAL)
    assert vec.values.tolist() == [0.0, 1.0, 0.0]


def test_disk_angular():
    vec = extract(disk_shape(), RasterSpec("circular", 32, 4), CIRC_ANGULAR)
    assert vec.values.tolist() == [0.75, 0.75, 0.75, 0.75]


def test_full_coverage_angular_is_all_ones():
    # r_max = 100 is a multiple of d, so the outermost circle's axis samples
    # land on the disk's extreme pixels and every sample is foreground
    vec = extract(disk_shape(), RasterSpec("circular", 25, 4), CIRC_ANGULAR)
    assert vec.values.tolist() == [1.0] * 4


def test_disk_spiral_full_cycle():
    vec = extract(disk_shape(), RasterSpec("spiral", 32, 4), SPIRAL_FULL)
    assert vec.values.tolist() == [1.0, 1.0, 1.0, 0.25, 0.0]


def test_disk_spiral_fixed_angle():
    vec = extract(disk_shape(), RasterSpec("spiral", 32, 4), SPIRAL_FIXED)
    expected = [1.0] * 12 + [1.0, 0.0, 0.0, 0.0] + [0.0] * 4
    assert vec.values.tolist() == expected


def test_single_pixel_spiral_full():
    # r_max = 0 gives a single turn; only the center sample lands on the pixel
    vec = extract(single_pixel_shape(), RasterSpec("spiral", 32, 4), SPIRAL_FULL)
    assert vec.values.tolist() == [0.25]


# ------------------------------------------------------------------ contracts

def test_lengths_per_variant():
    shape = blob_shape(41, size=128)
    for kind, d, s in [("circular", 8, 6), ("spiral", 16, 12)]:
        spec = RasterSpec(kind, d, s)
        n = cycle_count(spec, max_radius(shape))
        if kind == "circular":
            assert len(extract(shape, spec, CIRC_RADIAL)) == n
            assert len(extract(shape, spec, CIRC_ANGULAR)) == s
        else:
            assert len(extract(shape, spec, SPIRAL_FULL)) == n
            assert len(extract(shape, spec, SPIRAL_FIXED)) == n * s


@pytest.mark.parametrize("variant, spec, cycles, dtype", [
    (SPIRAL_FIXED, RasterSpec("spiral", 8, 300), (3, 1), np.uint8),
    (CIRC_RADIAL, RasterSpec("circular", 8, 255), (3, 1), np.uint8),
    (CIRC_RADIAL, RasterSpec("circular", 8, 300), (3, 1), np.uint16),
    (SPIRAL_FULL, RasterSpec("spiral", 8, 300), (3, 1), np.uint16),
    (CIRC_ANGULAR, RasterSpec("circular", 8, 300), (255, 7), np.uint8),
    (CIRC_ANGULAR, RasterSpec("circular", 8, 4), (300, 2), np.uint16),
])
def test_counts_are_held_in_the_narrowest_dtype_of_the_largest_denominator(
        variant, spec, cycles, dtype):
    # every sample a hit, so each count is its vector's denominator
    cycles = np.array(cycles)
    hits = np.ones(int(cycles.sum()) * spec.samples_per_cycle, dtype=bool)
    counts = descriptor._grouped(variant, spec, hits, cycles)
    lengths, dens = descriptor._layout(variant, spec, cycles)
    assert counts.dtype == dtype
    assert counts.tolist() == np.repeat(dens, lengths).tolist()


def test_values_in_unit_range():
    shape = blob_shape(42, size=96)
    for variant in VARIANTS:
        kind = "circular" if variant.startswith("circ") else "spiral"
        vec = extract(shape, RasterSpec(kind, 8, 12), variant)
        assert np.all(vec.values >= 0.0) and np.all(vec.values <= 1.0)


def test_empty_shape_rejected():
    empty = BinaryShape(np.zeros((5, 5), dtype=bool), id="void-1")
    with pytest.raises(EmptyShapeError):
        extract(empty, RasterSpec("circular", 8, 4), CIRC_RADIAL)


def test_variant_kind_mismatch_rejected():
    shape = single_pixel_shape()
    with pytest.raises(ValueError):
        extract(shape, RasterSpec("spiral", 8, 4), CIRC_RADIAL)
    with pytest.raises(ValueError):
        extract(shape, RasterSpec("circular", 8, 4), SPIRAL_FULL)
    with pytest.raises(ValueError):
        extract(shape, RasterSpec("circular", 8, 4), "fourier")
    with pytest.raises(ValueError, match="needs a circular raster"):
        ShapeVector(CIRC_RADIAL, RasterSpec("spiral", 8, 4), [0.5])
    with pytest.raises(ValueError, match="needs a spiral raster"):
        ShapeVector(SPIRAL_FIXED, RasterSpec("circular", 8, 4), [0.5])


def test_extract_deterministic():
    shape = blob_shape(77)
    spec = RasterSpec("spiral", 8, 12)
    a = extract(shape, spec, SPIRAL_FIXED)
    b = extract(shape, spec, SPIRAL_FIXED)
    assert np.array_equal(a.values, b.values)


def test_extract_independent_of_arrival_order():
    # one spec keeps one lattice; small and large shapes in any order, and a
    # fresh spec per shape, give the same values bit for bit
    shapes = [single_pixel_shape(), disk_shape(100), blob_shape(77), annulus_shape(),
              disk_shape(30, 61)]
    for variant in VARIANTS:
        kind = "circular" if variant.startswith("circ") else "spiral"
        fresh = [extract(s, RasterSpec(kind, 8, 12), variant).values.tobytes() for s in shapes]
        for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
            spec = RasterSpec(kind, 8, 12)
            got = {i: extract(shapes[i], spec, variant).values.tobytes() for i in order}
            assert [got[i] for i in range(len(shapes))] == fresh


# ---------------------------------------------------------------- invariants

def test_translation_invariance_all_variants():
    rng = np.random.default_rng(50)
    for trial in range(5):
        mask = coprime6_blob_mask(np.random.default_rng(500 + trial), size=128)
        shape = BinaryShape(mask, id="b-1")
        for _ in range(5):
            dx, dy = (int(v) for v in rng.integers(-18, 19, 2))
            moved = BinaryShape(np.roll(np.roll(mask, dy, 0), dx, 1), id="b-2")
            for variant in VARIANTS:
                kind = "circular" if variant.startswith("circ") else "spiral"
                spec = RasterSpec(kind, 8, 6)
                v1 = extract(shape, spec, variant)
                v2 = extract(moved, spec, variant)
                assert np.array_equal(v1.values, v2.values), (variant, dx, dy)


def rot90ccw(mask):
    # exact pixel permutation of a square frame: (x, y) -> (y, W-1-x)
    w = mask.shape[0]
    out = np.zeros_like(mask)
    ys, xs = np.nonzero(mask)
    out[w - 1 - xs, ys] = True
    return out


def test_rotation_90_circ_radial_invariant_angular_shifted():
    for trial in range(8):
        mask = coprime6_blob_mask(np.random.default_rng(900 + trial), size=96)
        shape = BinaryShape(mask, id="b-1")
        turned = BinaryShape(rot90ccw(mask), id="b-2")
        for s in (4, 8, 12, 24):
            spec = RasterSpec("circular", 8, s)
            r1 = extract(shape, spec, CIRC_RADIAL)
            r2 = extract(turned, spec, CIRC_RADIAL)
            assert np.array_equal(r1.values, r2.values)
            a1 = extract(shape, spec, CIRC_ANGULAR)
            a2 = extract(turned, spec, CIRC_ANGULAR)
            assert np.array_equal(a2.values, np.roll(a1.values, s // 4))
            assert not np.array_equal(a2.values, a1.values) or \
                np.array_equal(np.roll(a1.values, s // 4), a1.values)


def test_counting_identity_circular():
    # s * sum(radial) and n * sum(angular) both equal the raw inside count
    for trial in range(6):
        shape = blob_shape(700 + trial, size=96)
        spec = RasterSpec("circular", 8, 12)
        c = centroid(shape)
        n = cycle_count(spec, max_radius(shape))
        radial = extract(shape, spec, CIRC_RADIAL)
        angular = extract(shape, spec, CIRC_ANGULAR)
        from rastershape.shape_io import contains_points

        grid = circular_grid(c, spec, n)
        total = int(contains_points(shape, grid.xs, grid.ys).sum())
        assert round(spec.samples_per_cycle * radial.values.sum()) == total
        assert round(n * angular.values.sum()) == total


def test_spiral_aggregation_identity():
    for trial in range(6):
        shape = blob_shape(800 + trial, size=96)
        spec = RasterSpec("spiral", 8, 12)
        full = extract(shape, spec, SPIRAL_FULL)
        fixed = extract(shape, spec, SPIRAL_FIXED)
        per_turn = fixed.values.reshape(len(full), spec.samples_per_cycle)
        assert np.array_equal(per_turn.mean(axis=1), full.values)


# ------------------------------------------------------------------- oracles

def test_vectors_match_grid_point_oracle():
    # independent membership counting over the grid's own sample points
    rng = np.random.default_rng(60)
    for trial in range(12):
        shape = blob_shape(600 + trial, size=96)
        rows = shape.mask.tolist()
        c = centroid(shape)
        for variant in VARIANTS:
            kind = "circular" if variant.startswith("circ") else "spiral"
            d = int(rng.choice([8, 32]))
            s = int(rng.choice([4, 24]))
            spec = RasterSpec(kind, d, s)
            n = cycle_count(spec, max_radius(shape))
            grid = (circular_grid if kind == "circular" else spiral_grid)(c, spec, n)
            expected = ref_count_vector(rows, shape.width, shape.height,
                                        variant, s, n, grid_points(grid))
            got = extract(shape, spec, variant)
            assert got.values.tolist() == expected


def test_extract_matches_straight_line_reimplementation():
    # full five-step pipeline, including independent trigonometry
    for trial in range(8):
        shape = blob_shape(1000 + trial, size=80)
        rows = shape.mask.tolist()
        for variant, d, s in [(CIRC_RADIAL, 8, 6), (CIRC_ANGULAR, 16, 8),
                              (SPIRAL_FULL, 8, 12), (SPIRAL_FIXED, 24, 4)]:
            got = extract(shape, RasterSpec(
                "circular" if variant.startswith("circ") else "spiral", d, s), variant)
            expected = ref_extract(rows, shape.width, shape.height, variant, d, s)
            assert got.values.tolist() == expected


# ---------------------------------------------------------- many configs at once

def far_pair_shape(r):
    """Two pixels 2r apart on a 1 x (2r+1) mask: r_max is r, with almost no image."""
    mask = np.zeros((1, 2 * r + 1), dtype=bool)
    mask[0, [0, -1]] = True
    return BinaryShape(mask, id="pair-1")


def test_extract_all_lookups_stay_under_the_cap(monkeypatch):
    shape = far_pair_shape(800)
    circular, spiral = RasterSpec("circular", 1, 1000), RasterSpec("spiral", 1, 1000)
    configs = [(CIRC_RADIAL, circular), (SPIRAL_FIXED, spiral), (CIRC_ANGULAR, circular)]
    expected = [extract(shape, spec, variant) for variant, spec in configs]
    sizes = []

    def recording(shape, xs, ys):
        sizes.append(len(xs))
        return contains_points(shape, xs, ys)

    monkeypatch.setattr(descriptor, "contains_points", recording)
    got = extract_all(shape, configs)
    # 800 x 1000, 801 x 1000 and 800 x 1000 points: only the first two fit together
    assert sizes == [1_601_000, 800_000]
    assert max(sizes) <= MAX_LATTICE_POINTS < sum(sizes)
    assert [g.values.tobytes() for g in got] == [e.values.tobytes() for e in expected]


REFUSALS = {
    "wrong kind": (far_pair_shape(800), (SPIRAL_FULL, RasterSpec("circular", 8, 4)), ValueError,
                   "variant spiral_full needs a spiral raster, got a circular one"),
    "above the cap": (far_pair_shape(800), (CIRC_RADIAL, RasterSpec("circular", 1, 4096)),
                      ValueError, f"lattice of 800 cycles x 4096 samples is above the cap "
                                  f"of {MAX_LATTICE_POINTS} points"),
    "empty shape": (BinaryShape(np.zeros((5, 5), dtype=bool), id="void-1"),
                    (CIRC_RADIAL, RasterSpec("circular", 8, 4)), EmptyShapeError,
                    "shape 'void-1' has no foreground pixels"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_extract_all_refuses_before_any_lookup(case, monkeypatch):
    # a valid config ahead of the bad one is not looked up either
    shape, bad, error, message = REFUSALS[case]
    configs = [(CIRC_RADIAL, RasterSpec("circular", 8, 4)), bad]
    monkeypatch.setattr(descriptor, "contains_points", lambda *a: pytest.fail("looked up"))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        extract_all(shape, configs)
    # a config of the wrong kind is refused before any shape is read, a
    # shape's own fault by DatasetError naming the shape
    named = "" if case == "wrong kind" else f"extracting {re.escape(repr(shape.id))}: "
    with pytest.raises(DatasetError if named else ValueError,
                       match=f"^{named}{re.escape(message)}$"):
        extract_databases([shape], configs)
