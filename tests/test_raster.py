import tracemalloc

import numpy as np
import pytest

from rastershape.raster import (
    MAX_LATTICE_POINTS,
    RasterSpec,
    circular_grid,
    cycle_count,
    spiral_grid,
    unit_circle_samples,
)
from rastershape.shape_io import Centroid

from conftest import grid_points
from oracles import ref_grid_points

ORIGIN = Centroid(0.0, 0.0)


def origin_offsets(kind, separation, samples, n_cycles):
    """(dx, dy) of a fresh spec's lattice, each (n_cycles, samples), read off
    a grid built at the origin."""
    build = circular_grid if kind == "circular" else spiral_grid
    grid = build(ORIGIN, RasterSpec(kind, separation, samples), n_cycles)
    return grid.xs.reshape(n_cycles, samples), grid.ys.reshape(n_cycles, samples)


def test_spec_validation():
    with pytest.raises(ValueError):
        RasterSpec("hexagonal", 8, 4)
    with pytest.raises(ValueError):
        RasterSpec("circular", 0, 4)
    with pytest.raises(ValueError):
        RasterSpec("spiral", 8, 0)
    spec = RasterSpec("circular", 8.0, 4)
    assert spec.separation_px == 8 and isinstance(spec.separation_px, int)
    assert RasterSpec("spiral", 1, MAX_LATTICE_POINTS).samples_per_cycle == MAX_LATTICE_POINTS
    with pytest.raises(ValueError, match="above the cap"):
        RasterSpec("spiral", 1, MAX_LATTICE_POINTS + 1)


def test_lattice_size_capped_before_allocation():
    for n_cycles, samples in [(1, 10**9), (0, 10**9), (10**9, 24), (1, MAX_LATTICE_POINTS + 1)]:
        tracemalloc.start()
        try:
            # the spec refuses too many samples, the grid too many points
            with pytest.raises(ValueError, match="above the cap"):
                spiral_grid(ORIGIN, RasterSpec("spiral", 1, samples), n_cycles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    spec = RasterSpec("circular", 1, MAX_LATTICE_POINTS // 64)
    assert len(circular_grid(ORIGIN, spec, 64)) == MAX_LATTICE_POINTS


def test_cycle_count_examples():
    assert cycle_count(RasterSpec("circular", 32, 4), 100.0) == 4
    assert cycle_count(RasterSpec("circular", 8, 4), 0.0) == 1
    assert cycle_count(RasterSpec("spiral", 32, 4), 100.0) == 5
    assert cycle_count(RasterSpec("spiral", 8, 4), 0.0) == 1
    # exact multiples: the outermost circle touches the boundary
    assert cycle_count(RasterSpec("circular", 32, 4), 96.0) == 3
    assert cycle_count(RasterSpec("spiral", 32, 4), 96.0) == 4
    with pytest.raises(ValueError):
        cycle_count(RasterSpec("circular", 8, 4), -1.0)


def test_circular_grid_right_angles_exact():
    grid = circular_grid(Centroid(0.0, 0.0), RasterSpec("circular", 10, 4), 2)
    got = list(zip(grid.xs.tolist(), grid.ys.tolist()))
    assert got == [(10.0, 0.0), (0.0, -10.0), (-10.0, 0.0), (0.0, 10.0),
                   (20.0, 0.0), (0.0, -20.0), (-20.0, 0.0), (0.0, 20.0)]
    # (cycle, angle) order: cycle 0 first, each cycle from angle 0 upward
    assert grid.n_cycles == 2 and len(grid) == 8
    assert np.hypot(grid.xs, grid.ys).tolist() == [10.0] * 4 + [20.0] * 4
    assert [(k, j) for _, _, k, j in grid_points(grid)] == [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]


def test_empty_grid():
    grid = circular_grid(Centroid(3.0, 4.0), RasterSpec("circular", 8, 6), 0)
    assert len(grid) == 0
    assert grid.xs.tolist() == [] and grid.ys.tolist() == []


def test_circular_grid_trigonometry():
    grid = circular_grid(Centroid(0.0, 0.0), RasterSpec("circular", 8, 6), 1)
    x, y = grid.xs[1], grid.ys[1]
    assert x == pytest.approx(4.0, abs=1e-9)
    assert y == pytest.approx(-8.0 * np.sin(np.pi / 3), abs=1e-9)
    assert y == pytest.approx(-6.92820, abs=1e-5)


def test_spiral_grid_first_turn_exact():
    grid = spiral_grid(Centroid(0.0, 0.0), RasterSpec("spiral", 10, 4), 2)
    got = list(zip(grid.xs.tolist(), grid.ys.tolist()))
    assert got[:4] == [(0.0, 0.0), (0.0, -2.5), (-5.0, 0.0), (0.0, 7.5)]
    assert got[4] == (10.0, 0.0)


def test_spiral_same_angle_radial_steps():
    radii = np.hypot(*origin_offsets("spiral", 8, 24, 6))
    steps = np.diff(radii, axis=0)
    assert np.all(np.abs(steps - 8.0) <= 1e-9)


def test_radius_formula_within_tolerance():
    center = Centroid(40.25, 33.5)
    for spec, build in [(RasterSpec("circular", 24, 12), circular_grid),
                        (RasterSpec("spiral", 24, 12), spiral_grid)]:
        grid = build(center, spec, 5)
        radii = np.hypot(*origin_offsets(spec.kind, 24, 12, 5))
        measured = np.hypot(grid.xs - center.cx, grid.ys - center.cy)
        assert np.all(np.abs(measured - radii.ravel()) <= 1e-9)


def test_radial_monotonicity():
    # angle 0 lies on +x, so column 0 of dx is each circle's radius, exactly
    dx, dy = origin_offsets("circular", 8, 6, 4)
    radii = dx[:, :1]
    assert np.all(np.diff(radii[:, 0]) == 8.0)
    cos, sin = unit_circle_samples(6)
    assert np.array_equal(dx, radii * cos) and np.array_equal(dy, -radii * sin)

    spiral = np.hypot(*origin_offsets("spiral", 8, 6, 4)).ravel()
    assert spiral[0] == 0.0
    assert np.all(np.diff(spiral) > 0)


def test_same_angle_collinearity():
    for build, kind in [(circular_grid, "circular"), (spiral_grid, "spiral")]:
        spec = RasterSpec(kind, 16, 10)
        grid = build(Centroid(50.0, 60.0), spec, 4)
        for j in range(10):
            # column j of the (cycle, angle) layout is the j-th radial line
            dx = grid.xs.reshape(4, 10)[:, j] - 50.0
            dy = grid.ys.reshape(4, 10)[:, j] - 60.0
            cross = dx[:-1] * dy[1:] - dx[1:] * dy[:-1]
            assert np.all(np.abs(cross) <= 1e-9)


def test_grid_translation_equivariance():
    rng = np.random.default_rng(2)
    for build, kind in [(circular_grid, "circular"), (spiral_grid, "spiral")]:
        spec = RasterSpec(kind, 8, 12)
        for _ in range(5):
            cx, cy = rng.uniform(10, 60, 2)
            dx, dy = (int(v) for v in rng.integers(-15, 16, 2))
            g1 = build(Centroid(cx, cy), spec, 4)
            g2 = build(Centroid(cx + dx, cy + dy), spec, 4)
            assert np.allclose(g2.xs - g1.xs, dx, rtol=0, atol=1e-9)
            assert np.allclose(g2.ys - g1.ys, dy, rtol=0, atol=1e-9)


def test_quarter_turn_sample_symmetry():
    # with 4 | s, rotating the sample set by a quarter turn permutes it exactly
    for s in (4, 8, 12, 24):
        cos, sin = unit_circle_samples(s)
        q = s // 4
        assert np.array_equal(np.roll(cos, -q), -sin)
        assert np.array_equal(np.roll(sin, -q), cos)
        # axis samples are exact
        assert cos[0] == 1.0 and sin[0] == 0.0
        assert cos[q] == 0.0 and sin[q] == 1.0


def test_points_match_plain_trig_reference():
    for build, kind in [(circular_grid, "circular"), (spiral_grid, "spiral")]:
        spec = RasterSpec(kind, 16, 7)
        grid = build(Centroid(31.5, 27.25), spec, 3)
        ref = ref_grid_points(kind, 31.5, 27.25, 16, 7, 3)
        got = grid_points(grid)
        assert len(got) == len(ref)
        for (gx, gy, gk, gj), (x, y, k, j) in zip(got, ref):
            assert gx == pytest.approx(x, abs=1e-9)
            assert gy == pytest.approx(y, abs=1e-9)
            assert (gk, gj) == (k, j)


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        circular_grid(Centroid(0.0, 0.0), RasterSpec("spiral", 8, 4), 2)
    with pytest.raises(ValueError):
        spiral_grid(Centroid(0.0, 0.0), RasterSpec("circular", 8, 4), 2)
    with pytest.raises(ValueError):
        circular_grid(Centroid(0.0, 0.0), RasterSpec("circular", 8, 4), -1)


def test_sample_point_values():
    grid = circular_grid(Centroid(1.0, 2.0), RasterSpec("circular", 8, 4), 1)
    assert grid_points(grid)[0] == (9.0, 2.0, 0, 0)


def test_lattice_is_cycle_by_angle():
    # row k is cycle k, column j the j-th angle; grids are the flat layout
    cos, sin = unit_circle_samples(6)
    for kind in ("circular", "spiral"):
        dx, dy = origin_offsets(kind, 8, 6, 3)
        for k in range(3):
            for j in range(6):
                rho = 8.0 * (k + 1) if kind == "circular" else 8.0 * (6 * k + j) / 6
                assert dx[k, j] == rho * cos[j] and dy[k, j] == -rho * sin[j]
        build = circular_grid if kind == "circular" else spiral_grid
        grid = build(Centroid(20.5, 7.25), RasterSpec(kind, 8, 6), 3)
        assert np.array_equal(grid.xs, (20.5 + dx).ravel())
        assert np.array_equal(grid.ys, (7.25 + dy).ravel())
        assert not (grid.xs.flags.writeable or grid.ys.flags.writeable)
    dx, dy = origin_offsets("circular", 8, 6, 0)
    assert dx.shape == dy.shape == (0, 6)


def test_lattice_rows_do_not_depend_on_cycle_count():
    for kind in ("circular", "spiral"):
        for separation in (1, 8):
            for samples in (1, 4, 7, 24):
                full = origin_offsets(kind, separation, samples, 40)
                for n in (0, 1, 2, 17, 40):
                    for small, big in zip(origin_offsets(kind, separation, samples, n), full):
                        assert small.tobytes() == big[:n].tobytes()


def test_grids_share_one_read_only_lattice_per_spec():
    c = Centroid(3.5, -2.25)
    for kind, build in (("circular", circular_grid), ("spiral", spiral_grid)):
        spec = RasterSpec(kind, 5, 12)
        cycles = [3, 9, 1, 9, 4, 12, 0, 2]
        grids = [build(c, spec, n) for n in cycles]
        for n, grid in zip(cycles, grids):
            fresh = build(c, RasterSpec(kind, 5, 12), n)
            assert grid.xs.tobytes() == fresh.xs.tobytes()
            assert grid.ys.tobytes() == fresh.ys.tobytes()
        # the spec keeps only the largest lattice built, and it cannot be written
        dx, dy = spec._offsets
        assert dx.shape == dy.shape == (max(cycles), 12)
        for arr in (dx, dy):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
