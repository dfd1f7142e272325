"""Acceptance suite: the release gates, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. Criterion 6 needs the real MPEG-7 CE-Shape-1 Part B images
(pre-converted to PGM/PBM) supplied via `--dataset DIR` or the
RASTERSHAPE_MPEG7 environment variable; it is skipped otherwise.
"""

import io
import time
from pathlib import Path

import numpy as np
import pytest

from rastershape.descriptor import (
    CIRC_ANGULAR,
    CIRC_RADIAL,
    SPIRAL_FIXED,
    SPIRAL_FULL,
    VARIANTS,
    extract,
)
from rastershape.evaluation import (
    occlusion_experiment,
    sweep,
    write_sweep_csv,
)
from rastershape.matcher import (
    DescriptorDatabase,
    DescriptorRecord,
    distance,
    load_database,
    query,
    save_database,
)
from rastershape.raster import RasterSpec, circular_grid, cycle_count, spiral_grid
from rastershape.shape_io import (
    BinaryShape,
    centroid,
    contains_points,
    load_directory,
    max_radius,
)

from conftest import blob_shape, coprime6_blob_mask, grid_points
from oracles import ref_count_vector, ref_topk
from test_descriptor import annulus_shape, disk_shape, rot90ccw


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def kind_of(variant):
    return "circular" if variant.startswith("circ") else "spiral"


def test_criterion_1_oracle_equivalence():
    """Descriptors equal brute-force per-sample-point membership counts."""
    start = time.perf_counter()
    mismatches = 0
    checks = 0
    for trial in range(50):
        shape = blob_shape(4000 + trial, size=96)
        rows = shape.mask.tolist()
        c = centroid(shape)
        r = max_radius(shape)
        for variant in VARIANTS:
            for d in (8, 32):
                for s in (4, 24):
                    spec = RasterSpec(kind_of(variant), d, s)
                    n = cycle_count(spec, r)
                    build = circular_grid if spec.kind == "circular" else spiral_grid
                    grid = build(c, spec, n)
                    expected = ref_count_vector(rows, shape.width, shape.height,
                                                variant, s, n, grid_points(grid))
                    got = extract(shape, spec, variant)
                    checks += 1
                    if got.values.tolist() != expected:
                        mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    report(1, ok, f"oracle equivalence on {checks} descriptor extractions, "
                  f"{mismatches} mismatches, {elapsed:.1f}s (< 30s)")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_2_analytic_fixtures():
    """Disk/annulus fixtures hold exactly for all four vector variants."""
    disk = disk_shape()
    ring = annulus_shape()
    results = [
        extract(disk, RasterSpec("circular", 32, 4), CIRC_RADIAL).values.tolist()
        == [1.0, 1.0, 1.0, 0.0],
        extract(ring, RasterSpec("circular", 32, 8), CIRC_RADIAL).values.tolist()
        == [0.0, 1.0, 0.0],
        extract(disk, RasterSpec("circular", 32, 4), CIRC_ANGULAR).values.tolist()
        == [0.75, 0.75, 0.75, 0.75],
        extract(disk, RasterSpec("spiral", 32, 4), SPIRAL_FULL).values.tolist()
        == [1.0, 1.0, 1.0, 0.25, 0.0],
        extract(disk, RasterSpec("spiral", 32, 4), SPIRAL_FIXED).values.tolist()
        == [1.0] * 13 + [0.0] * 7,
    ]
    ok = all(results)
    report(2, ok, f"analytic disk/annulus fixtures, {sum(results)}/5 exact")
    assert all(results)


def test_criterion_3_invariance_suite():
    """Translation/rotation invariances and the two counting identities."""
    rng = np.random.default_rng(77)

    translation_ok = 0
    shifts = 0
    masks = [coprime6_blob_mask(np.random.default_rng(5000 + t), size=128)
             for t in range(5)]
    while shifts < 25:
        mask = masks[shifts % len(masks)]
        shape = BinaryShape(mask, id="b-1")
        dx, dy = (int(v) for v in rng.integers(-18, 19, 2))
        moved = BinaryShape(np.roll(np.roll(mask, dy, 0), dx, 1), id="b-2")
        good = True
        for variant in VARIANTS:
            spec = RasterSpec(kind_of(variant), 8, 6)
            good &= np.array_equal(extract(shape, spec, variant).values,
                                   extract(moved, spec, variant).values)
        translation_ok += good
        shifts += 1

    rotation_ok = 0
    for t in range(5):
        mask = coprime6_blob_mask(np.random.default_rng(6000 + t), size=96)
        shape = BinaryShape(mask, id="b-1")
        turned = BinaryShape(rot90ccw(mask), id="b-2")
        good = True
        for s in (4, 8, 12, 24):
            spec = RasterSpec("circular", 8, s)
            good &= np.array_equal(extract(shape, spec, CIRC_RADIAL).values,
                                   extract(turned, spec, CIRC_RADIAL).values)
            good &= np.array_equal(
                extract(turned, spec, CIRC_ANGULAR).values,
                np.roll(extract(shape, spec, CIRC_ANGULAR).values, s // 4))
        rotation_ok += good

    counting_ok = 0
    aggregation_ok = 0
    for t in range(10):
        shape = blob_shape(7000 + t, size=96)
        spec = RasterSpec("circular", 8, 12)
        c = centroid(shape)
        n = cycle_count(spec, max_radius(shape))
        grid = circular_grid(c, spec, n)
        total = int(contains_points(shape, grid.xs, grid.ys).sum())
        radial = extract(shape, spec, CIRC_RADIAL).values
        angular = extract(shape, spec, CIRC_ANGULAR).values
        counting_ok += (round(12 * radial.sum()) == total == round(n * angular.sum()))

        sspec = RasterSpec("spiral", 8, 12)
        full = extract(shape, sspec, SPIRAL_FULL).values
        fixed = extract(shape, sspec, SPIRAL_FIXED).values
        aggregation_ok += np.array_equal(fixed.reshape(len(full), 12).mean(axis=1), full)

    ok = (translation_ok == 25 and rotation_ok == 5
          and counting_ok == 10 and aggregation_ok == 10)
    report(3, ok, f"translation {translation_ok}/25 shifts, rotation {rotation_ok}/5, "
                  f"counting identity {counting_ok}/10, per-turn mean {aggregation_ok}/10 "
                  f"(all exact)")
    assert translation_ok == 25
    assert rotation_ok == 5
    assert counting_ok == 10
    assert aggregation_ok == 10


def test_criterion_4_matcher_correctness(tmp_path):
    """Metric properties, oracle top-k, and persistence round-trip."""
    from rastershape.descriptor import ShapeVector

    spec = RasterSpec("circular", 8, 24)

    def vec(values):
        return ShapeVector(CIRC_RADIAL, spec, np.asarray(values, dtype=float))

    rng = np.random.default_rng(88)
    metric_bad = 0
    for _ in range(10_000):
        la, lb, lc = rng.integers(1, 10, 3)
        a, b, c = vec(rng.random(la)), vec(rng.random(lb)), vec(rng.random(lc))
        dab = distance(a, b)
        if dab != distance(b, a) or distance(a, a) != 0.0 or dab < 0.0:
            metric_bad += 1
        elif dab > distance(a, c) + distance(c, b) + 1e-9:
            metric_bad += 1

    records = tuple(
        DescriptorRecord(f"rec-{i}", f"cat{i % 9}", vec(rng.random(int(rng.integers(3, 12)))))
        for i in range(200)
    )
    db = DescriptorDatabase.from_records(spec, CIRC_RADIAL, records)
    topk_bad = 0
    for trial in range(50):
        q = rng.random(int(rng.integers(3, 12)))
        exclude = f"rec-{int(rng.integers(200))}" if trial % 2 else None
        got = [m.id for m in query(db, vec(q), 3, exclude_id=exclude)]
        want = [rec_id for rec_id, _ in ref_topk(records, list(q), 3, exclude_id=exclude)]
        topk_bad += got != want

    path = tmp_path / "round.rdb"
    save_database(db, path)
    loaded = load_database(path)
    round_trip_ok = len(loaded.records) == 200 and all(
        a.id == b.id and a.category == b.category
        and b.vector.values.tolist() == [float(f"{v:.6f}") for v in a.vector.values]
        for a, b in zip(db.records, loaded.records)
    )

    ok = metric_bad == 0 and topk_bad == 0 and round_trip_ok
    report(4, ok, f"metric violations {metric_bad}/10000 triples, "
                  f"top-k oracle mismatches {topk_bad}/50, "
                  f"round-trip at 6 decimals {'ok' if round_trip_ok else 'BROKEN'}")
    assert metric_bad == 0
    assert topk_bad == 0
    assert round_trip_ok


def test_criterion_5_trend_reproduction(synthetic_corpus):
    """Fine rasters beat coarse ones on the 23x20 synthetic corpus."""
    start = time.perf_counter()
    result = sweep(synthetic_corpus, CIRC_RADIAL, dataset_label="synthetic")
    elapsed = time.perf_counter() - start
    grid = {(c.separation_px, c.samples_per_cycle): c.efficiency_pct
            for c in result.cells}
    gap = grid[(8, 24)] - grid[(32, 4)]

    comparisons = []
    for d in (8, 16, 24, 32):
        for s_lo, s_hi in zip((4, 6, 8, 12), (6, 8, 12, 24)):
            comparisons.append(grid[(d, s_hi)] >= grid[(d, s_lo)])
    monotone_share = sum(comparisons) / len(comparisons)

    ok = gap >= 20.0 and monotone_share >= 0.80 and elapsed < 300.0
    report(5, ok, f"efficiency(8,24)={grid[(8, 24)]:.1f}% vs "
                  f"(32,4)={grid[(32, 4)]:.1f}% (gap {gap:.1f} >= 20), "
                  f"monotone along s in {sum(comparisons)}/{len(comparisons)} "
                  f"({100 * monotone_share:.0f}% >= 80%), {elapsed:.0f}s (< 300s)")
    assert gap >= 20.0
    assert monotone_share >= 0.80
    assert elapsed < 300.0


def test_criterion_6_mpeg7_reference_targets(mpeg7_dir):
    """Reference efficiency levels on the real MPEG-7 CE-Shape-1 Part B set."""
    if not mpeg7_dir:
        report(6, True, "skipped: no --dataset/RASTERSHAPE_MPEG7 directory given")
        pytest.skip("MPEG-7 dataset not supplied")
    shapes = load_directory(Path(mpeg7_dir))
    assert shapes, "dataset directory holds no readable PBM/PGM images"

    radial = sweep(shapes, CIRC_RADIAL, separations=(8,), samples=(24,),
                   dataset_label="mpeg7")
    radial_eff = radial.cells[0].efficiency_pct

    angular = sweep(shapes, CIRC_ANGULAR, dataset_label="mpeg7")
    angular_min = min(c.efficiency_pct for c in angular.cells)

    ok = radial_eff >= 90.0 and angular_min >= 85.0
    report(6, ok, f"circ_radial(8,24)={radial_eff:.1f}% (>= 90), "
                  f"circ_angular grid min={angular_min:.1f}% (>= 85) "
                  f"on {len(shapes)} images")
    assert radial_eff >= 90.0
    assert angular_min >= 85.0


def test_criterion_7_occlusion_ordering(synthetic_corpus):
    """Occlusion robustness ordering and the fraction-0 sanity level."""
    configs = ((CIRC_RADIAL, 24, 24), (SPIRAL_FULL, 32, 24),
               (SPIRAL_FIXED, 24, 12), (CIRC_ANGULAR, 16, 8))
    clean = occlusion_experiment(synthetic_corpus, configs, fraction=0.0, seed=3)
    all_perfect = all(cell.efficiency_pct == 100.0 for cell in clean.cells)

    occluded = occlusion_experiment(synthetic_corpus, configs, fraction=0.2, seed=3)
    eff = {cell.variant: cell.efficiency_pct for cell in occluded.cells}
    ordered = eff[SPIRAL_FULL] >= eff[CIRC_RADIAL] >= eff[SPIRAL_FIXED]

    ok = all_perfect and ordered
    report(7, ok, f"fraction 0.2: spiral_full={eff[SPIRAL_FULL]:.1f}% >= "
                  f"circ_radial={eff[CIRC_RADIAL]:.1f}% >= "
                  f"spiral_fixed={eff[SPIRAL_FIXED]:.1f}%; "
                  f"fraction 0 all 100%: {all_perfect}")
    assert all_perfect
    assert ordered


def test_criterion_8_sweep_determinism(toy_corpus):
    """Two full sweeps differ only in the two time columns."""
    def csv_rows(corpus):
        run = sweep(corpus, CIRC_RADIAL, dataset_label="toy")
        buf = io.StringIO()
        write_sweep_csv(run, buf)
        return buf.getvalue().splitlines()

    a = csv_rows(toy_corpus)
    b = csv_rows(toy_corpus)
    assert len(a) == len(b) == 21

    def strip_times(line):
        return line.split(",")[:5]

    same_without_times = all(strip_times(x) == strip_times(y) for x, y in zip(a, b))
    times_present = all(len(x.split(",")) == 7 for x in a[1:])
    ok = same_without_times and times_present
    report(8, ok, f"two sweep runs, {len(a) - 1} cells: identical except time "
                  f"columns: {same_without_times}")
    assert same_without_times
    assert times_present
