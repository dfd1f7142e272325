"""The four raster shape vectors.

Each is a normalized count of lattice samples on foreground pixels.
``extract`` is the one way from a shape and a spec to a ShapeVector: it sums
the (cycle, angle) hits per row (radial / full-cycle) or per column
(angular), or keeps them all (fixed-angle, one per spiral arc segment).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import (
    KIND_CIRCULAR,
    KIND_SPIRAL,
    RasterSpec,
    circular_grid,
    cycle_count,
    spiral_grid,
)
from .shape_io import BinaryShape, centroid, contains_points, max_radius

CIRC_RADIAL = "circ_radial"
CIRC_ANGULAR = "circ_angular"
SPIRAL_FULL = "spiral_full"
SPIRAL_FIXED = "spiral_fixed"
VARIANTS = (CIRC_RADIAL, CIRC_ANGULAR, SPIRAL_FULL, SPIRAL_FIXED)

VARIANT_KIND = {
    CIRC_RADIAL: KIND_CIRCULAR,
    CIRC_ANGULAR: KIND_CIRCULAR,
    SPIRAL_FULL: KIND_SPIRAL,
    SPIRAL_FIXED: KIND_SPIRAL,
}


@dataclass(frozen=True, eq=False)
class ShapeVector:
    """One descriptor: variant name, lattice spec, and normalized values.

    Values lie in [0, 1]; any other, NaN and inf included, raises ValueError.
    Length follows the shape's extent for the per-cycle variants, so two shapes
    may differ in length under one spec; comparisons zero-pad the shorter one.
    """

    variant: str
    spec: RasterSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        variant_kind(self.variant, self.spec)
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        check_unit_range(values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


def check_unit_range(values: np.ndarray) -> None:
    """ValueError unless every value lies in [0, 1]; NaN fails both tests."""
    # compared as Python floats, which never warn; initial=0 accepts an empty array
    low, high = float(values.min(initial=0)), float(values.max(initial=0))
    if not (low >= 0 and high <= 1):
        raise ValueError("descriptor values must lie in [0, 1]")


def variant_kind(variant: str, spec: RasterSpec | None = None) -> str:
    """The lattice kind of ``variant``; ValueError if unknown or not ``spec``'s kind."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    kind = VARIANT_KIND[variant]
    if spec is not None and spec.kind != kind:
        raise ValueError(f"variant {variant} needs a {kind} raster, got a {spec.kind} one")
    return kind


def extract(shape: BinaryShape, spec: RasterSpec, variant: str) -> ShapeVector:
    """Full pipeline: centroid, extent, cycle count, grid, then grouping."""
    variant_kind(variant, spec)
    c = centroid(shape)
    n = cycle_count(spec, max_radius(shape, c))
    build = circular_grid if spec.kind == KIND_CIRCULAR else spiral_grid
    grid = build(c, spec, n)
    samples = spec.samples_per_cycle
    inside = contains_points(shape, grid.xs, grid.ys).reshape(n, samples)
    if variant in (CIRC_RADIAL, SPIRAL_FULL):
        values = inside.sum(axis=1) / samples
    elif variant == CIRC_ANGULAR:
        values = inside.sum(axis=0) / n
    else:
        values = inside.ravel().astype(float)
    return ShapeVector(variant, spec, values)
