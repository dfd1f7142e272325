"""The four raster shape vectors.

Each is a normalized count of lattice samples on foreground pixels: one sampler
sums the (cycle, angle) hits per row (radial / full-cycle) or per column
(angular), or keeps them all (fixed-angle, one per spiral arc segment).
``extract`` is the one way from a shape and an integer spec to a ShapeVector;
``extract_normalized`` samples a fractional-separation lattice into bare values.
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
    lattice,
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

    Values lie in [0, 1]. Length depends on the shape's extent for the
    per-cycle variants, so two shapes may produce different lengths under
    one spec; comparisons zero-pad the shorter vector (see matcher).
    """

    variant: str
    spec: RasterSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        variant_kind(self.variant, self.spec)
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)


def variant_kind(variant: str, spec: RasterSpec | None = None) -> str:
    """The lattice kind of ``variant``; ValueError if unknown or not ``spec``'s kind."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    kind = VARIANT_KIND[variant]
    if spec is not None and spec.kind != kind:
        raise ValueError(f"variant {variant} needs a {kind} raster, got a {spec.kind} one")
    return kind


def _sample(shape: BinaryShape, variant: str, xs: np.ndarray, ys: np.ndarray,
            samples: int) -> np.ndarray:
    """Values of ``variant`` from lattice points given flat in (cycle, angle) order."""
    inside = contains_points(shape, xs, ys).reshape(-1, samples)
    if variant in (CIRC_RADIAL, SPIRAL_FULL):
        return inside.sum(axis=1) / samples
    if variant == CIRC_ANGULAR:
        return inside.sum(axis=0) / len(inside)
    return inside.ravel().astype(float)


def extract(shape: BinaryShape, spec: RasterSpec, variant: str) -> ShapeVector:
    """Full pipeline: centroid, extent, cycle count, grid, then grouping."""
    variant_kind(variant, spec)
    c = centroid(shape)
    n = cycle_count(spec, max_radius(shape, c))
    build = circular_grid if spec.kind == KIND_CIRCULAR else spiral_grid
    grid = build(c, spec, n)
    return ShapeVector(variant, spec, _sample(shape, variant, grid.xs, grid.ys,
                                              spec.samples_per_cycle))


def extract_normalized(shape: BinaryShape, variant: str, n_cycles: int,
                       samples_per_cycle: int) -> np.ndarray:
    """Scale-normalized extraction: fixed cycle count, separation r_max/n.

    Every shape yields the same vector length under a given (n_cycles,
    samples_per_cycle), which makes the values roughly scale-invariant.
    The separation is fractional, so the result is a bare value array; it
    has no integer-pixel RasterSpec and cannot go into a descriptor
    database.
    """
    kind = variant_kind(variant)
    if n_cycles < 1 or samples_per_cycle < 1:
        raise ValueError("n_cycles and samples_per_cycle must be positive")
    c = centroid(shape)
    _, dx, dy = lattice(kind, max_radius(shape, c) / n_cycles, samples_per_cycle, n_cycles)
    return _sample(shape, variant, (c.cx + dx).ravel(), (c.cy + dy).ravel(),
                   samples_per_cycle)
