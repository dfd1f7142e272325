"""The four raster shape vectors.

Each is a normalized count of lattice samples on foreground pixels.
``extract_all`` is the one way from a shape and its specs to ShapeVectors
(``extract`` is its one-config case): it sums each lattice's (cycle, angle)
hits per row (radial / full-cycle) or per column (angular), or keeps them
all (fixed-angle, one per spiral arc segment).

``extract_all`` builds its vectors through one private path, ``_counted``,
which skips the public constructor's checks: the config was checked on the
way in, and each value is a count of hits over a positive sample count, so
it lies in [0, 1] by construction. The public ``ShapeVector(...)`` still
checks everything it is given, and a database range-checks its values once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .raster import (
    KIND_CIRCULAR,
    KIND_SPIRAL,
    MAX_LATTICE_POINTS,
    RasterSpec,
    _offsets,
    cycle_count,
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


def _counted(variant: str, spec: RasterSpec, values: np.ndarray) -> ShapeVector:
    """A ShapeVector of ``values``, a fresh 1-D float array of hit counts over
    a positive sample count, made read-only in place; nothing is re-checked."""
    values.flags.writeable = False
    vector = object.__new__(ShapeVector)
    vars(vector).update(variant=variant, spec=spec, values=values)
    return vector


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
    """Full pipeline: centroid, extent, cycle count, lattice, membership, grouping."""
    return extract_all(shape, [(variant, spec)])[0]


def extract_all(shape: BinaryShape, configs: Sequence[tuple[str, RasterSpec]]
                ) -> list[ShapeVector]:
    """One vector per ``(variant, spec)`` config of ``shape``, in order.

    Every config is checked first. The shape's geometry is read once, and
    the lattice points of every config are looked up together, in as few
    ``contains_points`` calls as keep each under ``MAX_LATTICE_POINTS``
    points, so one extract's memory bound holds for any number of configs.
    Each vector is built by ``_counted``: its values are hits over a positive
    sample count, so they lie in [0, 1] and need no re-check.
    """
    configs = list(configs)
    for variant, spec in configs:
        variant_kind(variant, spec)
    if not configs:
        return []
    c = centroid(shape)
    r_max = max_radius(shape)
    tables = [_offsets(spec, cycle_count(spec, r_max)) for _, spec in configs]
    # consecutive configs share one lookup while their points fit under the cap
    batches: list[list[int]] = []
    points = 0
    for i, (dx, _) in enumerate(tables):
        if not batches or points + dx.size > MAX_LATTICE_POINTS:
            batches.append([])
            points = 0
        batches[-1].append(i)
        points += dx.size
    vectors = []
    for batch in batches:
        # the same elementwise sums as c.cx + dx: each vector is bit for bit a lone extract's
        xs = np.concatenate([tables[i][0].ravel() for i in batch])
        ys = np.concatenate([tables[i][1].ravel() for i in batch])
        xs += c.cx
        ys += c.cy
        hits = contains_points(shape, xs, ys)
        at = 0
        for i in batch:
            (variant, spec), (n, samples) = configs[i], tables[i][0].shape
            inside = hits[at:at + n * samples].reshape(n, samples)
            at += n * samples
            if variant in (CIRC_RADIAL, SPIRAL_FULL):
                values = inside.sum(axis=1) / samples
            elif variant == CIRC_ANGULAR:
                values = inside.sum(axis=0) / n
            else:
                values = inside.ravel().astype(float)
            vectors.append(_counted(variant, spec, values))
    return vectors
