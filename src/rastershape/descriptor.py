"""The four raster shape vectors.

Each is a normalized count of lattice samples on foreground pixels.
``extract_all`` is the one way from a shape and its specs to ShapeVectors
(``extract`` is its one-config case): it sums each lattice's (cycle, angle)
hits per row (radial / full-cycle) or per column (angular), or keeps them
all (fixed-angle, one per spiral arc segment). It runs in three steps that
a stream of shapes (``evaluation``) runs too: ``_hits`` measures and looks
up one shape under every config, ``_grouped`` counts the hits of a run of
shapes under one config at once, and ``_values`` divides those counts, so a
vector is bit for bit the same whether it is grouped alone or in a block.
A stream keeps the integer counts and hands them to its databases; only
its query vectors are divided.

``extract_all`` builds its vectors through one private path, ``_counted``,
which skips the public constructor's checks: the config was checked on the
way in, and each value is a count of hits over a positive sample count, so
it lies in [0, 1] by construction. The public ``ShapeVector(...)`` still
checks everything it is given, and a database range-checks its values once.

Every variant but ``circ_angular`` divides its counts by one denominator,
``count_denominator``: the sample count for the per-cycle variants, 1 for
``spiral_fixed``. A vector whose values are such counts, with a squared
count norm of at most ``EXACT_NORM``, is compared in exact integer
arithmetic (see ``matcher``). ``_counted`` marks extracted vectors so for
free; the public constructor checks its values once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# Largest squared norm of a count vector compared exactly. A count is at
# most its denominator s, and an extract has n cycles x s samples <=
# MAX_LATTICE_POINTS = 2^21, so an extracted vector's squared count norm is
# at most n s^2 <= 2^21 s <= 2^42 (2^21 for spiral_fixed). With both norms
# at most 2^42, every term and partial sum of |c|^2, c.q and |c|^2 - 2 c.q
# + |q|^2 lies below 2^44 < 2^53 in magnitude, so each is an exact integer
# in float64, whatever the summation order.
EXACT_NORM = 1 << 42


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
    # whether the values are whole counts over count_denominator() with a
    # squared count norm of at most EXACT_NORM: compared exactly if so
    _exact: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        variant_kind(self.variant, self.spec)
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        check_unit_range(values)
        values.flags.writeable = False
        den = count_denominator(self.variant, self.spec)
        counts = None if den is None else whole_counts(values, den)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_exact",
                           counts is not None and bool(counts @ counts <= EXACT_NORM))

    def __len__(self) -> int:
        return int(self.values.size)


def _counted(variant: str, spec: RasterSpec, values: np.ndarray) -> ShapeVector:
    """A ShapeVector of ``values``, a fresh 1-D float array of hit counts over
    a positive sample count, or a view of a column of them that nothing
    writes, made read-only in place; nothing is re-checked.
    An extract of every variant but circ_angular holds whole counts over
    count_denominator() within EXACT_NORM, so it is marked exact."""
    values.flags.writeable = False
    vector = object.__new__(ShapeVector)
    vars(vector).update(variant=variant, spec=spec, values=values,
                        _exact=variant != CIRC_ANGULAR)
    return vector


def count_denominator(variant: str, spec: RasterSpec) -> int | None:
    """The one denominator of every value of ``variant`` under ``spec``:
    samples per cycle (circ_radial, spiral_full), 1 (spiral_fixed), or None
    for circ_angular, whose shapes each divide by their own cycle count."""
    if variant == CIRC_ANGULAR:
        return None
    return 1 if variant == SPIRAL_FIXED else spec.samples_per_cycle


def whole_counts(values: np.ndarray, den: int) -> np.ndarray | None:
    """``rint(values * den)``, in the layout of ``values``, if every value
    is that count over ``den``, ``rint(v * den) / den == v``; else None."""
    counts = values * den
    np.rint(counts, out=counts)
    return counts if np.array_equal(counts / den, values) else None


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

    Every config is checked first. The lookups are ``_hits``'s, the
    grouping ``_grouped``'s and the division ``_values``', the very calls
    a stream of shapes makes (see ``evaluation``), so each vector is bit
    for bit that stream's. Each is built by ``_counted``: its values are
    hits over a positive sample count, so they lie in [0, 1] and need no
    re-check.
    """
    configs = list(configs)
    for variant, spec in configs:
        variant_kind(variant, spec)
    vectors = []
    for (variant, spec), (hits, n) in zip(configs, _hits(shape, configs)):
        cycles = np.array([n])
        counts = _grouped(variant, spec, hits, cycles)
        vectors.append(_counted(variant, spec, _values(variant, spec, counts, cycles)))
    return vectors


def _hits(shape: BinaryShape, configs: Sequence[tuple[str, RasterSpec]]
          ) -> list[tuple[np.ndarray, int]]:
    """Each checked config's lattice hits on ``shape``, flat in (cycle,
    angle) order, and its cycle count.

    The shape's geometry is read once, one ``centroid`` and one
    ``max_radius`` call, and the lattice points of every config are looked
    up together, in as few ``contains_points`` calls as keep each under
    ``MAX_LATTICE_POINTS`` points, so one shape's memory bound holds for any
    number of configs.
    """
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
    found = []
    for batch in batches:
        # the same elementwise sums as c.cx + dx: a config's hits do not
        # depend on the configs it is looked up with
        xs = np.concatenate([tables[i][0].ravel() for i in batch])
        ys = np.concatenate([tables[i][1].ravel() for i in batch])
        xs += c.cx
        ys += c.cy
        hits = contains_points(shape, xs, ys)
        at = 0
        for i in batch:
            size = tables[i][0].size
            found.append((hits[at:at + size], len(tables[i][0])))
            at += size
    return found


def _grouped(variant: str, spec: RasterSpec, hits: np.ndarray,
             cycles: np.ndarray) -> np.ndarray:
    """The counts of a run of shapes under ``(variant, spec)``, their vectors
    one after another, each ``_lengths`` long.

    ``hits`` holds their ``_hits`` one after another, ``cycles[j]`` rows of
    s samples for shape j. A vector counts each cycle's hits (radial,
    full-cycle), each angle's hits over the shape's own cycles (angular),
    or keeps every hit (fixed-angle). No count is above its vector's
    denominator, so the counts are kept in the narrowest unsigned dtype
    that holds it: count_denominator, or the run's largest cycle count for
    circ_angular. Counts are exact, so a vector is bit for bit the same
    whatever run it is grouped in.
    """
    samples = spec.samples_per_cycle
    rows = hits.reshape(-1, samples)
    if variant in (CIRC_RADIAL, SPIRAL_FULL):
        return rows.sum(axis=1, dtype=np.min_scalar_type(samples))
    if variant == CIRC_ANGULAR:
        starts = np.cumsum(cycles) - cycles
        dtype = np.min_scalar_type(int(cycles.max(initial=0)))
        return np.add.reduceat(rows, starts, axis=0, dtype=dtype).ravel()
    return hits.astype(np.uint8)


def _lengths(variant: str, spec: RasterSpec, cycles):
    """The vector length of shapes of ``cycles`` cycles, an int or an array
    of them, as ``cycles`` is: n (radial, full-cycle), s (angular) or n s
    (fixed-angle)."""
    samples = spec.samples_per_cycle
    if variant == CIRC_ANGULAR:
        return cycles * 0 + samples
    return cycles * samples if variant == SPIRAL_FIXED else cycles


def _values(variant: str, spec: RasterSpec, counts: np.ndarray,
            cycles: np.ndarray) -> np.ndarray:
    """The values of ``_grouped``'s ``counts``, a fresh float array: each
    count over count_denominator(), or for circ_angular over its shape's
    own cycle count. Both are exact integers, so each value is the
    correctly rounded quotient, whatever the counts' dtype."""
    den = count_denominator(variant, spec)
    if den is not None:
        return counts / den
    return (counts.reshape(-1, spec.samples_per_cycle) / cycles[:, np.newaxis]).ravel()
