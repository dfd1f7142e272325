"""The four raster shape vectors.

Each is a normalized count of lattice samples on foreground pixels.
``extract_all`` is the one way from a shape and its specs to ShapeVectors
(``extract`` is its one-config case): it sums each lattice's (cycle, angle)
hits per row (radial / full-cycle) or per column (angular), or keeps them
all (fixed-angle, one per spiral arc segment). It runs in three steps that
a stream of shapes (``evaluation``) runs too: ``_hits`` measures and looks
up one shape under every config, ``_grouped`` counts the hits of a run of
shapes under one config at once, and ``_vectors`` builds the run's vectors
from those counts, so a vector is bit for bit the same whether it is
grouped alone or in a block. A stream keeps the integer counts and hands
them to its databases; only its query records are built into vectors.

``_layout`` is the one place a variant decides its vectors' shape: a
shape of n cycles gets a vector of n counts over s samples each (radial,
full-cycle), s counts over n cycles each (angular), or n s counts over 1
each (fixed-angle). ``_grouped`` keeps counts in the narrowest unsigned
dtype that holds the largest denominator, and ``_vectors``, the one way
from counts to ShapeVectors (a database's records too), divides each
count by its vector's denominator. It skips the public constructor's
checks: the config was checked on the way in, and each value is a count
of hits over a positive sample count, so it lies in [0, 1] by
construction. The public ``ShapeVector(...)`` still checks everything it
is given, and a database range-checks its values once. An extracted
vector carries its integer counts, its denominator and its squared count
norm beside its values, so it is compared in exact integer arithmetic
(see ``matcher``) with no norm to take per query; a vector built from
values by hand carries none.
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


@dataclass(frozen=True, eq=False)
class ShapeVector:
    """One descriptor: variant name, lattice spec, and normalized values.

    Values lie in [0, 1]; any other, NaN and inf included, raises ValueError.
    Length follows the shape's extent for the per-cycle variants, so two shapes
    may differ in length under one spec; comparisons zero-pad the shorter one.
    An extracted vector also carries ``_counts``, its values times ``_den``
    as float64 integers, and ``_norm``, their squared norm as an int, or
    2^53 where that is 2^53 or more or not a number; one built from values
    carries None in all three.
    """

    variant: str
    spec: RasterSpec
    values: np.ndarray
    _counts: np.ndarray | None = field(default=None, init=False, repr=False)
    _den: int | None = field(default=None, init=False, repr=False)
    _norm: int | None = field(default=None, init=False, repr=False)

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
    """Full pipeline: centroid, extent, cycle count, lattice, membership, grouping."""
    return extract_all(shape, [(variant, spec)])[0]


def extract_all(shape: BinaryShape, configs: Sequence[tuple[str, RasterSpec]]
                ) -> list[ShapeVector]:
    """One vector per ``(variant, spec)`` config of ``shape``, in order.

    Every config is checked first. The lookups are ``_hits``'s, the
    grouping ``_grouped``'s and the vectors ``_vectors``', the very calls
    a stream of shapes makes (see ``evaluation``), so each vector is bit
    for bit that stream's.
    """
    configs = list(configs)
    for variant, spec in configs:
        variant_kind(variant, spec)
    vectors = []
    for (variant, spec), (hits, n) in zip(configs, _hits(shape, configs)):
        cycles = np.array([n])
        vectors += _vectors(variant, spec, _grouped(variant, spec, hits, cycles),
                            *_layout(variant, spec, cycles))
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


def _layout(variant: str, spec: RasterSpec, cycles):
    """The vector lengths and denominators of shapes of ``cycles`` cycles,
    an int or an array of them, as ``cycles`` is: n values over s (radial,
    full-cycle), s over n (angular) or n s over 1 (fixed-angle)."""
    samples = spec.samples_per_cycle
    if variant == CIRC_ANGULAR:
        return cycles * 0 + samples, cycles
    if variant == SPIRAL_FIXED:
        return cycles * samples, cycles * 0 + 1
    return cycles, cycles * 0 + samples


def _grouped(variant: str, spec: RasterSpec, hits: np.ndarray,
             cycles: np.ndarray) -> np.ndarray:
    """The counts of a run of shapes under ``(variant, spec)``, their vectors
    one after another, each as ``_layout`` lays it out.

    ``hits`` holds their ``_hits`` one after another, ``cycles[j]`` rows of
    s samples for shape j. A vector counts each cycle's hits (radial,
    full-cycle), each angle's hits over the shape's own cycles (angular),
    or keeps every hit (fixed-angle). No count is above its vector's
    denominator, and no denominator grows as the cycle count falls, so the
    counts are kept in the narrowest unsigned dtype that holds the
    denominator of the run's largest cycle count. Counts are exact, so a
    vector is bit for bit the same whatever run it is grouped in.
    """
    dtype = np.min_scalar_type(_layout(variant, spec, int(cycles.max(initial=0)))[1])
    rows = hits.reshape(-1, spec.samples_per_cycle)
    if variant in (CIRC_RADIAL, SPIRAL_FULL):
        return rows.sum(axis=1, dtype=dtype)
    if variant == CIRC_ANGULAR:
        starts = np.cumsum(cycles) - cycles
        return np.add.reduceat(rows, starts, axis=0, dtype=dtype).ravel()
    return hits.astype(dtype)


def _vectors(variant: str, spec: RasterSpec, counts: np.ndarray, lengths,
             dens) -> list[ShapeVector]:
    """The ShapeVectors of ``counts``, vector j the next ``lengths[j]`` of
    them over ``dens[j]``, as ``_layout`` gives them: read-only views of one
    array of the counts as float64 and one of their values, each the
    correctly rounded quotient of two exact integers (one array where every
    denominator is 1), and each vector's squared count norm, summed over its
    own counts: ``_grouped``'s squared in the narrowest dtype that holds the
    largest norm, to keep the peak low, others in float64, quietly."""
    lengths, dens = np.asarray(lengths), np.asarray(dens)
    den_max = int(dens.max(initial=1))
    wide = float if counts.dtype.kind != "u" else np.min_scalar_type(
        int(lengths.max(initial=0)) * den_max * den_max)
    norms, full = np.zeros(lengths.size), lengths > 0  # a vector with no counts keeps 0
    with np.errstate(over="ignore"):
        norms[full] = np.add.reduceat(np.square(counts, dtype=wide),
                                      (np.cumsum(lengths) - lengths)[full])
    norms = np.fmin(norms, 2.0 ** 53).astype(np.int64).tolist()
    counts = counts.astype(float)
    values = counts if den_max == 1 else counts / np.repeat(dens, lengths)
    values.flags.writeable = False
    counts.flags.writeable = False
    vectors, at = [], 0
    for n, den, norm in zip(lengths.tolist(), dens.tolist(), norms):
        vector = object.__new__(ShapeVector)
        vars(vector).update(variant=variant, spec=spec, values=values[at:at + n],
                            _counts=counts[at:at + n], _den=den, _norm=norm)
        vectors.append(vector)
        at += n
    return vectors
