"""Sample-point lattices: concentric circles and Archimedean spirals.

A spec's lattice is its (dx, dy) offset table from the center, each an
(n_cycles, samples_per_cycle) array: row k is cycle k and column j the j-th
angle; grids keep its points flat in that order. Angle zero points along +x;
the image y axis points down, so angles run counter-clockwise.

Row k does not depend on the cycle count, so one private function makes the
table once per spec and keeps the largest built so far on the spec;
``circular_grid`` and ``spiral_grid`` take its first n_cycles rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .shape_io import Centroid

KIND_CIRCULAR = "circular"
KIND_SPIRAL = "spiral"
KINDS = (KIND_CIRCULAR, KIND_SPIRAL)
# largest n_cycles x samples accepted (extract works in ~49 bytes per point); an
# 8192 x 8192 image needs at most 11,585 cycles at separation 1, so s <= 181 fits
MAX_LATTICE_POINTS = 1 << 21


@dataclass(frozen=True)
class RasterSpec:
    """Lattice parameters: kind, radial separation d, samples per cycle s."""

    kind: str
    separation_px: int
    samples_per_cycle: int
    # read-only (dx, dy) of the largest lattice built so far, filled by the grid builders
    _offsets: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("separation_px", "samples_per_cycle"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.samples_per_cycle > MAX_LATTICE_POINTS:
            raise ValueError(f"samples_per_cycle {self.samples_per_cycle} is above "
                             f"the cap of {MAX_LATTICE_POINTS}")


@dataclass(frozen=True, eq=False)
class RasterGrid:
    """Materialized lattice: flat, read-only point arrays in (cycle, angle) order."""

    spec: RasterSpec
    n_cycles: int
    xs: np.ndarray
    ys: np.ndarray

    def __len__(self) -> int:
        return int(self.xs.size)


def unit_circle_samples(samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of 2*pi*j/samples for j = 0..samples-1.

    The angle is folded into a quarter turn before evaluating, so samples
    that land on the axes come out exactly (+-1, 0) / (0, +-1), and when 4
    divides ``samples`` a quarter-turn rotation of the sample set is an
    exact permutation of the returned values.
    """
    j = np.arange(samples)
    quadrant, rem = np.divmod(4 * j, samples)
    base = (math.pi / 2.0) * (rem / samples)
    c, s = np.cos(base), np.sin(base)
    cos = np.choose(quadrant, (c, -s, -c, s))
    sin = np.choose(quadrant, (s, c, -s, -c))
    return cos, sin


def cycle_count(spec: RasterSpec, r_max: float) -> int:
    """Cycles needed for the lattice to reach radius ``r_max``.

    Circles sit at radii (k+1)*d, so ceil(r/d) circles reach the boundary.
    Spiral turn k spans [k*d, (k+1)*d), so one extra turn is needed for its
    samples to reach the boundary radius. Degenerate single-pixel shapes
    still get one cycle.
    """
    if r_max < 0:
        raise ValueError("r_max must be non-negative")
    n = math.ceil(r_max / spec.separation_px)
    if spec.kind == KIND_SPIRAL:
        n += 1
    return max(1, n)


def _offsets(spec: RasterSpec, n_cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n_cycles`` rows of ``spec``'s read-only (dx, dy) lattice.

    Row k does not depend on the cycle count, so a smaller lattice is an exact
    prefix of a larger one; the spec keeps the largest built so far. More than
    ``MAX_LATTICE_POINTS`` points raise ValueError before any allocation.
    """
    offsets = spec._offsets
    if offsets is None or len(offsets[0]) < n_cycles:
        samples = spec.samples_per_cycle
        if n_cycles * samples > MAX_LATTICE_POINTS:
            raise ValueError(f"lattice of {n_cycles} cycles x {samples} samples is above "
                             f"the cap of {MAX_LATTICE_POINTS} points")
        d = float(spec.separation_px)
        k = np.arange(n_cycles)[:, None]
        if spec.kind == KIND_SPIRAL:
            # rho = d*(k + j/s), one division so dyadic sample counts stay exact
            radii = d * (k * samples + np.arange(samples)) / samples
        else:
            radii = (k + 1) * d  # one radius per circle, broadcast over its samples
        cos, sin = unit_circle_samples(samples)
        offsets = (radii * cos, -radii * sin)
        for arr in offsets:
            arr.flags.writeable = False
        object.__setattr__(spec, "_offsets", offsets)
    return offsets[0][:n_cycles], offsets[1][:n_cycles]


def _grid(kind: str, center: Centroid, spec: RasterSpec, n_cycles: int) -> RasterGrid:
    if spec.kind != kind:
        raise ValueError(f"{kind}_grid needs a {kind} spec, got {spec.kind!r}")
    if n_cycles < 0:
        raise ValueError("n_cycles must be non-negative")
    dx, dy = _offsets(spec, n_cycles)
    points = [a.ravel() for a in (center.cx + dx, center.cy + dy)]
    for arr in points:
        arr.flags.writeable = False
    return RasterGrid(spec, int(n_cycles), *points)


def circular_grid(center: Centroid, spec: RasterSpec, n_cycles: int) -> RasterGrid:
    """Concentric circles at radii (k+1)*d with s samples per circle."""
    return _grid(KIND_CIRCULAR, center, spec, n_cycles)


def spiral_grid(center: Centroid, spec: RasterSpec, n_cycles: int) -> RasterGrid:
    """Archimedean spiral: radius d*(k + j/s) at angle 2*pi*j/s."""
    return _grid(KIND_SPIRAL, center, spec, n_cycles)
