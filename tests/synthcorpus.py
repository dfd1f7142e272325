"""Deterministic synthetic shape corpora for retrieval experiments.

Shapes are polar profiles, angular-texture patterns, and composites
rasterized onto a square canvas. Every sample of a category is a rotated,
translated, lightly rescaled copy of the category pattern with a sprinkle
of boundary noise. Categories get distinct overall sizes and distinct
radial density signatures (solid profiles, rings, and wedge textures with
category-specific duty cycles), so same-category samples stay close under
coarse rasters while no two categories produce bit-identical vectors.
"""

from __future__ import annotations

import numpy as np

from rastershape.shape_io import BinaryShape


# solid families: mask(rho, theta), rho normalized so the extent is 1
_POLAR = {
    "disk": lambda r, t: r <= 1.0,
    "ring": lambda r, t: (r >= 0.50) & (r <= 1.0),
    "target": lambda r, t: (r <= 0.35) | ((r >= 0.65) & (r <= 1.0)),
}

# textured families: lists of (r_in, r_out, wedges, duty). Each band keeps a
# `duty` fraction of `wedges` angular periods, giving the category a radial
# density signature that survives rotation and moderate occlusion while the
# underlying pixel pattern decorrelates quickly. Wedge counts avoid
# divisors of the common 12/24 sampling rates so duty estimates stay
# stratified rather than phase-locked.
_BANDS = {
    "fanwide": [(0.0, 1.0, 7, 0.50)],
    "fanthin": [(0.0, 1.0, 9, 0.30)],
    "fandense": [(0.0, 1.0, 11, 0.65)],
    "fanfine": [(0.0, 1.0, 13, 0.40)],
    "fansparse": [(0.0, 1.0, 5, 0.22)],
    "corecomb": [(0.0, 0.45, 1, 1.0), (0.45, 1.0, 10, 0.55)],
    "coreburst": [(0.0, 0.30, 1, 1.0), (0.30, 1.0, 13, 0.30)],
    "rimcomb": [(0.0, 0.70, 9, 0.45), (0.70, 1.0, 1, 1.0)],
    "rimburst": [(0.0, 0.75, 11, 0.60), (0.75, 1.0, 1, 1.0)],
    "ringcomb": [(0.45, 1.0, 7, 0.55)],
    "ringburst": [(0.55, 1.0, 10, 0.35)],
    "midcomb": [(0.35, 0.85, 14, 0.60)],
    "splitlow": [(0.0, 0.50, 9, 0.70), (0.50, 1.0, 9, 0.35)],
    "splithigh": [(0.0, 0.55, 13, 0.25), (0.55, 1.0, 13, 0.60)],
    "wheel": [(0.0, 0.62, 5, 0.30), (0.62, 1.0, 1, 1.0)],
    "targetcomb": [(0.0, 0.35, 1, 1.0), (0.65, 1.0, 8, 0.55)],
    "dottedring": [(0.30, 0.70, 7, 0.45)],
    "lacework": [(0.20, 1.0, 16, 0.50)],
    "spokes": [(0.0, 1.0, 5, 0.45)],
    "gearring": [(0.0, 0.40, 1, 1.0), (0.40, 1.0, 16, 0.45)],
    "banded": [(0.0, 0.33, 11, 0.55), (0.33, 0.66, 1, 1.0), (0.66, 1.0, 11, 0.25)],
    "hollowcomb": [(0.25, 0.60, 17, 0.65), (0.60, 1.0, 17, 0.40)],
    "twotone": [(0.0, 0.50, 15, 0.60), (0.50, 1.0, 15, 0.30)],
}


def _banded(bands):
    def fn(rho, theta):
        mask = np.zeros_like(rho, dtype=bool)
        phase = np.mod(theta / (2.0 * np.pi), 1.0)
        for r_in, r_out, wedges, duty in bands:
            band = (rho >= r_in) & (rho <= r_out)
            if duty < 1.0:
                band &= np.mod(phase * wedges, 1.0) < duty
            mask |= band
        return mask
    return fn


# frame families: mask(u, v, rho) in rotated unit coordinates
def _frame_masks():
    def bar(u, v, r):
        return (np.abs(u) <= 1.0) & (np.abs(v) <= 0.22)

    def cross(u, v, r):
        return ((np.abs(u) <= 1.0) & (np.abs(v) <= 0.28)) | \
               ((np.abs(v) <= 0.80) & (np.abs(u) <= 0.28))

    return {"bar": bar, "cross": cross}


_FRAME = _frame_masks()
_FRAME_PEAKS = {"bar": 1.024, "cross": 1.038}

# the benchmark corpus is texture-only; the solid/frame families stay
# available for the small toy corpus
CATEGORIES = tuple(sorted(_BANDS))

# evenly spaced per-category sizes: no two categories share an overall scale
_ALL_FAMILIES = tuple(sorted(list(_POLAR) + list(_BANDS) + list(_FRAME)))
_SIZE_FACTORS = {name: 0.80 + 0.022 * i for i, name in enumerate(_ALL_FAMILIES)}


def _boundary_ring(mask: np.ndarray) -> np.ndarray:
    d = mask.copy()
    e = mask.copy()
    for axis in (0, 1):
        for shift in (1, -1):
            rolled = np.roll(mask, shift, axis=axis)
            d |= rolled
            e &= rolled
    return d & ~e


def make_sample(name: str, rng: np.random.Generator, size: int, radius: float,
                max_shift: int, noise: float, max_rotation: float) -> np.ndarray:
    rot = rng.uniform(-max_rotation, max_rotation)
    extent = radius * rng.uniform(0.98, 1.02)
    cx = size / 2.0 + rng.integers(-max_shift, max_shift + 1)
    cy = size / 2.0 + rng.integers(-max_shift, max_shift + 1)

    yy, xx = np.mgrid[0:size, 0:size]
    ux = xx - cx
    uy = cy - yy  # y up, so rotations read counter-clockwise

    if name in _FRAME:
        scale = extent / _FRAME_PEAKS[name]
        c, s = np.cos(rot), np.sin(rot)
        u = (ux * c + uy * s) / scale
        v = (-ux * s + uy * c) / scale
        mask = _FRAME[name](u, v, np.hypot(u, v))
    else:
        rho = np.hypot(ux, uy) / extent
        theta = np.arctan2(uy, ux) - rot
        fn = _POLAR[name] if name in _POLAR else _banded(_BANDS[name])
        mask = fn(rho, theta)

    if noise > 0:
        ring = _boundary_ring(mask)
        mask = mask ^ (ring & (rng.random(mask.shape) < noise))
    return mask


def make_corpus(categories=CATEGORIES, samples: int = 20, size: int = 336,
                base_radius: float = 110.0, max_shift: int = 7, noise: float = 0.12,
                max_rotation: float = 0.20, seed: int = 7) -> list[BinaryShape]:
    shapes = []
    for ci, name in enumerate(categories):
        factor = _SIZE_FACTORS.get(name, 1.0)
        for i in range(samples):
            rng = np.random.default_rng([seed, ci, i])
            mask = make_sample(name, rng, size, base_radius * factor,
                               max_shift, noise, max_rotation)
            assert mask.any(), f"empty sample {name}-{i + 1}"
            shapes.append(BinaryShape(mask, id=f"{name}-{i + 1}", category=name))
    return shapes


def make_toy_corpus(seed: int = 5) -> list[BinaryShape]:
    """3 categories x 4 samples of rotated/translated disks, bars, and rings."""
    return make_corpus(categories=("disk", "bar", "ring"), samples=4, size=224,
                       base_radius=80.0, max_shift=6, noise=0.10, seed=seed)
