"""Independent reference results for the benchmark's output checks.

Everything here works from the generated masks, not from the files the
program reads, and shares no code with the program. Descriptors are kept
as integer counts with one denominator per vector, so every distance can
be compared exactly: a squared distance between count vectors a/n_a and
b/n_b is the integer sum((a_i*n_b - b_i*n_a)**2) over (n_a*n_b)**2. Exact
ties rank by database insertion order, which is the program's contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SWEEP_VARIANTS = ("circ_radial", "spiral_fixed")
SWEEP_SEPARATIONS = (8, 32)
SWEEP_SAMPLES = (4, 24)
OCCLUSION_CONFIGS = (
    ("circ_radial", 24, 24),
    ("spiral_full", 32, 24),
    ("spiral_fixed", 24, 12),
    ("circ_angular", 16, 8),
)
OCCLUSION_FRACTION = 0.2
OCCLUSION_PER_CATEGORY = 2
K = 3


@dataclass(frozen=True)
class Geometry:
    """Foreground coordinates, centroid and extent of one mask."""

    mask: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    cx: float
    cy: float
    r_max: float


def geometry(mask: np.ndarray) -> Geometry:
    ys, xs = np.nonzero(mask)
    n = xs.size
    if n == 0:
        raise ValueError("empty mask")
    # integer sums are exact, so one division gives the correctly rounded mean
    cx = int(xs.sum()) / n
    cy = int(ys.sum()) / n
    dx = xs - cx
    dy = ys - cy
    return Geometry(mask, xs, ys, cx, cy, math.sqrt(float((dx * dx + dy * dy).max())))


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.trunc(v + np.where(v >= 0, 0.5, -0.5)).astype(np.int64)


def counts(g: Geometry, variant: str, separation: int, samples: int) -> tuple[np.ndarray, int]:
    """(integer counts, denominator) of one descriptor; value = count / denominator."""
    spiral = variant.startswith("spiral")
    n = math.ceil(g.r_max / separation) + (1 if spiral else 0)
    n = max(1, n)
    k, j = np.divmod(np.arange(n * samples), samples)
    angle = 2.0 * math.pi * j / samples
    rho = separation * (k + j / samples) if spiral else (k + 1) * separation
    ix = _round_half_away(g.cx + rho * np.cos(angle))
    iy = _round_half_away(g.cy - rho * np.sin(angle))
    h, w = g.mask.shape
    ok = (ix >= 0) & (iy >= 0) & (ix < w) & (iy < h)
    hit = np.zeros(ix.size, dtype=bool)
    hit[ok] = g.mask[iy[ok], ix[ok]]
    if variant in ("circ_radial", "spiral_full"):
        return np.bincount(k[hit], minlength=n), samples
    if variant == "circ_angular":
        return np.bincount(j[hit], minlength=samples), n
    return hit.astype(np.int64), 1


def _padded(vectors: list[np.ndarray], width: int) -> np.ndarray:
    out = np.zeros((len(vectors), width), dtype=np.int64)
    for i, v in enumerate(vectors):
        out[i, : v.size] = v
    return out


def recognition_bounds(db: list[tuple[np.ndarray, int]], db_cats: list[str],
                       queries: list[tuple[np.ndarray, int]], query_cats: list[str],
                       exclude: list[int | None], k: int = K) -> tuple[int, int]:
    """(fewest, most) queries recognized over the admissible orders of exact ties.

    A query is recognized when a same-category record is among its k
    nearest. Records at exactly the k-th distance compete for the last
    slots. With power-of-two denominators the program's floating-point
    distances are exact too, so such ties keep insertion order. Otherwise
    two records tie in floating point for certain only when they hold the
    same values; ties between different vectors may round either way.
    """
    width = max(v.size for v, _ in db + queries)
    a = _padded([v for v, _ in queries], width)
    b = _padded([v for v, _ in db], width)
    na = np.array([n for _, n in queries], dtype=np.int64)
    nb = np.array([n for _, n in db], dtype=np.int64)
    # integer-valued float64 products stay below 2**53, so the dot is exact
    dot = np.rint(a.astype(float) @ b.astype(float).T).astype(np.int64)
    sa = (a * a).sum(axis=1)
    sb = (b * b).sum(axis=1)
    # t[q, r] = sum((a_i*n_r - b_i*n_q)**2), and distance**2 = t / (n_q*n_r)**2;
    # for one query, ranking by t / n_r**2 ranks by distance
    t = (nb[None, :] ** 2) * sa[:, None] + (na[:, None] ** 2) * sb[None, :] \
        - 2 * na[:, None] * nb[None, :] * dot
    scale = math.lcm(*(int(n) ** 2 for n in np.unique(nb)))
    weight = [scale // int(n) ** 2 for n in nb]
    signature = [(n, v.tobytes()) for v, n in db]
    lo = hi = 0
    for q in range(len(queries)):
        if len(set(weight)) == 1:
            keys = t[q]
        else:
            keys = np.array([int(v) * w for v, w in zip(t[q], weight)], dtype=object)
        order = [r for r in range(len(db)) if r != exclude[q]]
        kth = np.sort(keys[order])[min(k, len(order)) - 1]
        below = [r for r in order if keys[r] < kth]
        if any(db_cats[r] == query_cats[q] for r in below):
            lo += 1
            hi += 1
            continue
        slots = min(k, len(order)) - len(below)
        classes: dict[object, list[int]] = {}
        for r in order:
            if keys[r] == kth:
                exact = _pow2(na[q]) and _pow2(nb[r])
                classes.setdefault("exact" if exact else signature[r], []).append(r)
        # each class keeps insertion order; classes may interleave in any way
        reach = [same for members in classes.values()
                 for pos, same in enumerate(db_cats[r] == query_cats[q] for r in members)
                 if pos < slots]
        hi += any(reach)
        leading_other = sum(_leading_false([db_cats[r] == query_cats[q] for r in members])
                            for members in classes.values())
        lo += leading_other < slots
    return lo, hi


def _pow2(n) -> bool:
    n = int(n)
    return n & (n - 1) == 0


def _leading_false(flags: list[bool]) -> int:
    return next((i for i, f in enumerate(flags) if f), len(flags))


def efficiency(hits: int, total: int) -> float:
    return 100.0 * hits / total


def sweep_bounds(geoms: list[Geometry], cats: list[str]) -> dict[str, list[list[int]]]:
    """Leave-self-out (lo, hi) recognized counts per variant, cells in (d, s) order."""
    out = {}
    for variant in SWEEP_VARIANTS:
        row = []
        for d in SWEEP_SEPARATIONS:
            for s in SWEEP_SAMPLES:
                vecs = [counts(g, variant, d, s) for g in geoms]
                row.append(list(recognition_bounds(vecs, cats, vecs, cats,
                                                   list(range(len(vecs))))))
        out[variant] = row
    return out


def occluded(g: Geometry, fraction: float, seed: int) -> Geometry:
    """Half-plane erase of the clean cut nearest to ceil(fraction * N) pixels."""
    n = g.xs.size
    target = math.ceil(fraction * n)
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
    proj = g.xs * math.cos(angle) + g.ys * math.sin(angle)
    levels = np.sort(proj)[::-1]
    # a clean cut erases every pixel at or above one projection level
    sizes = np.concatenate(([0], np.flatnonzero(levels[:-1] > levels[1:]) + 1, [n]))
    m = int(min(sizes.tolist(), key=lambda c: (abs(c - target), c)))
    mask = g.mask.copy()
    if m:
        erase = proj >= levels[m - 1]
        mask[g.ys[erase], g.xs[erase]] = False
    return geometry(mask)


def occlusion_bounds(geoms: list[Geometry], ids: list[str], cats: list[str],
                     seed: int) -> list[list[int]]:
    """(lo, hi) recognized occluded queries against the clean database, per config."""
    groups: dict[str, list[int]] = {}
    for i, cat in enumerate(cats):
        groups.setdefault(cat, []).append(i)
    picked = []
    for cat in sorted(groups):
        picked += sorted(groups[cat], key=ids.__getitem__)[:OCCLUSION_PER_CATEGORY]
    queries = [occluded(geoms[i], OCCLUSION_FRACTION, seed + pos) for pos, i in enumerate(picked)]
    query_cats = [cats[i] for i in picked]
    out = []
    for variant, d, s in OCCLUSION_CONFIGS:
        db = [counts(g, variant, d, s) for g in geoms]
        qv = [counts(g, variant, d, s) for g in queries]
        out.append(list(recognition_bounds(db, cats, qv, query_cats, [None] * len(qv))))
    return out
