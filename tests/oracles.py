"""Independent reference implementations used only to cross-check results.

Everything here is deliberately written with different algorithms and
plain-Python style (regex header parsing, per-pixel loops, truncation-based
rounding) so agreement with the library is meaningful.
"""

from __future__ import annotations

import math
import re
from pathlib import Path


def ref_round_half_away(v: float) -> int:
    # int() truncates toward zero, so shifting by +-0.5 rounds halves away
    return int(v + 0.5) if v >= 0 else int(v - 0.5)


def ref_contains(rows, width, height, x, y) -> bool:
    ix = ref_round_half_away(x)
    iy = ref_round_half_away(y)
    if 0 <= ix < width and 0 <= iy < height:
        return bool(rows[iy][ix])
    return False


def ref_centroid(rows):
    sx = sy = n = 0
    for y, row in enumerate(rows):
        for x, value in enumerate(row):
            if value:
                sx += x
                sy += y
                n += 1
    return sx / n, sy / n


def ref_max_radius(rows, cx, cy) -> float:
    best = 0.0
    for y, row in enumerate(rows):
        for x, value in enumerate(row):
            if value:
                dx = x - cx
                dy = y - cy
                best = max(best, math.sqrt(dx * dx + dy * dy))
    return best


def ref_cycle_count(kind, separation, r_max) -> int:
    n = math.ceil(r_max / separation)
    if kind == "spiral":
        n += 1
    return max(1, n)


def ref_grid_points(kind, cx, cy, separation, samples, n_cycles):
    """(x, y, k, j) tuples via plain trigonometry, no quadrant folding."""
    points = []
    for k in range(n_cycles):
        for j in range(samples):
            angle = 2.0 * math.pi * j / samples
            if kind == "circular":
                rho = (k + 1) * separation
            else:
                rho = separation * (k + j / samples)
            points.append((cx + rho * math.cos(angle), cy - rho * math.sin(angle), k, j))
    return points


def ref_count_vector(rows, width, height, variant, samples, n_cycles, points):
    """Group-and-normalize membership counts over the given sample points."""
    hits = [ref_contains(rows, width, height, x, y) for x, y, _, _ in points]
    if variant in ("circ_radial", "spiral_full"):
        counts = [0] * n_cycles
        for hit, (_, _, k, _) in zip(hits, points):
            if hit:
                counts[k] += 1
        return [c / samples for c in counts]
    if variant == "circ_angular":
        counts = [0] * samples
        for hit, (_, _, _, j) in zip(hits, points):
            if hit:
                counts[j] += 1
        return [c / n_cycles for c in counts]
    return [1.0 if hit else 0.0 for hit in hits]


def ref_extract(rows, width, height, variant, separation, samples):
    """Straight-line reimplementation of the whole descriptor pipeline."""
    kind = "circular" if variant.startswith("circ") else "spiral"
    cx, cy = ref_centroid(rows)
    n = ref_cycle_count(kind, separation, ref_max_radius(rows, cx, cy))
    points = ref_grid_points(kind, cx, cy, separation, samples, n)
    return ref_count_vector(rows, width, height, variant, samples, n, points)


def ref_occlude(rows, fraction, cos, sin):
    """Rows left by the half-plane cut along (cos, sin) that erases the clean
    count nearest ceil(fraction * N), the smaller on a tie, keeping a pixel.

    Full sort of the projections: a clean cut erases every pixel at or above
    one projection level, so the counts it can erase are 0 and each rank
    where the sorted projection strictly drops.
    """
    pixels = [(x, y) for y, row in enumerate(rows) for x, value in enumerate(row) if value]
    n = len(pixels)
    target = math.ceil(fraction * n)
    levels = sorted((x * cos + y * sin for x, y in pixels), reverse=True)
    sizes = [0] + [i for i in range(1, n) if levels[i - 1] > levels[i]]
    m = min(sizes, key=lambda size: (abs(size - target), size))
    cut = levels[m - 1] if m else math.inf
    return [[bool(value) and x * cos + y * sin < cut for x, value in enumerate(row)]
            for y, row in enumerate(rows)]


def ref_distance(a, b) -> float:
    a = list(a)
    b = list(b)
    length = max(len(a), len(b))
    a += [0.0] * (length - len(a))
    b += [0.0] * (length - len(b))
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


def ref_topk(records, query_values, k, exclude_id=None):
    """Full sort by (distance, insertion index); returns (id, distance) pairs."""
    scored = []
    for index, rec in enumerate(records):
        if rec.id == exclude_id:
            continue
        scored.append((ref_distance(query_values, list(rec.vector.values)), index, rec.id))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(rec_id, dist) for dist, _, rec_id in scored[:k]]


_TOKEN = re.compile(rb"\S+")


def ref_load_pnm(path):
    """Second PBM/PGM reader: regex token scan for plain formats, manual
    cursor for raw ones. Returns (width, height, rows of bool)."""
    data = Path(path).read_bytes()
    magic = data[:2]

    if magic in (b"P1", b"P2"):
        text = re.sub(rb"#[^\n\r]*", b" ", data[2:])
        tokens = _TOKEN.findall(text)
        width, height = int(tokens[0]), int(tokens[1])
        if magic == b"P1":
            bits = "".join(t.decode("ascii") for t in tokens[2:])
            values = [c == "1" for c in bits[: width * height]]
        else:
            threshold = 127  # tokens[2] is the maxval
            values = [int(t) > threshold for t in tokens[3 : 3 + width * height]]
    else:
        pos = 2
        fields = []
        want = 3 if magic == b"P5" else 2
        while len(fields) < want:
            while data[pos : pos + 1].isspace():
                pos += 1
            if data[pos : pos + 1] == b"#":
                while data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
                continue
            start = pos
            while not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
                pos += 1
            fields.append(int(data[start:pos]))
        pos += 1  # single whitespace before the raster
        width, height = fields[0], fields[1]
        if magic == b"P5":
            raw = data[pos : pos + width * height]
            values = [b > 127 for b in raw]
        else:  # P4
            row_bytes = (width + 7) // 8
            values = []
            for y in range(height):
                row = data[pos + y * row_bytes : pos + (y + 1) * row_bytes]
                bits = []
                for byte in row:
                    bits.extend(bool((byte >> (7 - i)) & 1) for i in range(8))
                values.extend(bits[:width])
    rows = [values[y * width : (y + 1) * width] for y in range(height)]
    return width, height, rows
