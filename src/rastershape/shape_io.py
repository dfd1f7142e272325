"""Binary shape images: netpbm ingestion, geometry, and occlusion.

Shapes are single-object binary masks (MPEG-7 CE-Shape-1 style). PBM
(P1/P4) and PGM (P2/P5) files are supported; other formats must be
converted first. All operations here are pure and masks are frozen after
construction, so shapes can be shared freely between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyShapeError, PnmFormatError

_WHITESPACE = b" \t\n\r\x0b\x0c"
_MAGICS = (b"P1", b"P2", b"P4", b"P5")


@dataclass(frozen=True)
class Centroid:
    """Mean (x, y) of the foreground pixels; anchors every raster."""

    cx: float
    cy: float


@dataclass(frozen=True, eq=False)
class BinaryShape:
    """A binary pixel mask with retrieval labels.

    ``mask[y, x]`` is True on foreground pixels. ``category`` is the class
    label used by retrieval scoring; for files named like ``apple-3.pgm``
    it is the stem up to the last dash.
    """

    width: int
    height: int
    mask: np.ndarray
    id: str = ""
    category: str = ""

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image must be at least 1x1")
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != (self.height, self.width):
            raise ValueError(
                f"mask shape {mask.shape} does not match "
                f"height={self.height} width={self.width}"
            )
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask, id: str = "", category: str = "") -> "BinaryShape":
        mask = np.asarray(mask, dtype=bool)
        return cls(mask.shape[1], mask.shape[0], mask, id, category)

    @property
    def pixel_count(self) -> int:
        return int(self.mask.sum())


def category_of(stem: str) -> str:
    """MPEG-7 naming convention: "apple-3" belongs to category "apple"."""
    return stem.rsplit("-", 1)[0]


class _PnmReader:
    """Cursor over a netpbm byte stream, aware of whitespace and comments."""

    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.pos = 0

    def _skip_space(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            c = data[self.pos]
            if c in _WHITESPACE:
                self.pos += 1
            elif c == 0x23:  # '#' comment runs to end of line
                while self.pos < n and data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self._skip_space()
        data, n = self.data, len(self.data)
        start = self.pos
        while self.pos < n and data[self.pos] not in _WHITESPACE and data[self.pos] != 0x23:
            self.pos += 1
        if self.pos == start:
            raise PnmFormatError(f"{self.name}: truncated header")
        return data[start : self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise PnmFormatError(f"{self.name}: bad {what} token {tok!r}") from None

    def begin_raster(self) -> None:
        # binary raster data starts after exactly one whitespace byte
        if self.pos >= len(self.data) or self.data[self.pos] not in _WHITESPACE:
            raise PnmFormatError(f"{self.name}: missing raster separator")
        self.pos += 1

    def remaining(self) -> bytes:
        return self.data[self.pos :]


def _read_maxval(reader: _PnmReader) -> int:
    maxval = reader.int_token("maxval")
    if not 1 <= maxval <= 255:
        raise PnmFormatError(f"{reader.name}: maxval {maxval} out of supported range 1..255")
    return maxval


def _read_plain_bits(reader: _PnmReader, count: int) -> np.ndarray:
    # P1 bits may appear with or without separating whitespace
    bits = np.empty(count, dtype=bool)
    got = 0
    data, n = reader.data, len(reader.data)
    pos = reader.pos
    while pos < n and got < count:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        elif c == 0x30 or c == 0x31:  # '0' / '1'
            bits[got] = c == 0x31
            got += 1
            pos += 1
        else:
            raise PnmFormatError(f"{reader.name}: unexpected byte {bytes([c])!r} in P1 raster")
    if got < count:
        raise PnmFormatError(f"{reader.name}: raster truncated ({got} of {count} bits)")
    reader.pos = pos
    return bits


def _read_plain_values(reader: _PnmReader, count: int, maxval: int) -> np.ndarray:
    values = np.empty(count, dtype=np.int32)
    for i in range(count):
        try:
            v = reader.int_token("pixel")
        except PnmFormatError:
            raise PnmFormatError(f"{reader.name}: raster truncated ({i} of {count} values)") from None
        if not 0 <= v <= maxval:
            raise PnmFormatError(f"{reader.name}: pixel value {v} exceeds maxval {maxval}")
        values[i] = v
    return values


def _read_packed_bits(reader: _PnmReader, width: int, height: int) -> np.ndarray:
    row_bytes = (width + 7) // 8
    need = row_bytes * height
    raw = reader.remaining()
    if len(raw) < need:
        raise PnmFormatError(f"{reader.name}: raster truncated ({len(raw)} of {need} bytes)")
    rows = np.frombuffer(raw, dtype=np.uint8, count=need).reshape(height, row_bytes)
    return np.unpackbits(rows, axis=1)[:, :width].astype(bool).ravel()


def _read_raw_values(reader: _PnmReader, count: int) -> np.ndarray:
    raw = reader.remaining()
    if len(raw) < count:
        raise PnmFormatError(f"{reader.name}: raster truncated ({len(raw)} of {count} bytes)")
    return np.frombuffer(raw, dtype=np.uint8, count=count).astype(np.int32)


def load_image(path, threshold: int = 127, invert: bool = False) -> BinaryShape:
    """Read a PBM/PGM file into a BinaryShape.

    PGM pixels brighter than ``threshold`` are foreground; PBM black bits
    are foreground. ``invert`` flips either rule for datasets with the
    opposite polarity. The file stem becomes the shape id and everything
    before its last dash the category.
    """
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold must be in [0, 255], got {threshold}")
    path = Path(path)
    data = path.read_bytes()
    magic = bytes(data[:2])
    if magic not in _MAGICS:
        raise PnmFormatError(
            f"{path.name}: unsupported netpbm magic {magic!r} (need one of P1/P2/P4/P5)"
        )
    reader = _PnmReader(data, path.name)
    reader.pos = 2
    width = reader.int_token("width")
    height = reader.int_token("height")
    if width < 1 or height < 1:
        raise PnmFormatError(f"{path.name}: bad dimensions {width}x{height}")
    # each plain-format pixel takes at least one byte; check before allocating
    if magic in (b"P1", b"P2") and width * height > len(data) - reader.pos:
        raise PnmFormatError(
            f"{path.name}: header declares {width}x{height} pixels but only "
            f"{len(data) - reader.pos} bytes follow"
        )

    if magic == b"P1":
        foreground = _read_plain_bits(reader, width * height)
    elif magic == b"P2":
        maxval = _read_maxval(reader)
        foreground = _read_plain_values(reader, width * height, maxval) > threshold
    elif magic == b"P4":
        reader.begin_raster()
        foreground = _read_packed_bits(reader, width, height)
    else:  # P5
        _read_maxval(reader)
        reader.begin_raster()
        foreground = _read_raw_values(reader, width * height) > threshold
    if invert:
        foreground = ~foreground

    stem = path.stem
    return BinaryShape(width, height, foreground.reshape(height, width),
                       id=stem, category=category_of(stem))


def save_image(shape: BinaryShape, path, format: str = "P5") -> None:
    """Write the mask as PGM P5 (foreground=255) or PBM P4 (foreground=black).

    Both encodings reload to the identical mask under the default
    threshold/invert settings.
    """
    path = Path(path)
    if format == "P5":
        header = f"P5\n{shape.width} {shape.height}\n255\n".encode("ascii")
        body = np.where(shape.mask, 255, 0).astype(np.uint8).tobytes()
    elif format == "P4":
        header = f"P4\n{shape.width} {shape.height}\n".encode("ascii")
        body = np.packbits(shape.mask, axis=1).tobytes()
    else:
        raise ValueError(f"unsupported output format {format!r} (use P5 or P4)")
    path.write_bytes(header + body)


def load_directory(directory, threshold: int = 127, invert: bool = False) -> list[BinaryShape]:
    """Load every .pbm/.pgm file in ``directory``, sorted by filename."""
    directory = Path(directory)
    paths = sorted(
        p for p in directory.iterdir()
        if p.is_file() and p.suffix.lower() in (".pbm", ".pgm")
    )
    return [load_image(p, threshold=threshold, invert=invert) for p in paths]


def _foreground(shape: BinaryShape) -> tuple[np.ndarray, np.ndarray]:
    ys, xs = np.nonzero(shape.mask)
    if xs.size == 0:
        raise EmptyShapeError(f"shape {shape.id!r} has no foreground pixels")
    return xs, ys


def centroid(shape: BinaryShape) -> Centroid:
    """Arithmetic mean of the foreground pixel coordinates."""
    xs, ys = _foreground(shape)
    return Centroid(float(xs.mean()), float(ys.mean()))


def max_radius(shape: BinaryShape, c: Centroid) -> float:
    """Largest Euclidean distance from the centroid to any foreground pixel."""
    xs, ys = _foreground(shape)
    dx = xs - c.cx
    dy = ys - c.cy
    return float(np.sqrt((dx * dx + dy * dy).max()))


def contains_points(shape: BinaryShape, xs, ys) -> np.ndarray:
    """Mask value at the pixel nearest to each (x, y); False outside the frame.

    Coordinates round to the nearest integer with halves away from zero.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ix = np.where(xs >= 0, np.floor(xs + 0.5), np.ceil(xs - 0.5)).astype(np.int64)
    iy = np.where(ys >= 0, np.floor(ys + 0.5), np.ceil(ys - 0.5)).astype(np.int64)
    ok = (ix >= 0) & (iy >= 0) & (ix < shape.width) & (iy < shape.height)
    out = np.zeros(xs.shape, dtype=bool)
    out[ok] = shape.mask[iy[ok], ix[ok]]
    return out


def occlude(shape: BinaryShape, fraction: float, seed: int = 0) -> BinaryShape:
    """Erase roughly ``fraction`` of the foreground with a half-plane cut.

    A cut direction is drawn deterministically from ``seed``. Foreground
    pixels are ranked by their projection onto that direction and the cut
    line is placed so the erased far side holds as close as possible to
    ceil(fraction * N) pixels; ties in projection stay on one side, so the
    result is always an exact half-plane erase.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"occlusion fraction must be in [0, 1), got {fraction}")
    xs, ys = _foreground(shape)
    n = xs.size
    target = math.ceil(fraction * n)

    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    proj = xs * math.cos(angle) + ys * math.sin(angle)
    order = np.argsort(-proj, kind="stable")
    ranked = proj[order]
    # erase counts achievable by a clean cut: strict drops in ranked projection
    cuts = np.nonzero(ranked[:-1] > ranked[1:])[0] + 1
    candidates = np.concatenate(([0], cuts, [n]))
    m = int(candidates[np.argmin(np.abs(candidates - target))])

    mask = np.array(shape.mask)
    erase = order[:m]
    mask[ys[erase], xs[erase]] = False
    return BinaryShape(shape.width, shape.height, mask,
                       id=shape.id + "-occ", category=shape.category)
