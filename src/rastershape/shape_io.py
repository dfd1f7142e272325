"""Binary shape images: netpbm ingestion, geometry, and occlusion.

Shapes are single-object binary masks (MPEG-7 CE-Shape-1 style). PBM
(P1/P4) and PGM (P2/P5) files are supported; other formats must be
converted first. All operations here are pure and masks are frozen after
construction.

Geometry is computed once per shape and kept on it: ``centroid`` from the
row and column sums, ``max_radius`` from each row's leftmost and rightmost
foreground pixel.

``load_image`` decodes all four formats: one regex reads the header
tokens, the size is checked against ``MAX_PIXELS`` before anything is
allocated, and each raster is decoded as a whole (P1 as one byte array,
P2 by streaming one ``int()`` per token into an array, P4/P5 from one
``np.frombuffer``). A PGM value is compared with the threshold scaled to
the file's maxval.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyShapeError, PnmFormatError

_WHITESPACE = b" \t\n\r\x0b\x0c"
# the header fields that follow each supported magic number
_HEADER_FIELDS = {b"P1": ("width", "height"), b"P2": ("width", "height", "maxval"),
                  b"P4": ("width", "height"), b"P5": ("width", "height", "maxval")}
# one header token after any run of whitespace and '#' comments; the token
# group is empty only at the end of the file
_HEADER_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*)*([^ \t\n\r\x0b\x0c#]*)")
_COMMENT = re.compile(rb"#[^\r\n]*")
_TOKEN = re.compile(rb"\S+")
# largest width x height accepted (8192 x 8192), checked before any raster is allocated
MAX_PIXELS = 1 << 26


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
    # geometry, filled on first use by centroid() and max_radius()
    _centroid: Centroid | None = field(default=None, init=False, repr=False)
    _r_max: float | None = field(default=None, init=False, repr=False)

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


def category_of(stem: str) -> str:
    """MPEG-7 naming convention: "apple-3" belongs to category "apple"."""
    return stem.rsplit("-", 1)[0]


def load_image(path, threshold: int = 127, invert: bool = False) -> BinaryShape:
    """Read a PBM/PGM file into a BinaryShape.

    PGM pixels brighter than ``threshold`` (on a 0..255 scale, scaled to
    the file's maxval) are foreground; PBM black bits are foreground.
    ``invert`` flips either rule for datasets with the
    opposite polarity. The file stem becomes the shape id and everything
    before its last dash the category.
    """
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold must be in [0, 255], got {threshold}")
    path = Path(path)
    name = path.name
    data = path.read_bytes()
    magic = data[:2]
    if magic not in _HEADER_FIELDS:
        raise PnmFormatError(f"{name}: unsupported netpbm magic {magic!r} "
                             "(need one of P1/P2/P4/P5)")
    header, pos = [], 2
    for what in _HEADER_FIELDS[magic]:
        token = _HEADER_TOKEN.match(data, pos)
        pos = token.end()
        try:
            header.append(int(token[1]))
        except ValueError:
            raise PnmFormatError(f"{name}: bad {what} token {token[1]!r}" if token[1]
                                 else f"{name}: truncated header") from None
    width, height, maxval = (*header, 1)[:3]  # PBM headers carry no maxval
    count = width * height
    if width < 1 or height < 1:
        raise PnmFormatError(f"{name}: bad dimensions {width}x{height}")
    if count > MAX_PIXELS:
        raise PnmFormatError(f"{name}: header declares {width}x{height} pixels, "
                             f"above the cap of {MAX_PIXELS}")
    if not 1 <= maxval <= 255:
        raise PnmFormatError(f"{name}: maxval {maxval} out of supported range 1..255")

    if magic in (b"P1", b"P2"):
        # each plain-format pixel takes at least one byte; check before allocating
        if count > len(data) - pos:
            raise PnmFormatError(f"{name}: header declares {width}x{height} pixels "
                                 f"but only {len(data) - pos} bytes follow")
        plain = _COMMENT.sub(b"", data[pos:])
    if magic == b"P1":
        # bits may appear with or without separating whitespace
        bits = plain.translate(None, _WHITESPACE)[:count]
        stray = bits.translate(None, b"01")
        if stray:
            raise PnmFormatError(f"{name}: unexpected byte {stray[:1]!r} in P1 raster")
        if len(bits) < count:
            raise PnmFormatError(f"{name}: raster truncated ({len(bits)} of {count} bits)")
        foreground = np.frombuffer(bits, dtype=np.uint8) == ord("1")
    elif magic == b"P2":
        # one int() per token, streamed into an array: no Python object kept per pixel
        tokens = itertools.islice(_TOKEN.finditer(plain), count)
        try:
            values = np.fromiter(map(int, map(operator.itemgetter(0), tokens)), np.int64)
        except (ValueError, OverflowError) as exc:
            raise PnmFormatError(f"{name}: bad pixel value ({exc})") from None
        if len(values) < count:
            raise PnmFormatError(f"{name}: raster truncated ({len(values)} of {count} values)")
    else:
        # binary raster data starts after exactly one whitespace byte
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PnmFormatError(f"{name}: missing raster separator")
        pos += 1
        row_bytes = (width + 7) // 8 if magic == b"P4" else width
        need = row_bytes * height
        if len(data) - pos < need:
            raise PnmFormatError(f"{name}: raster truncated ({len(data) - pos} of {need} bytes)")
        rows = np.frombuffer(data, np.uint8, count=need, offset=pos).reshape(height, row_bytes)
        if magic == b"P4":
            foreground = np.unpackbits(rows, axis=1, count=width).view(bool)
        values = rows
    if magic in (b"P2", b"P5"):
        if values.min() < 0 or values.max() > maxval:
            v = values[(values < 0) | (values > maxval)][0]
            raise PnmFormatError(f"{name}: pixel value {v} exceeds maxval {maxval}")
        # value * 255 > threshold * maxval compares with the threshold scaled to
        # maxval; for integer values that is value > (threshold * maxval) // 255
        foreground = values > threshold * maxval // 255
    if invert:
        foreground = ~foreground

    return BinaryShape(width, height, foreground.reshape(height, width),
                       id=path.stem, category=category_of(path.stem))


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


def _empty(shape: BinaryShape) -> EmptyShapeError:
    return EmptyShapeError(f"shape {shape.id!r} has no foreground pixels")


def centroid(shape: BinaryShape) -> Centroid:
    """Arithmetic mean of the foreground pixel coordinates.

    Computed once per shape from the row and column sums: each coordinate
    is an exact integer sum divided once by the pixel count.
    """
    if shape._centroid is None:
        # a row or column holds at most MAX_PIXELS < 2**31 pixels
        rows = shape.mask.sum(axis=1, dtype=np.int32)
        cols = shape.mask.sum(axis=0, dtype=np.int32)
        n = int(rows.sum())
        if n == 0:
            raise _empty(shape)
        sx = int(cols @ np.arange(shape.width, dtype=np.int64))
        sy = int(rows @ np.arange(shape.height, dtype=np.int64))
        object.__setattr__(shape, "_centroid", Centroid(sx / n, sy / n))
    return shape._centroid


def max_radius(shape: BinaryShape, c: Centroid) -> float:
    """Largest Euclidean distance from ``c`` to any foreground pixel.

    Only each row's leftmost and rightmost foreground pixel is measured:
    along a row the distance is convex and rounding is monotone, so one of
    the two is the row's farthest pixel, bit for bit. The result for the
    shape's own centroid is kept on the shape; any other ``c`` is measured
    afresh.
    """
    own = c == shape._centroid
    if own and shape._r_max is not None:
        return shape._r_max
    mask = shape.mask
    hit = mask.any(axis=1)
    if not hit.any():
        raise _empty(shape)
    rows = mask[hit]
    dy = np.arange(shape.height)[hit] - c.cy
    dy2 = dy * dy
    left = rows.argmax(axis=1) - c.cx
    right = (shape.width - 1) - rows[:, ::-1].argmax(axis=1) - c.cx
    r = float(np.sqrt(np.maximum(left * left + dy2, right * right + dy2).max()))
    if own:
        object.__setattr__(shape, "_r_max", r)
    return r


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
    result is always an exact half-plane erase. At least one pixel is kept.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"occlusion fraction must be in [0, 1), got {fraction}")
    ys, xs = np.nonzero(shape.mask)
    n = xs.size
    if n == 0:
        raise _empty(shape)
    target = math.ceil(fraction * n)

    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    proj = xs * math.cos(angle) + ys * math.sin(angle)
    order = np.argsort(-proj, kind="stable")
    ranked = proj[order]
    # erase counts achievable by a clean cut that keeps a pixel: strict drops
    # in ranked projection
    candidates = np.concatenate(([0], np.nonzero(ranked[:-1] > ranked[1:])[0] + 1))
    m = int(candidates[np.argmin(np.abs(candidates - target))])

    mask = np.array(shape.mask)
    erase = order[:m]
    mask[ys[erase], xs[erase]] = False
    return BinaryShape(shape.width, shape.height, mask,
                       id=shape.id + "-occ", category=shape.category)
