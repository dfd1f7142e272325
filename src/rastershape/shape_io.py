"""Binary shape images: netpbm ingestion, geometry, and occlusion.

Shapes are single-object binary masks (MPEG-7 CE-Shape-1 style). PBM
(P1/P4) and PGM (P2/P5) files are supported; other formats must be
converted first. A ``BinaryShape`` is built from its mask alone, and
``width`` and ``height`` are the mask's shape. All operations here are
pure and masks are frozen after construction.

Geometry is computed once per shape, in one pass over the foreground's
bounding box, and kept on it: ``centroid`` from the row and column sums,
``max_radius`` from each row's leftmost and rightmost foreground pixel.
Pixels are looked up and erased by flat (row-major) index into the mask:
``contains_points`` reads all its points with one ``take`` and
``occlude`` lists the foreground with one ``flatnonzero``.

``load_image`` decodes all four formats: one regex reads the header
tokens, the size is checked against ``MAX_PIXELS`` before anything is
allocated, and each raster is decoded as a whole (P1 as one byte array,
P2 by streaming one ``int()`` per token into an array, P4/P5 from one
``np.frombuffer``). It reads no more than the format needs, whatever the
input: the header, which must end within ``MAX_HEADER_BYTES``, then for
P4/P5 only the raster bytes the header declares (trailing bytes stay
unread), and for P1/P2 at most ``MAX_PLAIN_BYTES`` in all, so an endless
input such as ``/dev/zero`` is refused, not read until memory runs out.
A PGM value is compared with the threshold scaled to the file's maxval.
``iter_directory`` decodes a directory one file at a time, so a caller
that drops each shape holds one image, not all of them.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DatasetError, EmptyShapeError, PnmFormatError

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
# the bytes within which a netpbm header, its comments included, must end
MAX_HEADER_BYTES = 1 << 20
# largest P1/P2 file read: four bytes per pixel at MAX_PIXELS, enough for a
# P2 value of up to three digits and one separator, and MAX_HEADER_BYTES
# for the header and comments: 257 MiB
MAX_PLAIN_BYTES = 4 * MAX_PIXELS + MAX_HEADER_BYTES


@dataclass(frozen=True)
class Centroid:
    """Mean (x, y) of the foreground pixels; anchors every raster."""

    cx: float
    cy: float


@dataclass(frozen=True, eq=False)
class BinaryShape:
    """A binary pixel mask with retrieval labels.

    ``mask[y, x]`` is True on foreground pixels; it must be 2-D and at
    least 1x1, and ``width`` and ``height`` are its shape. ``category`` is
    the class label used by retrieval scoring; for files named like
    ``apple-3.pgm`` it is the stem up to the last dash.
    """

    mask: np.ndarray
    id: str = ""
    category: str = ""
    # (centroid, r_max), filled on first use by centroid() or max_radius()
    _geometry: tuple[Centroid, float] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        mask = np.array(self.mask, dtype=bool, order="C")
        if mask.ndim != 2 or mask.size == 0:
            raise ValueError(f"mask must be 2-D and at least 1x1, got shape {mask.shape}")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def height(self) -> int:
        return self.mask.shape[0]


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
    with open(path, "rb") as f:
        magic, (width, height, maxval), data, pos = _read_netpbm(f, name)
    count = width * height

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

    return BinaryShape(foreground.reshape(height, width), id=path.stem,
                       category=category_of(path.stem))


def _left(f) -> int:
    """The bytes fstat says the regular file ``f`` holds past its position;
    0 for a pipe, a device or a file object with no descriptor."""
    try:
        return max(os.fstat(f.fileno()).st_size - f.tell(), 0)
    except OSError:  # no descriptor (io.UnsupportedOperation), or not seekable
        return 0


def read_bounded(f, limit: int) -> bytes:
    """Up to ``limit`` bytes from the binary file ``f``: its reads go on until
    ``limit`` bytes or an empty read, which marks the end of the input.

    No read asks for much more than the input holds: the first asks for what
    a regular file still holds, plus one byte, and then an input that
    reports no size, or that grew, is read in reads that double in size.
    """
    want = min(_left(f) + 1, limit)
    chunks = []
    size = 0
    while want:
        chunk = f.read(want)
        if not chunk:
            break
        chunks.append(chunk)
        size += len(chunk)
        want = min(max(size, want), limit - size)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def _read_netpbm(f, name: str) -> tuple[bytes, tuple[int, int, int], bytes, int]:
    """(magic, (width, height, maxval), data, where the raster starts in
    data) of the netpbm file ``f``; PnmFormatError naming ``name`` on a bad
    header or an input beyond the format's caps.

    ``data`` holds every byte read. The first read takes a regular file
    whole, up to MAX_HEADER_BYTES, and any other input's first 64 bytes;
    reads that double in size follow until the header ends, which it must
    within MAX_HEADER_BYTES, or a read comes back empty at the end of the
    input. The size is then checked, and only then is the raster read: for
    P4/P5 only the bytes the header declares, for P1/P2 the rest of the
    file, refused past MAX_PLAIN_BYTES in all.
    """
    left = _left(f)
    # read1: one system call straight into the bytes returned
    data = f.read1(min(left + 1, MAX_HEADER_BYTES)) if left else f.read(64)
    magic = data[:2]
    if magic not in _HEADER_FIELDS:
        raise PnmFormatError(f"{name}: unsupported netpbm magic {magic!r} "
                             "(need one of P1/P2/P4/P5)")
    while True:
        tokens, pos = [], 2
        for _ in _HEADER_FIELDS[magic]:
            token = _HEADER_TOKEN.match(data, pos)
            pos = token.end()
            tokens.append(token[1])
        # a header running to the end of data may go on past it
        if pos < len(data):
            break
        if len(data) >= MAX_HEADER_BYTES:
            raise PnmFormatError(f"{name}: header does not end within its first "
                                 f"{MAX_HEADER_BYTES} bytes")
        more = f.read(min(len(data), MAX_HEADER_BYTES - len(data)))
        if not more:  # the input ends in the header
            break
        data += more
    header = []
    for what, token in zip(_HEADER_FIELDS[magic], tokens):
        try:
            header.append(int(token))
        except ValueError:
            raise PnmFormatError(f"{name}: bad {what} token {token!r}" if token
                                 else f"{name}: truncated header") from None
    width, height, maxval = (*header, 1)[:3]  # PBM headers carry no maxval
    if width < 1 or height < 1:
        raise PnmFormatError(f"{name}: bad dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise PnmFormatError(f"{name}: header declares {width}x{height} pixels, "
                             f"above the cap of {MAX_PIXELS}")
    if not 1 <= maxval <= 255:
        raise PnmFormatError(f"{name}: maxval {maxval} out of supported range 1..255")
    if magic in (b"P1", b"P2"):
        data += read_bounded(f, MAX_PLAIN_BYTES + 1 - len(data))
        if len(data) > MAX_PLAIN_BYTES:
            raise PnmFormatError(f"{name}: longer than {MAX_PLAIN_BYTES} bytes, "
                                 f"the cap of a plain (P1/P2) image")
    else:
        # one separator byte, then the raster
        need = pos + 1 + ((width + 7) // 8 if magic == b"P4" else width) * height
        if need > len(data):
            data += read_bounded(f, need - len(data))
    return magic, (width, height, maxval), data, pos


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


def iter_directory(directory, threshold: int = 127,
                   invert: bool = False) -> Iterator[BinaryShape]:
    """Decode each .pbm/.pgm file in ``directory`` when it is reached, sorted by filename.

    The directory is listed at the first step, before anything is decoded;
    a listing with no .pbm/.pgm file raises DatasetError naming ``directory``,
    and two files with one stem (``a-1.pgm`` and ``a-1.pbm``) would give two
    shapes one id, so they raise DatasetError naming both.
    """
    paths = sorted(p for p in Path(directory).iterdir()
                   if p.is_file() and p.suffix.lower() in (".pbm", ".pgm"))
    if not paths:
        raise DatasetError(f"no input images (.pbm/.pgm) in '{directory}'")
    seen: dict[str, Path] = {}
    for p in paths:
        if p.stem in seen:
            raise DatasetError(f"{seen[p.stem].name} and {p.name} would share the id {p.stem!r}")
        seen[p.stem] = p
    for p in paths:
        yield load_image(p, threshold=threshold, invert=invert)


def load_directory(directory, threshold: int = 127, invert: bool = False) -> list[BinaryShape]:
    """Every shape ``iter_directory`` yields, as one list."""
    return list(iter_directory(directory, threshold=threshold, invert=invert))


def _empty(shape: BinaryShape) -> EmptyShapeError:
    return EmptyShapeError(f"shape {shape.id!r} has no foreground pixels")


def _geometry(shape: BinaryShape) -> tuple[Centroid, float]:
    """(centroid, r_max) from one pass over the foreground's bounding box, kept on the shape.

    The centroid divides exact integer sums once by the pixel count. r_max
    measures only each row's leftmost and rightmost foreground pixel: along
    a row the distance is convex and rounding is monotone, so one of the
    two is the row's farthest pixel, bit for bit.
    """
    if shape._geometry is None:
        ys = np.flatnonzero(shape.mask.any(axis=1))
        if ys.size == 0:
            raise _empty(shape)
        y0, y1 = ys[0], ys[-1] + 1
        band = shape.mask[y0:y1]
        xs = np.flatnonzero(band.any(axis=0))
        x0, x1 = xs[0], xs[-1] + 1
        box = band[:, x0:x1]
        # a row or column holds at most MAX_PIXELS < 2**31 pixels
        rows = box.sum(axis=1, dtype=np.int32)
        cols = box.sum(axis=0, dtype=np.int32)
        n = int(rows.sum())
        c = Centroid(int(cols @ np.arange(x0, x1, dtype=np.int64)) / n,
                     int(rows @ np.arange(y0, y1, dtype=np.int64)) / n)
        hit = rows > 0
        lines = box[hit]
        dy = np.arange(y0, y1)[hit] - c.cy
        dy2 = dy * dy
        left = lines.argmax(axis=1) + x0 - c.cx
        right = (x1 - 1) - lines[:, ::-1].argmax(axis=1) - c.cx
        r = float(np.sqrt(np.maximum(left * left + dy2, right * right + dy2).max()))
        object.__setattr__(shape, "_geometry", (c, r))
    return shape._geometry


def centroid(shape: BinaryShape) -> Centroid:
    """Arithmetic mean of the foreground pixel coordinates."""
    return _geometry(shape)[0]


def max_radius(shape: BinaryShape) -> float:
    """Largest Euclidean distance from the centroid to any foreground pixel."""
    return _geometry(shape)[1]


def contains_points(shape: BinaryShape, xs, ys) -> np.ndarray:
    """Mask value at the pixel nearest to each (x, y); False outside the frame.

    Coordinates round to the nearest integer with halves away from zero:
    adding ``copysign(0.5, x)`` moves x half a pixel away from zero and
    ``trunc`` then drops the fraction toward zero, so halves go outward
    (-0.5 to -1) and -0.0 goes to 0. The rounded coordinates are clamped
    into the frame before they are cast to a flat index, so the cast never
    meets NaN, +-inf or a value beyond int64. Clamping moves only points
    outside the frame, and a point counts as inside only if clamping left
    both its coordinates as they were, which NaN never is.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ix = np.trunc(xs + np.copysign(0.5, xs))
    iy = np.trunc(ys + np.copysign(0.5, ys))
    height, width = shape.mask.shape
    # fmax and fmin take the bound where the other operand is NaN
    cx = np.fmin(np.fmax(ix, 0.0), width - 1)
    cy = np.fmin(np.fmax(iy, 0.0), height - 1)
    inside = (cx == ix) & (cy == iy)
    # exact in float64: every index is below MAX_PIXELS < 2**53
    flat = (cy * width + cx).astype(np.intp)
    return shape.mask.ravel().take(flat) & inside


def occlude(shape: BinaryShape, fraction: float, seed: int = 0) -> BinaryShape:
    """Erase roughly ``fraction`` of the foreground with a half-plane cut.

    A cut direction is drawn deterministically from ``seed``. A clean cut
    erases every foreground pixel whose projection onto it lies above some
    level, so pixels that tie in projection stay on one side. Of the clean
    cuts that keep a pixel, the one erasing the count nearest ceil(fraction
    * N) wins, the smaller on a tie. With t the target-th largest
    projection (one rank select), the two candidates erase every pixel
    above t or every pixel at or above t. Pixels are found and erased by
    flat index; ``divmod`` by the width gives their (y, x) for the
    projection.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"occlusion fraction must be in [0, 1), got {fraction}")
    # foreground pixels by flat index, in the row-major order of np.nonzero
    flat = np.flatnonzero(shape.mask)
    n = flat.size
    if n == 0:
        raise _empty(shape)
    target = math.ceil(fraction * n)

    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    ys, xs = np.divmod(flat, shape.width)
    proj = xs * math.cos(angle) + ys * math.sin(angle)
    mask = shape.mask.copy()  # C order, so ravel() below is a view
    if target:
        t = np.partition(proj, n - target)[n - target]
        above, at_or_above = proj > t, proj >= t
        low, high = np.count_nonzero(above), np.count_nonzero(at_or_above)
        erase = at_or_above if high < n and high - target < target - low else above
        mask.ravel()[flat[erase]] = False
    return BinaryShape(mask, id=shape.id + "-occ", category=shape.category)
