"""Binary shape images: netpbm ingestion, geometry, and occlusion.

Shapes are single-object binary masks (MPEG-7 CE-Shape-1 style). PBM
(P1/P4) and PGM (P2/P5) files are supported; other formats must be
converted first. A ``BinaryShape`` is built from its mask alone and holds
it as packed rows, one bit per pixel: ``bits`` has one row of
ceil(width / 8) bytes per pixel row, the high bit first, as in a P4 file,
with the padding bits past ``width`` clear. ``mask`` unpacks a fresh
read-only bool array; nothing here reads it. All operations here are pure
and shapes are frozen after construction.

Geometry is computed once per shape, in one pass over the bytes of the
foreground's bounding box, and kept on it: ``centroid`` from exact integer
sums (each byte's pixel count and the sum of its bit places come from
256-entry tables), ``max_radius`` from each row's leftmost and rightmost
foreground pixel (the leading and trailing zeros of its first and last
nonzero byte). Pixels are looked up by byte and bit: ``contains_points``
reads each point's byte with one ``take`` and tests its bit, and
``occlude`` unpacks only the foreground's bounding box, in whole bytes,
and projects it in tiles of bounded size. Its cut angle is the one
``np.random.default_rng(seed)`` would draw, computed in Python integers by
``_angle``, so that occlusion itself never loads ``numpy.random`` and its
memory (numpy 1.x loads that package with ``import numpy``, so the saving
holds on numpy >= 2).

``load_image`` decodes all four formats: one regex reads the header
tokens, the size is checked against ``MAX_PIXELS`` before anything is
allocated, and each raster is decoded as a whole (P1 as one byte array,
P2 by streaming one ``int()`` per token into an array, P4/P5 from one
``np.frombuffer``). A P4 raster is already packed rows and is copied as it
is; the other three pack their foreground once, straight into the shape.
The file is opened unbuffered, so each read is one system call into the
bytes it returns, and a regular P4/P5 file is read whole by one. It reads
no more than the format needs, whatever the input: the header, which must
end within ``MAX_HEADER_BYTES``, then for P4/P5 only the raster bytes the
header declares (trailing bytes stay unread), and for P1/P2 at most
``MAX_PLAIN_BYTES`` in all, so an endless input such as ``/dev/zero`` is
refused, not read until memory runs out. A PGM value is compared with the
threshold scaled to the file's maxval. A P2 value above maxval or below 0
is refused; a P5 byte can be neither at maxval 255, so only a P5 file of a
lower maxval is checked. ``iter_directory`` lists a directory in one pass
that reads each entry's type from the listing, and decodes it one file at
a time, so a caller that drops each shape holds one image, not all of them.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path, PurePath

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
# reads past the first one of an input with no size ask for at most this many bytes
_READ_STEP = 1 << 18

# per byte value: its leading and trailing zeros (unused at 0), and the
# sum of its set bits' places (0 for the high bit) times 2**32 plus their
# count; a row or column of packed rows holds at most MAX_PIXELS = 2**26
# bytes, so over one its counts sum below 2**32 and its places below 2**31
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_LEADING = _BYTE_BITS.argmax(axis=1)
_TRAILING = _BYTE_BITS[:, ::-1].argmax(axis=1)
_PLACES_AND_COUNT = (_BYTE_BITS @ np.arange(8)) << 32 | _BYTE_BITS.sum(axis=1, dtype=np.int64)
_COUNT = 0xFFFFFFFF
# the bit of pixel column x within its byte, by x % 8
_BIT = np.array([0x80 >> k for k in range(8)], dtype=np.uint8)


@dataclass(frozen=True)
class Centroid:
    """Mean (x, y) of the foreground pixels; anchors every raster."""

    cx: float
    cy: float


@dataclass(frozen=True, eq=False, init=False)
class BinaryShape:
    """A binary pixel mask with retrieval labels, held one bit per pixel.

    ``BinaryShape(mask, id, category)`` takes any 2-D array-like of at
    least 1x1, True (nonzero) on foreground pixels, and packs it: ``bits``
    is the read-only uint8 array ``np.packbits(mask, axis=1)``, padding
    bits clear, and ``width`` the mask's width. ``mask`` and ``height``
    are computed from them. ``category`` is the class label used by
    retrieval scoring; for files named like ``apple-3.pgm`` it is the stem
    up to the last dash.
    """

    bits: np.ndarray
    width: int
    id: str = ""
    category: str = ""
    # (centroid, r_max), filled on first use by centroid() or max_radius()
    _geometry: tuple[Centroid, float] | None = field(default=None, repr=False)

    def __init__(self, mask, id: str = "", category: str = "") -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.size == 0:
            raise ValueError(f"mask must be 2-D and at least 1x1, got shape {mask.shape}")
        _fill(self, np.ascontiguousarray(np.packbits(mask, axis=1)), mask.shape[1], id, category)

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def mask(self) -> np.ndarray:
        """A fresh read-only bool array, ``mask[y, x]`` True on foreground pixels."""
        mask = np.unpackbits(self.bits, axis=1, count=self.width).view(bool)
        mask.flags.writeable = False
        return mask


def _fill(shape: BinaryShape, bits: np.ndarray, width: int, id: str, category: str
          ) -> BinaryShape:
    """``shape`` holding ``bits``, C-ordered packed rows with clear padding
    bits, taken as they are and made read-only; ``object.__new__(BinaryShape)``
    makes a shape from packed rows without the constructor's packing."""
    bits.flags.writeable = False
    vars(shape).update(bits=bits, width=width, id=id, category=category, _geometry=None)
    return shape


def category_of(stem: str) -> str:
    """MPEG-7 naming convention: "apple-3" belongs to category "apple"."""
    return stem.rsplit("-", 1)[0]


def load_image(path, threshold: int = 127, invert: bool = False) -> BinaryShape:
    """Read a PBM/PGM file into a BinaryShape.

    PGM pixels brighter than ``threshold`` (on a 0..255 scale, scaled to
    the file's maxval) are foreground; PBM black bits are foreground.
    ``invert`` flips either rule for datasets with the
    opposite polarity. The file stem becomes the shape id and everything
    before its last dash the category. The file is opened unbuffered, so
    each read is one system call straight into the bytes it returns, and
    a regular P4/P5 file is read whole by the first. P2 values are checked
    against 0 and maxval, P5 bytes only against a maxval below 255.
    """
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold must be in [0, 255], got {threshold}")
    path = Path(path)
    name, stem = path.name, path.stem
    with open(path, "rb", buffering=0) as f:
        magic, (width, height, maxval), data, pos = _read_netpbm(f, name)
    count = width * height

    if magic in (b"P1", b"P2"):
        # each plain-format pixel takes at least one byte; check before allocating
        if count > len(data) - pos:
            raise PnmFormatError(f"{name}: header declares {width}x{height} pixels "
                                 f"but only {len(data) - pos} bytes follow")
        # sub reads the raster in place and copies only what it keeps, and
        # the file's bytes go as soon as it returns
        plain = _COMMENT.sub(b"", memoryview(data)[pos:])
        del data
    if magic == b"P1":
        # bits may appear with or without separating whitespace
        bits = plain.translate(None, _WHITESPACE)[:count]
        stray = bits.translate(None, b"01")
        if stray:
            raise PnmFormatError(f"{name}: unexpected byte {stray[:1]!r} in P1 raster")
        if len(bits) < count:
            raise PnmFormatError(f"{name}: raster truncated ({len(bits)} of {count} bits)")
        foreground = np.frombuffer(bits, dtype=np.uint8) == ord("0" if invert else "1")
    elif magic == b"P2":
        values = _plain_values(plain, count, name)
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
            # the raster is the packed rows, copied; a file may set its padding bits
            bits = np.invert(rows) if invert else rows.copy()
            if width % 8:
                bits[:, -1] &= 0xFF00 >> width % 8 & 0xFF
            return _fill(object.__new__(BinaryShape), bits, width, stem, category_of(stem))
        values = rows
    if magic in (b"P2", b"P5"):
        # a P2 value is the int() of any token, but a P5 byte is never below
        # 0, nor above a maxval of 255
        is_p2 = magic == b"P2"
        if (is_p2 and values.min() < 0
                or (is_p2 or maxval < 255) and values.max() > maxval):
            v = values[(values < 0) | (values > maxval)][0]
            raise PnmFormatError(f"{name}: pixel value {v} exceeds maxval {maxval}")
        # value * 255 > threshold * maxval compares with the threshold scaled to
        # maxval; for integer values that is value > (threshold * maxval) // 255
        cut = threshold * maxval // 255
        foreground = values <= cut if invert else values > cut
    return _fill(object.__new__(BinaryShape),
                 np.packbits(foreground.reshape(height, width), axis=1), width, stem,
                 category_of(stem))


def _plain_values(plain: bytes, count: int, name: str) -> np.ndarray:
    """The first ``count`` whitespace-separated integers of ``plain``.

    One int() per token is streamed into an array of ``count`` values,
    allocated once: no Python object is kept per pixel. That fails on a bad
    token or a short raster alike, so only then are the tokens read again,
    as far as they go, to tell the two apart; a bad token comes first.
    """
    def ints():
        tokens = itertools.islice(_TOKEN.finditer(plain), count)
        return map(int, map(operator.itemgetter(0), tokens))

    try:
        try:
            return np.fromiter(ints(), np.int64, count=count)
        except ValueError:
            found = len(np.fromiter(ints(), np.int64))
    except (ValueError, OverflowError) as exc:
        raise PnmFormatError(f"{name}: bad pixel value ({exc})") from None
    raise PnmFormatError(f"{name}: raster truncated ({found} of {count} values)")


def _left(f) -> int:
    """The bytes fstat says the regular file ``f`` holds past its position;
    0 for a pipe, a device or a file object with no descriptor."""
    try:
        return max(os.fstat(f.fileno()).st_size - f.tell(), 0)
    except OSError:  # no descriptor (io.UnsupportedOperation), or not seekable
        return 0


def read_bounded(f, limit: int, head: bytes = b"") -> bytes | bytearray:
    """``head``, then the bytes of the binary file ``f``, up to ``limit`` in
    all: its reads go on until ``limit`` bytes or an empty read, which marks
    the end of the input.

    No read asks for much more than the input holds: the first asks for what
    a regular file still holds, plus one byte, and with no ``head`` its
    bytes come back as they were read. Any other read's bytes go onto the
    end of one bytearray, which grows in place, and each asks for at most
    ``_READ_STEP`` bytes, so an input that reports no size, or that grew,
    peaks near the bytes read, not at a multiple of them.
    """
    want = min(_left(f) + 1, limit - len(head))
    data = head
    while want > 0:
        chunk = f.read(want)
        if not chunk:
            break
        if not data:
            data = chunk
        else:
            if not isinstance(data, bytearray):
                data = bytearray(data)
            data += chunk
        want = min(_READ_STEP, limit - len(data))
    return data


def _read_netpbm(f, name: str) -> tuple[bytes, tuple[int, int, int], bytes | bytearray, int]:
    """(magic, (width, height, maxval), data, where the raster starts in
    data) of the netpbm file ``f``; PnmFormatError naming ``name`` on a bad
    header or an input beyond the format's caps.

    ``data`` holds every byte read, the raster read onto the header's
    bytes by ``read_bounded``. The first read asks for a regular file
    whole, up to MAX_HEADER_BYTES, and for any other input's first 64
    bytes; from a file opened unbuffered, as load_image opens it, that is
    one system call straight into the bytes returned. A read may return
    fewer bytes than asked, as from a pipe: reads go on until the magic
    number's two bytes are in, then reads that double in size follow until
    the header ends, which it must within MAX_HEADER_BYTES, or a read comes
    back empty at the end of the input. The size is then checked, and only
    then is the raster read: for P4/P5 only the bytes the header declares,
    for P1/P2 the rest of the file, refused past MAX_PLAIN_BYTES in all.
    """
    left = _left(f)
    data = f.read(min(left + 1, MAX_HEADER_BYTES) if left else 64)
    # a pipe may return fewer bytes than asked, and the magic number takes two
    while 0 < len(data) < 2 and (more := f.read(64)):
        data += more
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
        data = read_bounded(f, MAX_PLAIN_BYTES + 1, data)
        if len(data) > MAX_PLAIN_BYTES:
            raise PnmFormatError(f"{name}: longer than {MAX_PLAIN_BYTES} bytes, "
                                 f"the cap of a plain (P1/P2) image")
    else:
        # one separator byte, then the raster
        need = pos + 1 + ((width + 7) // 8 if magic == b"P4" else width) * height
        if need > len(data):
            data = read_bounded(f, need, data)
    return magic, (width, height, maxval), data, pos


def save_image(shape: BinaryShape, path, format: str = "P5") -> None:
    """Write the mask as PGM P5 (foreground=255) or PBM P4 (foreground=black).

    Both encodings reload to the identical mask under the default
    threshold/invert settings; P4 writes the shape's bits as they are, with
    their padding bits clear.
    """
    path = Path(path)
    if format == "P5":
        header = f"P5\n{shape.width} {shape.height}\n255\n".encode("ascii")
        body = (np.unpackbits(shape.bits, axis=1, count=shape.width) * np.uint8(255)).tobytes()
    elif format == "P4":
        header = f"P4\n{shape.width} {shape.height}\n".encode("ascii")
        body = shape.bits.tobytes()
    else:
        raise ValueError(f"unsupported output format {format!r} (use P5 or P4)")
    path.write_bytes(header + body)


def iter_directory(directory, threshold: int = 127,
                   invert: bool = False) -> Iterator[BinaryShape]:
    """Decode each .pbm/.pgm file in ``directory`` when it is reached, sorted by filename.

    The directory is listed at the first step, before anything is decoded,
    in one ``os.scandir`` pass: the images are the entries whose Path
    suffix is .pbm or .pgm in any case, sorted by name, as their sorted
    Paths are, and each shape's id is its entry's Path stem. Each entry's
    type comes with the listing, so a regular file costs no ``stat``; a
    link is followed, as ``Path.is_file`` follows it. A listing with no
    .pbm/.pgm entry raises DatasetError naming ``directory``, and so does an
    entry so named that is not a regular file (a subdirectory, or a link to
    nothing), naming the entry; two files with one stem (``a-1.pgm`` and
    ``a-1.pbm``) would give two shapes one id, so they raise DatasetError
    naming both. Each image is then read by ``load_image``.
    """
    images = []
    with os.scandir(Path(directory)) as listing:
        for entry in listing:
            name = PurePath(entry.name)
            if name.suffix.lower() in (".pbm", ".pgm"):
                images.append((entry.name, name.stem, entry))
    if not images:
        raise DatasetError(f"no input images (.pbm/.pgm) in '{directory}'")
    images.sort()  # by name: no two entries share one
    seen: dict[str, str] = {}
    for name, stem, entry in images:
        try:
            regular = entry.is_file()
        except OSError:  # such as a link loop: Path.is_file says which errors mean no file
            regular = Path(entry.path).is_file()
        if not regular:
            raise DatasetError(f"{name} in '{directory}' is not a regular file")
        if stem in seen:
            raise DatasetError(f"{seen[stem]} and {name} would share the id {stem!r}")
        seen[stem] = name
    for _, _, entry in images:
        yield load_image(entry.path, threshold=threshold, invert=invert)


def load_directory(directory, threshold: int = 127, invert: bool = False) -> list[BinaryShape]:
    """Every shape ``iter_directory`` yields, as one list."""
    return list(iter_directory(directory, threshold=threshold, invert=invert))


def _empty(shape: BinaryShape) -> EmptyShapeError:
    return EmptyShapeError(f"shape {shape.id!r} has no foreground pixels")


def _integer(name: str, value) -> int:
    """``value``, a Python or numpy integer, as an int (``operator.index``);
    TypeError naming ``name`` for anything else, a float or None included."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _box(shape: BinaryShape) -> tuple[int, int, int, int, np.ndarray]:
    """``(y0, y1, b0, b1, used)``: the foreground's bounding box in whole
    bytes, rows ``y0:y1`` and byte columns ``b0:b1`` of ``shape.bits``, and
    which bytes of that box are nonzero; EmptyShapeError if there are none.

    The first and last nonzero bytes of the flat bits give the rows; the
    columns come from the nonzero bytes of those rows alone.
    """
    bits = shape.bits
    row_bytes = bits.shape[1]
    nonzero = bits.ravel() != 0
    first = int(nonzero.argmax())
    if not nonzero[first]:
        raise _empty(shape)
    y0 = first // row_bytes
    y1 = (nonzero.size - 1 - int(nonzero[::-1].argmax())) // row_bytes + 1
    used = nonzero[y0 * row_bytes:y1 * row_bytes].reshape(-1, row_bytes)
    span = np.flatnonzero(used.any(axis=0))
    b0, b1 = int(span[0]), int(span[-1]) + 1
    return y0, y1, b0, b1, used[:, b0:b1]


def _geometry(shape: BinaryShape) -> tuple[Centroid, float]:
    """(centroid, r_max) from one pass over the bytes of the foreground's
    bounding box, kept on the shape.

    The centroid divides exact integer sums once by the pixel count: a
    byte holds its popcount of pixels, whose columns sum to its first
    column times that count plus the sum of its bit places. r_max measures
    only each row's leftmost and rightmost foreground pixel, found from the
    leading zeros of the row's first nonzero byte and the trailing zeros of
    its last: along a row the distance is convex and rounding is monotone,
    so one of the two is the row's farthest pixel, bit for bit.
    """
    if shape._geometry is None:
        y0, y1, b0, b1, used = _box(shape)
        row_bytes = shape.bits.shape[1]
        band = shape.bits[y0:y1]
        both = _PLACES_AND_COUNT.take(band[:, b0:b1])
        rows = both.sum(axis=1) & _COUNT
        cols = both.sum(axis=0)
        n = int(rows.sum())
        sum_x = int((cols & _COUNT) @ np.arange(8 * b0, 8 * b1, 8)) + int((cols >> 32).sum())
        c = Centroid(sum_x / n, int(rows @ np.arange(y0, y1)) / n)
        # each row's first and last nonzero byte
        lo = used.argmax(axis=1) + b0
        hi = (b1 - 1) - used[:, ::-1].argmax(axis=1)
        at = np.arange(y1 - y0) * row_bytes
        flat = band.ravel()
        hit = rows > 0
        left = (8 * lo + _LEADING[flat[at + lo]])[hit] - c.cx
        right = (8 * hi + 7 - _TRAILING[flat[at + hi]])[hit] - c.cx
        dy = np.arange(y0, y1)[hit] - c.cy
        dy2 = dy * dy
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
    into the frame before they are cast to a bit index, so the cast never
    meets NaN, +-inf or a value beyond int64. Clamping moves only points
    outside the frame, and a point counts as inside only if clamping left
    both its coordinates as they were, which NaN never is. Each point's
    bit is found in its row's packed bytes: byte ``index >> 3``, bit
    ``index & 7`` from the high end.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ix = np.trunc(xs + np.copysign(0.5, xs))
    iy = np.trunc(ys + np.copysign(0.5, ys))
    height, row_bytes = shape.bits.shape
    # fmax and fmin take the bound where the other operand is NaN
    cx = np.fmin(np.fmax(ix, 0.0), shape.width - 1)
    cy = np.fmin(np.fmax(iy, 0.0), height - 1)
    inside = (cx == ix) & (cy == iy)
    # exact in float64: every bit index is below 8 * MAX_PIXELS < 2**53
    index = (cy * (8 * row_bytes) + cx).astype(np.intp)
    byte = shape.bits.ravel().take(index >> 3)
    return np.logical_and(byte & _BIT.take(index & 7), inside)


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 constants
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _angle(seed: int) -> float:
    """``np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)``, bit for
    bit, for an int ``seed`` >= 0, without importing ``numpy.random``.

    The same chain in integer arithmetic: ``SeedSequence`` hashes the
    seed's little-endian 32-bit words into a pool of four and draws
    ``generate_state(4, uint64)`` from it; PCG64 takes its 128-bit state
    and increment from those four words; one step and one XSL-RR output
    give 64 bits, whose top 53 make the uniform double.
    """
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    const = _HASH_INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _HASH_MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _HASH_INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _HASH_MULT_B & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    s0, s1, s2, s3 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    # seeding steps from state 0, adds the initial state and steps again;
    # the draw steps once more and outputs
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    state = (state * _PCG_MULT + inc) & _M128
    x, rot = (state >> 64 ^ state) & _M64, state >> 122
    x = (x >> rot | x << (64 - rot)) & _M64
    return (x >> 11) * 2.0 ** -53 * (2.0 * math.pi)


# box pixels projected at once by occlude: 128 KiB of float64
_TILE = 1 << 14


def _tiles(band, xc, ys):
    """(view of ``band``, its projections) over tiles of at most ``_TILE``
    pixels, so a sparse foreground in a large box costs bounded floats.

    A tile is a block of whole rows, or one row's run of columns when a
    row is wider than ``_TILE``, so the tiles run in row-major order. Each
    projection is ``fl(xc[j] + ys[i])`` with ``xc = fl(x cos)`` and
    ``ys = fl(y sin)``: the same float a per-pixel ``x cos + y sin`` gives.
    """
    cols = min(len(xc), _TILE)
    rows = _TILE // cols
    for i in range(0, len(ys), rows):
        for j in range(0, len(xc), cols):
            yield band[i:i + rows, j:j + cols], xc[j:j + cols] + ys[i:i + rows, None]


def occlude(shape: BinaryShape, fraction: float, seed: int = 0) -> BinaryShape:
    """Erase roughly ``fraction`` of the foreground with a half-plane cut.

    ``seed`` is an integer >= 0 (a Python or numpy integer). The cut
    direction is the angle ``np.random.default_rng(seed).uniform(0, 2 pi)``
    would draw, computed by ``_angle`` so that occlusion never loads
    ``numpy.random`` (about 5 MB of memory on numpy >= 2; numpy 1.x loads
    it with ``import numpy``); any other rule would move
    every occluded mask. A clean cut erases every foreground pixel whose
    projection onto the direction lies above some level, so pixels that tie
    in projection stay on one side. Of the clean cuts that keep a pixel,
    the one erasing the count nearest ceil(fraction * N) wins, the smaller
    on a tie. With t the target-th largest projection (one rank select),
    the two candidates erase every pixel above t or every pixel at or above
    t. Only the foreground's bounding box, in whole bytes, is unpacked
    (padding bits are clear, so its extra columns hold no foreground) and
    projected tile by tile to gather the foreground's values in row-major
    order; the kept ones are written back through the box as a mask, which
    is packed into a copy of the bits.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"occlusion fraction must be in [0, 1), got {fraction}")
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    bits = shape.bits
    y0, y1, b0, b1, _ = _box(shape)
    band = np.unpackbits(bits[y0:y1, b0:b1], axis=1).view(bool)
    n = np.count_nonzero(band)
    target = math.ceil(fraction * n)
    if target:
        angle = _angle(seed)
        xc = np.arange(8 * b0, 8 * b1) * math.cos(angle)
        ys = np.arange(y0, y1) * math.sin(angle)
        # the foreground's values in row-major order, which the tiles keep
        values, at = np.empty(n), 0
        for part, proj in _tiles(band, xc, ys):
            fg = proj[part]
            values[at:at + fg.size] = fg
            at += fg.size
        t = np.partition(values, n - target)[n - target]
        low, high = np.count_nonzero(values > t), np.count_nonzero(values >= t)
        keep = np.less if high < n and high - target < target - low else np.less_equal
        band[band] = keep(values, t)
        bits = bits.copy()
        bits[y0:y1, b0:b1] = np.packbits(band, axis=1)
    return _fill(object.__new__(BinaryShape), bits, shape.width, shape.id + "-occ",
                 shape.category)
