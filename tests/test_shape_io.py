import io
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rastershape.descriptor import VARIANT_KIND, VARIANTS, extract_all
from rastershape.errors import DatasetError, EmptyShapeError, PnmFormatError
from rastershape.raster import RasterSpec
from rastershape.shape_io import (
    MAX_HEADER_BYTES,
    MAX_PIXELS,
    MAX_PLAIN_BYTES,
    BinaryShape,
    Centroid,
    category_of,
    centroid,
    contains_points,
    iter_directory,
    load_directory,
    load_image,
    max_radius,
    occlude,
    save_image,
)
from rastershape.shape_io import _read_netpbm

from conftest import EndlessStream, blob_shape, random_blob_mask, traced_peak
from oracles import (
    ref_centroid,
    ref_contains,
    ref_load_pnm,
    ref_max_radius,
    ref_occlude,
)


def write(path, text):
    path.write_bytes(text if isinstance(text, bytes) else text.encode("ascii"))
    return path


# ------------------------------------------------------------ construction

def test_shape_from_mask_alone():
    shape = BinaryShape([[0, 1, 0], [1, 1, 0]], id="t-1", category="t")
    assert (shape.width, shape.height) == (3, 2)
    assert shape.mask.dtype == bool and not shape.mask.flags.writeable
    assert (shape.id, shape.category) == ("t-1", "t")
    for mask in ([1, 0, 1], np.zeros((0, 3), dtype=bool), np.ones((2, 2, 2), dtype=bool)):
        with pytest.raises(ValueError, match="mask must be 2-D and at least 1x1"):
            BinaryShape(mask)


# ---------------------------------------------------------------- parsing

def test_p2_threshold_single_center_pixel(tmp_path):
    p = write(tmp_path / "dot-1.pgm", "P2\n3 3\n255\n0 0 0 0 255 0 0 0 0\n")
    shape = load_image(p, threshold=127)
    assert shape.mask.sum() == 1
    assert shape.mask[1, 1]


def test_id_and_category_naming(tmp_path):
    p = write(tmp_path / "apple-3.pgm", "P2\n1 1\n255\n255\n")
    shape = load_image(p)
    assert shape.id == "apple-3"
    assert shape.category == "apple"
    assert category_of("device0-12") == "device0"
    assert category_of("plain") == "plain"


def test_threshold_is_strictly_greater(tmp_path):
    p = write(tmp_path / "t-1.pgm", "P2\n2 1\n255\n127 128\n")
    shape = load_image(p, threshold=127)
    assert not shape.mask[0, 0] and shape.mask[0, 1]


def test_threshold_scales_with_maxval(tmp_path):
    # value * 255 > threshold * maxval: at maxval 15 and threshold 127 the
    # cut falls between 7 (1785 <= 1905) and 8 (2040 > 1905)
    p = write(tmp_path / "m15-1.pgm", "P2 2 1 15\n15 0\n")
    assert load_image(p).mask.tolist() == [[True, False]]
    p = write(tmp_path / "m15-2.pgm", "P2 3 1 15\n7 8 15\n")
    assert load_image(p).mask.tolist() == [[False, True, True]]
    p = write(tmp_path / "m15-3.pgm", b"P5 3 1 15\n" + bytes([7, 8, 15]))
    assert load_image(p).mask.tolist() == [[False, True, True]]
    assert load_image(p, threshold=0).mask.tolist() == [[True, True, True]]
    assert load_image(p, threshold=255).mask.tolist() == [[False, False, False]]
    # maxval 255 keeps the plain rule, value > threshold
    p = write(tmp_path / "m255-1.pgm", b"P5 3 1 255\n" + bytes([127, 128, 255]))
    assert load_image(p).mask.tolist() == [[False, True, True]]


def test_p2_tokens(tmp_path):
    # each token is read as Python's int() reads it
    p = write(tmp_path / "z-1.pgm", "P2 6 1 255\n0000 007 00000128 255 +200 -0\n")
    assert load_image(p).mask.tolist() == [[False, False, True, True, True, False]]
    p = write(tmp_path / "z-4.pgm", "P2 2 1 255\n1_28 2_00\n")
    assert load_image(p).mask.tolist() == [[True, True]]
    for body, message in (("0 1000", "pixel value 1000 exceeds maxval 255"),
                          ("0 0012345", "pixel value 12345 exceeds maxval 255"),
                          ("0 256", "pixel value 256 exceeds maxval 255"),
                          ("-1 0", "pixel value -1 exceeds maxval 255"),
                          ("0 " + "9" * 30, "bad pixel value"),
                          ("0 5x", "bad pixel value"), ("0 1__0", "bad pixel value"),
                          ("0 \x00", "bad pixel value"), ("0", "truncated")):
        with pytest.raises(PnmFormatError, match=message):
            load_image(write(tmp_path / "z-2.pgm", f"P2 2 1 255\n{body}\n"))
    # bytes after the last declared value, past whitespace, are not read
    p = write(tmp_path / "z-3.pgm", "P2 2 1 255\n200 9 junk +1 99999\n")
    assert load_image(p).mask.tolist() == [[True, False]]


def test_p2_decode_memory(tmp_path):
    # the values are streamed into an array, with no Python object kept per
    # pixel (one bytes object per token would take about 58 bytes a pixel)
    rng = np.random.default_rng(12)
    values = rng.integers(0, 256, size=(200, 200))
    text = "\n".join(" ".join(map(str, row)) for row in values.tolist())
    p = write(tmp_path / "big-1.pgm", "P2\n200 200\n255\n" + text + "\n")
    tracemalloc.start()
    try:
        shape = load_image(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(shape.mask, values > 127)
    assert peak < 24 * values.size


def test_p2_decode_peak_within_four_times_the_file(tmp_path):
    # the file's bytes go once its comments are stripped, and the values
    # fill one array of the declared size: the text without comments, the
    # int64 values and the foreground stay below four times the file
    rng = np.random.default_rng(13)
    values = rng.integers(0, 256, size=(500, 600))
    rows = (" ".join(map(str, row)) for row in values.tolist())
    text = "\n".join(f"{row} # row" if i % 50 == 0 else row for i, row in enumerate(rows))
    p = write(tmp_path / "big-1.pgm", "P2\n# random\n600 500\n255\n" + text + "\n")
    shape, peak = traced_peak(load_image, p)
    assert np.array_equal(shape.mask, values > 127)
    assert peak < 4 * p.stat().st_size, (peak, p.stat().st_size)
    # a short raster names the values found; a bad token before its end is named first
    for body, message in (("1 2 3", "raster truncated (3 of 4 values)"),
                          ("1 x 3", "bad pixel value"), ("1 2 9" + "9" * 30, "bad pixel value")):
        with pytest.raises(PnmFormatError, match=re.escape(f"m-1.pgm: {message}")):
            load_image(write(tmp_path / "m-1.pgm", f"P2\n2 2\n255\n{body}\n"))


def test_invert_flag(tmp_path):
    p = write(tmp_path / "inv-1.pgm", "P2\n2 1\n255\n0 255\n")
    normal = load_image(p)
    flipped = load_image(p, invert=True)
    assert list(normal.mask[0]) == [False, True]
    assert list(flipped.mask[0]) == [True, False]


def test_p2_comments_and_whitespace(tmp_path):
    body = "P2 # magic\n# a comment line\n 3\t2 #dims\n255\n1 2 3\n#row\n200 201 202"
    p = write(tmp_path / "c-1.pgm", body)
    shape = load_image(p, threshold=100)
    assert shape.width == 3 and shape.height == 2
    assert shape.mask.sum() == 3
    assert list(shape.mask[1]) == [True, True, True]


def test_p1_unseparated_bits(tmp_path):
    p = write(tmp_path / "b-1.pbm", "P1\n# bits may run together\n4 2\n0110\n1001\n")
    shape = load_image(p)
    assert shape.mask.tolist() == [[False, True, True, False], [True, False, False, True]]


def test_p1_invert(tmp_path):
    p = write(tmp_path / "b-2.pbm", "P1\n2 1\n10\n")
    assert load_image(p).mask.tolist() == [[True, False]]
    assert load_image(p, invert=True).mask.tolist() == [[False, True]]


def test_p4_row_padding(tmp_path):
    # width 10 needs two bytes per row; padding bits must be dropped
    rows = [0b1000000001, 0b0110000000]
    body = bytearray()
    for r in rows:
        body += bytes([(r >> 2) & 0xFF, (r & 0b11) << 6])
    p = write(tmp_path / "p-1.pbm", b"P4\n10 2\n" + bytes(body))
    shape = load_image(p)
    assert shape.width == 10 and shape.height == 2
    assert shape.mask[0].tolist() == [True] + [False] * 8 + [True]
    assert shape.mask[1].tolist() == [False, True, True] + [False] * 7


def test_p4_padding_bits_are_ignored(tmp_path):
    # the same pixels with every row-padding bit clear, then set, for each
    # width up to two bytes and one bit; the shape, its geometry and its
    # vectors do not depend on the padding, with or without invert
    rng = np.random.default_rng(29)
    configs = [(v, RasterSpec(VARIANT_KIND[v], 1, 8)) for v in VARIANTS]
    for width in range(1, 18):
        mask = rng.random((5, width)) < 0.5
        mask[0, 0], mask[-1, -1] = True, False  # neither decode is empty
        packed = np.packbits(mask, axis=1)
        padding = (1 << (-width % 8)) - 1
        set_ = packed.copy()
        set_[:, -1] |= padding
        header = f"P4\n{width} 5\n".encode()
        clear = write(tmp_path / f"clear-{width}.pbm", header + packed.tobytes())
        ones = write(tmp_path / f"ones-{width}.pbm", header + set_.tobytes())
        for invert in (False, True):
            a, b = load_image(clear, invert=invert), load_image(ones, invert=invert)
            assert np.array_equal(a.mask, mask ^ invert) and np.array_equal(b.mask, a.mask)
            assert np.array_equal(b.bits, a.bits) and not (b.bits[:, -1] & padding).any()
            assert (centroid(b), max_radius(b)) == (centroid(a), max_radius(a))
            for u, v in zip(extract_all(a, configs), extract_all(b, configs)):
                assert np.array_equal(u.values, v.values)
            # P4 writes the bits with their padding clear, and reloads to them
            out = tmp_path / f"again-{width}.pbm"
            save_image(b, out, format="P4")
            assert out.read_bytes() == header + np.packbits(b.mask, axis=1).tobytes()
            assert np.array_equal(load_image(out).bits, b.bits)


def test_p5_raw(tmp_path):
    p = write(tmp_path / "r-1.pgm", b"P5\n2 2\n255\n" + bytes([0, 200, 128, 10]))
    shape = load_image(p)
    assert shape.mask.tolist() == [[False, True], [True, False]]


@pytest.mark.parametrize("invert", [False, True])
def test_p5_at_maxval_255_cuts_every_byte_value(tmp_path, invert):
    # a P5 byte is within maxval 255 whatever it is, so no range check runs
    # there: every value 0-255 decodes, foreground exactly above the cut
    values = np.arange(256, dtype=np.uint8).reshape(16, 16)
    p = write(tmp_path / "all-1.pgm", b"P5\n16 16\n255\n" + values.tobytes())
    for threshold in (0, 127, 254, 255):
        mask = load_image(p, threshold=threshold, invert=invert).mask
        assert np.array_equal(mask, values <= threshold if invert else values > threshold)


def test_unsupported_magic_names_bytes(tmp_path):
    p = write(tmp_path / "x-1.pgm", "P6\n1 1\n255\nabc")
    with pytest.raises(PnmFormatError, match="P6"):
        load_image(p)
    q = write(tmp_path / "y-1.pgm", b"GIF89a....")
    with pytest.raises(PnmFormatError, match="GI"):
        load_image(q)


def test_malformed_inputs(tmp_path):
    with pytest.raises(PnmFormatError, match="maxval"):
        load_image(write(tmp_path / "m-1.pgm", "P2\n1 1\n65535\n0\n"))
    with pytest.raises(PnmFormatError, match="truncated"):
        load_image(write(tmp_path / "m-2.pgm", "P2\n2 2\n255\n1 2 3\n"))
    with pytest.raises(PnmFormatError, match="truncated"):
        load_image(write(tmp_path / "m-3.pgm", b"P5\n4 4\n255\n" + b"\x00" * 7))
    with pytest.raises(PnmFormatError, match="exceeds maxval"):
        load_image(write(tmp_path / "m-4.pgm", "P2\n1 1\n100\n101\n"))
    for body in (bytes([200, 0]), bytes([15, 16])):
        with pytest.raises(PnmFormatError,
                           match=f"m-10.pgm: pixel value {max(body)} exceeds maxval 15"):
            load_image(write(tmp_path / "m-10.pgm", b"P5 2 1 15\n" + body))
    with pytest.raises(PnmFormatError, match="width"):
        load_image(write(tmp_path / "m-5.pgm", "P2\nnope\n"))
    with pytest.raises(PnmFormatError):
        load_image(write(tmp_path / "m-6.pbm", "P1\n2 2\n01x1\n"))
    # a 40 GB (P1) or 160 GB (P2) raster declared in a 20-byte file
    for name, text in (("m-8.pbm", "P1\n200000 200000\n0\n"),
                       ("m-9.pgm", "P2\n200000 200000\n255\n")):
        with pytest.raises(PnmFormatError, match=f"{name}: header declares 200000x200000"):
            load_image(write(tmp_path / name, text))
    with pytest.raises(FileNotFoundError):
        load_image(tmp_path / "missing.pgm")
    with pytest.raises(ValueError):
        load_image(write(tmp_path / "m-7.pgm", "P2\n1 1\n255\n0\n"), threshold=300)


def test_pixel_cap(tmp_path):
    # 10^10 pixels declared in a 20-byte P4 file: refused before decoding
    p = write(tmp_path / "huge-1.pbm", b"P4\n100000 100000\n" + b"\x00" * 4)
    with pytest.raises(PnmFormatError, match="huge-1.pbm: header declares 100000x100000 "
                                             f"pixels, above the cap of {MAX_PIXELS}"):
        load_image(p)
    # below the cap, a plain raster still needs one byte per declared pixel
    p = write(tmp_path / "huge-2.pgm", "P2\n8000 8000\n255\n0 0 0\n")
    with pytest.raises(PnmFormatError, match="huge-2.pgm: header declares 8000x8000 "
                                             "pixels but only 7 bytes follow"):
        load_image(p)


def sparse(path, head: bytes, size: int = 300 << 20):
    """``head``, then zero bytes to ``size`` that take no disk space."""
    with open(path, "wb") as f:
        f.write(head)
        f.truncate(size)
    return path


def test_binary_image_reads_its_raster_and_no_more(tmp_path):
    # a valid 1x1 image before 300 MB of zero bytes: the first read takes at
    # most MAX_HEADER_BYTES, which hold the header and the raster, and no
    # more is read
    for name, head, mask in (("one-1.pgm", b"P5\n1 1\n255\n\xff", [[True]]),
                             ("one-2.pbm", b"P4\n3 1\n\x40", [[False, True, False]])):
        shape, peak = traced_peak(load_image, sparse(tmp_path / name, head))
        assert shape.mask.tolist() == mask
        assert peak < 2 * MAX_HEADER_BYTES


def test_plain_image_is_refused_past_its_cap(tmp_path, monkeypatch):
    assert MAX_PLAIN_BYTES == 4 * MAX_PIXELS + MAX_HEADER_BYTES
    cap = 4 * MAX_HEADER_BYTES  # the cap, scaled down so that the test reads little
    monkeypatch.setattr("rastershape.shape_io.MAX_PLAIN_BYTES", cap)
    p = sparse(tmp_path / "long-1.pgm", b"P2\n1 1\n255\n0 ")
    error, peak = traced_peak(load_image, p)
    assert isinstance(error, PnmFormatError)
    assert str(error) == f"long-1.pgm: longer than {cap} bytes, the cap of a plain (P1/P2) image"
    assert peak < 3 * cap
    # a file of exactly the cap still loads
    p = sparse(tmp_path / "long-2.pbm", b"P1\n2 1\n1 0", cap)
    assert load_image(p).mask.tolist() == [[True, False]]


def test_header_must_end_within_its_first_bytes(tmp_path):
    p = write(tmp_path / "chatty-1.pgm",
              b"P5\n#" + b"x" * MAX_HEADER_BYTES + b"\n1 1\n255\n\xff")
    with pytest.raises(PnmFormatError, match="chatty-1.pgm: header does not end within "
                                             f"its first {MAX_HEADER_BYTES} bytes"):
        load_image(p)
    # a comment that ends in time is skipped as before
    p = write(tmp_path / "chatty-2.pgm",
              b"P5\n#" + b"x" * (MAX_HEADER_BYTES - 100) + b"\n1 1\n255\n\xff")
    assert load_image(p).mask.tolist() == [[True]]


def test_endless_streams_are_read_within_the_caps(monkeypatch):
    def read(head, body):
        return _read_netpbm(io.BufferedReader(EndlessStream(head, body)), "endless")

    # P4/P5: the header in reads from 64 bytes, then the declared raster
    # bytes; a raster within those first reads is all that is read
    (magic, size, data, pos), peak = traced_peak(read, b"P5 3 2 255\n", b"\xff" * 4096)
    assert (magic, size, pos) == (b"P5", (3, 2, 255), 10)
    assert data == b"P5 3 2 255\n" + b"\xff" * 53 and peak < 64 << 10
    (magic, size, data, pos), peak = traced_peak(read, b"P4 8000 1024\n", b"\x00" * 4096)
    assert (magic, size, pos) == (b"P4", (8000, 1024, 1), 12)
    assert len(data) == 13 + 1000 * 1024 and peak < 3 * len(data)
    # a header whose comment never ends is refused at MAX_HEADER_BYTES
    error, peak = traced_peak(read, b"P1\n#", b"x" * 4096)
    assert str(error) == f"endless: header does not end within its first {MAX_HEADER_BYTES} bytes"
    assert peak < 4 * MAX_HEADER_BYTES
    # P1/P2: at most the cap and one more byte
    cap = 4 * MAX_HEADER_BYTES
    monkeypatch.setattr("rastershape.shape_io.MAX_PLAIN_BYTES", cap)
    error, peak = traced_peak(read, b"P2 1 1 255\n", b"255 " * 1024)
    assert str(error) == f"endless: longer than {cap} bytes, the cap of a plain (P1/P2) image"
    assert peak < 1.5 * cap
    error, peak = traced_peak(read, b"P1 1 1\n", b"1 0 " * 1024)
    assert str(error) == f"endless: longer than {cap} bytes, the cap of a plain (P1/P2) image"
    assert peak < 1.5 * cap


class TrickleStream(io.RawIOBase):
    """``data`` as a pipe may give it: one byte per read."""

    def __init__(self, data: bytes):
        self._left = memoryview(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = min(len(buffer), len(self._left), 1)
        buffer[:n] = self._left[:n]
        self._left = self._left[n:]
        return n


def test_short_reads_give_what_one_whole_read_gives(tmp_path):
    # an input read one byte at a time gives the header, the raster and
    # every refusal that the same file read whole by load_image's open gives
    files = [b"P1\n# bits\n3 2\n101\n0 1 0\n", b"P2 2 1 15\n3 15\n", b"P4\n10 2\n\xff\xc0\x12\x34",
             b"P5\n#c\n3 1\n255\n\x00\x80\xff\x07", b"P", b"P5", b"P6 1 1 255\n\x00",
             b"P5 3 1", b"P5 3 1 255\n\x00", b"P4 2 1 x\n"]

    def read(f):
        try:
            magic, size, data, pos = _read_netpbm(f, "t")
        except PnmFormatError as exc:
            return str(exc)
        if magic in (b"P4", b"P5"):  # a stream is read as far as the raster goes
            data = data[:pos + 1 + ((size[0] + 7) // 8 if magic == b"P4" else size[0]) * size[1]]
        return magic, size, bytes(data), pos

    for body in files:
        with open(write(tmp_path / "t.pgm", body), "rb", buffering=0) as f:
            whole = read(f)
        assert read(TrickleStream(body)) == whole


def test_mutated_files_decode_or_raise_format_error(tmp_path):
    # truncations, insertions and replacements of valid files never escape
    # as anything but a BinaryShape or a PnmFormatError
    rng = random.Random(5)
    valid = [
        b"P1\n# bits\n5 3\n10110\n0 1 0 0 1\n11111\n",
        b"P2\n4 2 # dims\n255\n0 17 255 128\n#row\n3 200 64 9\n",
        b"P4\n10 2\n" + bytes([0x80, 0x40, 0x61, 0xC0]),
        b"P5 3\n2 200\n" + bytes([0, 200, 7, 199, 150, 130]),
    ]
    alphabet = b"0123456789 \t\n\r#+-_\x00\xffP"
    path = tmp_path / "mut-1.pgm"
    outcomes = {"shape": 0, "error": 0}
    for _ in range(3000):
        data = bytearray(rng.choice(valid))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(data) + 1)
            byte = rng.choice((rng.randrange(256), rng.choice(alphabet)))
            op = rng.randrange(3)
            if op == 0:
                del data[i:]
            elif op == 1:
                data.insert(i, byte)
            elif data:
                data[min(i, len(data) - 1)] = byte
        path.write_bytes(bytes(data))
        try:
            shape = load_image(path)
        except PnmFormatError:
            outcomes["error"] += 1
        else:
            assert isinstance(shape, BinaryShape)
            outcomes["shape"] += 1
    assert min(outcomes.values()) > 300


def test_random_files_match_reference_reader(tmp_path):
    # 100 random PGMs (plus PBM coverage) against the second reader
    rng = np.random.default_rng(11)
    for i in range(100):
        w = int(rng.integers(1, 24))
        h = int(rng.integers(1, 24))
        values = rng.integers(0, 256, size=w * h)
        if i % 2:
            sep = rng.choice([" ", "\n", "\t", "  # note\n"], size=w * h)
            body = "P2\n# generated\n%d %d\n255\n" % (w, h)
            body += "".join(f"{v}{s}" for v, s in zip(values, sep))
            p = write(tmp_path / f"g-{i}.pgm", body)
        else:
            p = write(tmp_path / f"g-{i}.pgm",
                      b"P5\n%d %d\n255\n" % (w, h) + values.astype(np.uint8).tobytes())
        shape = load_image(p, threshold=127)
        rw, rh, rows = ref_load_pnm(p)
        assert (rw, rh) == (w, h)
        assert shape.mask.tolist() == rows

    for i in range(20):
        w = int(rng.integers(1, 20))
        h = int(rng.integers(1, 20))
        bits = rng.integers(0, 2, size=(h, w)).astype(bool)
        if i % 2:
            text = "P1\n%d %d\n" % (w, h)
            text += "\n".join("".join("1" if b else "0" for b in row) for row in bits)
            p = write(tmp_path / f"pb-{i}.pbm", text)
        else:
            p = write(tmp_path / f"pb-{i}.pbm",
                      b"P4\n%d %d\n" % (w, h) + np.packbits(bits, axis=1).tobytes())
        shape = load_image(p)
        _, _, rows = ref_load_pnm(p)
        assert shape.mask.tolist() == rows
        assert shape.mask.tolist() == bits.tolist()


def test_reencode_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(10):
        shape = BinaryShape(random_blob_mask(rng, 40), id=f"s-{i}")
        for fmt in ("P5", "P4"):
            out = tmp_path / f"s-{i}.{fmt}.{'pgm' if fmt == 'P5' else 'pbm'}"
            save_image(shape, out, format=fmt)
            again = load_image(out)
            assert np.array_equal(again.mask, shape.mask)


def test_a_shape_holds_one_bit_per_pixel(tmp_path):
    # what a directory of decoded 256 x 256 shapes keeps alive: 32 bytes of
    # packed pixels per row, and no more than 2 KiB per shape besides
    yy, xx = np.mgrid[0:256, 0:256]
    disk = BinaryShape((xx - 128) ** 2 + (yy - 100) ** 2 < 90 ** 2)
    for i in range(16):
        fmt, suffix = ("P4", "pbm") if i % 2 else ("P5", "pgm")
        save_image(disk, tmp_path / f"disk-{i}.{suffix}", format=fmt)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        shapes = list(iter_directory(tmp_path))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(shapes) == 16 and all(np.array_equal(s.mask, disk.mask) for s in shapes)
    assert retained < 16 * (256 * 32 + 2048)


def test_load_directory_sorted(tmp_path):
    for name in ("b-2.pgm", "a-1.pgm", "c-1.pbm"):
        if name.endswith(".pgm"):
            write(tmp_path / name, "P2\n1 1\n255\n255\n")
        else:
            write(tmp_path / name, "P1\n1 1\n1\n")
    (tmp_path / "notes.txt").write_text("ignored")
    shapes = load_directory(tmp_path)
    assert [s.id for s in shapes] == ["a-1", "b-2", "c-1"]


def test_directory_lists_images_by_the_rule_of_paths(tmp_path):
    # the images are the entries whose Path suffix is .pbm or .pgm in any
    # case, a link to a regular file among them, in the order of their
    # sorted Paths; each id is the Path stem and each category its part up
    # to the last dash
    d = tmp_path / "d"
    d.mkdir()
    names = ["a-1.PGM", "B-1.pgm", "b-1.pgm", "x.tar-1.pgm", "..pgm", "\u00fc-1.pbm"]
    for width, name in enumerate(names, 1):
        if name.endswith(".pbm"):
            write(d / name, f"P1\n{width} 1\n" + "1" * width)
        else:
            write(d / name, f"P2\n{width} 1\n255\n" + " 255" * width)
    write(tmp_path / "linked.pgm", "P2\n9 1\n255\n" + " 255" * 9)
    (d / "l-1.pgm").symlink_to(tmp_path / "linked.pgm")
    for name in (".pgm", "e.", "notes.txt"):
        write(d / name, "not an image")
    images = sorted(p for p in d.iterdir() if p.suffix.lower() in (".pbm", ".pgm"))
    assert len(images) == 7
    shapes = list(iter_directory(d))
    assert [s.id for s in shapes] == [p.stem for p in images]
    assert [s.category for s in shapes] == [p.stem.rsplit("-", 1)[0] for p in images]
    assert [s.width for s in shapes] == [9 if p.name == "l-1.pgm" else names.index(p.name) + 1
                                         for p in images]


def test_iter_directory_decodes_one_file_per_step(tmp_path):
    write(tmp_path / "a-1.pgm", "P2\n1 1\n255\n255\n")
    write(tmp_path / "b-1.pgm", "P9\nnope")
    shapes = iter_directory(tmp_path)
    assert next(shapes).id == "a-1"
    with pytest.raises(PnmFormatError, match="b-1.pgm"):
        next(shapes)


def test_directory_without_images_raises_at_the_first_step(tmp_path, monkeypatch):
    write(tmp_path / "notes.txt", "ignored")
    (tmp_path / "sub").mkdir()
    monkeypatch.setattr("rastershape.shape_io.load_image", lambda *a, **kw: pytest.fail("decoded"))
    shapes = iter_directory(tmp_path)
    with pytest.raises(DatasetError, match=r"^no input images \(\.pbm/\.pgm\) in '.+'$"):
        next(shapes)
    with pytest.raises(DatasetError, match=re.escape(f"in '{tmp_path}'")):
        load_directory(tmp_path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DatasetError, match=r"in '\.'$"):
        load_directory(".")


@pytest.mark.parametrize("make", [
    lambda entry: entry.symlink_to(entry.parent / "nonexistent"),
    lambda entry: entry.mkdir(),
    lambda entry: entry.symlink_to(entry),
])
def test_directory_refuses_an_image_entry_that_is_not_a_file(tmp_path, monkeypatch, make):
    # a link to nothing, a subdirectory or a link to itself named like an
    # image is refused, naming it, before anything is decoded, not skipped
    write(tmp_path / "a-1.pgm", "P2\n1 1\n255\n255\n")
    make(tmp_path / "x-1.pgm")
    write(tmp_path / "z-1.pbm", "P1\n1 1\n1\n")
    monkeypatch.setattr("rastershape.shape_io.load_image", lambda *a, **kw: pytest.fail("decoded"))
    shapes = iter_directory(tmp_path)
    refusal = re.escape(f"x-1.pgm in '{tmp_path}' is not a regular file")
    with pytest.raises(DatasetError, match=refusal):
        next(shapes)


def test_load_directory_refuses_one_stem_twice_before_decoding(tmp_path, monkeypatch):
    write(tmp_path / "a-1.pgm", "P2\n1 1\n255\n255\n")
    write(tmp_path / "a-1.PBM", "P1\n1 1\n1\n")
    write(tmp_path / "b-1.pgm", "P2\n1 1\n255\n255\n")
    monkeypatch.setattr("rastershape.shape_io.load_image", lambda *a, **kw: pytest.fail("decoded"))
    with pytest.raises(DatasetError, match=r"^a-1\.PBM and a-1\.pgm would share the id 'a-1'$"):
        load_directory(tmp_path)


# ---------------------------------------------------------------- geometry

def test_centroid_examples():
    mask = np.zeros((10, 10), dtype=bool)
    mask[7, 5] = True
    assert centroid(BinaryShape(mask)) == Centroid(5.0, 7.0)

    mask = np.zeros((20, 20), dtype=bool)
    mask[10:12, 10:12] = True
    assert centroid(BinaryShape(mask)) == Centroid(10.5, 10.5)

    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[0, 1] = mask[1, 0] = True
    c = centroid(BinaryShape(mask))
    assert c.cx == 1 / 3 and c.cy == 1 / 3


def test_empty_shape_errors():
    for hw in [(3, 3), (1, 1), (1, 7), (7, 1)]:
        empty = BinaryShape(np.zeros(hw, dtype=bool), id="void-1")
        for _ in range(2):  # a failed call leaves nothing behind
            with pytest.raises(EmptyShapeError):
                centroid(empty)
            with pytest.raises(EmptyShapeError):
                max_radius(empty)
        with pytest.raises(EmptyShapeError):
            occlude(empty, 0.1, 0)


def test_max_radius_examples():
    mask = np.zeros((10, 10), dtype=bool)
    mask[7, 5] = True
    shape = BinaryShape(mask)
    assert max_radius(shape) == 0.0

    mask = np.zeros((20, 20), dtype=bool)
    mask[10:12, 10:12] = True
    shape = BinaryShape(mask)
    assert max_radius(shape) == math.sqrt(0.5)


def test_max_radius_disk_against_scan():
    size = 111
    yy, xx = np.mgrid[0:size, 0:size]
    mask = (xx - 55) ** 2 + (yy - 55) ** 2 <= 50 ** 2
    shape = BinaryShape(mask, id="disk-1")
    c = centroid(shape)
    r = max_radius(shape)
    assert abs(r - 50.0) <= 1.0
    assert r == ref_max_radius(mask.tolist(), c.cx, c.cy)


def test_centroid_matches_reference_on_random_blobs():
    rng = np.random.default_rng(17)
    for _ in range(10):
        mask = random_blob_mask(rng, 48)
        shape = BinaryShape(mask)
        c = centroid(shape)
        assert (c.cx, c.cy) == ref_centroid(mask.tolist())


def test_contains_examples():
    mask = np.zeros((10, 10), dtype=bool)
    mask[7, 5] = True
    shape = BinaryShape(mask)
    got = contains_points(shape, [5.4, -3.0, 5.0], [6.6, 0.0, 100.0])
    assert got.tolist() == [True, False, False]


def test_rounding_half_away_from_zero():
    # one foreground pixel per row, where only the half-away rounding lands:
    # x 0.5 -> 1, 1.5 -> 2, -0.4 -> 0, 2.4 -> 2, and y 0.5 -> 1
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 1] = mask[1, 2] = mask[2, 0] = mask[3, 2] = True
    shape = BinaryShape(mask)
    got = contains_points(shape, [0.5, 1.5, -0.4, 2.4, 2.0], [0.0, 1.0, 2.0, 3.0, 0.5])
    assert got.tolist() == [True] * 5

    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 0] = True
    shape = BinaryShape(mask)
    assert contains_points(shape, [-0.4], [-0.4]).tolist() == [True]   # rounds to pixel (0, 0)
    assert contains_points(shape, [-0.5], [0.0]).tolist() == [False]   # rounds to -1: out of frame


def test_contains_random_queries_match_oracle():
    rng = np.random.default_rng(23)
    mask = random_blob_mask(rng, 64)
    shape = BinaryShape(mask)
    rows = mask.tolist()
    xs = rng.uniform(-10, 74, size=10_000)
    ys = rng.uniform(-10, 74, size=10_000)
    got = contains_points(shape, xs, ys)
    for x, y, g in zip(xs, ys, got):
        assert bool(g) == ref_contains(rows, 64, 64, x, y)


def test_contains_edge_coordinates_match_oracle():
    # values a uniform draw almost never hits, on a frame that is not square,
    # every x paired with every y: exact half pixels k +- 0.5, signed zeros,
    # the largest double below 0.5, the far edges and points far outside
    height, width = 9, 13
    mask = np.random.default_rng(5).random((height, width)) < 0.5
    shape = BinaryShape(mask)
    rows = mask.tolist()
    below_half = 0.49999999999999994

    def edges(size):
        halves = [k + h for k in range(-3, size + 3) for h in (-0.5, 0.5)]
        return halves + [0.0, -0.0, below_half, -below_half, size - 1 + below_half,
                         size - 0.5, size - 1.0, 1e9, -1e9, 1e18, -1e18]

    xs, ys = (np.array(a).ravel() for a in np.meshgrid(edges(width), edges(height)))
    got = contains_points(shape, xs, ys)
    assert got.dtype == bool and got.shape == xs.shape
    for x, y, g in zip(xs.tolist(), ys.tolist(), got.tolist()):
        assert g == ref_contains(rows, width, height, x, y), (x, y)


def test_contains_non_finite_and_huge_points_fall_outside():
    # an all-foreground frame, so a point cast into it by accident reads True;
    # casting NaN, inf or |x| >= 2**63 to int64 warns and is undefined in C
    shape = BinaryShape(np.ones((4, 5), dtype=bool))
    bad = [math.nan, -math.nan, math.inf, -math.inf, 1e300, -1e300, 2.0**63, -(2.0**63)]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for xs, ys in ((bad, [1.0] * len(bad)), ([1.0] * len(bad), bad), (bad, bad)):
            assert contains_points(shape, xs, ys).tolist() == [False] * len(bad)
        # in-frame points beside them are still read
        assert contains_points(shape, [math.nan, 2.0], [0.0, 3.0]).tolist() == [False, True]


def test_flat_index_kernels_ignore_the_input_memory_order():
    rng = np.random.default_rng(41)
    mask = random_blob_mask(rng, 48)[:, :40]
    c_order, f_order = BinaryShape(mask, id="m-1"), BinaryShape(np.asfortranarray(mask), id="m-1")
    xs, ys = rng.uniform(-2, 50, size=500), rng.uniform(-2, 50, size=500)
    assert np.array_equal(contains_points(f_order, xs, ys), contains_points(c_order, xs, ys))
    assert np.array_equal(occlude(f_order, 0.3, 2).mask, occlude(c_order, 0.3, 2).mask)


def test_translation_equivariance_exact():
    # centroid shifts by exactly (dx, dy) and r_max is bit-identical;
    # expected centroid computed from exact integer sums
    rng = np.random.default_rng(31)
    for trial in range(10):
        mask = random_blob_mask(rng, 128)
        shape = BinaryShape(mask)
        ys, xs = np.nonzero(mask)
        n = xs.size
        dx, dy = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        moved = BinaryShape(np.roll(np.roll(mask, dy, 0), dx, 1))
        c2 = centroid(moved)
        assert c2.cx == float(Fraction(int(xs.sum()) + n * dx, n))
        assert c2.cy == float(Fraction(int(ys.sum()) + n * dy, n))
        c1 = centroid(shape)
        if math.frexp(c1.cx)[1] == math.frexp(c2.cx)[1] and \
           math.frexp(c1.cy)[1] == math.frexp(c2.cy)[1]:
            # same binade: the subtractions cancel exactly
            assert max_radius(moved) == max_radius(shape)
        else:
            assert max_radius(moved) == pytest.approx(max_radius(shape), abs=1e-9)


# ---------------------------------------------------------------- occlusion

def test_occlude_fraction_zero_identity():
    shape = blob_shape(5, id="blob-1")
    out = occlude(shape, 0.0, seed=9)
    assert np.array_equal(out.mask, shape.mask)
    assert out.id == "blob-1-occ"
    assert out.category == shape.category


def test_occlude_deterministic():
    shape = blob_shape(6)
    a = occlude(shape, 0.3, seed=4)
    b = occlude(shape, 0.3, seed=4)
    assert np.array_equal(a.mask, b.mask)


def test_occlude_erases_close_to_target():
    rng = np.random.default_rng(8)
    mask = random_blob_mask(rng, 96)
    ys, xs = np.nonzero(mask)
    # trim to exactly 1000 foreground pixels
    assert xs.size >= 1000
    for i in range(xs.size - 1000):
        mask[ys[i], xs[i]] = False
    shape = BinaryShape(mask, id="blob-1")
    out = occlude(shape, 0.2, seed=1)
    erased = int(shape.mask.sum()) - int(out.mask.sum())
    assert abs(erased - 200) <= 1


def test_occlude_never_adds_pixels():
    rng = np.random.default_rng(12)
    for seed in range(8):
        mask = random_blob_mask(rng, 64)
        shape = BinaryShape(mask, id="b-1")
        out = occlude(shape, float(rng.uniform(0, 0.9)), seed=seed)
        assert not (out.mask & ~shape.mask).any()


def test_occlude_keeps_a_pixel():
    # the nearest clean cut to ceil(fraction * N) would erase every pixel
    for row, fraction in (([1, 1], 0.75), ([1, 1, 1], 0.9)):
        shape = BinaryShape([row], id="t-1")
        out = occlude(shape, fraction, 0)
        assert out.mask.sum() == 1
        assert centroid(out) == Centroid(len(row) - 1, 0.0)


def test_occlude_fraction_validation():
    shape = blob_shape(7)
    with pytest.raises(ValueError):
        occlude(shape, -0.1, 0)
    with pytest.raises(ValueError):
        occlude(shape, 1.0, 0)


def test_occlude_takes_only_an_integer_seed_of_zero_or_more():
    shape = blob_shape(7)
    for seed in (None, 1.0, 2.5, "1", [1, 2], (3,), np.array([1, 2])):
        with pytest.raises(TypeError):
            occlude(shape, 0.2, seed)
    assert np.array_equal(occlude(shape, 0.2, np.uint32(5)).bits, occlude(shape, 0.2, 5).bits)
    assert np.array_equal(occlude(shape, 0.2, np.int64(5)).bits, occlude(shape, 0.2, 5).bits)
    # the seed is checked before any work: an empty shape still reports its seed
    empty = BinaryShape(np.zeros((3, 3), dtype=bool), id="void-1")
    for target in (shape, empty):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            occlude(target, 0.2, -1)
        with pytest.raises(TypeError):
            occlude(target, 0.2, None)


def test_occlude_in_small_tiles_equals_full_sort_oracle(monkeypatch):
    # tiles of one pixel, of runs of one row's columns, and of blocks of rows
    rng = np.random.default_rng(34)
    masks = [random_blob_mask(rng, 20) for _ in range(3)] + [np.eye(3, 61, 58, dtype=bool)]
    for tile in (1, 7, 64):
        monkeypatch.setattr("rastershape.shape_io._TILE", tile)
        for i, mask in enumerate(masks):
            for fraction, seed in ((0.3, i), (0.7, i + 5)):
                angle = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
                cut = occlude(BinaryShape(mask, id="t-1"), fraction, seed)
                expected = ref_occlude(mask.tolist(), fraction, math.cos(angle), math.sin(angle))
                assert cut.mask.tolist() == expected


def test_occlude_of_a_sparse_large_frame_holds_no_float_per_box_pixel():
    # an outline's bounding box is its whole 2048 x 2048 frame: the unpacked
    # box is 1 byte per pixel, and a float per box pixel would add 8 more
    mask = np.zeros((2048, 2048), dtype=bool)
    mask[[0, -1]] = True
    mask[:, [0, -1]] = True
    cut, peak = traced_peak(occlude, BinaryShape(mask, id="outline-1"), 0.3, 1)
    assert np.count_nonzero(cut.mask) == np.count_nonzero(mask) - math.ceil(0.3 * 8188)
    assert peak < 2 * mask.size


def test_centroid_pixel_inside_convex_shapes():
    size = 61
    yy, xx = np.mgrid[0:size, 0:size]
    disk = BinaryShape((xx - 30) ** 2 + (yy - 30) ** 2 <= 25 ** 2)
    rect = np.zeros((size, size), dtype=bool)
    rect[10:40, 5:50] = True
    rectangle = BinaryShape(rect)
    for shape in (disk, rectangle):
        c = centroid(shape)
        assert contains_points(shape, [c.cx], [c.cy]).tolist() == [True]
