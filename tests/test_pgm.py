import numpy as np
import pytest

from gfk.errors import ParseError
from gfk.pgm import encode_pgm, read_pgm


def test_roundtrip_uint16(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 1024, size=(7, 5), dtype=np.uint16)
    p = tmp_path / "a.pgm"
    p.write_bytes(encode_pgm(img, 1023))
    back, maxval = read_pgm(p)
    assert maxval == 1023
    assert back.dtype == np.uint16
    np.testing.assert_array_equal(back, img)


def test_roundtrip_uint8(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    p = tmp_path / "b.pgm"
    p.write_bytes(encode_pgm(img, 255))
    back, maxval = read_pgm(p)
    assert maxval == 255
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, img)


def test_header_layout():
    img = np.zeros((2, 3), dtype=np.uint16)
    data = encode_pgm(img, 1023)
    assert data.startswith(b"P5")
    head = data.split(b"\n")
    assert head[1].split() == [b"3", b"2"]  # width height
    assert head[2] == b"1023"


def test_sixteen_bit_is_big_endian():
    img = np.array([[0x0102]], dtype=np.uint16)
    data = encode_pgm(img, 65535)
    assert data.endswith(b"\x01\x02")


def test_comments_and_whitespace(tmp_path):
    img = np.array([[7, 8], [9, 10]], dtype=np.uint8)
    raw = b"P5 # magic\n# a comment line\n 2\t2 # dims\n255\n" + img.tobytes()
    p = tmp_path / "c.pgm"
    p.write_bytes(raw)
    back, maxval = read_pgm(p)
    np.testing.assert_array_equal(back, img)
    assert maxval == 255


def test_value_above_maxval_rejected():
    img = np.array([[300]], dtype=np.uint16)
    with pytest.raises(ValueError):
        encode_pgm(img, 255)


@pytest.mark.parametrize("raw", [
    b"P6\n2 2\n255\n" + bytes(4),          # wrong magic
    b"P5\n2 2\n255\n" + bytes(3),          # truncated pixels
    b"P5\n2 x\n255\n" + bytes(4),          # non-numeric dimension
    b"P5\n2 2\n",                          # missing maxval entirely
])
def test_parse_errors(tmp_path, raw):
    p = tmp_path / "bad.pgm"
    p.write_bytes(raw)
    with pytest.raises(ParseError):
        read_pgm(p)


def test_pixel_above_declared_maxval(tmp_path):
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P5\n1 1\n100\n" + bytes([200]))
    with pytest.raises(ParseError):
        read_pgm(p)
