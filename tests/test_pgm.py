import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gfk import pgm
from gfk.errors import ParseError
from gfk.pgm import encode_pgm, read_pgm

from oracles import encode_pgm_reference


def test_roundtrip_uint16(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 1024, size=(7, 5), dtype=np.uint16)
    p = tmp_path / "a.pgm"
    p.write_bytes(encode_pgm(img, 1023))
    back, maxval = read_pgm(p)
    assert maxval == 1023
    assert back.dtype == np.uint16
    np.testing.assert_array_equal(back, img)


@pytest.mark.parametrize("maxval", [1023, 65535])
@pytest.mark.parametrize("shape", [(999, 40), (270, 160), (2, 32769)])
def test_sixteen_bit_raster_converts_in_place_over_several_bands(tmp_path, monkeypatch, shape,
                                                                 maxval):
    # (999, 40) puts the raster at an odd offset; 2 x 32769 ends in a 2-pixel band
    monkeypatch.setattr(pgm, "CONVERT_PIXELS", 1 << 12)
    img = np.random.default_rng(1).integers(0, maxval + 1, size=shape, dtype=np.uint16)
    p = tmp_path / "bands.pgm"
    p.write_bytes(encode_pgm(img, maxval))
    back, _maxval = read_pgm(p)
    assert back.dtype == np.uint16 and back.flags.writeable
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


@pytest.mark.parametrize("maxval", [255, 1023, 65535])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float64])
@pytest.mark.parametrize("shape", [(1, 1), (1, 10), (3, 5), (17, 2), (90, 160), (91, 161)])
def test_encode_matches_the_astype_reference(shape, dtype, maxval):
    # headers of odd and even length put the raster at both byte parities,
    # float pixels are truncated as astype truncates them, and a transposed
    # image is read in its logical order
    top = min(maxval, 255) if dtype == np.uint8 else maxval
    img = (np.random.default_rng(5).random(shape) * top).astype(dtype)
    assert bytes(encode_pgm(img, maxval)) == encode_pgm_reference(img, maxval)
    assert bytes(encode_pgm(img.T, maxval)) == encode_pgm_reference(img.T, maxval)


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
    b"P5\n2 2\n255",                       # header ends right after maxval
    b"P5\n1 2\n1023\n" + bytes(3),         # 16-bit raster with an odd byte count
])
def test_parse_errors(tmp_path, raw):
    p = tmp_path / "bad.pgm"
    p.write_bytes(raw)
    with pytest.raises(ParseError):
        read_pgm(p)


@pytest.mark.parametrize("raw,token", [
    (b"P5\n1_6 2\n255\n" + bytes(32), b"1_6"),        # int() reads 16
    (b"P5\n+16 2\n255\n" + bytes(32), b"+16"),        # int() reads 16
    (b"P5\n16 2\n+255\n" + bytes(32), b"+255"),
    (b"P5\n16 -2\n255\n" + bytes(32), b"-2"),
    (b"P5\n\xd9\xa3 2\n255\n" + bytes(6), b"\xd9\xa3"),  # an Arabic-Indic digit
    (b"P5\n16 2\n" + b"9" * 5000 + b"\n" + bytes(32), b"9" * 5000),  # past int's digit limit
], ids=["underscore", "plus-width", "plus-maxval", "minus-height", "non-ascii", "5000-digits"])
def test_header_numbers_are_ascii_decimal_digits(tmp_path, raw, token):
    p = tmp_path / "bad.pgm"
    p.write_bytes(raw)
    with pytest.raises(ParseError) as e:
        read_pgm(p)
    assert str(e.value) == f"{p}: non-numeric header token {token!r}"


def _header(w, h, maxval, sep):
    return b"P5\n%d %d\n%d" % (w, h, maxval) + sep


# Random bytes, and headers of small or invalid fields followed by random bytes.
PGM_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda head, body: head + body,
              st.builds(_header, st.integers(-1, 4), st.integers(-1, 4),
                        st.sampled_from([-1, 0, 1, 255, 256, 1023, 65535, 65536]),
                        st.sampled_from([b"", b"\n", b" ", b"#c\n"])),
              st.binary(max_size=40)),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=PGM_BYTES)
def test_any_bytes_parse_or_raise_parse_error(tmp_path, raw):
    p = tmp_path / "any.pgm"
    p.write_bytes(raw)
    try:
        image, maxval = read_pgm(p)
    except ParseError as e:
        assert str(p) in str(e)
        return
    assert image.max(initial=0) <= maxval


def test_pixel_above_declared_maxval(tmp_path):
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P5\n1 1\n100\n" + bytes([200]))
    with pytest.raises(ParseError):
        read_pgm(p)


@pytest.mark.parametrize("raw", [
    b"P5 " + b"#" * (1 << 20),     # one comment that never reaches its newline
    b"P5" + b"\n#" * (1 << 19),    # a million lines, each an empty comment or none
], ids=["hash-run", "newline-hash-run"])
def test_a_megabyte_header_is_rejected_in_linear_time(tmp_path, raw):
    # a header pattern that let a field start with '#' or a comment stop
    # short of its newline backtracks without end on these
    p = tmp_path / "long.pgm"
    p.write_bytes(raw)
    start = time.perf_counter()
    with pytest.raises(ParseError) as e:
        read_pgm(p)
    assert time.perf_counter() - start < 1.0
    assert str(p) in str(e.value)
