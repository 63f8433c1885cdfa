"""Binary PGM (P5) read/write for gated slices.

A frame's three slices are stored as one image, stacked top to bottom, with
maxval noise.full_scale; any maxval above 255 uses two bytes per pixel, most
significant byte first, per the netpbm convention.

read_pgm parses the header with one pattern, HEADER: the magic P5, then
width, height and maxval, each after at least one whitespace byte, then the
one whitespace byte before the raster. Whitespace and '#' comments, each
running to its newline, may precede any of them. A field is the run of
non-whitespace bytes that follows, so '2#c' is one field and not a number;
a field cannot start with '#', where a comment starts. That keeps the match
linear in the header's length.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

from .errors import ParseError

# read_pgm converts a 16-bit raster in place, this many pixels at a time:
# numpy copies an overlapping source before converting it, and a copy of
# this size reuses one small block where a whole-frame copy maps fresh pages.
CONVERT_PIXELS = 1 << 15

_SKIP = rb"(?:\s|#[^\n]*\n)*"  # whitespace and comment lines
HEADER = re.compile(_SKIP + rb"P5" + 3 * (rb"\s" + _SKIP + rb"([^\s#]\S*)") + rb"\s")


def encode_pgm(image: np.ndarray, maxval: int) -> bytearray:
    """The P5 file of a 2D image, each pixel converted once into the result."""
    if image.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {image.shape}")
    if not (0 < maxval < 65536):
        raise ValueError(f"maxval {maxval} outside (0, 65536)")
    if image.min() < 0 or image.max() > maxval:
        raise ValueError("pixel values outside [0, maxval]")
    h, w = image.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    dtype = _raster_dtype(maxval)
    # a lead byte puts the raster on an item boundary, where numpy converts
    # fastest; deleting a bytearray's first bytes moves no data
    lead = len(header) % dtype.itemsize
    out = bytearray(lead + len(header) + image.size * dtype.itemsize)
    out[lead:lead + len(header)] = header
    np.ndarray((h, w), dtype, out, lead + len(header))[...] = image
    del out[:lead]
    return out


def _raster_dtype(maxval: int) -> np.dtype:
    return np.dtype(">u2" if maxval > 255 else np.uint8)


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (image, maxval) with dtype uint8 or uint16."""
    path = Path(path)
    with path.open("rb") as f:
        # one writable buffer for the file, so the raster converts in place
        data = bytearray(os.fstat(f.fileno()).st_size)
        del data[f.readinto(data):]
    header = HEADER.match(data)
    if header is None:
        raise ParseError(f"{path}: not a binary PGM: no P5 header of width, height and maxval")
    fields = []
    for tok in header.groups():
        try:
            if not tok.isdigit():  # bytes.isdigit: ASCII decimal digits, all netpbm allows
                raise ValueError(tok)
            fields.append(int(tok))  # also a ValueError past int's digit limit
        except ValueError:
            raise ParseError(f"{path}: non-numeric header token {tok!r}") from None
    w, h, maxval = fields
    if w <= 0 or h <= 0 or not (0 < maxval < 65536):
        raise ParseError(f"{path}: bad header fields {w} {h} {maxval}")
    pos = header.end()
    dtype = _raster_dtype(maxval)
    n_bytes = w * h * dtype.itemsize
    if len(data) - pos != n_bytes:
        raise ParseError(f"{path}: expected {n_bytes} raster bytes for {w}x{h} pixels, "
                         f"found {len(data) - pos}")
    raster = np.frombuffer(data, dtype=dtype, offset=pos)
    if maxval > 255:
        native = raster.view(np.uint16)
        for i in range(0, raster.size, CONVERT_PIXELS):
            native[i : i + CONVERT_PIXELS] = raster[i : i + CONVERT_PIXELS]
        raster = native
    image = raster.reshape(h, w)
    if image.max(initial=0) > maxval:
        raise ParseError(f"{path}: pixel exceeds declared maxval {maxval}")
    return image, maxval
