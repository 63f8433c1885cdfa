"""Binary PGM (P5) read/write for gated slices.

Slices are stored with maxval 1023; any maxval above 255 uses two bytes per
pixel, most significant byte first, per the netpbm convention.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParseError


def encode_pgm(image: np.ndarray, maxval: int = 1023) -> bytes:
    if image.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {image.shape}")
    if not (0 < maxval < 65536):
        raise ValueError(f"maxval {maxval} outside (0, 65536)")
    data = np.asarray(image)
    if data.min() < 0 or data.max() > maxval:
        raise ValueError("pixel values outside [0, maxval]")
    h, w = data.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    if maxval > 255:
        body = data.astype(">u2").tobytes()
    else:
        body = data.astype(np.uint8).tobytes()
    return header + body


def _next_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ParseError(f"{path}: truncated header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def read_pgm(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (image, maxval) with dtype uint8 or uint16."""
    path = Path(path)
    data = path.read_bytes()
    magic, pos = _next_token(data, 0, path)
    if magic != b"P5":
        raise ParseError(f"{path}: not a binary PGM (magic {magic!r})")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos, path)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ParseError(f"{path}: non-numeric header token {tok!r}") from None
    w, h, maxval = fields
    if w <= 0 or h <= 0 or not (0 < maxval < 65536):
        raise ParseError(f"{path}: bad header fields {w} {h} {maxval}")
    pos += 1  # single whitespace byte separates header from raster
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    n_bytes = w * h * dtype.itemsize
    if len(data) - pos != n_bytes:
        raise ParseError(f"{path}: expected {n_bytes} raster bytes for {w}x{h} pixels, "
                         f"found {max(len(data) - pos, 0)}")
    image = np.frombuffer(data, dtype=dtype, offset=pos).reshape(h, w)
    if maxval > 255:
        image = image.astype(np.uint16)
    if image.max(initial=0) > maxval:
        raise ParseError(f"{path}: pixel exceeds declared maxval {maxval}")
    return image, maxval
