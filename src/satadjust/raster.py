"""Single-band intensity rasters and binary PGM (P5) input/output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError


@dataclass
class Raster:
    """Row-major 8- or 16-bit intensity grid with a reserved nodata value.

    Resampling never produces ``nodata`` from valid data; the value is the
    fill for pixels that fall outside the source footprint.
    """

    pixels: np.ndarray
    nodata: int = 0

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 2:
            raise ValueError("raster pixels must be a 2-D array")
        if self.pixels.dtype not in (np.uint8, np.uint16):
            raise ValueError("raster dtype must be uint8 or uint16")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def max_value(self) -> int:
        return 255 if self.pixels.dtype == np.uint8 else 65535


def bilinear_sample(raster: Raster, rows, cols):
    """Bilinear interpolation at continuous pixel positions.

    Args:
        rows, cols: arrays of sample positions (pixel-center convention).

    Returns:
        (values, valid): float64 samples and a boolean mask.  A sample is
        valid only if its four neighbors are inside the raster and none of
        them carries the nodata value.
    """
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    inside = (
        (r0 >= 0) & (r0 + 1 <= raster.height - 1)
        & (c0 >= 0) & (c0 + 1 <= raster.width - 1)
    )
    r0c = np.clip(r0, 0, raster.height - 2)
    c0c = np.clip(c0, 0, raster.width - 2)
    fr = rows - r0
    fc = cols - c0

    # each neighbour is gathered once, from the flat pixel array, and
    # serves both the interpolation and the nodata test
    flat = raster.pixels.ravel()
    i00 = r0c * raster.width + c0c
    q00 = flat.take(i00)
    q01 = flat.take(i00 + 1)
    q10 = flat.take(i00 + raster.width)
    q11 = flat.take(i00 + raster.width + 1)

    gr, gc = 1 - fr, 1 - fc
    values = q00 * gr * gc + q01 * gr * fc + q10 * fr * gc + q11 * fr * fc
    no_data_touch = (
        (q00 == raster.nodata)
        | (q01 == raster.nodata)
        | (q10 == raster.nodata)
        | (q11 == raster.nodata)
    )
    valid = inside & ~no_data_touch
    return values, valid


def write_pgm(raster: Raster, path) -> None:
    """Write a binary PGM (P5); 16-bit samples are big-endian per netpbm."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{raster.width} {raster.height}\n"
                 f"{raster.max_value}\n".encode("ascii"))
        data = raster.pixels
        if data.dtype == np.uint16:
            data = data.astype(">u2")
        fh.write(data.tobytes())


def read_pgm(path, nodata: int = 0) -> Raster:
    """Read a binary PGM (P5) written by :func:`write_pgm` or compatible."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    # Header: magic, width, height, maxval; '#' comments allowed.
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated PGM header")
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ParseError(f"{path}: non-numeric PGM header") from None
    if width <= 0 or height <= 0:
        raise ParseError(f"{path}: PGM size {width} x {height} is empty")
    if maxval <= 0 or maxval > 65535:
        raise ParseError(f"{path}: unsupported PGM maxval {maxval}")
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    count = width * height
    if len(blob) - pos < count * dtype.itemsize:
        raise ParseError(f"{path}: PGM pixel data truncated")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
    pixels = data.reshape(height, width)
    if maxval >= 256:
        pixels = pixels.astype(np.uint16)
    else:
        pixels = pixels.copy()
    return Raster(pixels=pixels, nodata=nodata)
