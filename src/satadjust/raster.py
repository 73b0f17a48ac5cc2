"""Single-band intensity rasters and binary PGM (P5) input/output."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ParseError


@dataclass
class Raster:
    """Row-major 8- or 16-bit intensity grid with a reserved nodata value.

    Resampling never produces ``nodata`` from valid data; the value is the
    fill for pixels that fall outside the source footprint, so it must be
    a sample value of the data type (``ValueError`` otherwise).
    """

    pixels: np.ndarray
    nodata: int = 0

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 2:
            raise ValueError("raster pixels must be a 2-D array")
        if self.pixels.dtype not in (np.uint8, np.uint16):
            raise ValueError("raster dtype must be uint8 or uint16")
        if not 0 <= self.nodata <= self.max_value:
            raise ValueError(f"nodata {self.nodata} is outside the sample "
                             f"range [0, {self.max_value}]")

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
        them carries the nodata value.  Invalid samples hold arbitrary
        values.

    Each neighbour is gathered into one reused buffer, tested against
    nodata and weighted into the sum in place, in the operation order of
    ``q00*gr*gc + q01*gr*fc + q10*fr*gc + q11*fr*fc``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    h, w = raster.height, raster.width
    fr = np.floor(rows)
    fc = np.floor(cols)
    valid = (fr >= 0) & (fr <= h - 2) & (fc >= 0) & (fc <= w - 2)
    # flat index of the top-left neighbour, clipped so that every gather
    # stays inside the raster
    i00 = fr.astype(np.int64)
    np.clip(i00, 0, h - 2, out=i00)
    i00 *= w
    i00 += np.clip(fc.astype(np.int64), 0, w - 2)
    np.subtract(rows, fr, out=fr)
    np.subtract(cols, fc, out=fc)
    gr, gc = 1 - fr, 1 - fc

    flat = raster.pixels.ravel()
    q = np.empty(i00.shape, dtype=flat.dtype)
    touch = np.empty(i00.shape, dtype=bool)
    term = np.empty(i00.shape)
    # starting from zero adds nothing: every term of a valid sample is >= +0
    values = np.zeros(i00.shape)
    for offset, wr, wc in ((0, gr, gc), (1, gr, fc), (w, fr, gc),
                           (w + 1, fr, fc)):
        flat[offset:].take(i00, out=q, mode="clip")
        np.not_equal(q, raster.nodata, out=touch)
        valid &= touch
        np.multiply(q, wr, out=term)
        term *= wc
        values += term
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


def _pgm_header(fh, path, nodata: int) -> tuple[int, int, np.dtype]:
    """(height, width, dtype) of a binary PGM, read byte by byte so that
    ``fh`` is left at the first byte of the pixel data, once the file is
    known to hold all of that data and ``nodata`` to lie in its sample
    range."""
    if fh.read(2) != b"P5":
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    # Header: magic, width, height, maxval; '#' comments allowed.
    tokens: list[bytearray] = []
    byte = fh.read(1)
    while len(tokens) < 3:
        if byte == b"#":
            while byte not in (b"\n", b""):
                byte = fh.read(1)
        elif byte.isspace():
            byte = fh.read(1)
        elif not byte:
            raise ParseError(f"{path}: truncated PGM header")
        else:
            token = bytearray()
            while byte and not byte.isspace():
                token += byte
                byte = fh.read(1)
            tokens.append(token)
    # the single whitespace byte after maxval has been read with it
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ParseError(f"{path}: non-numeric PGM header") from None
    if width <= 0 or height <= 0:
        raise ParseError(f"{path}: PGM size {width} x {height} is empty")
    if maxval <= 0 or maxval > 65535:
        raise ParseError(f"{path}: unsupported PGM maxval {maxval}")
    dtype = np.dtype(np.uint8 if maxval < 256 else np.uint16)
    size = width * height * dtype.itemsize
    # checked before allocating, so a corrupt size allocates nothing
    if os.fstat(fh.fileno()).st_size - fh.tell() < size:
        raise ParseError(f"{path}: PGM pixel data truncated")
    top = np.iinfo(dtype).max
    if not 0 <= nodata <= top:
        raise ParseError(f"{path}: nodata {nodata} is outside the sample "
                         f"range [0, {top}]")
    return height, width, dtype


def pgm_shape(path, nodata: int = 0) -> tuple[int, int]:
    """(height, width) of a binary PGM from its header, which is checked
    as :func:`read_pgm` checks it (ParseError) before reading pixels."""
    with open(path, "rb") as fh:
        return _pgm_header(fh, path, nodata)[:2]


def read_pgm(path, nodata: int = 0) -> Raster:
    """Read a binary PGM (P5) written by :func:`write_pgm` or compatible.

    The pixel data is read straight into the returned array, so reading
    holds one copy of the image.

    Raises:
        ParseError: a malformed or truncated file, or a ``nodata`` value
            outside the sample range of the file's data type.
    """
    with open(path, "rb") as fh:
        height, width, dtype = _pgm_header(fh, path, nodata)
        pixels = np.empty((height, width), dtype=dtype)
        if fh.readinto(memoryview(pixels).cast("B")) != pixels.nbytes:
            raise ParseError(f"{path}: PGM pixel data truncated")
    if pixels.dtype == np.uint16 and not np.dtype(">u2").isnative:
        pixels.byteswap(inplace=True)  # netpbm samples are big-endian
    return Raster(pixels=pixels, nodata=nodata)
