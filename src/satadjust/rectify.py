"""Plane rectification onto a common height plane at a common GSD.

A level-2 product is the source raster resampled onto a north-up grid on a
constant-height plane, together with an RPC model refitted to the resampled
geometry.  Rectification removes most inter-image geometric distortion so a
constant per-image bias suffices downstream.

A product stores only its raster, model, plane height and geo transform:
its ground footprint is derived from the grid, and its sampling distance
is the step of the geo transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rpc as rpc_mod
from . import textfile
from .errors import (
    EmptyFootprint,
    EmptyInput,
    IllConditioned,
    InsufficientSamples,
    ParseError,
)
from .geodesy import meters_per_degree, polygon_area_m2
from .raster import Raster, bilinear_sample, read_pgm, write_pgm
from .rpc import RpcModel

# Virtual GCP grid used to refit level-2 RPCs: 10x10 planimetric samples at
# 5 height levels, about six times the 78 free coefficients.
FIT_GRID_XY = 10
FIT_GRID_Z = 5

FIT_RIDGE = 1e-8
FIT_COND_MAX = 1e12
MIN_FIT_SAMPLES = 39

# Rectification (see rectify_image): the starting knot spacing of the
# exactly evaluated grid, the interpolation error it must meet (GDAL's
# approximate transformer allows 0.125 px by default) and the output
# pixels resampled per row tile.  A tile's temporaries take about 80 bytes
# per pixel, so 2^15-pixel tiles stay within a 2 MB L2 cache; in a sweep
# over 2^13 ... 2^18 on a Xeon with 2 MB of L2 per core, 2^14 and 2^15
# were fastest.
GRID_STEP = 64
GRID_TOLERANCE_PX = 0.01
TILE_PIXELS = 2 ** 15


@dataclass(frozen=True)
class GroundBBox:
    """Axis-aligned ground bounding box in degrees."""

    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self):
        if self.min_lat > self.max_lat or self.min_lon > self.max_lon:
            raise ValueError("bounding box min exceeds max")

    def area(self) -> float:
        return (self.max_lat - self.min_lat) * (self.max_lon - self.min_lon)

    def intersection_area(self, other: "GroundBBox") -> float:
        dlat = min(self.max_lat, other.max_lat) - max(self.min_lat,
                                                      other.min_lat)
        dlon = min(self.max_lon, other.max_lon) - max(self.min_lon,
                                                      other.min_lon)
        if dlat <= 0 or dlon <= 0:
            return 0.0
        return dlat * dlon


@dataclass
class Level2Product:
    """Plane-rectified raster plus its refitted camera model.

    ``geo_transform`` holds six coefficients mapping a pixel center
    (row, col) to ground coordinates on the plane:

        lat = gt[0] + gt[1] * col + gt[2] * row
        lon = gt[3] + gt[4] * col + gt[5] * row

    Nothing derivable is stored: :attr:`footprint` comes from the grid.
    """

    raster: Raster
    rpc: RpcModel
    plane_height: float
    geo_transform: np.ndarray
    image_id: str = ""

    def __post_init__(self):
        self.geo_transform = np.asarray(self.geo_transform, dtype=np.float64)
        if self.geo_transform.shape != (6,):
            raise ValueError("geo_transform must have 6 coefficients")

    def pixel_to_ground(self, rows, cols):
        gt = self.geo_transform
        lats = gt[0] + gt[1] * np.asarray(cols) + gt[2] * np.asarray(rows)
        lons = gt[3] + gt[4] * np.asarray(cols) + gt[5] * np.asarray(rows)
        return lats, lons

    def ground_to_pixel(self, lats, lons):
        return _ground_to_pixel(self.geo_transform, lats, lons)

    @property
    def footprint(self) -> GroundBBox:
        """Ground bounding box of the grid's four pixel-area corners."""
        lats, lons = self.pixel_to_ground(
            *_area_corners(self.raster.pixels.shape))
        return GroundBBox(float(lats.min()), float(lats.max()),
                          float(lons.min()), float(lons.max()))


def _ground_to_pixel(gt: np.ndarray, lats, lons):
    """Grid (rows, cols) of plane points: the geo transform inverted."""
    det = gt[1] * gt[5] - gt[2] * gt[4]
    dlat = np.asarray(lats) - gt[0]
    dlon = np.asarray(lons) - gt[3]
    cols = (gt[5] * dlat - gt[2] * dlon) / det
    rows = (-gt[4] * dlat + gt[1] * dlon) / det
    return rows, cols


def _area_corners(shape: tuple[int, int]):
    """(rows, cols) of the four pixel-area corners (half a pixel beyond
    the corner centers) of an image of ``shape`` (height, width)."""
    h, w = shape
    return [-0.5, -0.5, h - 0.5, h - 0.5], [-0.5, w - 0.5, w - 0.5, -0.5]


def _corner_ground(shape: tuple[int, int], rpc: RpcModel, plane: float):
    """(lats, lons) of the four pixel-area corners of an image of
    ``shape`` cast onto the plane, so that the footprint area over the
    pixel count reproduces the sampling distance exactly."""
    return rpc_mod.inverse_project_arrays(rpc, *_area_corners(shape), plane)


def common_plane_height(rpcs: list[RpcModel]) -> float:
    """Common rectification plane: the mean of the height offsets."""
    if not rpcs:
        raise EmptyInput("no RPC models given")
    return sum(r.hei_off for r in rpcs) / len(rpcs)


def common_gsd(images: list[tuple[Raster | tuple[int, int], RpcModel]],
               plane: float) -> float:
    """Common level-2 sampling distance: the coarsest per-image GSD.

    Each image is given as its raster or as its (height, width) shape.
    Its GSD is the square root of its footprint area on the plane divided
    by its pixel count (the footprint is the quadrilateral of the four
    image corners cast onto the plane).
    """
    if not images:
        raise EmptyInput("no images given")
    worst = 0.0
    for image, rpc in images:
        shape = image.pixels.shape if isinstance(image, Raster) else image
        area = polygon_area_m2(*_corner_ground(shape, rpc, plane))
        worst = max(worst, math.sqrt(area / math.prod(shape)))
    return worst


def fit_rpc(lats, lons, heis, rows, cols) -> RpcModel:
    """Fit an RPC model to ground/image samples given as five equally
    long arrays.

    Offsets are the midranges of the samples and scales their half-ranges.
    The 39 free coefficients per coordinate are solved from the
    denominator-multiplied linear form (row * den - num = 0) with a small
    ridge term on the normal matrix diagonal; the constant denominator
    coefficients are pinned to one.

    Raises:
        InsufficientSamples: fewer than 39 samples or fewer than 3
            distinct heights.
        IllConditioned: normal matrix condition above 1e12 after ridge.
    """
    lats, lons, heis, rows, cols = (np.asarray(a, dtype=np.float64)
                                    for a in (lats, lons, heis, rows, cols))
    if len(heis) < MIN_FIT_SAMPLES:
        raise InsufficientSamples(
            f"RPC fit needs at least {MIN_FIT_SAMPLES} samples, "
            f"got {len(heis)}"
        )
    if np.unique(heis).size < 3:
        raise InsufficientSamples("RPC fit needs at least 3 distinct heights")

    def mid_half(v):
        lo, hi = float(np.min(v)), float(np.max(v))
        return (lo + hi) / 2.0, max((hi - lo) / 2.0, 1e-12)

    lat_off, lat_scale = mid_half(lats)
    lon_off, lon_scale = mid_half(lons)
    hei_off, hei_scale = mid_half(heis)
    line_off, line_scale = mid_half(rows)
    samp_off, samp_scale = mid_half(cols)

    P = (lats - lat_off) / lat_scale
    L = (lons - lon_off) / lon_scale
    H = (heis - hei_off) / hei_scale
    t = rpc_mod.poly_terms(P, L, H).T

    def solve_rational(target):
        design = np.hstack([t, -target[:, None] * t[:, 1:]])
        normal = design.T @ design + FIT_RIDGE * np.eye(39)
        if np.linalg.cond(normal) > FIT_COND_MAX:
            raise IllConditioned(
                "RPC fit normal matrix condition exceeds 1e12"
            )
        x = np.linalg.solve(normal, design.T @ target)
        num = x[:20]
        den = np.concatenate([[1.0], x[20:]])
        return num, den

    r_n = (rows - line_off) / line_scale
    c_n = (cols - samp_off) / samp_scale
    line_num, line_den = solve_rational(r_n)
    samp_num, samp_den = solve_rational(c_n)

    model = RpcModel(
        line_off=line_off, line_scale=line_scale,
        samp_off=samp_off, samp_scale=samp_scale,
        lat_off=lat_off, lat_scale=lat_scale,
        lon_off=lon_off, lon_scale=lon_scale,
        hei_off=hei_off, hei_scale=hei_scale,
        line_num=line_num, line_den=line_den,
        samp_num=samp_num, samp_den=samp_den,
    )
    model.validate()
    return model


def _refit_level2_rpc(
    source_rpc: RpcModel,
    bbox: GroundBBox,
    plane: float,
    geo_transform: np.ndarray,
) -> RpcModel:
    """Fit the RPC of a rectified grid from virtual ground control points.

    A ground point appears in the level-2 image where the source camera
    sees it: project through the source model, drop the ray back onto the
    rectification plane, and convert the plane point to grid coordinates.
    On the plane itself this reduces to the geo transform, which keeps the
    two descriptions of the product consistent.
    """
    heis, lats, lons = (a.ravel() for a in np.meshgrid(
        np.linspace(source_rpc.hei_off - source_rpc.hei_scale,
                    source_rpc.hei_off + source_rpc.hei_scale, FIT_GRID_Z),
        np.linspace(bbox.min_lat, bbox.max_lat, FIT_GRID_XY),
        np.linspace(bbox.min_lon, bbox.max_lon, FIT_GRID_XY),
        indexing="ij"))
    src_rows, src_cols = rpc_mod.project_arrays(source_rpc, lats, lons,
                                                heis)
    plane_lats, plane_lons = rpc_mod.inverse_project_arrays(
        source_rpc, src_rows, src_cols, plane)
    rows, cols = _ground_to_pixel(geo_transform, plane_lats, plane_lons)
    return fit_rpc(lats, lons, heis, rows, cols)


def _knots(n: int, step: int) -> np.ndarray:
    """Grid positions every ``step`` pixels along an axis of ``n`` pixels,
    always ending on the last pixel (on pixel 1 for a one-pixel axis, so
    that every cell has a positive width)."""
    last = max(n - 1, 1)
    return np.append(np.arange(0, last, step), last)


def _project_grid(rpc: RpcModel, geo_transform: np.ndarray, plane: float,
                  rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact source (row, col) of the plane points under the output grid
    positions ``rows`` x ``cols``, shape (2, len(rows), len(cols)),
    evaluated in blocks of at most TILE_PIXELS points."""
    src = np.empty((2, len(rows), len(cols)))
    lons = geo_transform[3] + geo_transform[4] * cols
    block = max(1, TILE_PIXELS // len(cols))
    for lo in range(0, len(rows), block):
        lats = geo_transform[0] + geo_transform[2] * rows[lo:lo + block]
        src_rows, src_cols = rpc_mod.project_arrays(
            rpc, np.repeat(lats, len(cols)), np.tile(lons, len(lats)),
            np.full(len(lats) * len(cols), plane))
        src[0, lo:lo + block] = src_rows.reshape(len(lats), len(cols))
        src[1, lo:lo + block] = src_cols.reshape(len(lats), len(cols))
    return src


def _source_grid(rpc: RpcModel, geo_transform: np.ndarray, plane: float,
                 n_rows: int, n_cols: int):
    """The coarsest checked grid of exact source coordinates.

    Starts at GRID_STEP pixels and halves the step while the interpolated
    source position misses the exact one by more than GRID_TOLERANCE_PX
    at a cell centre or edge midpoint (for a quadratic map the error is
    largest at one of them; the centre alone misses saddle-shaped error).
    At step 1 every output pixel is a knot and the grid is exact.

    Returns:
        ``(knot_rows, knot_cols, src)``: the knot positions along each
        output axis and the (2, len(knot_rows), len(knot_cols)) source
        rows and columns there.
    """
    step = GRID_STEP
    while True:
        knots = _knots(n_rows, step), _knots(n_cols, step)
        grid = (*knots, _project_grid(rpc, geo_transform, plane, *knots))
        if step == 1:
            return grid
        check = [np.union1d(k, (k[:-1] + k[1:]) / 2.0) for k in knots]
        error = np.abs(_source_coords(grid, *check)
                       - _project_grid(rpc, geo_transform, plane, *check))
        if error.max() <= GRID_TOLERANCE_PX:
            return grid
        step //= 2


def _cell_weights(knots: np.ndarray, pos: np.ndarray):
    """Per position along an axis: the grid cell holding it and its
    fraction across that cell (0 and 1 on the knots)."""
    cell = np.minimum(np.searchsorted(knots, pos, side="right") - 1,
                      len(knots) - 2)
    return cell, (pos - knots[cell]) / (knots[cell + 1] - knots[cell])


def _source_coords(grid, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Source (row, col) of the output positions ``rows`` x ``cols``
    interpolated on ``grid``, shape (2, len(rows), len(cols)): first down
    the rows at the knot columns, then along the rows.  Exact on knots."""
    knot_rows, knot_cols, src = grid
    r_cell, r_frac = _cell_weights(knot_rows, rows)
    r_frac = r_frac[:, None]
    at_knot_cols = ((1.0 - r_frac) * src[:, r_cell]
                    + r_frac * src[:, r_cell + 1])
    c_cell, c_frac = _cell_weights(knot_cols, cols)
    # in place: these two gathers are the largest arrays of a row tile.
    # take() keeps them in C order; [..., c_cell] would put the
    # coordinate axis innermost, and bilinear_sample runs 1.6x slower on
    # such strided source rows and columns.
    out = at_knot_cols.take(c_cell, axis=-1)
    out *= 1.0 - c_frac
    right = at_knot_cols.take(c_cell + 1, axis=-1)
    right *= c_frac
    out += right
    return out


def _footprint_columns(grid, n_rows: int, n_cols: int, height: int,
                       width: int):
    """Per output row: the span ``[first, stop)`` of its columns whose
    source position can fall inside a ``height`` x ``width`` image, as
    two int arrays of length ``n_rows`` (``first >= stop`` when empty).

    Along an output row the source position is linear between the knot
    columns (see :func:`_source_coords`), so each piece is solved for
    where 0 <= row <= height - 1 and 0 <= col <= width - 1.  Each limit
    is widened by one source pixel and the result by one output pixel at
    each end, so that rounding can only widen the span.  Rows are solved
    in blocks of at most TILE_PIXELS / 8 knots, so that the temporaries,
    about ten float64 arrays of two coordinates per knot, take no more
    memory than a row tile's.
    """
    knot_cols = grid[1]
    left, cell = knot_cols[:-1], np.diff(knot_cols)
    low = -1.0
    high = np.array([height, width], dtype=np.float64)[:, None, None]
    first, stop = np.empty(n_rows), np.empty(n_rows)
    block = max(1, TILE_PIXELS // (8 * len(knot_cols)))
    for lo in range(0, n_rows, block):
        rows = np.arange(lo, min(lo + block, n_rows))
        at_knots = _source_coords(grid, rows, knot_cols)
        start, rise = at_knots[..., :-1], np.diff(at_knots)
        # A constant coordinate divides to -inf and +inf within its
        # limits, to two equal infinities beyond them and to NaN exactly
        # on one, a source pixel away from any valid position.  Pieces
        # with a NaN end are empty, as is every position interpolated on
        # them.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_low, t_high = (low - start) / rise, (high - start) / rise
        enter = np.maximum(np.minimum(t_low, t_high).max(axis=0), 0.0)
        leave = np.minimum(np.maximum(t_low, t_high).min(axis=0), 1.0)
        hit = enter <= leave
        first[lo:lo + block] = np.where(hit, left + enter * cell,
                                        np.inf).min(axis=1)
        stop[lo:lo + block] = np.where(hit, left + leave * cell,
                                       -np.inf).max(axis=1)
    first = np.clip(np.floor(first) - 1, 0, n_cols).astype(np.int64)
    stop = np.clip(np.ceil(stop) + 2, 0, n_cols).astype(np.int64)
    return first, stop


def rectify_image(
    image: Raster, rpc: RpcModel, plane: float, gsd: float
) -> Level2Product:
    """Resample an image onto the common plane at the common GSD.

    The output grid is north-up and covers the ground bounding box of the
    four image corners cast onto the plane.  Each output pixel center maps
    through the source model (zero bias) into the source image and is
    bilinearly resampled; pixels outside the source footprint get the
    nodata value.

    The source model is evaluated exactly only on a coarse grid of output
    pixels (every GRID_STEP pixels, plus the last row and column) and
    interpolated bilinearly in between; the step halves until the
    interpolation misses the exact source position by at most
    GRID_TOLERANCE_PX (0.01 px) at every cell centre and edge midpoint.
    Resampling runs in row tiles of at most TILE_PIXELS (2^15) output
    pixels.  Each tile samples only the span of its rows whose source
    position can fall inside the image (:func:`_footprint_columns`); the
    rest of the output keeps its nodata fill.  The span is sampled by one
    in-place :func:`bilinear_sample` pass, rounded and clipped in place
    and copied into the output where valid; valid data that rounds to the
    nodata value is written as nodata + 1.  Beyond the input and output
    rasters a call needs about 3 MB (tracemalloc peak) at any image size,
    as long as one output row holds at most TILE_PIXELS pixels.

    Raises:
        EmptyFootprint: the footprint on the plane is degenerate.
    """
    if gsd <= 0:
        raise ValueError("gsd must be positive")
    corner_lats, corner_lons = _corner_ground(image.pixels.shape, rpc, plane)
    bbox = GroundBBox(float(corner_lats.min()), float(corner_lats.max()),
                      float(corner_lons.min()), float(corner_lons.max()))
    center_lat = (bbox.min_lat + bbox.max_lat) / 2.0
    m_lat, m_lon = meters_per_degree(center_lat)
    extent_m_lat = (bbox.max_lat - bbox.min_lat) * m_lat
    extent_m_lon = (bbox.max_lon - bbox.min_lon) * m_lon
    if extent_m_lat < gsd or extent_m_lon < gsd:
        raise EmptyFootprint("image footprint on the plane is degenerate")

    n_rows = int(math.ceil(extent_m_lat / gsd))
    n_cols = int(math.ceil(extent_m_lon / gsd))
    step_lat = gsd / m_lat
    step_lon = gsd / m_lon
    geo_transform = np.array([
        bbox.max_lat - 0.5 * step_lat, 0.0, -step_lat,
        bbox.min_lon + 0.5 * step_lon, step_lon, 0.0,
    ])

    grid = _source_grid(rpc, geo_transform, plane, n_rows, n_cols)
    nodata = image.nodata
    pixels = np.full((n_rows, n_cols), nodata, dtype=image.pixels.dtype)
    firsts, stops = _footprint_columns(grid, n_rows, n_cols, image.height,
                                       image.width)
    tile_rows = max(1, TILE_PIXELS // n_cols)
    for lo in range(0, n_rows, tile_rows):
        hi = min(lo + tile_rows, n_rows)
        first, stop = firsts[lo:hi].min(), stops[lo:hi].max()
        if first >= stop:
            continue
        src_rows, src_cols = _source_coords(grid, np.arange(lo, hi),
                                            np.arange(first, stop))
        values, valid = bilinear_sample(image, src_rows, src_cols)
        np.rint(values, out=values)
        np.clip(values, 0, image.max_value, out=values)
        # Keep the nodata value reserved: valid data never lands on it.
        # Valid samples blend neighbours other than nodata, so they round
        # onto it only inside the range, where nodata + 1 fits the dtype.
        values[values == nodata] = nodata + 1
        np.copyto(pixels[lo:hi, first:stop], values, casting="unsafe",
                  where=valid)
    warped = Raster(pixels, nodata=nodata)

    fitted = _refit_level2_rpc(rpc, bbox, plane, geo_transform)
    return Level2Product(
        raster=warped,
        rpc=fitted,
        plane_height=plane,
        geo_transform=geo_transform,
    )


# ---------------------------------------------------------------------------
# Product files: binary PGM raster plus a KEY: value sidecar
# ---------------------------------------------------------------------------

_SIDE_KEYS = ("PLANE_HEIGHT", "NODATA",
              *(f"GEO_TRANSFORM_{i}" for i in range(6)))


def save_product(product: Level2Product, stem) -> None:
    """Write ``<stem>.pgm`` and ``<stem>.meta`` for a level-2 product."""
    stem = str(stem)
    write_pgm(product.raster, stem + ".pgm")
    values = (product.plane_height, product.raster.nodata,
              *product.geo_transform.tolist())
    textfile.write(stem + ".meta", (), [
        textfile.format_keys(zip(_SIDE_KEYS, values)),
        rpc_mod.format_rpc_text(product.rpc)])


def load_product(stem) -> Level2Product:
    """Load a product written by :func:`save_product`.  Keys the format
    does not define are skipped, so sidecars that still carry ``GSD`` and
    ``FOOTPRINT_*`` lines load too.

    Raises:
        ParseError: a sidecar line or key is missing or malformed (the
            message names the line or the key).
    """
    stem = str(stem)
    source = stem + ".meta"
    with textfile.open_text(source) as fh:
        values = textfile.keys(fh.read(), source)
    for key in values:
        if key.startswith("GEO_TRANSFORM_") and key not in _SIDE_KEYS:
            raise ParseError(f"{source}: bad key {key}")
    for key in _SIDE_KEYS:
        if key not in values:
            raise ParseError(f"{source}: missing key {key}")
    if not values["NODATA"].is_integer():
        raise ParseError(f"{source}: key NODATA must be an integer, got "
                         f"{values['NODATA']!r}")
    rpc = rpc_mod.rpc_from_keys(values, source)
    raster = read_pgm(stem + ".pgm", nodata=int(values["NODATA"]))
    return Level2Product(
        raster=raster,
        rpc=rpc,
        plane_height=values["PLANE_HEIGHT"],
        geo_transform=np.array([values[f"GEO_TRANSFORM_{i}"]
                                for i in range(6)], dtype=np.float64),
        image_id=stem.rsplit("/", 1)[-1],
    )
