"""Tie-point matching between level-2 products.

Corners are detected with a 16-pixel segment test, described by a
multi-block census transform (3x3 grid of census strings over a filtered
window), and matched along quasi-epipolar curves obtained by casting each
left pixel onto a series of height planes.  A ratio test plus an
offset-compensated reprojection filter remove outliers.

The search is local: the right features of a pair are bucketed once in
a grid of cells as wide as the epipolar buffer, and each curve tests
only the features in the cells around it, so a pair costs its curve
vertices times the features near each curve rather than times all the
right features.

The census pre-filter is a 5x5 binomial kernel (a discrete Gaussian with
sigma 1.0) evaluated in exact integer arithmetic, which makes descriptors
bit-identical under any positive affine integer intensity map; robustness
to general monotone transforms is then inherited by the comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rpc as rpc_mod
from . import textfile
from .errors import (ConfigMismatch, EmptyHeightRange, ParseError,
                     WindowOutOfBounds)
from .raster import Raster
from .rectify import Level2Product
from .rpc import ImagePoint

# Smallest footprint overlap, over the smaller footprint, of a matched pair.
OVERLAP_THRESHOLD = 0.6

# Bresenham circle of radius 3, 16 pixels in ring order (row, col offsets).
FAST_CIRCLE = np.array([
    (-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1),
])
FAST_ARC = 9
# Pixels per row tile of the segment test.
FAST_TILE_PIXELS = 1 << 17

# 5x5 binomial kernel, the integer Gaussian with variance 1 (sigma 1.0).
BLUR_KERNEL = (1, 4, 6, 4, 1)
BLUR_MARGIN = 2
# Windows per block of census_bits: a block of 256 27-px windows peaks
# at about 4 MB.
CENSUS_BLOCK = 256

MAX_CURVE_SAMPLES = 64

# Left features per batched curve cast and tentative matches per batched
# triangulation: at most 4,096 rows each, since the solver temporaries
# grow with the rows.  A block of matches peaks at about 10 MB traced
# (≈2.5 kB a row, the triangulation's 1,680 B of gathered RPC constants
# included); the curve casts gather none and peak at ≈0.8 kB a row.
CURVE_BLOCK = 64
MATCH_BLOCK = 2048


@dataclass(frozen=True)
class MatchParams:
    """Knobs of the matching stage (defaults follow the method's values)."""

    epipolar_buffer_px: float = 30.0
    ratio_threshold: float = 0.6
    reproj_filter_px: float = 2.0
    fast_threshold: float = 20.0
    nms_radius: float = 5.0
    window: int = 27
    blocks: int = 3

    def __post_init__(self):
        for name in ("epipolar_buffer_px", "ratio_threshold",
                     "reproj_filter_px", "fast_threshold", "nms_radius"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        _check_census(self.window, self.blocks)


def select_pairs(
    products: list[Level2Product], threshold: float = OVERLAP_THRESHOLD
) -> list[tuple[int, int]]:
    """Image pairs whose footprint overlap is large enough.

    A pair (i, j), i < j, is selected iff the intersection area over the
    smaller footprint area is at least ``threshold``.
    """
    boxes = [p.footprint for p in products]
    pairs = []
    for i in range(len(products)):
        for j in range(i + 1, len(products)):
            smaller = min(boxes[i].area(), boxes[j].area())
            if smaller <= 0:
                continue
            if boxes[i].intersection_area(boxes[j]) / smaller >= threshold:
                pairs.append((i, j))
    return pairs


def _arc_table() -> np.ndarray:
    """Whether some FAST_ARC contiguous bits of a 16-bit circular code
    are set, for every code."""
    codes = np.arange(1 << 16, dtype=np.uint32)
    ring = codes | (codes << 16)
    run = ring
    for k in range(1, FAST_ARC):
        run = run & (ring >> k)
    return (run & 0xFFFF) != 0


_ARC_TABLE = _arc_table()


def _segment_test(px: np.ndarray, r0: int, r1: int, c0: int, c1: int,
                  threshold: float):
    """Corners and their scores among the pixels of rows r0..r1 and
    columns c0..c1, which must lie 3 pixels inside the raster.

    Any 9 contiguous ring pixels hold two compass pixels (ring positions
    0, 4, 8 and 12) four apart, so a pixel can pass only if some adjacent
    compass pair is both brighter, or both darker, than its threshold.
    That pre-test is the only work done on every pixel, and it holds
    about 7 bytes a pixel: the differences and, per compass pair, the
    brighter and darker masks, each folded in place.  The survivors'
    16 brighter and 16 darker ring comparisons are packed into two 16-bit
    codes, both looked up in a table of the codes that hold a 9-long
    circular run; the pixels that pass are scored by the minimum over
    each circular 9-window of their ring.  Differences of 8-bit pixels
    fit in int16, and an integer difference exceeds the threshold exactly
    when it exceeds its floor.

    Returns:
        ``(rows, cols, scores)`` arrays, in raster order.
    """
    diff_type = np.int16 if px.dtype.itemsize == 1 else np.int32
    limit = int(np.iinfo(diff_type).max)
    t = min(max(math.floor(threshold), -limit), limit)
    w = px.shape[1]
    center = px[r0:r1, c0:c1]
    diff = np.empty(center.shape, dtype=diff_type)
    # brighter and darker at compass 0 or 8, then at compass 4 or 12
    tests = []
    for compass in (FAST_CIRCLE[0::8], FAST_CIRCLE[4::8]):
        bright = np.zeros(center.shape, dtype=bool)
        dark = np.zeros(center.shape, dtype=bool)
        for dr, dc in compass:
            np.subtract(px[r0 + dr:r1 + dr, c0 + dc:c1 + dc], center,
                        out=diff, dtype=diff_type)
            bright |= diff > t
            dark |= diff < -t
        tests.append((bright, dark))
    # both pixels of a compass pair (0, 4), (4, 8), (8, 12) or (12, 0)
    (bright, dark), (bright_b, dark_b) = tests
    bright &= bright_b
    dark &= dark_b
    bright |= dark
    rows, cols = np.nonzero(bright)
    rows += r0
    cols += c0

    flat = px.ravel()
    at = rows * w + cols
    ring = np.empty((len(at), len(FAST_CIRCLE)), dtype=diff_type)
    for k, (dr, dc) in enumerate(FAST_CIRCLE):
        ring[:, k] = flat.take(at + (dr * w + dc))
    ring -= flat.take(at)[:, None]
    codes = [np.packbits(test, axis=1, bitorder="little").view("<u2")[:, 0]
             for test in (ring > t, ring < -t)]
    arc = _ARC_TABLE[codes[0]] | _ARC_TABLE[codes[1]]
    rows, cols, ring = rows[arc], cols[arc], ring[arc]

    signed = np.stack([ring, -ring], axis=1)
    arcs = signed
    for k in range(1, FAST_ARC):
        arcs = np.minimum(arcs, np.roll(signed, -k, axis=2))
    scores = np.where(arcs > threshold, arcs, 0).max(axis=(1, 2))
    keep = scores > threshold
    return rows[keep], cols[keep], scores[keep].astype(np.float64)


def _data_columns(px: np.ndarray, nodata: int) -> tuple[int, int]:
    """First and one past the last column of ``px`` holding a pixel other
    than ``nodata``; (0, 0) when there is none.  Column extremes, not a
    mask of ``px``, so nothing of its size is allocated."""
    data = (px.min(axis=0) != nodata) | (px.max(axis=0) != nodata)
    if not data.any():
        return 0, 0
    return int(data.argmax()), len(data) - int(data[::-1].argmax())


def detect_corners(
    raster: Raster, threshold: float = MatchParams.fast_threshold,
    nms_radius: float = MatchParams.nms_radius,
) -> np.ndarray:
    """Segment-test corners with non-maximum suppression: an (n, 2)
    float64 array of (row, col), strongest first.

    A pixel is a corner when at least 9 contiguous pixels on its radius-3
    circle are all brighter or all darker than the center by more than
    ``threshold``; its score is the largest threshold at which the test
    still passes.  Suppression keeps the strongest corner within
    ``nms_radius`` (ties broken by position for determinism), testing
    each candidate only against the kept corners of the nearby grid
    cells.

    The test runs in row tiles of about FAST_TILE_PIXELS pixels
    (:func:`_segment_test`), so its memory does not grow with the
    raster.  A tile is tested only between the first and last columns
    holding a pixel other than ``raster.nodata`` within 3 rows of it,
    widened by 3 pixels: a pixel whose 7x7 window is all nodata differs
    from no ring pixel, so it cannot pass at a threshold of 0 or more.
    The nodata outside a rectified footprint thus costs one comparison
    per pixel.

    Raises:
        ValueError: ``threshold`` is negative or not finite.
    """
    if not 0 <= threshold < math.inf:
        raise ValueError(f"threshold ({threshold!r}) must be non-negative "
                         "and finite")
    px = raster.pixels
    h, w = px.shape
    if h < 7 or w < 7:
        return np.empty((0, 2))
    tile = max(1, FAST_TILE_PIXELS // w)
    parts = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    for r0 in range(3, h - 3, tile):
        r1 = min(r0 + tile, h - 3)
        c0, c1 = _data_columns(px[r0 - 3:r1 + 3], raster.nodata)
        c0, c1 = max(c0 - 3, 3), min(c1 + 3, w - 3)
        if c0 < c1:
            parts.append(_segment_test(px, r0, r1, c0, c1, threshold))
    rows, cols, scores = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((cols, rows, -scores))
    # Kept corners are bucketed in square cells no narrower than the
    # radius, so any within it of a candidate lie in the 3x3 cells around
    # the candidate's own.
    side = max(abs(nms_radius), 1.0)
    stride = w + 3
    cell = (rows // side) * stride + cols // side
    near = [dr * stride + dc for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    kept: list[tuple[int, int]] = []
    cells: dict[float, list[tuple[int, int]]] = {}
    r2 = nms_radius * nms_radius
    for r, c, key in zip(rows[order].tolist(), cols[order].tolist(),
                         cell[order].tolist()):
        if not any((kr - r) ** 2 + (kc - c) ** 2 <= r2 for d in near
                   for kr, kc in cells.get(key + d, ())):
            cells.setdefault(key, []).append((r, c))
            kept.append((r, c))
    return np.array(kept, dtype=np.float64).reshape(-1, 2)


def _check_census(window, blocks) -> None:
    if not (blocks >= 1 and window >= blocks and window % blocks == 0):
        raise ValueError(f"window ({window!r}) must be a positive multiple "
                         f"of blocks ({blocks!r})")


def census_bits(raster: Raster, rows, cols, window: int = MatchParams.window,
                blocks: int = MatchParams.blocks) -> np.ndarray:
    """Census bits of the windows centred at the integer pixels (rows,
    cols): (n, blocks², side² - 1) booleans, side = window // blocks.

    Windows and the 2-pixel apron of the 5x5 binomial filter are gathered
    by clipped indices, which replicates the raster edge (the window
    itself is not checked), CENSUS_BLOCK at a time, and filtered in exact
    integer arithmetic: values scale by 256, so 16-bit pixels fit int32.
    Each block of the blocks x blocks grid is census-transformed against
    its own center, a bit set where a pixel is strictly less, in raster
    order with the center dropped.

    Raises:
        ValueError: window is not a positive multiple of blocks.
    """
    _check_census(window, blocks)
    side = window // blocks
    center = (side // 2) * side + side // 2
    h, w = raster.pixels.shape
    offsets = np.arange(window + 2 * BLUR_MARGIN) - window // 2 - BLUR_MARGIN
    bits = np.empty((len(rows), blocks * blocks, side * side - 1), dtype=bool)
    for lo in range(0, len(rows), CENSUS_BLOCK):
        r = np.add.outer(rows[lo:lo + CENSUS_BLOCK], offsets).clip(0, h - 1)
        c = np.add.outer(cols[lo:lo + CENSUS_BLOCK], offsets).clip(0, w - 1)
        region = raster.pixels[r[:, :, None], c[:, None, :]].astype(np.int32)
        tmp = sum(k * region[:, :, i:i + window]
                  for i, k in enumerate(BLUR_KERNEL))
        filtered = sum(k * tmp[:, i:i + window]
                       for i, k in enumerate(BLUR_KERNEL))
        grid = filtered.reshape(-1, blocks, side, blocks, side).transpose(
            0, 1, 3, 2, 4).reshape(-1, blocks * blocks, side * side)
        bits[lo:lo + CENSUS_BLOCK] = np.delete(
            grid < grid[:, :, center, None], center, axis=2)
    return bits


def describe_features(raster: Raster, features,
                      window: int = MatchParams.window,
                      blocks: int = MatchParams.blocks):
    """``(positions, bits)``: the (k, 2) float64 positions, in input
    order, of the (n, 2) (row, col) features whose census window and
    filter apron fit inside the raster, and their :func:`census_bits`."""
    margin = window // 2 + BLUR_MARGIN
    pos = np.asarray(features, dtype=np.float64).reshape(-1, 2)
    pix = np.round(pos).astype(np.intp)
    fits = ((margin <= pix)
            & (pix < (raster.height - margin, raster.width - margin)))
    keep = np.flatnonzero(fits.all(axis=1))
    return pos[keep], census_bits(raster, *pix[keep].T, window, blocks)


def mbcensus_descriptor(
    raster: Raster, p: ImagePoint, window: int = MatchParams.window,
    blocks: int = MatchParams.blocks,
) -> np.ndarray:
    """Multi-block census bits at (rounded) position ``p``, shaped
    (blocks², side² - 1): the one-window case of :func:`census_bits`.

    Raises:
        WindowOutOfBounds: the window does not fit inside the raster.
        ValueError: window is not a positive multiple of blocks.
    """
    row, col, half = int(round(p.row)), int(round(p.col)), window // 2
    if not (half <= row < raster.height - half
            and half <= col < raster.width - half):
        raise WindowOutOfBounds(f"window of {window} px at ({row}, {col}) "
                                "leaves the raster")
    return census_bits(raster, [row], [col], window, blocks)[0]


def match_score(d1: np.ndarray, d2: np.ndarray) -> int:
    """Summed per-block hamming distance; lower means more similar.

    Raises:
        ConfigMismatch: descriptors of different shapes (configurations).
    """
    if d1.shape != d2.shape:
        raise ConfigMismatch(
            f"descriptor shapes differ: {d1.shape} vs {d2.shape}")
    return int(np.count_nonzero(d1 != d2))


def _project(rpc: rpc_mod.RpcModel, grounds: np.ndarray,
             status: np.ndarray) -> np.ndarray:
    """(K, 2) raw pixels of the (K, 3) ground rows whose ``status`` is
    ``SOLVED``, NaN elsewhere; a row whose denominator vanishes or whose
    projection is not finite becomes ``DEGENERATE`` in ``status``."""
    ok = np.flatnonzero(status == rpc_mod.SOLVED)
    raw, _, usable = rpc_mod.evaluate_masked(rpc.arrays, None, *grounds[ok].T)
    pix = np.full((len(grounds), 2), np.nan)
    pix[ok] = raw
    pix[ok[~usable]] = np.nan
    status[ok[~usable]] = rpc_mod.DEGENERATE
    return pix


def _cast(left: Level2Product, right: Level2Product, targets: np.ndarray,
          heights: np.ndarray):
    """Raw right pixels of the (K, 2) raw left pixels ``targets`` cast
    onto ``heights``: one batched cast under the left model, one
    projection under the right.

    Returns:
        ``(pix, status)``: (K, 2) pixels and the per-row outcome codes.
    """
    if not len(targets):
        return np.empty((0, 2)), np.empty(0, dtype=int)
    lats, lons, status = rpc_mod.inverse_project_many(
        left.rpc.arrays, None, targets, heights)
    grounds = np.stack([lats, lons, heights], axis=1)
    return _project(right.rpc, grounds, status), status


def epipolar_curves(
    points,
    left: Level2Product,
    right: Level2Product,
    min_h: float,
    max_h: float,
):
    """Quasi-epipolar polylines of many left pixels in the right image.

    Each left pixel, a (row, col) row of ``points``, is cast onto height
    planes from min_h to max_h and each ground point projected into the
    right image.  The planes are evenly spaced so that the vertices fall
    about 1 px apart, with at most MAX_CURVE_SAMPLES of them; vertices
    falling outside the right raster are clipped away.  Two batched casts
    serve all the pixels: one at [min_h, max_h] sizes each curve, one
    over every (pixel, height) row draws them.  Temporaries are
    proportional to the vertices cast, which the caller bounds.

    Returns:
        ``(curves, status)``: per pixel, an (m, 2) array of vertices
        (empty where its cast failed) and the outcome code of its cast,
        ``SOLVED`` or the first failure.

    Raises:
        ValueError: min_h is not below max_h.
    """
    vertices, counts, status = _curve_vertices(points, left, right, min_h,
                                               max_h)
    return np.split(vertices, np.cumsum(counts)[:-1]), status


def _curve_heights(spans, min_h: float, max_h: float):
    """``(counts, heights)``: per curve spanning ``spans`` px, the heights
    that place its vertices about 1 px apart, at most MAX_CURVE_SAMPLES
    of them, one curve after another.

    Heights are accumulated step by step (``np.add.accumulate`` adds in
    order), not by ``np.linspace``, whose heights differ in the last
    bits; an accumulated height within 1e-12 of max_h gives way to max_h.
    """
    n_vertices = np.clip(np.ceil(spans) + 1, 2, MAX_CURVE_SAMPLES)
    heights = np.empty((len(n_vertices), MAX_CURVE_SAMPLES + 1))
    heights[:, 0] = min_h
    heights[:, 1:] = ((max_h - min_h) / (n_vertices - 1))[:, None]
    np.add.accumulate(heights, axis=1, out=heights)
    heights[:, -1] = max_h
    kept = ((np.arange(MAX_CURVE_SAMPLES + 1) < n_vertices[:, None])
            & (heights < max_h - 1e-12))
    kept[:, -1] = True
    return kept.sum(axis=1), heights[kept]


def _curve_vertices(points, left, right, min_h: float, max_h: float):
    """:func:`epipolar_curves` as flat arrays: ``(vertices, counts,
    status)``, the (V, 2) vertices of all curves one after another,
    each curve's vertex count and each cast's outcome code."""
    if not min_h < max_h:
        raise ValueError("min_h must be below max_h")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = len(points)
    ends, end_status = _cast(left, right, np.repeat(points, 2, axis=0),
                             np.tile([min_h, max_h], n))
    end_status = end_status.reshape(n, 2)
    status = np.where(end_status[:, 0] != rpc_mod.SOLVED, end_status[:, 0],
                      end_status[:, 1])
    good = np.flatnonzero(status == rpc_mod.SOLVED)
    # math.hypot, not np.hypot, which rounds differently in the last bit
    counts, heights = _curve_heights(
        [math.hypot(*d) for d in
         (ends[2 * good + 1] - ends[2 * good]).tolist()], min_h, max_h)
    owner = np.repeat(good, counts)
    pix, row_status = _cast(left, right, points[owner], heights)
    failed = np.flatnonzero(row_status != rpc_mod.SOLVED)
    first = failed[np.diff(owner[failed], prepend=-1) != 0]
    status[owner[first]] = row_status[first]
    rows, cols = pix[:, 0], pix[:, 1]
    keep = ((status[owner] == rpc_mod.SOLVED)
            & (0 <= rows) & (rows <= right.raster.height - 1)
            & (0 <= cols) & (cols <= right.raster.width - 1))
    return pix[keep], np.bincount(owner[keep], minlength=n), status


def epipolar_curve(
    p: ImagePoint,
    left: Level2Product,
    right: Level2Product,
    min_h: float,
    max_h: float,
) -> list[ImagePoint]:
    """Quasi-epipolar polyline of a left pixel in the right image: the
    one-pixel case of :func:`epipolar_curves`.

    Raises:
        ValueError: min_h is not below max_h.
        NoConvergence, IllConditioned, DegenerateDenominator: casting
            the pixel onto some height failed.
    """
    curves, status = epipolar_curves([(p.row, p.col)], left, right, min_h,
                                     max_h)
    rpc_mod._raise_failure(status[0])
    return [ImagePoint(r, c) for r, c in curves[0].tolist()]


class _Grid(NamedTuple):
    """Points bucketed in square cells of a side, row-major from the
    cell of ``origin``: the points' sorted cell keys and their indices in
    that order, in point order within a cell."""

    origin: np.ndarray
    side: float
    shape: np.ndarray
    keys: np.ndarray
    order: np.ndarray

    def cells(self, xy: np.ndarray) -> np.ndarray:
        """(row, col) cells of positions, as floats; non-decreasing in
        each coordinate, so a box's corners bound its points' cells."""
        return np.floor((xy - self.origin) / self.side)


def _grid(points: np.ndarray, side: float) -> _Grid:
    origin = points.min(axis=0)
    cells = np.floor((points - origin) / side).astype(np.int64)
    shape = cells.max(axis=0) + 1
    keys = cells[:, 0] * shape[1] + cells[:, 1]
    order = np.argsort(keys, kind="stable")
    return _Grid(origin, side, shape, keys[order], order)


def _runs(counts: np.ndarray):
    """``(owner, rank)`` of the items of consecutive runs holding
    ``counts`` items each: each item's run and its place in that run."""
    owner = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - firsts[owner]


def _in_boxes(grid: _Grid, lo: np.ndarray, hi: np.ndarray):
    """``(box, point)``: the points in the cells that each box, (k, 2)
    corners ``lo`` and ``hi``, touches, box by box.  One key range per
    cell row of a box, found by binary search."""
    first = np.clip(grid.cells(lo), 0, grid.shape).astype(np.int64)
    last = np.clip(grid.cells(hi), -1, grid.shape - 1).astype(np.int64)
    n_rows = np.where((first <= last).all(axis=1),
                      last[:, 0] - first[:, 0] + 1, 0)
    box, rank = _runs(n_rows)
    row_key = (first[box, 0] + rank) * grid.shape[1]
    start = np.searchsorted(grid.keys, row_key + first[box, 1])
    stop = np.searchsorted(grid.keys, row_key + last[box, 1], side="right")
    run, rank = _runs(stop - start)
    return box[run], grid.order[start[run] + rank]


def _near_curves(vertices: np.ndarray, counts: np.ndarray,
                 points: np.ndarray, grid: _Grid, buffer: float):
    """The points within ``buffer`` of each curve, the curves given as
    :func:`_curve_vertices` gives them and the points bucketed in
    ``grid``.

    A curve's candidates are the points in the cells its bounding box
    touches, widened by the buffer and a pixel that absorbs rounding.
    Each (curve, point) candidate is tested against every segment of its
    curve, a one-vertex curve being one segment of zero length, and
    takes the first segment at its least distance.

    Returns:
        ``(curve, point, distance, nearest)`` per pair within the
        buffer, by curve: the indices, the distance to the curve and the
        (k, 2) closest curve point.
    """
    live = np.flatnonzero(counts)
    curve_start = np.cumsum(counts) - counts
    pad = buffer + 1.0
    box, point = _in_boxes(
        grid, np.minimum.reduceat(vertices, curve_start[live]) - pad,
        np.maximum.reduceat(vertices, curve_start[live]) + pad)
    curve = live[box]
    # the flat (candidate, segment) list
    n_segments = np.where(counts > 1, counts - 1, 1)[curve]
    pair, rank = _runs(n_segments)
    a = curve_start[curve][pair] + rank
    va, vb = vertices[a], vertices[a + (n_segments[pair] > 1)]
    p = points[point][pair]
    seg = vb - va
    seg_len2 = np.maximum((seg * seg).sum(axis=1), 1e-30)
    t = np.clip(((p - va) * seg).sum(axis=1) / seg_len2, 0.0, 1.0)
    on_segment = va + t[:, None] * seg
    d = np.hypot(p[:, 0] - on_segment[:, 0], p[:, 1] - on_segment[:, 1])
    dist = np.minimum.reduceat(d, np.cumsum(n_segments) - n_segments)
    near = dist <= buffer
    hit = np.flatnonzero(near[pair] & (d == dist[pair]))
    hit = hit[np.diff(pair[hit], prepend=-1) != 0]
    return curve[near], point[near], dist[near], on_segment[hit]


def match_pair(
    left: Level2Product,
    right: Level2Product,
    params: MatchParams = MatchParams(),
    *,
    left_features: np.ndarray,
    left_bits: np.ndarray,
    right_features: np.ndarray,
    right_bits: np.ndarray,
) -> np.ndarray:
    """Match the described features of two products, positions and
    census bits as :func:`describe_features` gives them, along epipolar
    buffers: an (n, 5) float64 array with one row per accepted match,
    left row, left col, right row, right col and hamming distance, in
    left feature order.

    For every left feature, right candidates are the features within the
    epipolar buffer of its height-swept curve; the best census score wins
    if it beats ``ratio_threshold`` times the second best (a lone
    candidate is accepted, the geometric filter below still guards it;
    ties prefer the candidate closest to the curve, then the first
    right feature).  Tentative matches are then offset-compensated by
    their median displacement from the curve and kept only if the
    triangulated pair reprojects within the filter tolerance.

    The right features are bucketed once in a grid of cells
    ``epipolar_buffer_px`` wide, and the left features are taken
    CURVE_BLOCK at a time: one cast draws the block's curves, and one
    flat list of (left, right, curve segment) triples, drawn from the
    cells around each curve, is measured, reduced to each pair's nearest
    segment, scored and ranked, with no loop over features.  The work
    and memory of a block grow with its curves' vertices times the
    right features near them, not with all the right features, whose
    grid costs a few bytes each.

    Raises:
        EmptyHeightRange: the left product's height range is empty.
    """
    min_h = left.rpc.hei_off - left.rpc.hei_scale
    max_h = left.rpc.hei_off + left.rpc.hei_scale
    if not min_h < max_h:
        raise EmptyHeightRange(
            f"{left.image_id}: HEIGHT_OFF {left.rpc.hei_off!r} +- "
            f"HEIGHT_SCALE {left.rpc.hei_scale!r} is an empty height range")
    if not len(left_features) or not len(right_features):
        return np.empty((0, 5))

    grid = _grid(right_features, params.epipolar_buffer_px)
    matches = []  # (left indices, right indices, scores, displacements)
    for lo in range(0, len(left_features), CURVE_BLOCK):
        vertices, counts, _ = _curve_vertices(
            left_features[lo:lo + CURVE_BLOCK], left, right, min_h, max_h)
        il, ir, dist, nearest = _near_curves(
            vertices, counts, right_features, grid,
            params.epipolar_buffer_px)
        scores = np.count_nonzero(right_bits[ir] != left_bits[lo + il],
                                  axis=(1, 2))
        # per left feature: by score, then distance, then right index
        order = np.lexsort((ir, dist, scores, il))
        il, scores = il[order], scores[order]
        head = np.flatnonzero(np.diff(il, prepend=-1))
        lone = np.r_[head[1:], len(il)] == head + 1
        runner_up = scores[np.minimum(head + 1, len(il) - 1)]
        best = head[lone | (scores[head]
                            < params.ratio_threshold * runner_up)]
        won = order[best]
        matches.append((lo + il[best], ir[won], scores[best],
                        right_features[ir[won]] - nearest[won]))

    il, ir, scores, disps = (np.concatenate(a) for a in zip(*matches))
    if not il.size:
        return np.empty((0, 5))
    median = np.median(disps, axis=0)
    # The curves assume zero right bias; observed rights sit at curve +
    # displacement, so the compensating right-image bias is minus the
    # median displacement.
    comp = -median

    pl, pr = left_features[il], right_features[ir]
    errors = np.concatenate([
        _reprojection_errors(left, right, comp, pl[lo:lo + MATCH_BLOCK],
                             pr[lo:lo + MATCH_BLOCK])
        for lo in range(0, len(pl), MATCH_BLOCK)])
    # NaN errors (failed triangulations) compare false: rejected
    keep = errors <= params.reproj_filter_px
    return np.column_stack([pl[keep], pr[keep], scores[keep]])


def _reprojection_errors(
    left: Level2Product,
    right: Level2Product,
    right_shift: np.ndarray,
    pl: np.ndarray,
    pr: np.ndarray,
) -> np.ndarray:
    """Worst reprojection error of each two-view match, NaN on failure.

    ``pl`` and ``pr`` are the (n, 2) left and right pixels and
    ``right_shift`` the (2,) bias of the right image; the left's is
    zero.  One :func:`rpc.triangulate_many` call covers all matches;
    those whose rays are too parallel to triangulate (e.g. a product
    matched against itself) are cast onto the left plane height instead.
    Any other failure rejects the match.
    """
    n = len(pl)
    # residual = observed - (raw - shift), so fold the shift into the target
    targets = np.empty((2 * n, 2))
    targets[0::2] = pl
    targets[1::2] = pr + right_shift
    grounds, status = rpc_mod.triangulate_many(
        rpc_mod.stack_models([left.rpc, right.rpc]), np.tile([0, 1], n),
        targets, np.arange(0, 2 * n + 1, 2))
    flat = np.flatnonzero((status == rpc_mod.SINGULAR)
                          | (status == rpc_mod.ILL_CONDITIONED))
    if flat.size:
        lats, lons, status[flat] = rpc_mod.inverse_project_many(
            left.rpc.arrays, None, pl[flat], left.plane_height)
        grounds[flat] = np.stack(
            [lats, lons, np.full(flat.size, left.plane_height)], axis=1)
    errors = np.zeros(n)
    for rpc, shift, observed in ((left.rpc, 0.0, pl),
                                 (right.rpc, right_shift, pr)):
        v = observed - (_project(rpc, grounds, status) - shift)
        # math.hypot, not np.hypot, which rounds differently in the last
        # bit
        errors = np.maximum(errors, [math.hypot(*r) for r in v.tolist()])
    return errors


# ---------------------------------------------------------------------------
# Match files (correspondences.txt)
# ---------------------------------------------------------------------------


def save_correspondences(
    pairs: list[tuple[str, str, np.ndarray]], path, header: str = "",
) -> None:
    """Write each pair's (left_id, right_id, matches) as text, one line
    per row of its (n, 5) :func:`match_pair` array."""
    textfile.write(path, (
        header, "pair_id left_row left_col right_row right_col score"), (
        f"{left_id}:{right_id} {lr!r} {lc!r} {rr!r} {rc!r} {int(score)}\n"
        for left_id, right_id, matches in pairs
        for lr, lc, rr, rc, score in np.asarray(matches, dtype=np.float64)
        .tolist()))


def load_correspondences(path) -> list[tuple[str, str, np.ndarray]]:
    """Read a correspondence file written by :func:`save_correspondences`:
    (left_id, right_id, matches) per pair, in the order of each pair's
    first line, its matches in file order.

    Raises:
        ParseError: malformed record or pair identifier.
    """
    # one flat list of numbers per pair, not a list per record
    per_pair: dict[str, list] = {}
    for line_no, pair_id, *match in textfile.records(path, "sffffi"):
        if len(pair_id.split(":")) != 2:
            raise ParseError(f"{path}:{line_no}: bad pair id {pair_id!r}")
        per_pair.setdefault(pair_id, []).extend(match)
    return [(*pair_id.split(":"),
             np.array(values, dtype=np.float64).reshape(-1, 5))
            for pair_id, values in per_pair.items()]
