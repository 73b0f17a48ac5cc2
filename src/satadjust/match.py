"""Tie-point matching between level-2 products.

Corners are detected with a 16-pixel segment test, described by a
multi-block census transform (3x3 grid of census strings over a filtered
window), and matched along quasi-epipolar curves obtained by casting each
left pixel onto a series of height planes.  A ratio test plus an
offset-compensated reprojection filter remove outliers.

The census pre-filter is a 5x5 binomial kernel (a discrete Gaussian with
sigma 1.0) evaluated in exact integer arithmetic, which makes descriptors
bit-identical under any positive affine integer intensity map; robustness
to general monotone transforms is then inherited by the comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _segment_test(px: np.ndarray, r0: int, r1: int, threshold: float):
    """Corners and their scores among the pixels of rows r0..r1, the
    3-pixel border excluded.

    Any 9 contiguous ring pixels hold two compass pixels (ring positions
    0, 4, 8 and 12) four apart, so a pixel can pass only if some adjacent
    compass pair is both brighter, or both darker, than its threshold.
    That pre-test is the only work done on every pixel.  The survivors'
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
    center = px[r0:r1, 3:w - 3]
    diff = np.empty(center.shape, dtype=diff_type)
    bright, dark = [], []
    for dr, dc in FAST_CIRCLE[::4]:
        np.subtract(px[r0 + dr:r1 + dr, 3 + dc:w - 3 + dc], center, out=diff,
                    dtype=diff_type)
        bright.append(diff > t)
        dark.append(diff < -t)
    # both pixels of a compass pair (0, 4), (4, 8), (8, 12) or (12, 0)
    rows, cols = np.nonzero(
        ((bright[0] | bright[2]) & (bright[1] | bright[3]))
        | ((dark[0] | dark[2]) & (dark[1] | dark[3])))
    rows += r0
    cols += 3

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
    raster.
    """
    px = raster.pixels
    h, w = px.shape
    if h < 7 or w < 7:
        return np.empty((0, 2))
    tile = max(1, FAST_TILE_PIXELS // w)
    rows, cols, scores = (np.concatenate(parts) for parts in zip(*(
        _segment_test(px, r0, min(r0 + tile, h - 3), threshold)
        for r0 in range(3, h - 3, tile))))
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
    heights = []
    starts = [0]
    for i in good:
        (r0, c0), (r1, c1) = ends[2 * i:2 * i + 2]
        span = math.hypot(r1 - r0, c1 - c0)
        n_vertices = int(min(max(math.ceil(span) + 1, 2), MAX_CURVE_SAMPLES))
        dh = (max_h - min_h) / (n_vertices - 1)
        # accumulated steps, not np.linspace, whose heights differ in the
        # last bits
        h = min_h
        while h < max_h - 1e-12:
            heights.append(h)
            h += dh
        heights.append(max_h)
        starts.append(len(heights))
    pix, row_status = _cast(
        left, right, np.repeat(points[good], np.diff(starts), axis=0),
        np.array(heights))
    rows, cols = pix[:, 0], pix[:, 1]
    inside = ((0 <= rows) & (rows <= right.raster.height - 1)
              & (0 <= cols) & (cols <= right.raster.width - 1))
    curves = [np.empty((0, 2))] * n
    for i, lo, hi in zip(good, starts[:-1], starts[1:]):
        failed = row_status[lo:hi][row_status[lo:hi] != rpc_mod.SOLVED]
        if failed.size:
            status[i] = failed[0]
        else:
            curves[i] = pix[lo:hi][inside[lo:hi]]
    return curves, status


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


def _nearest_on_polyline(points: np.ndarray, vertices: np.ndarray):
    """Closest points of a polyline (m, 2) to points (n, 2).

    Returns:
        ``(distances, nearest)``: the (n,) distances and the (n, 2)
        closest polyline points.
    """
    if len(vertices) == 1:
        nearest = np.broadcast_to(vertices[0], points.shape)
        return np.hypot(*(points - nearest).T), nearest
    a = vertices[:-1]
    seg = vertices[1:] - a
    seg_len2 = np.maximum((seg * seg).sum(axis=1), 1e-30)
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip((rel * seg[None]).sum(axis=2) / seg_len2[None], 0.0, 1.0)
    on_segment = a[None] + t[:, :, None] * seg[None]
    d = np.hypot(points[:, None, 0] - on_segment[:, :, 0],
                 points[:, None, 1] - on_segment[:, :, 1])
    k = d.argmin(axis=1)
    n = np.arange(len(points))
    return d[n, k], on_segment[n, k]


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
    ties prefer the candidate closest to the curve).  Tentative matches
    are then offset-compensated by their median displacement from the
    curve and kept only if the triangulated pair reprojects within the
    filter tolerance.

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

    curves = []
    for lo in range(0, len(left_features), CURVE_BLOCK):
        curves += epipolar_curves(left_features[lo:lo + CURVE_BLOCK], left,
                                  right, min_h, max_h)[0]

    matches = []  # (left index, right index, score)
    disps = []
    for i, vertices in enumerate(curves):
        if not len(vertices):
            continue
        dist, nearest = _nearest_on_polyline(right_features, vertices)
        candidates = np.flatnonzero(dist <= params.epipolar_buffer_px)
        if candidates.size == 0:
            continue
        scores = np.count_nonzero(right_bits[candidates] != left_bits[i],
                                  axis=(1, 2))
        # stable: ties in score and distance keep the feature order
        order = np.lexsort((dist[candidates], scores))
        best = candidates[order[0]]
        if (len(order) > 1 and not scores[order[0]]
                < params.ratio_threshold * scores[order[1]]):
            continue
        matches.append((i, best, scores[order[0]]))
        disps.append(right_features[best] - nearest[best])

    if not matches:
        return np.empty((0, 5))

    il, ir, scores = np.array(matches).T
    median = np.median(np.array(disps), axis=0)
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
