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
from .errors import (
    ConfigMismatch,
    IllConditioned,
    NoConvergence,
    ParseError,
    WindowOutOfBounds,
)
from .raster import Raster
from .rectify import Level2Product
from .rpc import BiasCorrection, ImagePoint

_ZERO_BIAS = BiasCorrection(0.0, 0.0)

# Bresenham circle of radius 3, 16 pixels in ring order (row, col offsets).
FAST_CIRCLE = np.array([
    (-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1),
])
FAST_ARC = 9

# 5x5 binomial kernel, the integer Gaussian with variance 1 (sigma 1.0).
BLUR_KERNEL = np.array([1, 4, 6, 4, 1], dtype=np.int64)
BLUR_MARGIN = 2

MAX_CURVE_SAMPLES = 64


@dataclass(frozen=True)
class Feature:
    """Detected corner: integer pixel position and segment-test score."""

    position: ImagePoint
    score: float


@dataclass(frozen=True)
class MBCensusDescriptor:
    """Census bit strings of the 3x3 blocks of a matching window.

    ``bits[b, k]`` is 1 where block b's k-th pixel (raster order, center
    excluded) is strictly darker than the block center after filtering.
    """

    bits: np.ndarray
    window: int
    blocks: int

    def __post_init__(self):
        object.__setattr__(self, "bits",
                           np.asarray(self.bits, dtype=np.uint8))
        per_block = (self.window // self.blocks) ** 2 - 1
        if self.bits.shape != (self.blocks * self.blocks, per_block):
            raise ValueError("descriptor bit matrix has the wrong shape")

    @property
    def total_bits(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True)
class Correspondence:
    """An accepted left/right match; score is the hamming distance."""

    left: Feature
    right: Feature
    score: int
    left_image: str
    right_image: str

    @property
    def pair_id(self) -> str:
        return f"{self.left_image}:{self.right_image}"


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
        if self.window % self.blocks != 0:
            raise ValueError("window must divide evenly into blocks")
        for name in ("epipolar_buffer_px", "ratio_threshold",
                     "reproj_filter_px", "fast_threshold", "nms_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def select_pairs(
    products: list[Level2Product], threshold: float = 0.6
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


def _segment_score(diffs: np.ndarray, threshold: float) -> float:
    """Best min-difference over any 9-long bright or dark circular arc."""
    best = 0.0
    for signed in (diffs, -diffs):
        ring = np.concatenate([signed, signed[:FAST_ARC - 1]])
        for start in range(len(diffs)):
            lo = float(ring[start:start + FAST_ARC].min())
            if lo > threshold and lo > best:
                best = lo
    return best


def detect_corners(
    raster: Raster, threshold: float = 20.0, nms_radius: float = 5.0
) -> list[Feature]:
    """Segment-test corners with non-maximum suppression.

    A pixel is a corner when at least 9 contiguous pixels on its radius-3
    circle are all brighter or all darker than the center by more than
    ``threshold``; the score is the largest threshold at which the test
    still passes.  Suppression keeps the strongest feature within
    ``nms_radius`` (ties broken by position for determinism).
    """
    px = raster.pixels.astype(np.int32)
    h, w = px.shape
    if h < 7 or w < 7:
        return []
    center = px[3:h - 3, 3:w - 3]
    diff = np.stack([px[3 + dr:h - 3 + dr, 3 + dc:w - 3 + dc]
                     for dr, dc in FAST_CIRCLE])
    diff -= center

    def arc_hit(mask: np.ndarray) -> np.ndarray:
        n = len(FAST_CIRCLE)
        hit = np.zeros(mask.shape[1:], dtype=bool)
        for start in range(n):
            run = mask[start]
            for k in range(1, FAST_ARC):
                run = run & mask[(start + k) % n]
            hit |= run
        return hit

    candidates = arc_hit(diff > threshold) | arc_hit(diff < -threshold)
    rows, cols = np.nonzero(candidates)
    scored = []
    for r, c in zip(rows, cols):
        score = _segment_score(diff[:, r, c].astype(np.float64), threshold)
        if score > threshold:
            scored.append((score, int(r) + 3, int(c) + 3))
    scored.sort(key=lambda s: (-s[0], s[1], s[2]))

    kept: list[Feature] = []
    kept_rc = np.empty((len(scored), 2))
    r2 = nms_radius * nms_radius
    for score, r, c in scored:
        n = len(kept)
        if n:
            d2 = (kept_rc[:n, 0] - r) ** 2 + (kept_rc[:n, 1] - c) ** 2
            if float(d2.min()) <= r2:
                continue
        kept_rc[n] = r, c
        kept.append(Feature(ImagePoint(float(r), float(c)), score))
    return kept


def _blurred_window(raster: Raster, row: int, col: int,
                    window: int) -> np.ndarray:
    """Filtered window, integer arithmetic, values scaled by 256.

    The 5x5 binomial filter needs a 2-pixel apron around the window; the
    apron is edge-replicated where it leaves the raster, the window itself
    must fit.
    """
    half = window // 2
    h, w = raster.pixels.shape
    if row - half < 0 or col - half < 0 or row + half >= h or col + half >= w:
        raise WindowOutOfBounds(
            f"window of {window} px at ({row}, {col}) leaves the raster"
        )
    r_lo, r_hi = row - half - BLUR_MARGIN, row + half + BLUR_MARGIN + 1
    c_lo, c_hi = col - half - BLUR_MARGIN, col + half + BLUR_MARGIN + 1
    pad_r = (max(0, -r_lo), max(0, r_hi - h))
    pad_c = (max(0, -c_lo), max(0, c_hi - w))
    region = raster.pixels[max(r_lo, 0):min(r_hi, h),
                           max(c_lo, 0):min(c_hi, w)].astype(np.int64)
    if any(pad_r) or any(pad_c):
        region = np.pad(region, (pad_r, pad_c), mode="edge")
    tmp = sum(BLUR_KERNEL[k] * region[:, k:k + window] for k in range(5))
    out = sum(BLUR_KERNEL[k] * tmp[k:k + window, :] for k in range(5))
    return out


def mbcensus_descriptor(
    raster: Raster, p: ImagePoint, window: int = 27, blocks: int = 3
) -> MBCensusDescriptor:
    """Multi-block census descriptor at (rounded) position ``p``.

    The window is filtered, split into a blocks x blocks grid, and each
    block is census-transformed against its own center pixel (bit 1 where
    a pixel is strictly less than the center), concatenated in raster
    order with the center position dropped.

    Raises:
        WindowOutOfBounds: the window does not fit inside the raster.
    """
    if window % blocks != 0:
        raise ValueError("window must divide evenly into blocks")
    row = int(round(p.row))
    col = int(round(p.col))
    filtered = _blurred_window(raster, row, col, window)
    side = window // blocks
    grid = filtered.reshape(blocks, side, blocks, side).transpose(0, 2, 1, 3)
    flat = grid.reshape(blocks * blocks, side * side)
    centers = flat[:, (side // 2) * side + side // 2]
    bits = (flat < centers[:, None]).astype(np.uint8)
    bits = np.delete(bits, (side // 2) * side + side // 2, axis=1)
    return MBCensusDescriptor(bits=bits, window=window, blocks=blocks)


def match_score(d1: MBCensusDescriptor, d2: MBCensusDescriptor) -> int:
    """Summed per-block hamming distance; lower means more similar.

    Raises:
        ConfigMismatch: descriptors from different configurations.
    """
    if (d1.window, d1.blocks) != (d2.window, d2.blocks):
        raise ConfigMismatch(
            f"descriptor configs differ: window/blocks "
            f"{(d1.window, d1.blocks)} vs {(d2.window, d2.blocks)}"
        )
    return int(np.count_nonzero(d1.bits != d2.bits))


def epipolar_curve(
    p: ImagePoint,
    left: Level2Product,
    right: Level2Product,
    min_h: float,
    max_h: float,
) -> list[ImagePoint]:
    """Quasi-epipolar polyline of a left pixel in the right image.

    The left pixel is cast onto height planes from min_h to max_h and
    each ground point projected into the right image.  The planes are
    evenly spaced so that the vertices fall about 1 px apart, with at
    most MAX_CURVE_SAMPLES of them; vertices falling outside the right
    raster are clipped away.

    Raises:
        ValueError: min_h is not below max_h.
        NoConvergence, IllConditioned, DegenerateDenominator: casting
            the pixel onto some height failed.
    """
    if not min_h < max_h:
        raise ValueError("min_h must be below max_h")

    def cast(heights):
        lats, lons = rpc_mod.inverse_project_arrays(
            left.rpc, _ZERO_BIAS, p.row, p.col, heights)
        return rpc_mod.project_arrays(right.rpc, _ZERO_BIAS, lats, lons,
                                      heights)

    rows, cols = cast([min_h, max_h])
    span = math.hypot(rows[1] - rows[0], cols[1] - cols[0])
    n_vertices = int(min(max(math.ceil(span) + 1, 2), MAX_CURVE_SAMPLES))
    dh = (max_h - min_h) / (n_vertices - 1)
    # accumulated steps, not np.linspace, whose heights differ in the
    # last bits
    heights = []
    h = min_h
    while h < max_h - 1e-12:
        heights.append(h)
        h += dh
    heights.append(max_h)

    rows, cols = cast(heights)
    inside = ((0 <= rows) & (rows <= right.raster.height - 1)
              & (0 <= cols) & (cols <= right.raster.width - 1))
    return [ImagePoint(float(r), float(c))
            for r, c in zip(rows[inside], cols[inside])]


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
    left_features: list[Feature] | None = None,
    right_features: list[Feature] | None = None,
) -> list[Correspondence]:
    """Match corner features of two products along epipolar buffers.

    For every left feature, right candidates are the features within the
    epipolar buffer of its height-swept curve; the best census score wins
    if it beats 0.6 of the second best (a lone candidate is accepted, the
    geometric filter below still guards it; ties prefer the candidate
    closest to the curve).  Tentative matches are then offset-compensated
    by their median displacement from the curve and kept only if the
    triangulated pair reprojects within the filter tolerance.

    Detection is rerun unless precomputed features are supplied.
    """
    if left_features is None:
        left_features = detect_corners(left.raster, params.fast_threshold,
                                       params.nms_radius)
    if right_features is None:
        right_features = detect_corners(right.raster, params.fast_threshold,
                                        params.nms_radius)
    margin = params.window // 2 + BLUR_MARGIN

    def usable(features: list[Feature], raster: Raster) -> list[Feature]:
        out = []
        for f in features:
            r, c = int(round(f.position.row)), int(round(f.position.col))
            if (margin <= r < raster.height - margin
                    and margin <= c < raster.width - margin):
                out.append(f)
        return out

    left_use = usable(left_features, left.raster)
    right_use = usable(right_features, right.raster)
    if not left_use or not right_use:
        return []

    left_desc = [mbcensus_descriptor(left.raster, f.position,
                                     params.window, params.blocks)
                 for f in left_use]
    right_desc = [mbcensus_descriptor(right.raster, f.position,
                                      params.window, params.blocks)
                  for f in right_use]
    right_pos = np.array([(f.position.row, f.position.col)
                          for f in right_use])

    min_h = left.rpc.hei_off - left.rpc.hei_scale
    max_h = left.rpc.hei_off + left.rpc.hei_scale

    tentative = []  # (left feature, right feature, score, displacement)
    for fl, dl in zip(left_use, left_desc):
        try:
            curve = epipolar_curve(fl.position, left, right, min_h, max_h)
        except (NoConvergence, IllConditioned):
            continue
        if not curve:
            continue
        vertices = np.array([(v.row, v.col) for v in curve])
        dist, nearest = _nearest_on_polyline(right_pos, vertices)
        candidate_idx = np.nonzero(dist <= params.epipolar_buffer_px)[0]
        if candidate_idx.size == 0:
            continue
        scores = [match_score(dl, right_desc[k]) for k in candidate_idx]
        order = sorted(range(len(scores)),
                       key=lambda s: (scores[s], dist[candidate_idx[s]]))
        best = candidate_idx[order[0]]
        best_score = scores[order[0]]
        if len(order) > 1:
            second_score = scores[order[1]]
            if not best_score < params.ratio_threshold * second_score:
                continue
        disp = right_pos[best] - nearest[best]
        tentative.append((fl, right_use[best], best_score, disp))

    if not tentative:
        return []

    disps = np.array([t[3] for t in tentative])
    median = np.median(disps, axis=0)
    # The curves assume zero right bias; observed rights sit at curve +
    # displacement, so the compensating right-image bias is minus the
    # median displacement.
    comp = BiasCorrection(-float(median[0]), -float(median[1]))

    accepted = []
    for fl, fr, score, _ in tentative:
        error = _pair_reprojection(left, right, comp, fl.position,
                                   fr.position)
        if error is not None and error <= params.reproj_filter_px:
            accepted.append(Correspondence(
                left=fl, right=fr, score=score,
                left_image=left.image_id, right_image=right.image_id,
            ))
    return accepted


def _pair_reprojection(
    left: Level2Product,
    right: Level2Product,
    right_bias: BiasCorrection,
    pl: ImagePoint,
    pr: ImagePoint,
) -> float | None:
    """Worst reprojection error of a two-view match, or None on failure.

    Falls back to a plane-constrained check when the two rays are too
    parallel to triangulate (e.g. a product matched against itself).
    """
    obs = [(left.rpc, _ZERO_BIAS, pl), (right.rpc, right_bias, pr)]
    try:
        g = rpc_mod.triangulate(obs)
    except IllConditioned:
        try:
            g = rpc_mod.inverse_project(left.rpc, _ZERO_BIAS, pl,
                                        left.plane_height)
        except (NoConvergence, IllConditioned):
            return None
    except NoConvergence:
        return None
    errors = []
    for rpc, bias, p in obs:
        v = rpc_mod.residual(rpc, bias, g, p)
        errors.append(math.hypot(*v))
    return max(errors)


# ---------------------------------------------------------------------------
# Correspondence files
# ---------------------------------------------------------------------------


def save_correspondences(
    corrs: list[Correspondence], path, params: MatchParams = MatchParams()
) -> None:
    """Write matches as text with a configuration header line."""
    with open(path, "w") as fh:
        fh.write(
            "# correspondences"
            f" window={params.window} blocks={params.blocks}"
            f" epipolar_buffer_px={params.epipolar_buffer_px!r}"
            f" ratio_threshold={params.ratio_threshold!r}"
            f" reproj_filter_px={params.reproj_filter_px!r}"
            f" fast_threshold={params.fast_threshold!r}"
            f" nms_radius={params.nms_radius!r}\n"
        )
        fh.write("# pair_id left_row left_col right_row right_col score\n")
        for c in corrs:
            fh.write(
                f"{c.pair_id} {c.left.position.row!r} {c.left.position.col!r}"
                f" {c.right.position.row!r} {c.right.position.col!r}"
                f" {c.score}\n"
            )


def load_correspondences(path) -> list[Correspondence]:
    """Read a correspondence file written by :func:`save_correspondences`.

    Loaded features carry score 0 (corner responses are not persisted).

    Raises:
        ParseError: malformed record or pair identifier.
    """
    corrs = []
    for line_no, pair_id, lr, lc, rr, rc, score in textfile.records(
            path, "sffffi"):
        pair = pair_id.split(":")
        if len(pair) != 2:
            raise ParseError(f"{path}:{line_no}: bad pair id {pair_id!r}")
        corrs.append(Correspondence(
            left=Feature(ImagePoint(lr, lc), 0.0),
            right=Feature(ImagePoint(rr, rc), 0.0),
            score=score, left_image=pair[0], right_image=pair[1],
        ))
    return corrs
