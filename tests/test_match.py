"""Unit tests for corner detection, census matching and epipolar search."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import satadjust.match as match_mod
import satadjust.rpc as rpc_mod
from satadjust.errors import (
    ConfigMismatch,
    DegenerateDenominator,
    IllConditioned,
    NoConvergence,
    ParseError,
    WindowOutOfBounds,
)
from satadjust.match import (
    BLUR_KERNEL,
    BLUR_MARGIN,
    CENSUS_BLOCK,
    FAST_ARC,
    FAST_CIRCLE,
    MAX_CURVE_SAMPLES,
    MatchParams,
    _nearest_on_polyline,
    _reprojection_errors,
    _segment_test,
    census_bits,
    describe_features,
    detect_corners,
    epipolar_curve,
    epipolar_curves,
    load_correspondences,
    match_pair,
    match_score,
    mbcensus_descriptor,
    save_correspondences,
    select_pairs,
)
from satadjust.raster import Raster
from satadjust.rpc import BiasCorrection, ImagePoint
from satadjust.synth import gen_scene, scene_products

# ---------------------------------------------------------------------------
# Shared stereo scene: right image biased by (10, 10) px
# ---------------------------------------------------------------------------

RIGHT_BIAS = BiasCorrection(10.0, 10.0)


@pytest.fixture(scope="module")
def stereo():
    scene = gen_scene(
        2, 120, 0.0, 0.0, seed=88, render=True, half_extent_m=500.0,
        biases=[BiasCorrection(), RIGHT_BIAS],
    )
    products = scene_products(scene)
    return scene, products


def match(left, right, params=MatchParams(), left_features=None,
          right_features=None):
    """match_pair on the described features of two products: their
    detected corners unless features are given."""
    (lf, lb), (rf, rb) = (
        describe_features(p.raster, detect_corners(p.raster) if f is None
                          else f, params.window, params.blocks)
        for p, f in ((left, left_features), (right, right_features)))
    return match_pair(left, right, params, left_features=lf, left_bits=lb,
                      right_features=rf, right_bits=rb)


def planted_positions(scene, index):
    """Noiseless rendered dot centers of every point in one image."""
    out = []
    img = scene.images[index]
    for g in scene.true_points:
        raw = rpc_mod.project(img.rpc, BiasCorrection(), g)
        out.append((raw.row - img.true_bias.d_row,
                    raw.col - img.true_bias.d_col))
    return np.array(out)


def pair_offset(matches, left, right) -> tuple[float, float]:
    """Median displacement of stored matches from their epipolar curves.

    Recomputed from the persisted matches alone, so the reprojection
    guarantee of match_pair can be re-checked after the fact.
    """
    min_h = left.rpc.hei_off - left.rpc.hei_scale
    max_h = left.rpc.hei_off + left.rpc.hei_scale
    disps = []
    for lr, lc, rr, rc, _ in matches.tolist():
        curve = epipolar_curve(ImagePoint(lr, lc), left, right, min_h, max_h)
        if not curve:
            continue
        vertices = np.array([(v.row, v.col) for v in curve])
        point = np.array([[rr, rc]])
        _, nearest = _nearest_on_polyline(point, vertices)
        disps.append(point[0] - nearest[0])
    if not disps:
        return 0.0, 0.0
    median = np.median(np.array(disps), axis=0)
    return float(median[0]), float(median[1])


def monotone(raster: Raster) -> Raster:
    """Affine intensity transform 2 * v + 30 (strictly increasing)."""
    return Raster((2 * raster.pixels.astype(np.int64) + 30).astype(
        raster.pixels.dtype), nodata=raster.nodata)


# ---------------------------------------------------------------------------
# Corner detection
# ---------------------------------------------------------------------------


def test_detect_corners_finds_planted_dots(stereo):
    scene, products = stereo
    planted = planted_positions(scene, 0)
    pos = detect_corners(products[0].raster)
    found = 0
    for r, c in planted:
        d = np.hypot(pos[:, 0] - r, pos[:, 1] - c)
        if d.min() <= 1.5:
            found += 1
    assert found >= 0.95 * len(planted)


def test_detect_corners_is_deterministic(stereo):
    _, products = stereo
    a = detect_corners(products[0].raster)
    b = detect_corners(products[0].raster)
    assert np.array_equal(a, b)


def test_detect_corners_flat_image_is_empty():
    flat = Raster(np.full((64, 64), 80, dtype=np.uint8))
    assert detect_corners(flat).shape == (0, 2)


def test_detect_corners_below_seven_pixels_is_empty():
    tiny = Raster(np.random.default_rng(5).integers(0, 256, (6, 6))
                  .astype(np.uint8))
    corners = detect_corners(tiny)
    assert corners.shape == (0, 2) and corners.dtype == np.float64


def test_nms_keeps_single_feature_for_twin_dots():
    px = np.full((48, 48), 40.0)
    rr, cc = np.meshgrid(np.arange(48.0), np.arange(48.0), indexing="ij")
    for r0, c0, amp in ((24.0, 22.0, 50.0), (24.0, 25.0, 38.0)):
        px += amp * np.exp(-((rr - r0) ** 2 + (cc - c0) ** 2) / 3.2)
    raster = Raster(px.astype(np.uint8))
    features = detect_corners(raster, threshold=15.0, nms_radius=5.0)
    assert len(features) == 1
    assert features[0, 1] == pytest.approx(22.0, abs=1.5)


def segment_score(diffs: np.ndarray, threshold: float) -> float:
    """Best min-difference over any 9-long bright or dark circular arc."""
    best = 0.0
    for signed in (diffs, -diffs):
        ring = np.concatenate([signed, signed[:FAST_ARC - 1]])
        for start in range(len(diffs)):
            lo = float(ring[start:start + FAST_ARC].min())
            if lo > threshold and lo > best:
                best = lo
    return best


def segment_test_oracle(raster: Raster,
                        threshold: float) -> list[tuple[float, int, int]]:
    """The segment test pixel by pixel: (score, row, col) of every
    candidate, in raster order."""
    px = raster.pixels.astype(np.int64)
    h, w = px.shape
    scored = []
    for r in range(3, h - 3):
        for c in range(3, w - 3):
            diffs = np.array([px[r + dr, c + dc] - px[r, c]
                              for dr, dc in FAST_CIRCLE], dtype=np.float64)
            score = segment_score(diffs, threshold)
            if score > threshold:
                scored.append((score, r, c))
    return scored


def suppression_oracle(scored, nms_radius: float) -> np.ndarray:
    """Non-maximum suppression of the candidates against every kept
    corner: their (row, col), strongest first."""
    kept = []
    for _, r, c in sorted(scored, key=lambda s: (-s[0], s[1], s[2])):
        if all((r - kr) ** 2 + (c - kc) ** 2 > nms_radius ** 2
               for kr, kc in kept):
            kept.append((float(r), float(c)))
    return np.array(kept).reshape(-1, 2)


def check_against_oracle(raster: Raster, threshold: float,
                         nms_radius: float) -> np.ndarray:
    """The scores of all candidates, then the kept corners, against the
    oracles; returns the corners."""
    scored = segment_test_oracle(raster, threshold)
    rows, cols, scores = _segment_test(raster.pixels, 3, raster.height - 3,
                                       threshold)
    assert list(zip(scores.tolist(), rows.tolist(), cols.tolist())) == scored
    corners = detect_corners(raster, threshold, nms_radius)
    np.testing.assert_array_equal(corners,
                                  suppression_oracle(scored, nms_radius))
    return corners


@pytest.mark.parametrize("threshold", [15.5, 20.0])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_detect_corners_equals_per_pixel_oracle(dtype, threshold):
    gen = np.random.default_rng(9)
    # full-range differences on the left, differences near the threshold
    # on the right
    top = np.iinfo(dtype).max + 1
    px = np.concatenate([gen.integers(0, top, (40, 26)),
                         top // 2 + gen.integers(-24, 25, (40, 26))], axis=1)
    raster = Raster(px.astype(dtype))
    assert len(check_against_oracle(raster, threshold, 5.0)) > 5


@pytest.mark.parametrize("nms_radius", [1.5, 5.0])
def test_detect_corners_dense_equals_per_pixel_oracle(nms_radius):
    """Full-range noise: 2,734 candidates, of which NMS suppresses about
    half at radius 1.5 and nine tenths at radius 5, many on equal
    scores."""
    gen = np.random.default_rng(10)
    raster = Raster(gen.integers(0, 256, (110, 110)).astype(np.uint8))
    assert len(check_against_oracle(raster, 20.0, nms_radius)) > 200


def test_detect_corners_is_tile_independent(stereo, monkeypatch):
    """The compass pre-test and the ring gathers near tile borders: one
    row per tile and the whole raster in one tile find the same corners."""
    raster = stereo[1][0].raster
    default = detect_corners(raster)
    assert len(default)
    for tile in (1, raster.pixels.size):
        monkeypatch.setattr(match_mod, "FAST_TILE_PIXELS", tile)
        assert np.array_equal(detect_corners(raster), default)


def test_detect_corners_memory_is_bounded(stereo):
    _, products = stereo
    pixels = products[0].raster.pixels
    reps = (-(-2000 // pixels.shape[0]), -(-2000 // pixels.shape[1]))
    raster = Raster(np.ascontiguousarray(
        np.tile(pixels, reps)[:2000, :2000]))
    assert raster.pixels.dtype == np.uint8
    tracemalloc.start()
    try:
        features = detect_corners(raster)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(features)
    # a 2000^2 uint8 raster is 4 MB; the test runs in row tiles
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# Census descriptors
# ---------------------------------------------------------------------------


def test_descriptor_invariant_under_monotone_transform(stereo):
    _, products = stereo
    raster = products[0].raster
    transformed = monotone(raster)
    for r, c in detect_corners(raster)[:25].tolist():
        try:
            d1 = mbcensus_descriptor(raster, ImagePoint(r, c))
            d2 = mbcensus_descriptor(transformed, ImagePoint(r, c))
        except WindowOutOfBounds:
            continue
        np.testing.assert_array_equal(d1, d2)


def test_descriptor_shape_and_score():
    gen = np.random.default_rng(6)
    raster = Raster(gen.integers(0, 200, (64, 64)).astype(np.uint8))
    d = mbcensus_descriptor(raster, ImagePoint(32.0, 32.0))
    assert d.shape == (9, 80)
    assert d.size == 720
    assert match_score(d, d) == 0


def test_match_score_counts_flipped_bits():
    gen = np.random.default_rng(7)
    raster = Raster(gen.integers(0, 200, (64, 64)).astype(np.uint8))
    d1 = mbcensus_descriptor(raster, ImagePoint(30.0, 30.0))
    d2 = d1.copy()
    d2[0, :5] ^= True
    assert match_score(d1, d2) == 5


def test_match_score_rejects_config_mismatch():
    gen = np.random.default_rng(8)
    raster = Raster(gen.integers(0, 200, (80, 80)).astype(np.uint8))
    d27 = mbcensus_descriptor(raster, ImagePoint(40.0, 40.0), window=27)
    d21 = mbcensus_descriptor(raster, ImagePoint(40.0, 40.0), window=21)
    with pytest.raises(ConfigMismatch):
        match_score(d27, d21)


def test_descriptor_window_must_fit():
    raster = Raster(np.zeros((30, 30), dtype=np.uint8))
    with pytest.raises(WindowOutOfBounds):
        mbcensus_descriptor(raster, ImagePoint(5.0, 15.0))


def blurred_window(raster: Raster, row: int, col: int,
                   window: int) -> np.ndarray:
    """Filtered window of one pixel, values scaled by 256: the apron is
    cut at the raster and edge-replicated by ``np.pad``."""
    half = window // 2
    h, w = raster.pixels.shape
    r_lo, r_hi = row - half - BLUR_MARGIN, row + half + BLUR_MARGIN + 1
    c_lo, c_hi = col - half - BLUR_MARGIN, col + half + BLUR_MARGIN + 1
    pad_r = (max(0, -r_lo), max(0, r_hi - h))
    pad_c = (max(0, -c_lo), max(0, c_hi - w))
    region = raster.pixels[max(r_lo, 0):min(r_hi, h),
                           max(c_lo, 0):min(c_hi, w)].astype(np.int64)
    if any(pad_r) or any(pad_c):
        region = np.pad(region, (pad_r, pad_c), mode="edge")
    tmp = sum(k * region[:, i:i + window] for i, k in enumerate(BLUR_KERNEL))
    return sum(k * tmp[i:i + window, :] for i, k in enumerate(BLUR_KERNEL))


def census_oracle(raster: Raster, row: int, col: int, window: int,
                  blocks: int) -> np.ndarray:
    """Census bits of one window, block by block."""
    side = window // blocks
    filtered = blurred_window(raster, row, col, window)
    center = (side // 2) * side + side // 2
    out = []
    for br in range(blocks):
        for bc in range(blocks):
            block = filtered[br * side:(br + 1) * side,
                             bc * side:(bc + 1) * side].reshape(-1)
            out.append(np.delete(block < block[center], center))
    return np.array(out)


@pytest.mark.parametrize("window, blocks", [(27, 3), (21, 3)])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_census_bits_equal_per_window_oracle(dtype, window, blocks):
    gen = np.random.default_rng(11)
    h, w = 61, 74
    raster = Raster(gen.integers(0, np.iinfo(dtype).max + 1, (h, w))
                    .astype(dtype))
    half = window // 2
    # the window fits; its apron leaves the raster on every side and at
    # every corner, by one and by two pixels
    edge_rows = [half, half + 1, h // 2, h - half - 2, h - half - 1]
    edge_cols = [half, half + 1, w // 2, w - half - 2, w - half - 1]
    rows, cols = (a.reshape(-1) for a in np.meshgrid(edge_rows, edge_cols))
    # enough interior windows to fill more than one block
    n = CENSUS_BLOCK + 50
    rows = np.concatenate([rows, gen.integers(half, h - half, n)])
    cols = np.concatenate([cols, gen.integers(half, w - half, n)])
    bits = census_bits(raster, rows, cols, window, blocks)
    side = window // blocks
    assert bits.shape == (len(rows), blocks * blocks, side * side - 1)
    for k, (r, c) in enumerate(zip(rows, cols)):
        expected = census_oracle(raster, int(r), int(c), window, blocks)
        np.testing.assert_array_equal(bits[k], expected)
        one = mbcensus_descriptor(raster, ImagePoint(float(r), float(c)),
                                  window, blocks)
        np.testing.assert_array_equal(one, expected)


def test_census_bits_memory_is_bounded():
    gen = np.random.default_rng(12)
    raster = Raster(gen.integers(0, 256, (2000, 2000)).astype(np.uint8))
    rows, cols = gen.integers(15, 1985, (2, 20_000))
    tracemalloc.start()
    try:
        bits = census_bits(raster, rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 14.4 MB of bits; the temporaries of one block of windows take about
    # 5 MB, whatever the number of windows
    assert peak < bits.nbytes + 8 * 2 ** 20


@pytest.mark.parametrize("field, value", [
    ("window", 28), ("window", -27), ("window", 0), ("blocks", 0),
    ("blocks", -3), ("window", float("nan")), ("epipolar_buffer_px", 0.0),
    ("ratio_threshold", float("inf")), ("nms_radius", float("nan")),
])
def test_match_params_reject_bad_values(field, value):
    with pytest.raises(ValueError):
        MatchParams(**{field: value})
    if field in ("window", "blocks"):
        with pytest.raises(ValueError):
            census_bits(Raster(np.zeros((40, 40), dtype=np.uint8)), [20],
                        [20], **{"window": 27, "blocks": 3, field: value})


# ---------------------------------------------------------------------------
# Epipolar curves
# ---------------------------------------------------------------------------


def test_epipolar_curve_tracks_true_counterpart(stereo):
    scene, products = stereo
    left_pos = planted_positions(scene, 0)
    right_pos = planted_positions(scene, 1)
    hei = scene.images[0].rpc.hei_off
    span = scene.images[0].rpc.hei_scale
    checked = 0
    for j in range(0, len(scene.true_points), 10):
        p = ImagePoint(*left_pos[j])
        curve = epipolar_curve(p, products[0], products[1],
                               hei - span, hei + span)
        if len(curve) < 2:
            continue
        vertices = np.array([(v.row, v.col) for v in curve])
        d = np.hypot(vertices[:, 0] - right_pos[j][0] - RIGHT_BIAS.d_row,
                     vertices[:, 1] - right_pos[j][1] - RIGHT_BIAS.d_col)
        # the un-biased counterpart position must lie on the curve
        assert d.min() < 0.75
        checked += 1
    assert checked >= 8


def test_epipolar_curve_validates_heights(stereo):
    _, products = stereo
    p = ImagePoint(400.0, 400.0)
    with pytest.raises(ValueError):
        epipolar_curve(p, products[0], products[1], 500.0, 400.0)


def curve_oracle(p, left, right, min_h, max_h) -> np.ndarray:
    """The curve of one left pixel by two casts of that pixel alone."""

    def cast(heights):
        lats, lons = rpc_mod.inverse_project_arrays(left.rpc, p[0], p[1],
                                                    heights)
        return rpc_mod.project_arrays(right.rpc, lats, lons, heights)

    rows, cols = cast([min_h, max_h])
    span = math.hypot(rows[1] - rows[0], cols[1] - cols[0])
    n_vertices = int(min(max(math.ceil(span) + 1, 2), MAX_CURVE_SAMPLES))
    dh = (max_h - min_h) / (n_vertices - 1)
    heights = []
    h = min_h
    while h < max_h - 1e-12:
        heights.append(h)
        h += dh
    heights.append(max_h)
    rows, cols = cast(heights)
    inside = ((0 <= rows) & (rows <= right.raster.height - 1)
              & (0 <= cols) & (cols <= right.raster.width - 1))
    return np.stack([rows[inside], cols[inside]], axis=1)


def test_epipolar_curves_equal_per_feature_oracle(stereo):
    _, products = stereo
    left, right = products
    hei, span = left.rpc.hei_off, left.rpc.hei_scale
    points = detect_corners(left.raster).tolist()
    # curves that leave the right raster in part or entirely
    points += [(0.0, 0.0), (-300.0, 5.0), (left.raster.height + 400.0, 0.0)]
    for min_h, max_h in ((hei - span, hei + span), (hei - 3 * span, hei)):
        curves, status = epipolar_curves(points, left, right, min_h, max_h)
        assert len(curves) == len(points)
        assert (status == rpc_mod.SOLVED).all()
        for p, curve in zip(points, curves):
            np.testing.assert_array_equal(
                curve, curve_oracle(p, left, right, min_h, max_h))
        assert not len(curves[-1])
        assert sum(len(c) >= 2 for c in curves) >= 0.9 * len(points)
        one = epipolar_curve(ImagePoint(*points[0]), left, right, min_h,
                             max_h)
        assert one == [ImagePoint(r, c) for r, c in curves[0].tolist()]


def reprojection_oracle(left, right, right_bias, pl, pr) -> float:
    """Worst reprojection error of one match, NaN on failure."""
    zero = BiasCorrection()
    obs = [(left.rpc, zero, ImagePoint(*pl)),
           (right.rpc, right_bias, ImagePoint(*pr))]
    try:
        ground = rpc_mod.triangulate(obs)
    except IllConditioned:
        try:
            ground = rpc_mod.inverse_project(left.rpc, zero, obs[0][2],
                                             left.plane_height)
        except (NoConvergence, IllConditioned):
            return math.nan
    except NoConvergence:
        return math.nan
    return max(math.hypot(*rpc_mod.residual(rpc, bias, ground, p))
               for rpc, bias, p in obs)


@pytest.mark.parametrize("self_match", [False, True])
def test_reprojection_errors_equal_per_pair_oracle(stereo, self_match):
    scene, products = stereo
    left = products[0]
    pl = np.round(planted_positions(scene, 0))
    if self_match:
        # parallel rays: every match takes the plane fallback
        right, bias, pr = left, BiasCorrection(), pl
        with pytest.raises(IllConditioned):
            rpc_mod.triangulate([(left.rpc, bias, ImagePoint(*pl[0]))] * 2)
    else:
        right, bias = products[1], RIGHT_BIAS
        noise = np.random.default_rng(10).uniform(-4.0, 4.0, pl.shape)
        pr = np.round(planted_positions(scene, 1)) + noise
    errors = _reprojection_errors(left, right,
                                  np.array([bias.d_row, bias.d_col]), pl, pr)
    expected = [reprojection_oracle(left, right, bias, a, b)
                for a, b in zip(pl, pr)]
    np.testing.assert_array_equal(errors, expected)
    if self_match:
        assert (errors < 1e-6).all()
    else:
        assert (errors <= 2.0).any() and (errors > 2.0).any()


@pytest.mark.parametrize("inner", [False, True])
def test_degenerate_curve_cast_drops_only_that_feature(stereo, monkeypatch,
                                                       inner):
    _, products = stereo
    left, right = products
    min_h = left.rpc.hei_off - left.rpc.hei_scale
    max_h = left.rpc.hei_off + left.rpc.hei_scale
    baseline = match(*products)
    points = baseline[:, :2].tolist()
    k = len(points) // 2
    victim = points[k]
    before, _ = epipolar_curves(points, left, right, min_h, max_h)
    real = rpc_mod.inverse_project_many

    def failing(models, index, targets, heis):
        lats, lons, status = real(models, index, targets, heis)
        hit = (np.asarray(targets) == victim).all(axis=1)
        if inner:
            # spare the cast at the ends of the height range
            heis = np.broadcast_to(heis, hit.shape)
            hit &= (min_h < heis) & (heis < max_h)
        status[hit] = rpc_mod.DEGENERATE
        return lats, lons, status

    monkeypatch.setattr(rpc_mod, "inverse_project_many", failing)
    curves, status = epipolar_curves(points, left, right, min_h, max_h)
    assert status[k] == rpc_mod.DEGENERATE and not len(curves[k])
    for j, (curve, code) in enumerate(zip(curves, status)):
        if j != k:
            assert code == rpc_mod.SOLVED
            np.testing.assert_array_equal(curve, before[j])
    with pytest.raises(DegenerateDenominator):
        epipolar_curve(ImagePoint(*victim), left, right, min_h, max_h)
    np.testing.assert_array_equal(
        match(*products), baseline[(baseline[:, :2] != victim).any(axis=1)])


def test_degenerate_triangulation_drops_only_that_match(stereo, monkeypatch):
    _, products = stereo
    baseline = match(*products)
    victim = baseline[len(baseline) // 2, :2]
    real = rpc_mod.triangulate_many

    def failing(models, index, targets, starts):
        grounds, status = real(models, index, targets, starts)
        heads = np.asarray(targets)[np.asarray(starts)[:-1]]
        status[(heads == victim).all(axis=1)] = rpc_mod.DEGENERATE
        return grounds, status

    monkeypatch.setattr(rpc_mod, "triangulate_many", failing)
    corrs = match(*products)
    np.testing.assert_array_equal(
        corrs, baseline[(baseline[:, :2] != victim).any(axis=1)])
    assert len(corrs) == len(baseline) - 1


# ---------------------------------------------------------------------------
# Pair selection and end-to-end matching
# ---------------------------------------------------------------------------


def test_select_pairs_by_overlap(stereo):
    _, products = stereo
    assert select_pairs(products) == [(0, 1)]


def match_pair_oracle(left, right, params, left_features, right_features):
    """match_pair one left feature at a time: one descriptor and one
    match_score call per candidate, ranked by sorted() on (score,
    distance to the curve)."""
    margin = params.window // 2 + 2

    def usable(features, raster):
        return [ImagePoint(r, c) for r, c in features.tolist()
                if margin <= round(r) < raster.height - margin
                and margin <= round(c) < raster.width - margin]

    left_use = usable(left_features, left.raster)
    right_use = usable(right_features, right.raster)
    right_desc = [mbcensus_descriptor(right.raster, p, params.window,
                                      params.blocks)
                  for p in right_use]
    right_pos = np.array([(p.row, p.col) for p in right_use])
    min_h = left.rpc.hei_off - left.rpc.hei_scale
    max_h = left.rpc.hei_off + left.rpc.hei_scale
    curves, _ = epipolar_curves([(p.row, p.col) for p in left_use], left,
                                right, min_h, max_h)
    tentative = []
    for pl, vertices in zip(left_use, curves):
        if not len(vertices):
            continue
        dl = mbcensus_descriptor(left.raster, pl, params.window,
                                 params.blocks)
        dist, nearest = _nearest_on_polyline(right_pos, vertices)
        candidates = np.nonzero(dist <= params.epipolar_buffer_px)[0]
        if candidates.size == 0:
            continue
        scores = [match_score(dl, right_desc[k]) for k in candidates]
        order = sorted(range(len(scores)),
                       key=lambda s: (scores[s], dist[candidates[s]]))
        best = candidates[order[0]]
        if (len(order) > 1 and not scores[order[0]]
                < params.ratio_threshold * scores[order[1]]):
            continue
        tentative.append((pl, right_use[best], scores[order[0]],
                          right_pos[best] - nearest[best]))
    if not tentative:
        return np.empty((0, 5))
    median = np.median(np.array([t[3] for t in tentative]), axis=0)
    errors = _reprojection_errors(
        left, right, -median,
        np.array([(t[0].row, t[0].col) for t in tentative]),
        np.array([(t[1].row, t[1].col) for t in tentative]))
    return np.array([(pl.row, pl.col, pr.row, pr.col, score)
                     for (pl, pr, score, _), error in zip(tentative, errors)
                     if error <= params.reproj_filter_px]).reshape(-1, 5)


@pytest.mark.parametrize("ratio", [0.6, 1.5])
@pytest.mark.parametrize("duplicates", [False, True])
def test_match_pair_equals_per_feature_oracle(stereo, duplicates, ratio):
    _, products = stereo
    left, right = products
    params = MatchParams(ratio_threshold=ratio)
    left_features = detect_corners(left.raster)
    right_features = detect_corners(right.raster)
    if duplicates:
        # Copies on the same pixel tie in score: one moved off the pixel
        # centre ties in score only, so the distance to the curve ranks
        # it; one at the same position ties in distance too, so the
        # order ranks it.
        sign = np.resize([1.0, -1.0], len(right_features))[:, None]
        right_features = np.concatenate([
            right_features, right_features,
            right_features + sign * (0.3, -0.2)])
    corrs = match(left, right, params, left_features, right_features)
    expected = match_pair_oracle(left, right, params, left_features,
                                 right_features)
    assert corrs.shape == expected.shape
    np.testing.assert_array_equal(corrs, expected)
    if not duplicates:
        assert len(corrs) > 50
    elif ratio < 1:
        # tied candidates fail the ratio test
        assert not len(corrs)
    else:
        # the moved copy wins where it is closer to the curve, a copy on
        # the pixel wherever the distances tie
        n = len(right_features) // 3
        first = {tuple(p) for p in right_features[:n].tolist()}
        moved = {tuple(p) for p in right_features[2 * n:].tolist()}
        rights = [tuple(p) for p in corrs[:, 2:4].tolist()]
        assert {p in first for p in rights} == {True, False}
        assert all(p in first or p in moved for p in rights)


def test_match_pair_without_features_is_empty(stereo):
    _, products = stereo
    assert match(*products, left_features=np.empty((0, 2))).shape == (0, 5)


def test_matched_correspondences_round_trip(stereo, tmp_path):
    """A pair's match array reads back bit for bit: its numbers are not
    written as NumPy reprs, np.float64(...), which no loader reads."""
    _, products = stereo
    corrs = match(*products)
    assert len(corrs) > 50
    path = tmp_path / "corr.txt"
    save_correspondences([("img_000", "img_001", corrs)], path)
    [(left_id, right_id, back)] = load_correspondences(path)
    assert (left_id, right_id) == ("img_000", "img_001")
    np.testing.assert_array_equal(back, corrs)


def test_match_pair_recall_and_zero_mismatches(stereo):
    scene, products = stereo
    transformed = type(products[1])(
        raster=monotone(products[1].raster), rpc=products[1].rpc,
        plane_height=products[1].plane_height,
        geo_transform=products[1].geo_transform,
        image_id=products[1].image_id,
    )
    corrs = match(products[0], transformed)
    left_pos = planted_positions(scene, 0)
    right_pos = planted_positions(scene, 1)

    def nearest(planted, row, col):
        d = np.hypot(planted[:, 0] - row, planted[:, 1] - col)
        j = int(np.argmin(d))
        return j if d[j] <= 2.0 else None

    hits = set()
    mismatches = 0
    for lr, lc, rr, rc, _ in corrs.tolist():
        jl = nearest(left_pos, lr, lc)
        jr = nearest(right_pos, rr, rc)
        if jl is None or jr is None or jl != jr:
            mismatches += 1
        else:
            hits.add(jl)
    assert mismatches == 0
    assert len(hits) >= 0.9 * len(scene.true_points)


def test_product_matched_against_itself(stereo):
    _, products = stereo
    corrs = match(products[0], products[0])
    assert len(corrs) > 50
    np.testing.assert_array_equal(corrs[:, :2], corrs[:, 2:4])
    assert not corrs[:, 4].any()
    dr, dc = pair_offset(corrs, products[0], products[0])
    assert math.hypot(dr, dc) < 1e-6


def test_emitted_matches_reproject_within_filter(stereo):
    from satadjust.errors import IllConditioned
    from satadjust.rpc import residual, triangulate

    _, products = stereo
    corrs = match(products[0], products[1])
    dr, dc = pair_offset(corrs, products[0], products[1])
    comp = BiasCorrection(-dr, -dc)
    zero = BiasCorrection()
    checked = 0
    for lr, lc, rr, rc, _ in corrs.tolist():
        obs = [(products[0].rpc, zero, ImagePoint(lr, lc)),
               (products[1].rpc, comp, ImagePoint(rr, rc))]
        try:
            ground = triangulate(obs)
        except IllConditioned:
            continue
        for rpc, bias, p in obs:
            res = residual(rpc, bias, ground, p)
            assert math.hypot(*res) <= 2.0 + 1e-6
        checked += 1
    assert checked >= 0.8 * len(corrs)


# ---------------------------------------------------------------------------
# Correspondence files
# ---------------------------------------------------------------------------


def test_correspondence_round_trip(tmp_path):
    pairs = [("a", "b", np.array([[10.0, 20.5, 11.25, 19.0, 42]])),
             ("a", "c", np.empty((0, 5))),
             ("b", "c", np.array([[1.0, 2.0, 3.0, 4.0, 0],
                                  [5.0, 6.0, 7.0, 8.0, 7]]))]
    path = tmp_path / "corr.txt"
    save_correspondences(pairs, path)
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    assert lines == ["a:b 10.0 20.5 11.25 19.0 42", "b:c 1.0 2.0 3.0 4.0 0",
                     "b:c 5.0 6.0 7.0 8.0 7"]
    back = load_correspondences(path)
    # a pair without matches writes no line
    assert [(a, b) for a, b, _ in back] == [("a", "b"), ("b", "c")]
    for (_, _, got), (_, _, want) in zip(back, pairs[::2]):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_correspondence_load_groups_lines_by_pair(tmp_path):
    path = tmp_path / "corr.txt"
    path.write_text("b:c 1.0 2.0 3.0 4.0 5\na:b 6.0 7.0 8.0 9.0 0\n"
                    "b:c 1.5 2.5 3.5 4.5 6\n")
    back = load_correspondences(path)
    assert [(a, b) for a, b, _ in back] == [("b", "c"), ("a", "b")]
    np.testing.assert_array_equal(back[0][2], [[1.0, 2.0, 3.0, 4.0, 5],
                                               [1.5, 2.5, 3.5, 4.5, 6]])


def test_correspondence_load_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a:b 1.0 2.0 3.0\n")
    with pytest.raises(ParseError):
        load_correspondences(path)
    path.write_text("nocolon 1.0 2.0 3.0 4.0 5\n")
    with pytest.raises(ParseError):
        load_correspondences(path)
    path.write_text("a:b 1.0 x 3.0 4.0 5\n")
    with pytest.raises(ParseError):
        load_correspondences(path)
