"""Unit tests for corner detection, census matching and epipolar search."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

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
    FAST_ARC,
    FAST_CIRCLE,
    MAX_CURVE_SAMPLES,
    Correspondence,
    Feature,
    MatchParams,
    _nearest_on_polyline,
    _reprojection_errors,
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


def planted_positions(scene, index):
    """Noiseless rendered dot centers of every point in one image."""
    out = []
    img = scene.images[index]
    for g in scene.true_points:
        raw = rpc_mod.project(img.rpc, BiasCorrection(), g)
        out.append((raw.row - img.true_bias.d_row,
                    raw.col - img.true_bias.d_col))
    return np.array(out)


def pair_offset(corrs, left, right) -> tuple[float, float]:
    """Median displacement of stored matches from their epipolar curves.

    Recomputed from the persisted correspondences alone, so the
    reprojection guarantee of match_pair can be re-checked after the fact.
    """
    min_h = left.rpc.hei_off - left.rpc.hei_scale
    max_h = left.rpc.hei_off + left.rpc.hei_scale
    disps = []
    for corr in corrs:
        curve = epipolar_curve(corr.left.position, left, right, min_h, max_h)
        if not curve:
            continue
        vertices = np.array([(v.row, v.col) for v in curve])
        point = np.array([[corr.right.position.row, corr.right.position.col]])
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
    features = detect_corners(products[0].raster)
    pos = np.array([(f.position.row, f.position.col) for f in features])
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
    assert a == b


def test_detect_corners_flat_image_is_empty():
    flat = Raster(np.full((64, 64), 80, dtype=np.uint8))
    assert detect_corners(flat) == []


def test_nms_keeps_single_feature_for_twin_dots():
    px = np.full((48, 48), 40.0)
    rr, cc = np.meshgrid(np.arange(48.0), np.arange(48.0), indexing="ij")
    for r0, c0, amp in ((24.0, 22.0, 50.0), (24.0, 25.0, 38.0)):
        px += amp * np.exp(-((rr - r0) ** 2 + (cc - c0) ** 2) / 3.2)
    raster = Raster(px.astype(np.uint8))
    features = detect_corners(raster, threshold=15.0, nms_radius=5.0)
    assert len(features) == 1
    assert features[0].position.col == pytest.approx(22.0, abs=1.5)


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


def detect_corners_oracle(raster: Raster, threshold: float,
                          nms_radius: float) -> list[Feature]:
    """The segment test pixel by pixel, then the same suppression."""
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
    scored.sort(key=lambda s: (-s[0], s[1], s[2]))
    kept = []
    for score, r, c in scored:
        if all((r - f.position.row) ** 2 + (c - f.position.col) ** 2
               > nms_radius ** 2 for f in kept):
            kept.append(Feature(ImagePoint(float(r), float(c)), score))
    return kept


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
    features = detect_corners(raster, threshold, 5.0)
    assert len(features) > 5
    assert features == detect_corners_oracle(raster, threshold, 5.0)


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
    assert features
    # a 2000^2 uint8 raster is 4 MB; the test runs in row tiles
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# Census descriptors
# ---------------------------------------------------------------------------


def test_descriptor_invariant_under_monotone_transform(stereo):
    _, products = stereo
    raster = products[0].raster
    transformed = monotone(raster)
    for f in detect_corners(raster)[:25]:
        try:
            d1 = mbcensus_descriptor(raster, f.position)
            d2 = mbcensus_descriptor(transformed, f.position)
        except WindowOutOfBounds:
            continue
        np.testing.assert_array_equal(d1.bits, d2.bits)


def test_descriptor_shape_and_score():
    gen = np.random.default_rng(6)
    raster = Raster(gen.integers(0, 200, (64, 64)).astype(np.uint8))
    d = mbcensus_descriptor(raster, ImagePoint(32.0, 32.0))
    assert d.bits.shape == (9, 80)
    assert d.total_bits == 720
    assert match_score(d, d) == 0


def test_match_score_counts_flipped_bits():
    gen = np.random.default_rng(7)
    raster = Raster(gen.integers(0, 200, (64, 64)).astype(np.uint8))
    d1 = mbcensus_descriptor(raster, ImagePoint(30.0, 30.0))
    bits = d1.bits.copy()
    bits[0, :5] ^= 1
    d2 = type(d1)(bits=bits, window=d1.window, blocks=d1.blocks)
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
    zero = BiasCorrection()

    def cast(heights):
        lats, lons = rpc_mod.inverse_project_arrays(left.rpc, zero, p[0],
                                                    p[1], heights)
        return rpc_mod.project_arrays(right.rpc, zero, lats, lons, heights)

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
    points = [(f.position.row, f.position.col)
              for f in detect_corners(left.raster)]
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
    errors = _reprojection_errors(left, right, bias, pl, pr)
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
    baseline = match_pair(*products)
    points = [(c.left.position.row, c.left.position.col) for c in baseline]
    k = len(points) // 2
    victim = baseline[k].left.position
    before, _ = epipolar_curves(points, left, right, min_h, max_h)
    real = rpc_mod.inverse_project_many

    def failing(models, targets, heis):
        lats, lons, status = real(models, targets, heis)
        hit = (np.asarray(targets) == (victim.row, victim.col)).all(axis=1)
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
        epipolar_curve(victim, left, right, min_h, max_h)
    corrs = match_pair(*products)
    assert corrs == [c for c in baseline if c.left.position != victim]


def test_degenerate_triangulation_drops_only_that_match(stereo, monkeypatch):
    _, products = stereo
    baseline = match_pair(*products)
    victim = baseline[len(baseline) // 2].left.position
    real = rpc_mod.triangulate_many

    def failing(models, targets, starts):
        grounds, status = real(models, targets, starts)
        heads = np.asarray(targets)[np.asarray(starts)[:-1]]
        status[(heads == (victim.row, victim.col)).all(axis=1)] = \
            rpc_mod.DEGENERATE
        return grounds, status

    monkeypatch.setattr(rpc_mod, "triangulate_many", failing)
    corrs = match_pair(*products)
    assert corrs == [c for c in baseline if c.left.position != victim]
    assert len(corrs) == len(baseline) - 1


# ---------------------------------------------------------------------------
# Pair selection and end-to-end matching
# ---------------------------------------------------------------------------


def test_select_pairs_by_overlap(stereo):
    _, products = stereo
    assert select_pairs(products) == [(0, 1)]


def test_match_pair_recall_and_zero_mismatches(stereo):
    scene, products = stereo
    transformed = type(products[1])(
        raster=monotone(products[1].raster), rpc=products[1].rpc,
        plane_height=products[1].plane_height, gsd=products[1].gsd,
        geo_transform=products[1].geo_transform,
        footprint=products[1].footprint, image_id=products[1].image_id,
    )
    corrs = match_pair(products[0], transformed)
    left_pos = planted_positions(scene, 0)
    right_pos = planted_positions(scene, 1)

    def nearest(planted, p):
        d = np.hypot(planted[:, 0] - p.row, planted[:, 1] - p.col)
        j = int(np.argmin(d))
        return j if d[j] <= 2.0 else None

    hits = set()
    mismatches = 0
    for corr in corrs:
        jl = nearest(left_pos, corr.left.position)
        jr = nearest(right_pos, corr.right.position)
        if jl is None or jr is None or jl != jr:
            mismatches += 1
        else:
            hits.add(jl)
    assert mismatches == 0
    assert len(hits) >= 0.9 * len(scene.true_points)


def test_product_matched_against_itself(stereo):
    _, products = stereo
    corrs = match_pair(products[0], products[0])
    assert len(corrs) > 50
    for corr in corrs:
        assert corr.left.position == corr.right.position
        assert corr.score == 0
    dr, dc = pair_offset(corrs, products[0], products[0])
    assert math.hypot(dr, dc) < 1e-6


def test_emitted_matches_reproject_within_filter(stereo):
    from satadjust.errors import IllConditioned
    from satadjust.rpc import residual, triangulate

    _, products = stereo
    corrs = match_pair(products[0], products[1])
    dr, dc = pair_offset(corrs, products[0], products[1])
    comp = BiasCorrection(-dr, -dc)
    zero = BiasCorrection()
    checked = 0
    for corr in corrs:
        obs = [(products[0].rpc, zero, corr.left.position),
               (products[1].rpc, comp, corr.right.position)]
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
    corrs = [Correspondence(
        left=Feature(ImagePoint(10.0, 20.5), 30.0),
        right=Feature(ImagePoint(11.25, 19.0), 25.0),
        score=42, left_image="a", right_image="b",
    )]
    path = tmp_path / "corr.txt"
    save_correspondences(corrs, path)
    back = load_correspondences(path)
    assert len(back) == 1
    assert back[0].pair_id == "a:b"
    assert back[0].left.position == ImagePoint(10.0, 20.5)
    assert back[0].right.position == ImagePoint(11.25, 19.0)
    assert back[0].score == 42


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
