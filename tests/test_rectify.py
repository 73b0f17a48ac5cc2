"""Unit tests for plane rectification and RPC fitting."""

from __future__ import annotations

import math
import shutil
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from satadjust import rectify, textfile
from satadjust import rpc as rpc_mod
from satadjust.errors import EmptyFootprint, EmptyInput, InsufficientSamples, ParseError
from satadjust.geodesy import meters_per_degree
from satadjust.match import select_pairs
from satadjust.raster import Raster, bilinear_sample
from satadjust.rectify import (
    GroundBBox,
    common_gsd,
    common_plane_height,
    fit_rpc,
    load_product,
    rectify_image,
    save_product,
)
from satadjust.rpc import BiasCorrection, GroundPoint, ImagePoint
from satadjust.synth import camera_fit_samples, gen_scene, random_rpc

# ---------------------------------------------------------------------------
# Common plane and GSD
# ---------------------------------------------------------------------------


def test_common_plane_height_is_mean_of_offsets(small_scene):
    rpcs = [im.rpc for im in small_scene.images]
    expected = sum(r.hei_off for r in rpcs) / len(rpcs)
    assert common_plane_height(rpcs) == pytest.approx(expected)


def test_common_plane_height_empty_input():
    with pytest.raises(EmptyInput):
        common_plane_height([])


def test_common_gsd_recovers_camera_sampling(rendered_scene):
    images = [(im.raster, im.rpc) for im in rendered_scene.images]
    plane = common_plane_height([im.rpc for im in rendered_scene.images])
    gsd = common_gsd(images, plane)
    # both cameras sample at the generator GSD; footprint area over pixel
    # count reproduces it on the plane
    assert gsd == pytest.approx(0.5, rel=1e-3)
    # a raster's shape stands for it
    assert common_gsd([(r.pixels.shape, m) for r, m in images], plane) == gsd


def test_common_gsd_takes_the_coarsest(rendered_scene):
    from dataclasses import replace

    im = rendered_scene.images[0]
    # a sensor with half the pixels over the same footprint: same ground
    # mapping, image axes scaled down by two
    coarse_rpc = replace(
        im.rpc,
        line_off=im.rpc.line_off / 2.0, line_scale=im.rpc.line_scale / 2.0,
        samp_off=im.rpc.samp_off / 2.0, samp_scale=im.rpc.samp_scale / 2.0,
    )
    coarse = Raster(im.raster.pixels[::2, ::2].copy(),
                    nodata=im.raster.nodata)
    plane = rendered_scene.plane_height
    gsd_full = common_gsd([(im.raster, im.rpc)], plane)
    gsd_mixed = common_gsd([(im.raster, im.rpc), (coarse, coarse_rpc)],
                           plane)
    assert gsd_mixed == pytest.approx(2.0 * gsd_full, rel=0.01)


# ---------------------------------------------------------------------------
# RPC fitting
# ---------------------------------------------------------------------------


def test_fit_rpc_self_fit_below_a_thousandth_pixel(small_scene):
    img = small_scene.images[0]
    cam = img.camera
    rpc = img.rpc
    held_out = []
    gen = np.random.default_rng(17)
    for _ in range(200):
        g = GroundPoint(
            cam.lat0 + gen.uniform(-0.95, 0.95) * rpc.lat_scale,
            cam.lon0 + gen.uniform(-0.95, 0.95) * rpc.lon_scale,
            cam.h0 + gen.uniform(-0.95, 0.95) * rpc.hei_scale,
        )
        held_out.append((g, ImagePoint(*cam.project_arrays(g.lat, g.lon,
                                                          g.hei))))
    worst = 0.0
    for g, truth in held_out:
        got = rpc_mod.project(rpc, BiasCorrection(), g)
        worst = max(worst, abs(got.row - truth.row), abs(got.col - truth.col))
    assert worst < 1e-3


def test_fit_rpc_requires_enough_samples(small_scene):
    cam = small_scene.images[0].camera
    samples = camera_fit_samples(cam, 1e-3, 1e-3, 50.0)
    with pytest.raises(InsufficientSamples):
        fit_rpc(*(a[:20] for a in samples))


def test_fit_rpc_requires_height_diversity(small_scene):
    cam = small_scene.images[0].camera
    lats, lons, heis, rows, cols = camera_fit_samples(cam, 1e-3, 1e-3, 50.0)
    with pytest.raises(InsufficientSamples):
        fit_rpc(lats, lons, np.full_like(heis, cam.h0), rows, cols)


# ---------------------------------------------------------------------------
# Rectification
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rectified_pair():
    scene = gen_scene(2, 30, 6.0, 0.0, seed=77, render=True,
                      half_extent_m=350.0)
    plane = scene.plane_height
    products = [
        rectify_image(im.raster, im.rpc, plane, 0.5) for im in scene.images
    ]
    return scene, products


def test_rectify_grid_is_north_up(rectified_pair):
    _, products = rectified_pair
    for product in products:
        gt = product.geo_transform
        assert gt[1] == 0.0 and gt[5] == 0.0
        assert gt[2] < 0.0 < gt[4]


def test_rectify_resamples_source_content(rectified_pair):
    scene, products = rectified_pair
    for img, product in zip(scene.images, products):
        h, w = product.raster.height, product.raster.width
        rows = np.array([h // 3, h // 2, 2 * h // 3])
        cols = np.array([w // 3, w // 2, 2 * w // 3])
        lats, lons = product.pixel_to_ground(rows, cols)
        src_r, src_c = rpc_mod.project_arrays(
            img.rpc, lats, lons, np.full(lats.shape, scene.plane_height))
        values, valid = bilinear_sample(img.raster, src_r, src_c)
        got = product.raster.pixels[rows, cols].astype(np.float64)
        assert valid.all()
        np.testing.assert_allclose(got, np.rint(values), atol=1.0)


def test_rectify_marks_outside_as_nodata(rectified_pair):
    _, products = rectified_pair
    for product in products:
        px = product.raster.pixels
        # rotated footprints leave nodata in the north-up corners
        assert (px == product.raster.nodata).any()
        assert (px != product.raster.nodata).mean() > 0.5


def test_level2_rpc_agrees_with_geo_transform_on_plane(rectified_pair):
    scene, products = rectified_pair
    for product in products:
        b = product.footprint
        gen = np.random.default_rng(5)
        for _ in range(10):
            lat = gen.uniform(b.min_lat, b.max_lat)
            lon = gen.uniform(b.min_lon, b.max_lon)
            g = GroundPoint(lat, lon, scene.plane_height)
            p = rpc_mod.project(product.rpc, BiasCorrection(), g)
            row, col = product.ground_to_pixel(lat, lon)
            assert p.row == pytest.approx(float(row), abs=1e-3)
            assert p.col == pytest.approx(float(col), abs=1e-3)


def _exact_source(rpc, gt, plane, rows, cols):
    """Oracle: source (row, col) of every output position in rows x cols,
    each evaluated directly through the RPC, shape (2, rows, cols)."""
    lats = gt[0] + gt[2] * np.repeat(rows, len(cols))
    lons = gt[3] + gt[4] * np.tile(cols, len(rows))
    src = rpc_mod.project_arrays(rpc, lats, lons, np.full(lats.size, plane))
    return np.stack(src).reshape(2, len(rows), len(cols))


def _worst_interpolation_error(rpc, gt, plane, n_rows, n_cols, rng):
    """Largest distance between the interpolated and the exact source
    position over whole output rows: through every sixth cell centre,
    where the error peaks, along a knot row and at random.  Also returns
    the step of the grid chosen."""
    grid = rectify._source_grid(rpc, gt, plane, n_rows, n_cols)
    knot_rows = grid[0]
    rows = np.unique(np.r_[(knot_rows[:-1:6] + knot_rows[1::6]) // 2,
                           knot_rows[len(knot_rows) // 2], n_rows - 1,
                           rng.integers(0, n_rows, 6)])
    cols = np.arange(n_cols)
    got = rectify._source_coords(grid, rows, cols)
    want = _exact_source(rpc, gt, plane, rows, cols)
    return float(np.abs(got - want).max()), int(knot_rows[1] - knot_rows[0])


@pytest.mark.parametrize("start", [rectify.GRID_STEP, 512])
def test_source_grid_within_tolerance_on_random_rpcs(start, monkeypatch):
    """A 6,000-px grid over each model's whole validity box.  Step 64
    already meets the tolerance on these models; a coarse start makes the
    check halve the step."""
    halving = start > rectify.GRID_STEP
    monkeypatch.setattr(rectify, "GRID_STEP", start)
    rng = np.random.default_rng(404)
    n = 6000
    steps = []
    for _ in range(20):
        model = random_rpc(rng)
        gt = np.array([model.lat_off + model.lat_scale, 0.0,
                       -2.0 * model.lat_scale / n,
                       model.lon_off - model.lon_scale,
                       2.0 * model.lon_scale / n, 0.0])
        worst, step = _worst_interpolation_error(model, gt, model.hei_off,
                                                 n, n, rng)
        assert worst <= rectify.GRID_TOLERANCE_PX
        steps.append(step)
    if halving:
        assert min(steps) < start
    else:
        assert steps == [start] * 20


def test_source_grid_within_tolerance_on_pushbroom_fits(rendered_scene):
    rng = np.random.default_rng(405)
    plane = rendered_scene.plane_height
    for im in rendered_scene.images:
        product = rectify_image(im.raster, im.rpc, plane, 0.5)
        worst, _ = _worst_interpolation_error(
            im.rpc, product.geo_transform, plane, product.raster.height,
            product.raster.width, rng)
        assert worst <= rectify.GRID_TOLERANCE_PX


def test_source_grid_is_exact_on_knots_and_at_step_one(rendered_scene,
                                                       monkeypatch):
    im = rendered_scene.images[0]
    plane = rendered_scene.plane_height
    gt = rectify_image(im.raster, im.rpc, plane, 0.5).geo_transform
    grid = rectify._source_grid(im.rpc, gt, plane, 200, 130)
    knot_rows, knot_cols, src = grid
    assert knot_rows[-1] == 199 and knot_cols[-1] == 129
    np.testing.assert_array_equal(
        rectify._source_coords(grid, knot_rows, knot_cols), src)
    np.testing.assert_array_equal(
        src, _exact_source(im.rpc, gt, plane, knot_rows, knot_cols))
    monkeypatch.setattr(rectify, "GRID_STEP", 1)
    grid = rectify._source_grid(im.rpc, gt, plane, 40, 30)
    np.testing.assert_array_equal(
        rectify._source_coords(grid, np.arange(40), np.arange(30)),
        _exact_source(im.rpc, gt, plane, np.arange(40), np.arange(30)))


def _rectify_exact(image, rpc, plane, product, grid=None):
    """Oracle: every output pixel mapped through the RPC directly and
    resampled, in blocks of rows to bound the memory.  Given a source
    ``grid``, every pixel is instead interpolated on it: the arithmetic
    of rectify_image, over the whole bounding box."""
    h, w = product.raster.height, product.raster.width
    out = np.empty((h, w), dtype=np.int64)
    for lo in range(0, h, 128):
        rows = np.arange(lo, min(lo + 128, h))
        if grid is None:
            src = _exact_source(rpc, product.geo_transform, plane, rows,
                                np.arange(w))
        else:
            src = rectify._source_coords(grid, rows, np.arange(w))
        values, valid = bilinear_sample(image, src[0], src[1])
        block = np.full(values.shape, image.nodata, dtype=np.int64)
        v = np.clip(np.rint(values[valid]).astype(np.int64), 0,
                    image.max_value)
        v[v == image.nodata] = image.nodata + 1
        block[valid] = v
        out[lo:lo + len(rows)] = block
    return out.astype(image.pixels.dtype)


def _bilinear_oracle(raster, r, c):
    """One sample in scalar arithmetic, None where it is not valid."""
    r0, c0 = math.floor(r), math.floor(c)
    if not (0 <= r0 <= raster.height - 2 and 0 <= c0 <= raster.width - 2):
        return None
    q00, q01, q10, q11 = (int(raster.pixels[r0 + dr, c0 + dc])
                          for dr, dc in ((0, 0), (0, 1), (1, 0), (1, 1)))
    if raster.nodata in (q00, q01, q10, q11):
        return None
    fr, fc = r - r0, c - c0
    gr, gc = 1 - fr, 1 - fc
    return q00 * gr * gc + q01 * gr * fc + q10 * fr * gc + q11 * fr * fc


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_bilinear_sample_equals_scalar_oracle(dtype):
    gen = np.random.default_rng(4)
    top = int(np.iinfo(dtype).max)
    px = gen.integers(0, top + 1, (9, 12))
    nodata = 7
    px[px == nodata] = nodata + 1
    px[4, 5] = nodata
    raster = Raster(px.astype(dtype), nodata=nodata)
    # the nodata pixel (4, 5) as the top-left, top-right, bottom-left and
    # bottom-right neighbour; the last valid row and column; integer
    # knots; negative positions and positions beyond the edge
    edges = [(4.3, 5.6), (4.3, 4.6), (3.3, 5.6), (3.3, 4.6),
             (7.999, 10.5), (7.5, 10.999), (7.0, 10.0), (8.0, 3.0),
             (3.0, 11.0), (2.0, 3.0), (0.0, 0.0), (4.0, 5.0), (-0.001, 2.0),
             (2.0, -0.5), (-3.0, -3.0), (20.0, 3.0), (3.0, 1e6), (-1e6, 0.0)]
    rows = np.concatenate([[r for r, _ in edges], gen.uniform(-1.5, 9.5, 400)])
    cols = np.concatenate([[c for _, c in edges], gen.uniform(-1.5, 12.5, 400)])
    values, valid = bilinear_sample(raster, rows.reshape(-1, 2),
                                    cols.reshape(-1, 2))
    expect = [_bilinear_oracle(raster, r, c) for r, c in zip(rows, cols)]
    np.testing.assert_array_equal(valid.ravel(),
                                  [e is not None for e in expect])
    assert values[valid].tolist() == [e for e in expect if e is not None]
    assert not valid.ravel()[:4].any() and valid.ravel()[4:7].all()


@pytest.mark.parametrize("step", [rectify.GRID_STEP, 1])
def test_rectify_equals_exact_per_pixel_oracle(rectified_pair, step,
                                               monkeypatch):
    """Off the knots a source position may miss the exact one by up to
    GRID_TOLERANCE_PX and round to a neighbouring value, so above step 1
    the oracle interpolates on the same grid.  With every output pixel a
    knot it maps each pixel through the RPC, on one image for time."""
    scene, products = rectified_pair
    plane = scene.plane_height
    pairs = list(zip(scene.images, products))
    if step == 1:
        monkeypatch.setattr(rectify, "GRID_STEP", 1)
        im = scene.images[0]
        pairs = [(im, rectify_image(im.raster, im.rpc, plane, 0.5))]
    for im, product in pairs:
        pixels = product.raster.pixels
        grid = None if step == 1 else rectify._source_grid(
            im.rpc, product.geo_transform, plane, *pixels.shape)
        np.testing.assert_array_equal(
            pixels, _rectify_exact(im.raster, im.rpc, plane, product, grid))


def _padded_corners(monkeypatch, rows_below):
    """Cast the corners of an image ``rows_below`` rows taller than the
    one rectified, so that the output grid extends past its footprint."""
    corner_ground = rectify._corner_ground

    def padded(shape, rpc, plane):
        return corner_ground((shape[0] + rows_below, shape[1]), rpc, plane)

    monkeypatch.setattr(rectify, "_corner_ground", padded)


def _record_spans(monkeypatch):
    """The per-row (first, stop) column arrays that rectify_image samples
    within, one pair per call, appended as it goes."""
    spans = []
    footprint_columns = rectify._footprint_columns

    def recording(*args):
        spans.append(footprint_columns(*args))
        return spans[-1]

    monkeypatch.setattr(rectify, "_footprint_columns", recording)
    return spans


def test_rectify_is_tile_independent(rendered_scene, monkeypatch):
    """One output row per tile and the whole image in one tile give the
    pixels of the default tiling, also where the grid reaches past the
    footprint, so that whole rows have an empty span."""
    im = rendered_scene.images[0]
    plane = rendered_scene.plane_height
    spans = _record_spans(monkeypatch)

    def pixels():
        return rectify_image(im.raster, im.rpc, plane, 1.0).raster.pixels

    for rows_below in (0, im.raster.height):
        if rows_below:
            _padded_corners(monkeypatch, rows_below)
        monkeypatch.setattr(rectify, "TILE_PIXELS", 2 ** 15)
        product = rectify_image(im.raster, im.rpc, plane, 1.0)
        default = product.raster.pixels
        monkeypatch.setattr(rectify, "TILE_PIXELS", default.size)
        np.testing.assert_array_equal(pixels(), default)
        monkeypatch.setattr(rectify, "TILE_PIXELS", 1)
        np.testing.assert_array_equal(pixels(), default)
        first, stop = spans[-1]
        empty = first >= stop
        assert len(empty) == default.shape[0]
        assert empty.any() == (rows_below > 0)
    # rows of the padded grid with an empty span hold nodata only
    assert (default[empty] == im.raster.nodata).all()
    grid = rectify._source_grid(im.rpc, product.geo_transform, plane,
                                *default.shape)
    np.testing.assert_array_equal(
        default, _rectify_exact(im.raster, im.rpc, plane, product, grid))


def _source_with_nodata(rng, height, width, nodata):
    """Random 8-bit source pixels with about 2% nodata among them."""
    pixels = rng.integers(0, 256, (height, width))
    pixels[rng.random((height, width)) < 0.02] = nodata
    return Raster(pixels.astype(np.uint8), nodata=nodata)


@pytest.mark.parametrize("step", [rectify.GRID_STEP, 1])
def test_rectify_equals_exact_oracle_on_random_rpcs(step, monkeypatch):
    """Random distorted models over a small source raster that holds
    nodata pixels, at the default grid step and with every output pixel
    a knot: the sampled spans lose no pixel of the per-pixel oracle."""
    monkeypatch.setattr(rectify, "GRID_STEP", step)
    rng = np.random.default_rng(406)
    for _ in range(6):
        model = random_rpc(rng)
        image = _source_with_nodata(rng, int(rng.integers(40, 90)),
                                    int(rng.integers(40, 90)), nodata=3)
        plane = model.hei_off
        product = rectify_image(image, model, plane,
                                common_gsd([(image, model)], plane))
        pixels = product.raster.pixels
        assert (pixels != image.nodata).any()
        # Off the knots a source position may miss the exact one by up to
        # GRID_TOLERANCE_PX and round to a neighbouring value, so above
        # step 1 the oracle interpolates on the same grid.
        grid = None if step == 1 else rectify._source_grid(
            model, product.geo_transform, plane, *pixels.shape)
        np.testing.assert_array_equal(
            pixels, _rectify_exact(image, model, plane, product, grid))


def test_rectify_footprint_on_every_edge_equals_oracle(monkeypatch):
    """A heading within a degree of north fills the bounding box, so the
    footprint touches all four edges of the output and the spans run to
    its first and last columns."""
    monkeypatch.setattr(rectify, "GRID_STEP", 1)
    spans = _record_spans(monkeypatch)
    scene = gen_scene(2, 10, 6.0, 0.0, seed=13, render=True,
                      half_extent_m=80.0)
    im = scene.images[0]
    product = rectify_image(im.raster, im.rpc, scene.plane_height, 0.5)
    data = product.raster.pixels != im.raster.nodata
    # the grid overshoots the footprint by less than a pixel, and the
    # outermost pixel centres of the source lie half a pixel inside it
    for edge in (data[:3], data[-3:], data[:, :3], data[:, -3:]):
        assert edge.any()
    (first, stop), = spans
    assert first.min() == 0 and stop.max() == data.shape[1]
    np.testing.assert_array_equal(
        product.raster.pixels,
        _rectify_exact(im.raster, im.rpc, scene.plane_height, product))


@pytest.mark.parametrize("axis", [0, 1])
def test_rectify_one_row_and_one_column_outputs(axis, monkeypatch):
    """A sampling distance equal to the footprint's extent along one axis
    leaves a single output row (axis 0) or column (axis 1)."""
    monkeypatch.setattr(rectify, "GRID_STEP", 1)
    rng = np.random.default_rng(407)
    model = random_rpc(rng)
    shape = (12, 120) if axis == 0 else (120, 12)
    image = _source_with_nodata(rng, *shape, nodata=0)
    plane = model.hei_off
    lats, lons = rectify._corner_ground(image.pixels.shape, model, plane)
    m_lat, m_lon = meters_per_degree((lats.min() + lats.max()) / 2)
    extent = (float(lats.max() - lats.min()) * m_lat if axis == 0
              else float(lons.max() - lons.min()) * m_lon)
    product = rectify_image(image, model, plane, extent)
    pixels = product.raster.pixels
    assert pixels.shape[axis] == 1 and pixels.shape[1 - axis] > 1
    assert (pixels != image.nodata).any()
    np.testing.assert_array_equal(
        pixels, _rectify_exact(image, model, plane, product))


def test_rectify_samples_little_beyond_the_footprint(monkeypatch):
    """On a diagonal heading half the bounding box is nodata; the pixels
    handed to bilinear_sample stay within 15% of the valid ones."""
    scene = gen_scene(2, 10, 6.0, 0.0, seed=8, render=True,
                      half_extent_m=80.0)
    sampled = []

    def counting(raster, rows, cols):
        sampled.append(np.asarray(rows).size)
        return bilinear_sample(raster, rows, cols)

    monkeypatch.setattr(rectify, "bilinear_sample", counting)
    im = scene.images[0]
    pixels = rectify_image(im.raster, im.rpc, scene.plane_height,
                           0.5).raster.pixels
    valid = int((pixels != im.raster.nodata).sum())
    assert valid < 0.6 * pixels.size
    assert sum(sampled) <= 1.15 * valid


def test_rectify_memory_is_bounded(rendered_scene):
    """The traced peak of one call is the output raster plus a constant
    (the row tiles and the coarse grid).  The whole-grid evaluation this
    replaced peaked at about 2 GB on the 2,396 x 2,396 output."""
    im = rendered_scene.images[0]
    peaks, sizes = {}, {}
    for gsd in (1.0, 0.5):
        tracemalloc.start()
        try:
            product = rectify_image(im.raster, im.rpc,
                                    rendered_scene.plane_height, gsd)
            peaks[gsd] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes[gsd] = product.raster.pixels.nbytes
    assert min(product.raster.pixels.shape) >= 2000
    assert peaks[0.5] < 128 * 2**20
    assert peaks[0.5] - peaks[1.0] <= 2 * (sizes[0.5] - sizes[1.0])


def test_rectify_degenerate_footprint_raises(rendered_scene):
    im = rendered_scene.images[0]
    with pytest.raises(EmptyFootprint):
        rectify_image(im.raster, im.rpc, rendered_scene.plane_height, 1e9)


# ---------------------------------------------------------------------------
# Product files
# ---------------------------------------------------------------------------


def test_product_save_load_round_trip(rectified_pair, tmp_path):
    _, products = rectified_pair
    product = products[0]
    save_product(product, tmp_path / "p0")
    back = load_product(tmp_path / "p0")
    np.testing.assert_array_equal(back.raster.pixels, product.raster.pixels)
    assert back.plane_height == product.plane_height
    np.testing.assert_array_equal(back.geo_transform, product.geo_transform)
    assert back.footprint == product.footprint
    np.testing.assert_array_equal(back.rpc.samp_num, product.rpc.samp_num)


def test_product_load_missing_key_names_it(rectified_pair, tmp_path):
    _, products = rectified_pair
    save_product(products[0], tmp_path / "p1")
    meta = (tmp_path / "p1.meta").read_text()
    broken = "\n".join(line for line in meta.splitlines()
                       if not line.startswith("PLANE_HEIGHT"))
    (tmp_path / "p1.meta").write_text(broken)
    with pytest.raises(ParseError, match="PLANE_HEIGHT"):
        load_product(tmp_path / "p1")


def test_old_sidecar_layout_loads_the_same_product(rectified_pair,
                                                   tmp_path):
    """A sidecar in the earlier layout, which also stored the sampling
    distance and the source-corner footprint, loads to the same product:
    the reader skips the keys the format no longer defines."""
    scene, products = rectified_pair
    product, im = products[0], scene.images[0]
    save_product(product, tmp_path / "new")
    lats, lons = rectify._corner_ground(im.raster.pixels.shape, im.rpc,
                                        scene.plane_height)
    plane, nodata, *rest = (tmp_path / "new.meta").read_text() \
        .splitlines(keepends=True)
    old = [plane, "GSD: 0.5\n", nodata,
           textfile.format_keys([
               ("FOOTPRINT_MIN_LAT", lats.min()),
               ("FOOTPRINT_MAX_LAT", lats.max()),
               ("FOOTPRINT_MIN_LON", lons.min()),
               ("FOOTPRINT_MAX_LON", lons.max())]), *rest]
    assert plane.startswith("PLANE_HEIGHT:") and nodata.startswith("NODATA:")
    (tmp_path / "old.meta").write_text("".join(old))
    shutil.copy(tmp_path / "new.pgm", tmp_path / "old.pgm")
    new, back = load_product(tmp_path / "new"), load_product(tmp_path / "old")
    assert back.plane_height == new.plane_height
    assert back.raster.nodata == new.raster.nodata
    np.testing.assert_array_equal(back.raster.pixels, new.raster.pixels)
    np.testing.assert_array_equal(back.geo_transform, new.geo_transform)
    assert (rpc_mod.format_rpc_text(back.rpc)
            == rpc_mod.format_rpc_text(new.rpc))
    assert back.footprint == new.footprint == product.footprint


def test_derived_footprint_covers_the_source(rectified_pair):
    """The footprint derived from the grid covers the four source corners
    cast onto the plane, and exceeds their bounding box by less than one
    output pixel on each side; pair selection does not change."""
    scene, products = rectified_pair
    source_boxes = []
    for im, product in zip(scene.images, products):
        lats, lons = rectify._corner_ground(im.raster.pixels.shape, im.rpc,
                                            scene.plane_height)
        source = GroundBBox(lats.min(), lats.max(), lons.min(), lons.max())
        derived = product.footprint
        step_lat = -product.geo_transform[2]
        step_lon = product.geo_transform[4]
        # how far each side of the derived box lies outside the source box
        beyond = [(source.min_lat - derived.min_lat) / step_lat,
                  (derived.max_lat - source.max_lat) / step_lat,
                  (source.min_lon - derived.min_lon) / step_lon,
                  (derived.max_lon - source.max_lon) / step_lon]
        assert all(-1e-6 <= b < 1.0 for b in beyond), beyond
        source_boxes.append(source)
    stand_ins = [SimpleNamespace(footprint=box) for box in source_boxes]
    assert select_pairs(products) == select_pairs(stand_ins) == [(0, 1)]
