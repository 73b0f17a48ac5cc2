"""Unit tests for plane rectification and RPC fitting."""

from __future__ import annotations

import numpy as np
import pytest

from satadjust import rpc as rpc_mod
from satadjust.errors import EmptyFootprint, EmptyInput, InsufficientSamples, ParseError
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
from satadjust.synth import camera_fit_samples, gen_scene

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
        held_out.append((g, cam.project(g)))
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
            img.rpc, BiasCorrection(), lats, lons,
            np.full(lats.shape, scene.plane_height))
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
    assert back.gsd == product.gsd
    np.testing.assert_array_equal(back.geo_transform, product.geo_transform)
    assert back.footprint == product.footprint
    np.testing.assert_array_equal(back.rpc.samp_num, product.rpc.samp_num)


def test_product_load_missing_key_names_it(rectified_pair, tmp_path):
    _, products = rectified_pair
    save_product(products[0], tmp_path / "p1")
    meta = (tmp_path / "p1.meta").read_text()
    broken = "\n".join(line for line in meta.splitlines()
                       if not line.startswith("GSD"))
    (tmp_path / "p1.meta").write_text(broken)
    with pytest.raises(ParseError, match="GSD"):
        load_product(tmp_path / "p1")
