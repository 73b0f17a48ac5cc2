"""Unit tests for scene generation and the brute-force oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import scene_graph
from satadjust import rpc as rpc_mod
from satadjust.errors import ConfigInvalid
from satadjust.rpc import BiasCorrection, GroundPoint, ImagePoint
from satadjust.synth import (
    dense_solve,
    fd_jacobian,
    gen_scene,
    random_rpc,
    save_scene,
    scene_products,
)

# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------


def test_zero_noise_zero_bias_observations_equal_projections():
    scene = gen_scene(3, 25, 0.0, 0.0, seed=10,
                      biases=[BiasCorrection()] * 3)
    for j, g in enumerate(scene.true_points):
        for i, obs in scene.true_observations[j].items():
            raw = rpc_mod.project(scene.images[i].rpc, BiasCorrection(), g)
            assert obs.row == pytest.approx(raw.row, abs=1e-12)
            assert obs.col == pytest.approx(raw.col, abs=1e-12)


def test_observations_subtract_true_bias():
    scene = gen_scene(2, 10, 0.0, 0.0, seed=11,
                      biases=[BiasCorrection(4.0, -7.0),
                              BiasCorrection(-1.5, 2.5)])
    g = scene.true_points[0]
    for i in (0, 1):
        raw = rpc_mod.project(scene.images[i].rpc, BiasCorrection(), g)
        obs = scene.true_observations[0][i]
        assert obs.row == pytest.approx(
            raw.row - scene.images[i].true_bias.d_row, abs=1e-12)
        assert obs.col == pytest.approx(
            raw.col - scene.images[i].true_bias.d_col, abs=1e-12)


def test_identical_seeds_reproduce_scene_bit_for_bit():
    a = gen_scene(3, 30, 15.0, 0.3, seed=99)
    b = gen_scene(3, 30, 15.0, 0.3, seed=99)
    for img_a, img_b in zip(a.images, b.images):
        np.testing.assert_array_equal(img_a.rpc.line_num, img_b.rpc.line_num)
        assert img_a.true_bias == img_b.true_bias
    assert a.true_points == b.true_points
    for obs_a, obs_b in zip(a.true_observations, b.true_observations):
        assert obs_a == obs_b


def test_rendered_scene_is_deterministic():
    a = gen_scene(2, 15, 5.0, 0.0, seed=7, render=True, half_extent_m=300.0)
    b = gen_scene(2, 15, 5.0, 0.0, seed=7, render=True, half_extent_m=300.0)
    for img_a, img_b in zip(a.images, b.images):
        np.testing.assert_array_equal(img_a.raster.pixels,
                                      img_b.raster.pixels)


def test_rendering_memory_is_bounded():
    tracemalloc.start()
    try:
        scene = gen_scene(2, 40, 8.0, 0.0, seed=77, render=True,
                          half_extent_m=300.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    h, w = scene.images[0].shape
    # a float64 image of this size is 16.5 MB; the background broadcasts
    # a row of columns against a column of rows, so rendering holds about
    # five such images at once, not a full-size grid per coordinate
    assert peak < 6 * 8 * h * w


def test_random_visibility_degrees_at_least_two():
    scene = gen_scene(5, 60, 10.0, 0.2, seed=13, visibility="random")
    degrees = [len(per) for per in scene.true_observations]
    assert min(degrees) >= 2
    assert max(degrees) <= 5
    assert len(set(degrees)) > 1


def test_gen_scene_validates_config():
    with pytest.raises(ConfigInvalid):
        gen_scene(1, 10, 5.0, 0.1, seed=1)
    with pytest.raises(ConfigInvalid):
        gen_scene(3, 0, 5.0, 0.1, seed=1)
    with pytest.raises(ConfigInvalid):
        gen_scene(3, 10, -1.0, 0.1, seed=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigInvalid):
            gen_scene(3, 10, bad, 0.1, seed=1)
        with pytest.raises(ConfigInvalid):
            gen_scene(3, 10, 5.0, bad, seed=1)
    for bad in (math.nan, math.inf, 0.0, -5.0, 1e200, 1e308):
        with pytest.raises(ConfigInvalid):
            gen_scene(3, 10, 5.0, 0.1, seed=1, half_extent_m=bad)
    # a rendered image of 5,830 px square, over the pixel cap
    with pytest.raises(ConfigInvalid):
        gen_scene(3, 10, 5.0, 0.1, seed=1, render=True, half_extent_m=1400.0)
    with pytest.raises(ConfigInvalid):
        gen_scene(3, 10, 5.0, 0.1, seed=1, visibility="most")
    with pytest.raises(ConfigInvalid):
        gen_scene(3, 10, 5.0, 0.1, seed=1, biases=[BiasCorrection()])


def test_fitted_rpc_matches_forward_camera():
    scene = gen_scene(2, 5, 0.0, 0.0, seed=21)
    gen = np.random.default_rng(0)
    for img in scene.images:
        cam = img.camera
        for _ in range(40):
            g = GroundPoint(
                cam.lat0 + gen.uniform(-0.9, 0.9) * img.rpc.lat_scale,
                cam.lon0 + gen.uniform(-0.9, 0.9) * img.rpc.lon_scale,
                cam.h0 + gen.uniform(-0.9, 0.9) * img.rpc.hei_scale,
            )
            truth = ImagePoint(*cam.project_arrays(g.lat, g.lon, g.hei))
            fitted = rpc_mod.project(img.rpc, BiasCorrection(), g)
            assert fitted.row == pytest.approx(truth.row, abs=1e-3)
            assert fitted.col == pytest.approx(truth.col, abs=1e-3)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def test_fd_jacobian_exact_on_linear_model(rng):
    scene = gen_scene(2, 5, 0.0, 0.0, seed=31)
    rpc = scene.images[0].rpc
    g = GroundPoint(rpc.lat_off, rpc.lon_off, rpc.hei_off)
    ana = rpc_mod.jacobian(rpc, g)
    a, b = fd_jacobian(rpc, BiasCorrection(), g, step=1e-5)
    np.testing.assert_allclose(a, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(b, ana, atol=1e-6 * np.abs(ana).max())


def curved_rpc() -> rpc_mod.RpcModel:
    """Strong cubic terms so finite-difference truncation is visible."""
    line_num = np.zeros(20)
    line_num[2] = 1.0
    line_num[19] = 0.3
    line_num[14] = 0.2
    samp_num = np.zeros(20)
    samp_num[1] = 1.0
    samp_num[11] = 0.25
    samp_num[9] = 0.2
    den = np.zeros(20)
    den[0] = 1.0
    den[3] = 0.05
    return rpc_mod.RpcModel(
        line_off=0.0, line_scale=5000.0, samp_off=0.0, samp_scale=5000.0,
        lat_off=0.0, lat_scale=0.05, lon_off=0.0, lon_scale=0.05,
        hei_off=100.0, hei_scale=200.0,
        line_num=line_num, line_den=den, samp_num=samp_num, samp_den=den,
    )


def test_fd_jacobian_large_step_shows_truncation_error():
    # documents the central-difference convergence order: a 1e-1 step on
    # a strongly curved model is visibly worse than 1e-7
    rpc = curved_rpc()
    g = GroundPoint(0.5 * rpc.lat_scale, 0.4 * rpc.lon_scale,
                    100.0 + 0.6 * rpc.hei_scale)
    ana = rpc_mod.jacobian(rpc, g)
    _, fine = fd_jacobian(rpc, BiasCorrection(), g, step=1e-7)
    _, coarse = fd_jacobian(rpc, BiasCorrection(), g, step=1e-1)
    err_fine = np.abs(fine - ana).max() / np.abs(ana).max()
    err_coarse = np.abs(coarse - ana).max() / np.abs(ana).max()
    assert err_fine < 1e-5
    assert err_coarse > 1e-4
    assert err_coarse > 100 * err_fine


# ---------------------------------------------------------------------------
# Scene persistence and products
# ---------------------------------------------------------------------------


def test_save_scene_writes_truth_and_rpcs(tmp_path):
    scene = gen_scene(2, 8, 5.0, 0.1, seed=41, render=True,
                      half_extent_m=250.0)
    save_scene(scene, tmp_path)
    assert (tmp_path / "img_000.rpc").exists()
    assert (tmp_path / "img_000.pgm").exists()
    truth = (tmp_path / "truth_bias.txt").read_text()
    assert "img_001" in truth
    back = rpc_mod.load_rpc_file(tmp_path / "img_000.rpc")
    np.testing.assert_array_equal(back.line_num,
                                  scene.images[0].rpc.line_num)


def test_scene_products_geo_transform_maps_plane_points(rendered_scene):
    products = scene_products(rendered_scene)
    for img, product in zip(rendered_scene.images, products):
        geo = product.geo_transform
        cam = img.camera
        # the pixel under an unbiased plane-height point must geo-map back
        g = GroundPoint(cam.lat0 + 1e-4, cam.lon0 - 1e-4,
                        rendered_scene.plane_height)
        p = ImagePoint(*cam.project_arrays(g.lat, g.lon, g.hei))
        lat = geo[0] + geo[1] * p.col + geo[2] * p.row
        lon = geo[3] + geo[4] * p.col + geo[5] * p.row
        assert lat == pytest.approx(g.lat, abs=1e-9)
        assert lon == pytest.approx(g.lon, abs=1e-9)


def test_scene_products_require_render(small_scene):
    with pytest.raises(ConfigInvalid):
        scene_products(small_scene)


# ---------------------------------------------------------------------------
# Dense oracle sanity
# ---------------------------------------------------------------------------


def test_dense_solve_smallest_well_posed_case():
    scene = gen_scene(2, 6, 3.0, 0.05, seed=51)
    graph = scene_graph(scene)
    x, y = dense_solve(graph, gauge_image=0)
    assert x.shape == (2, 2)
    assert np.all(x[0] == 0.0)
    assert set(y) == set(range(len(graph.tracks)))
