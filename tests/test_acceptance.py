"""Acceptance suite: one test per primary requirement.

Each test exercises its requirement at the stated scale and tolerance and
prints a single PASS line with the measured figures (visible with -s; a
failing requirement shows up as the test's FAILED line).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import scene_graph
from satadjust.adjust import (
    accumulate_reduced,
    adjust_loop,
    report,
    solve_bias,
    update_points,
)
from satadjust.cli import main
from satadjust.geodesy import meters_per_degree
from satadjust.match import (
    describe_features,
    detect_corners,
    match_pair,
    mbcensus_descriptor,
)
from satadjust.raster import Raster
from satadjust.rectify import fit_rpc
from satadjust.rpc import BiasCorrection, ImagePoint, inverse_project, project
from satadjust.synth import (
    PushbroomCamera,
    camera_fit_samples,
    dense_solve,
    fd_jacobian,
    gen_scene,
    random_rpc,
    scene_products,
)
import satadjust.rpc as rpc_mod

# ---------------------------------------------------------------------------
# Shared criterion scene: N=5 images, M=500 tracks, biases in +-30 px,
# noise sigma 0.25 px
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def criterion_scene():
    return gen_scene(5, 500, 30.0, 0.25, seed=42)


@pytest.fixture(scope="module")
def free_run(criterion_scene):
    t0 = time.perf_counter()
    graph = scene_graph(criterion_scene)
    result = adjust_loop(graph)
    elapsed = time.perf_counter() - t0
    return graph, result, elapsed


@pytest.fixture(scope="module")
def gcp_run(criterion_scene):
    gcps = {j: criterion_scene.true_points[j] for j in (0, 1, 2)}
    graph = scene_graph(criterion_scene, gcps=gcps)
    pre = graph.ground[[0, 1, 2]]
    result = adjust_loop(graph)
    return graph, result, pre


# ---------------------------------------------------------------------------
# Requirements
# ---------------------------------------------------------------------------


def test_schur_reduction_equals_dense_solver():
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(5, 51))
        scene = gen_scene(n, m, float(rng.uniform(2.0, 25.0)),
                          float(rng.uniform(0.0, 0.5)), seed=20000 + k,
                          visibility="random" if k % 2 else "full")
        graph = scene_graph(scene)
        for _ in range(2):
            x_dense, _ = dense_solve(graph, gauge_image=0)
            x_schur = solve_bias(accumulate_reduced(graph), gauge_image=0)
            worst = max(worst, float(np.abs(x_schur - x_dense).max()))
            graph.bias += x_schur
            update_points(graph)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 30.0
    print(f"PASS: Schur-reduced solve equals dense solve: worst "
          f"|diff| {worst:.2e} px over 100 graphs x 2 iterations "
          f"(< 1e-9), {elapsed:.1f} s (< 30 s)")


def test_analytic_jacobian_matches_finite_differences():
    rng = np.random.default_rng(4242)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(40):
        rpc = random_rpc(rng)
        bias = BiasCorrection(*rng.uniform(-5.0, 5.0, 2))
        for _ in range(25):
            g = rpc_mod.GroundPoint(
                rpc.lat_off + rng.uniform(-0.9, 0.9) * rpc.lat_scale,
                rpc.lon_off + rng.uniform(-0.9, 0.9) * rpc.lon_scale,
                rpc.hei_off + rng.uniform(-0.9, 0.9) * rpc.hei_scale,
            )
            analytic = rpc_mod.jacobian(rpc, g)
            a, b = fd_jacobian(rpc, bias, g)
            rel = np.linalg.norm(analytic - b) / np.linalg.norm(b)
            worst = max(worst, float(rel))
            # the bias block the adjustment takes as the identity
            np.testing.assert_allclose(a, np.eye(2), atol=1e-6)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 5.0
    print(f"PASS: analytic Jacobian matches central differences: worst "
          f"relative error {worst:.2e} over 1000 samples (< 1e-5), "
          f"{elapsed:.1f} s (< 5 s)")


def test_free_network_subpixel_recovery(criterion_scene, free_run):
    graph, result, elapsed = free_run
    assert result.converged
    rep = report(graph)
    b0 = criterion_scene.images[0].true_bias
    worst = 0.0
    for (d_row, d_col), im in zip(graph.bias.tolist(),
                                  criterion_scene.images):
        worst = max(
            worst,
            abs(d_row - (im.true_bias.d_row - b0.d_row)),
            abs(d_col - (im.true_bias.d_col - b0.d_col)),
        )
    assert rep.avg_xy <= 0.3
    assert worst <= 0.2
    assert elapsed < 60.0
    print(f"PASS: free network N=5 M=500 biases +-30 px noise 0.25 px: "
          f"avg_xy {rep.avg_xy:.3f} px (<= 0.3), worst relative bias "
          f"error {worst:.3f} px (<= 0.2), {elapsed:.1f} s (< 60 s)")


def test_gcp_mode_absolute_recovery(criterion_scene, gcp_run):
    graph, result, pre_grounds = gcp_run
    assert result.converged
    worst = 0.0
    for (d_row, d_col), im in zip(graph.bias.tolist(),
                                  criterion_scene.images):
        worst = max(worst,
                    abs(d_row - im.true_bias.d_row),
                    abs(d_col - im.true_bias.d_col))
    assert worst <= 0.2
    for j, g in zip((0, 1, 2), pre_grounds):
        assert graph.ground[j].tobytes() == g.tobytes()
    assert graph.gcp[:3].all()
    print(f"PASS: GCP mode with 3 control tracks: worst absolute bias "
          f"error {worst:.3f} px (<= 0.2), GCP grounds bit-identical")


def test_convergence_criterion_terminates(free_run, gcp_run):
    for label, (_, result, *_unused) in (("free", free_run),
                                         ("gcp", gcp_run)):
        assert result.converged, label
        assert result.iterations <= 50, label
        assert abs(result.history[-1] - result.history[-2]) < 0.001, label
    print(f"PASS: 0.001 px criterion terminated free run in "
          f"{free_run[1].iterations} and GCP run in "
          f"{gcp_run[1].iterations} iterations (<= 50), final history "
          f"steps below 0.001 px")


def test_matching_end_to_end_with_bias_and_transform():
    scene = gen_scene(2, 200, 0.0, 0.0, seed=42, render=True,
                      half_extent_m=700.0,
                      biases=[BiasCorrection(), BiasCorrection(10.0, 10.0)])
    products = scene_products(scene)
    plain = products[1]
    transformed = type(plain)(
        raster=Raster((2 * plain.raster.pixels.astype(np.int64) + 30)
                      .astype(np.uint8), nodata=plain.raster.nodata),
        rpc=plain.rpc, plane_height=plain.plane_height,
        geo_transform=plain.geo_transform, image_id=plain.image_id,
    )

    (lf, lb), (rf, rb) = (describe_features(p.raster,
                                            detect_corners(p.raster))
                          for p in (products[0], transformed))
    corrs = match_pair(products[0], transformed, left_features=lf,
                       left_bits=lb, right_features=rf, right_bits=rb)

    def planted(index):
        img = scene.images[index]
        out = []
        for g in scene.true_points:
            raw = project(img.rpc, BiasCorrection(), g)
            out.append((raw.row - img.true_bias.d_row,
                        raw.col - img.true_bias.d_col))
        return np.array(out)

    left_pos, right_pos = planted(0), planted(1)

    def nearest(pl, row, col):
        d = np.hypot(pl[:, 0] - row, pl[:, 1] - col)
        j = int(np.argmin(d))
        return j if d[j] <= 2.0 else None

    hits, mismatches = set(), 0
    for lr, lc, rr, rc, _ in corrs.tolist():
        jl = nearest(left_pos, lr, lc)
        jr = nearest(right_pos, rr, rc)
        if jl is None or jr is None or jl != jr:
            mismatches += 1
        else:
            hits.add(jl)
    recall = len(hits) / len(scene.true_points)
    assert recall >= 0.95
    assert mismatches == 0

    compared = 0
    for rr, rc in corrs[:40, 2:4].tolist():
        d_plain = mbcensus_descriptor(plain.raster, ImagePoint(rr, rc))
        d_trans = mbcensus_descriptor(transformed.raster, ImagePoint(rr, rc))
        np.testing.assert_array_equal(d_plain, d_trans)
        compared += 1
    assert compared >= 30
    print(f"PASS: stereo pair, 200 planted corners, (10, 10) px bias, "
          f"monotone transform 2v+30: recall {recall:.1%} (>= 95%), "
          f"{mismatches} mismatches after 2 px filter (= 0), "
          f"{compared} descriptors bit-identical under the transform")


def test_memory_bound_at_fifty_images():
    t0 = time.perf_counter()
    scene = gen_scene(50, 20000, 12.0, 0.25, seed=2026)
    graph = scene_graph(scene)
    shapes = []
    system = accumulate_reduced(graph, alloc_hook=shapes.append)
    elapsed = time.perf_counter() - t0
    n2 = 2 * len(graph.images)
    largest = max(int(np.prod(s)) for s in shapes)
    assert largest == n2 * n2
    assert not system.excluded_tracks
    assert elapsed < 120.0
    print(f"PASS: accumulate_reduced at N=50 M=20000 allocated nothing "
          f"above {n2}x{n2} (largest {largest} elements), "
          f"{elapsed:.1f} s (< 120 s)")


def test_projection_round_trips_and_self_fit():
    rng = np.random.default_rng(1618)
    worst_deg = 0.0
    for _ in range(40):
        rpc = random_rpc(rng)
        for _ in range(25):
            g = rpc_mod.GroundPoint(
                rpc.lat_off + rng.uniform(-0.9, 0.9) * rpc.lat_scale,
                rpc.lon_off + rng.uniform(-0.9, 0.9) * rpc.lon_scale,
                rpc.hei_off + rng.uniform(-0.9, 0.9) * rpc.hei_scale,
            )
            p = project(rpc, BiasCorrection(), g)
            back = inverse_project(rpc, BiasCorrection(), p, g.hei)
            worst_deg = max(worst_deg, abs(back.lat - g.lat),
                            abs(back.lon - g.lon))
    assert worst_deg < 1e-9

    m_lat, m_lon = meters_per_degree(30.0)
    cam = PushbroomCamera(lat0=30.0, lon0=50.0, h0=400.0, gsd=0.5,
                          row0=2000.0, col0=2000.0, azimuth=0.7,
                          tan_along=0.1, tan_across=-0.2, altitude=6.0e5)
    lat_half, lon_half = 1000.0 / m_lat, 1000.0 / m_lon
    fitted = fit_rpc(*camera_fit_samples(cam, lat_half, lon_half, 60.0))
    held = np.linspace(-0.93, 0.93, 11)
    lats = 30.0 + held * lat_half
    lons = 50.0 + held * lon_half
    glats, glons = np.meshgrid(lats, lons, indexing="ij")
    worst_px = 0.0
    for hei in (352.0, 399.0, 431.0, 459.0):
        heis = np.full_like(glats, hei)
        cam_rows, cam_cols = cam.project_arrays(glats, glons, heis)
        rpc_rows, rpc_cols = rpc_mod.project_arrays(fitted, glats, glons,
                                                    heis)
        worst_px = max(worst_px,
                       float(np.abs(cam_rows - rpc_rows).max()),
                       float(np.abs(cam_cols - rpc_cols).max()))
    assert worst_px < 1e-3
    print(f"PASS: project/inverse_project closure {worst_deg:.2e} deg "
          f"over 1000 samples (< 1e-9); fitted camera matches its "
          f"forward model to {worst_px:.2e} px held-out (< 1e-3)")


def test_pipeline_determinism_bit_identical(tmp_path):
    raw = tmp_path / "raw"
    assert main(["synth", "--out", str(raw), "--images", "2", "--points",
                 "40", "--bias-range", "6", "--noise", "0", "--seed",
                 "77", "--render", "--half-extent", "350"]) == 0
    stems = [str(raw / "img_000"), str(raw / "img_001")]
    outs = (tmp_path / "run_a", tmp_path / "run_b")
    for out in outs:
        assert main(["pipeline", *stems, "--out", str(out),
                     "--threads", "1"]) == 0

    compared = []
    for root, _, names in os.walk(outs[0]):
        for name in names:
            path_a = os.path.join(root, name)
            rel = os.path.relpath(path_a, outs[0])
            path_b = os.path.join(outs[1], rel)
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                assert fa.read() == fb.read(), rel
            compared.append(rel)
    assert len(compared) >= 9
    print(f"PASS: two --threads 1 pipeline runs produced bit-identical "
          f"outputs ({len(compared)} files compared)")
