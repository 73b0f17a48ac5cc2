"""Unit tests for the Schur-reduced bundle adjustment."""

from __future__ import annotations

import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scene_graph, scene_tracks
from satadjust import adjust, synth
from satadjust import rpc as rpc_mod
from satadjust.adjust import (
    ObservationGraph,
    accumulate_reduced,
    adjust_loop,
    assemble,
    ground_corrections,
    load_biases,
    report,
    save_biases,
    solve_bias,
    update_points,
)
from satadjust.errors import (
    ConfigInvalid,
    NumericalError,
    ParseError,
    RankDeficient,
)
from satadjust.rpc import BiasCorrection, GroundPoint, ImagePoint, project
from satadjust.synth import dense_solve, gen_scene, save_scene
from satadjust.tracks import Track, load_tracks, save_tracks

# ---------------------------------------------------------------------------
# Graph assembly
# ---------------------------------------------------------------------------


def test_assemble_triangulates_all_tracks(small_scene):
    graph = scene_graph(small_scene)
    assert len(graph.tracks) == len(small_scene.true_points)
    assert graph.ground.shape == (len(graph.tracks), 3)
    for ground, true_g in zip(graph.ground, small_scene.true_points):
        assert np.isfinite(ground).all()
        # biased observations displace the zero-bias triangulation
        assert abs(ground[0] - true_g.lat) < 0.01


def test_assemble_keeps_gcp_grounds_verbatim(small_scene):
    gcps = {0: small_scene.true_points[0], 3: small_scene.true_points[3]}
    graph = scene_graph(small_scene, gcps=gcps)
    assert graph.has_gcp
    assert graph.gcp.tolist() == [j in gcps for j in range(len(graph.tracks))]
    assert GroundPoint(*graph.ground[0]) == small_scene.true_points[0]
    assert GroundPoint(*graph.ground[3]) == small_scene.true_points[3]


def test_graph_visibility_is_sorted_and_consistent(small_scene):
    graph = scene_graph(small_scene)
    for j, track in enumerate(graph.tracks):
        span = slice(graph.track_start[j], graph.track_start[j + 1])
        idxs = graph.obs_image[span]
        assert list(idxs) == sorted(idxs)
        assert graph.obs_pixel[span].shape == (len(idxs), 2)


def test_duplicate_image_ids_rejected(small_scene):
    im = small_scene.images[0]
    tracks = scene_tracks(small_scene)
    with pytest.raises(ConfigInvalid):
        ObservationGraph(
            images=[("a", im.rpc), ("a", im.rpc)],
            tracks=tracks[:1],
        )


# ---------------------------------------------------------------------------
# Schur equivalence against the dense oracle
# ---------------------------------------------------------------------------


def random_graph(rng, n_images=3, n_tracks=12, noise=0.3):
    """Random-camera observation graph with one image gauge-compatible."""
    scene = gen_scene(
        n_images, n_tracks, bias_range_px=10.0, noise_sigma_px=noise,
        seed=int(rng.integers(1, 2**31)),
    )
    return scene_graph(scene)


def test_solve_bias_factors_its_one_copy_in_place():
    """At 2N = 2,000 (a 32 MB reduced matrix) the solve's traced peak
    stays within 1.3 times the matrix: one copy of the kept rows and
    columns, factored in place.  The system is left as it was."""
    n2 = 2000
    rng = np.random.default_rng(7)
    matrix = rng.uniform(-1.0, 1.0, (n2, n2))
    matrix += matrix.T
    # diagonally dominant, so positive definite
    matrix[np.diag_indices(n2)] += 2.0 * n2
    system = adjust.ReducedNormalSystem(matrix, rng.normal(size=n2), [])
    before = matrix.copy()
    for gauge in (None, 0):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            x = solve_bias(system, gauge).ravel()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * matrix.nbytes
        assert np.array_equal(system.matrix, before)
        keep = slice(0 if gauge is None else 2, None)
        np.testing.assert_allclose(matrix[keep, keep] @ x[keep],
                                   system.rhs[keep], rtol=0, atol=1e-9)
        assert (x[:2] == 0.0).all() == (gauge == 0)


@pytest.mark.parametrize("chunk", [1, 5, 24, adjust.CHUNK_OBSERVATIONS])
def test_solve_matches_dense_oracle(chunk, rng, monkeypatch):
    monkeypatch.setattr(adjust, "CHUNK_OBSERVATIONS", chunk)
    for _ in range(10):
        graph = random_graph(rng)
        system = accumulate_reduced(graph)
        x = solve_bias(system, gauge_image=0)
        x_dense, _ = dense_solve(graph, gauge_image=0)
        np.testing.assert_allclose(x, x_dense, atol=1e-9)


@pytest.mark.parametrize("chunk", [1, 5, 24, adjust.CHUNK_OBSERVATIONS])
def test_ground_corrections_match_dense_oracle(chunk, rng, monkeypatch):
    monkeypatch.setattr(adjust, "CHUNK_OBSERVATIONS", chunk)
    graph = random_graph(rng, n_images=4, n_tracks=15)
    system = accumulate_reduced(graph)
    x = solve_bias(system, gauge_image=0)
    x_dense, y_dense = dense_solve(graph, gauge_image=0)
    tracks, y = ground_corrections(graph, x)
    assert tracks.tolist() == sorted(y_dense)
    for j, y_j in zip(tracks, y):
        np.testing.assert_allclose(y_j, y_dense[j], atol=1e-9)


@pytest.mark.parametrize("chunk", [1, 5, 24, adjust.CHUNK_OBSERVATIONS])
def test_gcp_graph_matches_dense_oracle(chunk, rng, monkeypatch):
    monkeypatch.setattr(adjust, "CHUNK_OBSERVATIONS", chunk)
    scene = gen_scene(3, 12, 10.0, 0.3, seed=97)
    gcps = {1: scene.true_points[1], 5: scene.true_points[5]}
    graph = scene_graph(scene, gcps=gcps)
    system = accumulate_reduced(graph)
    x = solve_bias(system, gauge_image=None)
    x_dense, _ = dense_solve(graph, gauge_image=None)
    np.testing.assert_allclose(x, x_dense, atol=1e-9)


def affine_block_graph() -> ObservationGraph:
    """Exactly parallel cameras over one footprint, distinct view
    directions: here a ground translation plus a slide along any one
    image's ray is absorbed by constant biases, so the constant-bias
    free network is structurally rank deficient (gauge or not)."""
    from satadjust.geodesy import meters_per_degree
    from satadjust.rectify import fit_rpc
    from satadjust.synth import PushbroomCamera, camera_fit_samples

    m_lat, m_lon = meters_per_degree(30.0)
    lat_half, lon_half = 2000.0 / m_lat, 2000.0 / m_lon
    tangents = ((0.10, -0.20), (-0.15, 0.05), (0.20, 0.25))
    cams = [
        PushbroomCamera(lat0=30.0, lon0=50.0, h0=200.0, gsd=0.5,
                        row0=4000.0, col0=4000.0, azimuth=0.3,
                        tan_along=ta, tan_across=tc, altitude=1e13)
        for ta, tc in tangents
    ]
    pairs = [(f"aff_{i}", fit_rpc(*camera_fit_samples(cam, lat_half,
                                                      lon_half, 100.0)))
             for i, cam in enumerate(cams)]
    gen = np.random.default_rng(4)
    tracks = []
    for _ in range(15):
        g = GroundPoint(
            30.0 + gen.uniform(-0.8, 0.8) * lat_half,
            50.0 + gen.uniform(-0.8, 0.8) * lon_half,
            200.0 + gen.uniform(-80.0, 80.0),
        )
        obs = {pid: project(rpc, BiasCorrection(), g)
               for (pid, rpc), cam in zip(pairs, cams)}
        tracks.append(Track(observations=obs))
    return assemble(pairs, tracks)


def test_exactly_parallel_free_network_raises_rank_deficient():
    graph = affine_block_graph()
    system = accumulate_reduced(graph)
    with pytest.raises(RankDeficient):
        solve_bias(system, gauge_image=None)
    with pytest.raises(RankDeficient):
        dense_solve(graph, gauge_image=None)
    # pinning one image leaves the slide along its ray unconstrained
    with pytest.raises(RankDeficient):
        solve_bias(system, gauge_image=0)


def test_gauge_image_correction_is_pinned(rng):
    graph = random_graph(rng)
    system = accumulate_reduced(graph)
    x = solve_bias(system, gauge_image=1)
    assert x[1, 0] == 0.0 and x[1, 1] == 0.0


@pytest.mark.parametrize("visibility", ["full", "random"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gauge_choice_changes_only_the_datum(visibility, seed):
    """Pinning image k instead of image 0 leaves the reduced equations of
    every other image satisfied, and moves all biases by nearly one
    common (d_row, d_col).  Not exactly one: the images' ground-to-image
    Jacobians differ, so a common image shift is only weakly observed,
    not unobservable; on these scenes the spread is 1.2e-4 to 2.5e-4 of
    the offset (1.7e-3 to 4.7e-3 px)."""
    graph = scene_graph(gen_scene(5, 200, 10, 0.25, seed=seed,
                                  visibility=visibility))
    system = accumulate_reduced(graph)
    x0 = solve_bias(system, 0)
    for k in range(1, len(graph.images)):
        d = solve_bias(system, k) - x0
        force = (system.matrix @ d.ravel()).reshape(-1, 2)
        scale = np.abs(system.matrix).max() * np.abs(d).max()
        assert np.abs(np.delete(force, [0, k], axis=0)).max() < 1e-11 * scale
        offset = d.mean(axis=0)
        assert np.abs(d - offset).max() < 1e-3 * np.abs(offset).max()


def test_excluded_non_finite_track_leaves_the_system_finite(small_scene):
    """A track whose ground overflows every projection is excluded, and
    its non-finite residuals reach neither the reduced system nor the
    back-substitution of the other tracks."""
    graph = scene_graph(small_scene)
    graph.ground[3] = 1e200
    system = accumulate_reduced(graph)
    assert system.excluded_tracks == [3]
    assert np.isfinite(system.matrix).all() and np.isfinite(system.rhs).all()
    tracks, steps = ground_corrections(graph, solve_bias(system, 0))
    assert 3 not in tracks and np.isfinite(steps).all()


def test_assembled_grounds_take_no_back_substitution_step(small_scene):
    """Triangulation and back-substitution step through the same point
    elimination: at the grounds ``assemble`` triangulated, with zero
    biases, the back-substituted step is below the triangulation's own
    convergence threshold."""
    graph = scene_graph(small_scene)
    tracks, steps = ground_corrections(graph, np.zeros(2 * len(graph.images)))
    assert len(tracks) == len(graph.tracks)
    assert np.abs(steps).max() < rpc_mod.GROUND_TOL_NORM


# ---------------------------------------------------------------------------
# Memory discipline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", [5, adjust.CHUNK_OBSERVATIONS])
def test_accumulate_allocates_one_panel_pair_per_chunk(chunk, small_scene,
                                                       monkeypatch):
    """The reduced system, then per chunk with a free track one pair of
    panels: a row pair per image the chunk sees, three columns per
    track.  No array grows with the number of tracks."""
    monkeypatch.setattr(adjust, "CHUNK_OBSERVATIONS", chunk)
    gcps = {0: small_scene.true_points[0], 3: small_scene.true_points[3]}
    graph = scene_graph(small_scene, gcps=gcps)
    shapes = []
    system = accumulate_reduced(graph, alloc_hook=shapes.append)
    assert not system.excluded_tracks
    n2 = 2 * len(graph.images)
    expected = [(n2, n2), (n2,)]
    for a, b in graph.chunks():
        if graph.gcp[a:b].all():
            continue
        span = slice(graph.track_start[a], graph.track_start[b])
        panel = (2 * len(set(graph.obs_image[span].tolist())), 3 * (b - a))
        expected += [panel, panel]
    assert shapes == expected


# ---------------------------------------------------------------------------
# Iteration loop
# ---------------------------------------------------------------------------


def test_adjust_loop_free_network_recovers_relative_biases():
    scene = gen_scene(4, 120, 20.0, 0.15, seed=777)
    graph = scene_graph(scene)
    res = adjust_loop(graph)
    assert res.converged
    b0 = scene.images[0].true_bias
    for (d_row, d_col), im in zip(graph.bias.tolist(), scene.images):
        assert d_row == pytest.approx(im.true_bias.d_row - b0.d_row,
                                      abs=0.2)
        assert d_col == pytest.approx(im.true_bias.d_col - b0.d_col,
                                      abs=0.2)


def test_adjust_loop_gcp_mode_recovers_absolute_biases():
    scene = gen_scene(4, 120, 20.0, 0.15, seed=778)
    gcps = {j: scene.true_points[j] for j in (0, 1, 2)}
    graph = scene_graph(scene, gcps=gcps)
    res = adjust_loop(graph)
    assert res.converged
    for (d_row, d_col), im in zip(graph.bias.tolist(), scene.images):
        assert d_row == pytest.approx(im.true_bias.d_row, abs=0.2)
        assert d_col == pytest.approx(im.true_bias.d_col, abs=0.2)
    for j in (0, 1, 2):
        assert GroundPoint(*graph.ground[j]) == scene.true_points[j]


def test_adjust_loop_zero_bias_scene_is_a_fixed_point():
    scene = gen_scene(3, 60, 0.0, 0.0, seed=9,
                      biases=[BiasCorrection()] * 3)
    graph = scene_graph(scene)
    res = adjust_loop(graph)
    assert res.history[0] == pytest.approx(0.0, abs=1e-6)
    assert np.abs(graph.bias).max() < 1e-6


def test_adjust_loop_history_and_convergence_flag():
    scene = gen_scene(4, 80, 15.0, 0.2, seed=55)
    graph = scene_graph(scene)
    before = report(graph)
    res = adjust_loop(graph)
    # the reports of the first and the last state
    assert res.before == before and res.after == report(graph)
    assert (res.before.avg_xy, res.after.avg_xy) == (res.history[0],
                                                     res.history[-1])
    assert res.converged
    assert res.iterations <= 50
    assert abs(res.history[-1] - res.history[-2]) < 0.001
    assert len(res.history) == res.iterations + 1
    # the documented rule: stop at the first step moving no bias > tol
    assert len(res.steps) == res.iterations
    assert res.steps[-1] <= 0.001
    assert all(step > 0.001 for step in res.steps[:-1])


@pytest.mark.parametrize("with_gcps", [False, True])
def test_back_substituted_grounds_match_retriangulation(with_gcps):
    scene = gen_scene(4, 80, 15.0, 0.2, seed=55)
    gcps = ({j: scene.true_points[j] for j in (0, 1, 2)}
            if with_gcps else None)
    graph = scene_graph(scene, gcps=gcps)
    assert adjust_loop(graph).converged
    before = report(graph).avg_xy
    assert update_points(graph) == []
    assert abs(report(graph).avg_xy - before) < 1e-6


def test_adjust_loop_never_triangulates(small_scene, monkeypatch):
    graph = scene_graph(small_scene)

    def refuse(observations):
        raise AssertionError("adjust_loop triangulated a track")

    def refuse_many(models, index, targets, starts):
        raise AssertionError("adjust_loop triangulated a batch of tracks")

    monkeypatch.setattr(rpc_mod, "triangulate", refuse)
    monkeypatch.setattr(rpc_mod, "triangulate_many", refuse_many)
    assert adjust_loop(graph).converged


def separate_pass_loop(graph, max_iter=adjust.MAX_ITER):
    """Gauss-Newton from the public passes, each linearizing on its own:
    accumulate -> solve -> back-substitute -> report."""
    gauge = None if graph.has_gcp else 0
    scales = graph.models.scale[graph.obs_image[graph.track_start[:-1]], :3]
    before = after = report(graph)
    history, steps, excluded = [before.avg_xy], [], []
    for _ in range(max_iter):
        system = accumulate_reduced(graph)
        x = solve_bias(system, gauge)
        idx, dg = ground_corrections(graph, x)
        graph.bias += x
        graph.ground[idx] += dg * scales[idx]
        after = report(graph)
        history.append(after.avg_xy)
        steps.append(float(np.abs(x).max()))
        excluded.append(len(system.excluded_tracks))
        if steps[-1] <= adjust.CONVERGENCE_PX:
            break
    return before, after, history, steps, excluded


@pytest.mark.parametrize("max_iter", [1, adjust.MAX_ITER])
@pytest.mark.parametrize("with_gcps", [False, True])
def test_adjust_loop_equals_the_separate_passes(with_gcps, max_iter,
                                                monkeypatch):
    """One linearization per step, back-substituting from the kept
    arrays, gives the bytes of running the public passes one after
    another."""
    monkeypatch.setattr(adjust, "CHUNK_OBSERVATIONS", 24)
    scene = gen_scene(5, 90, 10.0, 0.2, seed=61, visibility="random")
    gcps = ({j: scene.true_points[j] for j in (0, 1, 2)}
            if with_gcps else None)
    fused = scene_graph(scene, gcps=gcps)
    separate = scene_graph(scene, gcps=gcps)
    assert len(list(fused.chunks())) > 1
    res = adjust_loop(fused, max_iter=max_iter)
    before, after, history, steps, excluded = separate_pass_loop(
        separate, max_iter)
    assert res.iterations == len(steps)
    # the cap stops the first loop, the convergence rule the second
    assert res.converged == (max_iter > 1)
    assert fused.bias.tobytes() == separate.bias.tobytes()
    assert fused.ground.tobytes() == separate.ground.tobytes()
    assert np.array(res.history).tobytes() == np.array(history).tobytes()
    assert np.array(res.steps).tobytes() == np.array(steps).tobytes()
    assert res.excluded == excluded
    assert (res.before, res.after) == (before, after)


def test_adjust_loop_linearizes_each_chunk_once_per_step(small_scene,
                                                         monkeypatch):
    """S steps over C chunks take S * C linearizations with derivatives
    and C without: the last pass only reports."""
    monkeypatch.setattr(adjust, "CHUNK_OBSERVATIONS", 24)
    graph = scene_graph(small_scene)
    calls = []
    linearize = rpc_mod.linearize_tracks

    def count(models, index, targets, grounds, starts, cond_max=None):
        calls.append(cond_max is not None)
        return linearize(models, index, targets, grounds, starts, cond_max)

    monkeypatch.setattr(rpc_mod, "linearize_tracks", count)
    result = adjust_loop(graph)
    chunks = len(list(graph.chunks()))
    assert result.converged and result.iterations > 1 and chunks > 1
    assert calls.count(True) == result.iterations * chunks
    assert calls.count(False) == chunks


def twin_image_tracks(scene, count):
    """Tracks seen only by image 0 and a "twin" image with the same RPC:
    their rays coincide, so they cannot be triangulated and their point
    block is singular."""
    image_id = scene.images[0].image_id
    return [Track(observations={image_id: per_image[0], "twin": per_image[0]})
            for per_image in scene.true_observations[:count]]


def with_twins(graph, twins, at=None):
    """``graph`` with the ``twins`` inserted before its track ``at`` (at
    the end by default), its own tracks keeping their rows of
    ``graph.ground`` and the twins starting at their ``Track.ground``."""
    at = len(graph.tracks) if at is None else at
    joined = ObservationGraph(
        images=graph.images,
        tracks=graph.tracks[:at] + twins + graph.tracks[at:])
    own = np.r_[0:at, at + len(twins):len(joined.tracks)]
    joined.ground[own] = graph.ground
    joined.bias[:] = graph.bias
    return joined


def test_track_failures_log_one_warning_per_call(small_scene, caplog):
    images = [(im.image_id, im.rpc) for im in small_scene.images]
    images.append(("twin", small_scene.images[0].rpc))
    n = len(small_scene.true_points)
    first = str(list(range(n, n + 5)))
    with caplog.at_level(logging.WARNING, logger="satadjust.adjust"):
        graph = assemble(images, scene_tracks(small_scene)
                         + twin_image_tracks(small_scene, 7))
    assert len(graph.tracks) == n
    assert len(caplog.records) == 1
    assert "7 track(s)" in caplog.text and first in caplog.text

    caplog.clear()
    twins = twin_image_tracks(small_scene, 7)
    for track, g in zip(twins, small_scene.true_points):
        track.ground = g
    graph = with_twins(graph, twins)
    with caplog.at_level(logging.WARNING, logger="satadjust.adjust"):
        system = accumulate_reduced(graph)
    assert system.excluded_tracks == list(range(n, n + 7))
    assert len(caplog.records) == 1
    assert "7 track(s)" in caplog.text and first in caplog.text


def test_assemble_repacks_without_the_failed_tracks(small_scene):
    """Twin-image tracks interleaved among good ones fail, and the
    re-packed graph keeps the good tracks' grounds bit for bit: they
    equal those of assembling without the twins."""
    images = [(im.image_id, im.rpc) for im in small_scene.images]
    images.append(("twin", small_scene.images[0].rpc))
    tracks = scene_tracks(small_scene)
    twins = twin_image_tracks(small_scene, 6)
    mixed = [t for pair in zip(tracks, twins) for t in pair] + tracks[6:]
    graph = assemble(images, mixed)
    clean = assemble(images, scene_tracks(small_scene))
    assert [t.id for t in graph.tracks] == [t.id for t in clean.tracks]
    assert np.array_equal(graph.track_start, clean.track_start)
    assert np.array_equal(graph.obs_pixel, clean.obs_pixel)
    assert graph.ground.tobytes() == clean.ground.tobytes()


@pytest.fixture(scope="module")
def track_file(tmp_path_factory):
    """A random-visibility scene saved as a track file, and the result
    of adjusting it as saved, free and with three GCPs."""
    scene = gen_scene(6, 120, 10.0, 0.2, seed=612, visibility="random")
    path = tmp_path_factory.mktemp("shuffled") / "tracks.txt"
    save_tracks(scene_tracks(scene), path)
    images = [(im.image_id, im.rpc) for im in scene.images]
    gcps = {j: scene.true_points[j] for j in (0, 1, 2)}
    reference = {mode: adjusted_from_file(images, path, gcps if mode else None)
                 for mode in (False, True)}
    return path, images, gcps, reference


def adjusted_from_file(images, path, gcps):
    graph = assemble(images, load_tracks(path), gcps)
    result = adjust_loop(graph)
    return graph.bias.tobytes(), result.history, graph.ground.tobytes()


@pytest.mark.parametrize("with_gcps", [False, True])
@settings(max_examples=4, deadline=None)
@given(order=st.randoms(use_true_random=False))
def test_track_file_line_order_changes_nothing(track_file, with_gcps, order):
    """Shuffling the lines of a track file gives bit-identical biases,
    history and grounds: tracks are put in id order and observations in
    image order."""
    path, images, gcps, reference = track_file
    lines = path.read_text().splitlines(keepends=True)
    body = [line for line in lines if not line.startswith("#")]
    order.shuffle(body)
    shuffled = path.with_name("shuffled.txt")
    shuffled.write_text("".join(body))
    got = adjusted_from_file(images, shuffled, gcps if with_gcps else None)
    assert got == reference[with_gcps]


def test_adjust_loop_counts_excluded_tracks_per_step(small_scene):
    # every ordinary track also sees the twin image, so its biases stay
    # observable once the twin-only tracks are excluded
    image_id = small_scene.images[0].image_id
    tracks = scene_tracks(small_scene)
    for track in tracks:
        track.observations["twin"] = track.observations[image_id]
    images = [(im.image_id, im.rpc) for im in small_scene.images]
    images.append(("twin", small_scene.images[0].rpc))
    graph = assemble(images, tracks)
    twins = twin_image_tracks(small_scene, 7)
    for track, g in zip(twins, small_scene.true_points):
        track.ground = g
    res = adjust_loop(with_twins(graph, twins))
    assert res.converged
    assert res.excluded == [7] * res.iterations
    clean = adjust_loop(scene_graph(small_scene))
    assert clean.excluded == [0] * clean.iterations


def test_triangulate_many_equals_per_track_calls():
    """One lock-step batch over every track of a random-visibility scene
    gives the grounds and the failures of :func:`update_points`, which
    makes one such call per chunk, and those grounds agree with the
    truth: at the true biases, a
    least-squares fit moves a track's projections away from the true
    point's by no more than the track's observation noise."""
    scene = gen_scene(8, 150, 10.0, 0.3, seed=404, visibility="random")
    assert {len(obs) for obs in scene.true_observations} >= {2, 8}
    images = [(im.image_id, im.rpc) for im in scene.images]
    images.append(("twin", scene.images[0].rpc))
    graph = assemble(images, scene_tracks(scene))
    twins = twin_image_tracks(scene, 3)
    for track, g in zip(twins, scene.true_points):
        track.ground = g
    graph = with_twins(graph, twins)
    n = len(scene.true_points)
    assert len(graph.tracks) == n + 3
    true_biases = [im.true_bias for im in scene.images]
    true_biases.append(scene.images[0].true_bias)
    graph.bias[:] = [(b.d_row, b.d_col) for b in true_biases]

    grounds, status = rpc_mod.triangulate_many(
        graph.models, graph.obs_image,
        graph.obs_pixel + graph.bias[graph.obs_image], graph.track_start)
    failed = np.flatnonzero(status != rpc_mod.SOLVED).tolist()
    assert update_points(graph) == failed == list(range(n, n + 3))
    for j in range(n):
        scales = graph.models.scale[graph.obs_image[graph.track_start[j]], :3]
        diff = (graph.ground[j] - grounds[j]) / scales
        assert np.abs(diff).max() < 1e-9
        noise = moved = 0.0
        span = slice(graph.track_start[j], graph.track_start[j + 1])
        for i, (row, col) in zip(graph.obs_image[span],
                                 graph.obs_pixel[span]):
            rpc, bias = graph.images[i][1], true_biases[i]
            at_truth = project(rpc, bias, scene.true_points[j])
            at_fit = project(rpc, bias, GroundPoint(*graph.ground[j]))
            noise += (row - at_truth.row) ** 2 + (col - at_truth.col) ** 2
            moved += ((at_fit.row - at_truth.row) ** 2
                      + (at_fit.col - at_truth.col) ** 2)
        assert 0.0 < moved <= 1.001 * noise


def mixed_graph():
    """A random-visibility scene at its true biases, with GCP tracks
    (ids 0-3 and 40) and twin-image tracks that cannot be triangulated
    among and after the free tracks."""
    scene = gen_scene(6, 60, 10.0, 0.3, seed=808, visibility="random")
    images = [(im.image_id, im.rpc) for im in scene.images]
    images.append(("twin", scene.images[0].rpc))
    gcps = {j: scene.true_points[j] for j in (0, 1, 2, 3, 40)}
    graph = assemble(images, scene_tracks(scene), gcps)
    twins = twin_image_tracks(scene, 4)
    for track, g in zip(twins, scene.true_points):
        track.ground = g
    graph = with_twins(with_twins(graph, twins[:2], at=20), twins[2:])
    for i, truth in enumerate(scene.images):
        graph.bias[i] = truth.true_bias.d_row, truth.true_bias.d_col
    return graph


@pytest.mark.parametrize("chunk", [1, 5, 24, adjust.CHUNK_OBSERVATIONS])
def test_update_points_equals_per_track_triangulation(chunk, monkeypatch,
                                                      caplog):
    """Chunked triangulation gives exactly the grounds and failures of
    one :func:`rpc.triangulate` call per free track, whether a chunk
    holds one track or breaks between tracks; GCP grounds and failed
    tracks keep their grounds bit for bit."""
    monkeypatch.setattr(adjust, "CHUNK_OBSERVATIONS", chunk)
    graph = mixed_graph()
    before = graph.ground.copy()
    expected, failed = [], []
    for j, track in enumerate(graph.tracks):
        obs = [(graph.images[graph.index[i]][1],
                BiasCorrection(*graph.bias[graph.index[i]].tolist()), p)
               for i, p in track.observations.items()]
        try:
            expected.append(None if track.is_gcp
                            else rpc_mod.triangulate(obs))
        except NumericalError:
            expected.append(None)
            failed.append(j)
    assert failed == [20, 21, len(graph.tracks) - 2, len(graph.tracks) - 1]
    with caplog.at_level(logging.WARNING, logger="satadjust.adjust"):
        assert update_points(graph) == failed
    assert len(caplog.records) == 1
    for ground, old, new in zip(graph.ground, before, expected):
        if new is None:
            assert ground.tobytes() == old.tobytes()
        else:
            assert GroundPoint(*ground) == new


@pytest.mark.parametrize("chunk", [1, 24])
def test_update_points_calls_triangulate_many_once_per_chunk(chunk,
                                                             monkeypatch):
    """One batched call per chunk that holds a free track, covering
    exactly its free tracks; none for a chunk of GCP tracks only, and
    no one-track call at all."""
    monkeypatch.setattr(adjust, "CHUNK_OBSERVATIONS", chunk)
    graph = mixed_graph()

    def refuse(observations):
        raise AssertionError("update_points triangulated one track")

    calls = []
    batched = rpc_mod.triangulate_many

    def count(models, index, targets, starts):
        calls.append(len(starts) - 1)
        return batched(models, index, targets, starts)

    monkeypatch.setattr(rpc_mod, "triangulate", refuse)
    monkeypatch.setattr(rpc_mod, "triangulate_many", count)
    update_points(graph)
    free = [sum(not t.is_gcp for t in graph.tracks[a:b])
            for a, b in graph.chunks()]
    assert calls == [f for f in free if f]
    assert len(calls) > 1
    if chunk == 1:
        # one track per chunk: the five GCP tracks are chunks of their own
        assert free.count(0) == 5


def test_pass_memory_does_not_grow_with_track_count():
    """Triangulation and the reduction work chunk by chunk: quadrupling
    the tracks leaves the peak of their temporaries where it was, and
    they keep no per-track objects.  A temporary is what a call frees
    before it returns, so its size is the traced peak above the memory
    held after the call; what a call holds is the growth of the traced
    memory across it (its result: the failed list, the reduced
    system)."""
    peaks, held = {}, {}
    for m in (400, 1600):
        graph = scene_graph(gen_scene(6, m, 10.0, 0.2, seed=5))
        tracemalloc.start()
        try:
            for name, fn in (("update_points", update_points),
                             ("accumulate_reduced", accumulate_reduced)):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fn(graph)
                now, peak = tracemalloc.get_traced_memory()
                peaks[name, m] = peak - now
                held[name, m] = now - start
        finally:
            tracemalloc.stop()
    # 1200 more tracks hold 7200 more observations; one float per
    # observation would be 57,600 bytes, one new ground object per track
    # about 160,000
    for name in ("update_points", "accumulate_reduced"):
        assert peaks[name, 1600] - peaks[name, 400] < 16_384, name
        assert held[name, 1600] - held[name, 400] < 32_768, name


def test_adjust_loop_memory_grows_by_one_step_of_kept_arrays():
    """Between passes the loop keeps, per observation, its point block
    rows ``b`` and residual ``v`` and, per track, its inverse normal
    block, column norms, start and free flag.  Quadrupling the tracks
    may raise the peak of ``adjust_loop`` above its start by those
    arrays' bytes for the added observations and tracks, and by no
    more than a fixed margin beyond (the chunk temporaries do not grow,
    and each added chunk keeps a few small Python objects)."""
    f8, i8 = np.dtype(np.float64).itemsize, np.dtype(np.intp).itemsize
    per_observation = f8 * (2 * 3 + 2)  # b (2, 3) and v (2,)
    per_track = f8 * (3 * 3 + 3) + i8 + np.dtype(bool).itemsize
    assert (per_observation, per_track) == (64, 105)
    peaks, sizes = {}, {}
    for m in (400, 1600):
        graph = scene_graph(gen_scene(6, m, 10.0, 0.2, seed=5))
        sizes[m] = int(graph.track_start[-1]), len(graph.tracks)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert adjust_loop(graph, max_iter=2).iterations == 2
            peaks[m] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    observations = sizes[1600][0] - sizes[400][0]
    tracks = sizes[1600][1] - sizes[400][1]
    assert (observations, tracks) == (7200, 1200)
    kept = per_observation * observations + per_track * tracks
    assert peaks[1600] - peaks[400] < kept + 32_768


def test_screen_judges_almost_every_block_of_the_acceptance_scene(
        monkeypatch):
    """Assembling and adjusting the N=5/M=500 acceptance scene judges
    thousands of point blocks, and the determinant screen accepts
    almost all of them without ``eigvalsh``."""
    judged, sent = [0], [0]
    invert, eigvalsh = rpc_mod._invert_blocks, np.linalg.eigvalsh

    def counting_invert(off, ok, cond_max):
        judged[0] += int(ok.sum())
        return invert(off, ok, cond_max)

    def counting_eigvalsh(blocks):
        sent[0] += len(blocks)
        return eigvalsh(blocks)

    monkeypatch.setattr(rpc_mod, "_invert_blocks", counting_invert)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    graph = scene_graph(gen_scene(5, 500, 30.0, 0.25, seed=42))
    assert adjust_loop(graph).converged
    assert judged[0] > 3000
    assert sent[0] <= 0.01 * judged[0]


def test_update_points_retriangulates_under_current_bias(small_scene):
    graph = scene_graph(small_scene)
    before = graph.ground.copy()
    graph.bias[0] = 3.0, -2.0
    failed = update_points(graph)
    assert failed == []
    moved = sum(1 for g, old in zip(graph.ground, before)
                if np.isfinite(g).all() and (g != old).any())
    assert moved == len(graph.tracks)


def test_report_statistics_shape(small_scene):
    graph = scene_graph(small_scene)
    rep = report(graph)
    assert rep.count == sum(t.degree for t in graph.tracks)
    assert rep.max_xy >= rep.avg_xy > 0
    assert set(rep.per_image_avg_xy) == set(graph.index)
    # Euclidean mean dominates each per-axis mean and never their sum
    assert max(rep.avg_x, rep.avg_y) <= rep.avg_xy <= rep.avg_x + rep.avg_y


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    scene = gen_scene(3, 30, 10.0, 0.1, seed=31)
    save_scene(scene, tmp_path)
    save_tracks(scene_tracks(scene), tmp_path / "tracks.txt")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(snippet, namespace)
    assert namespace["result"].converged
    assert len(namespace["graph"].tracks) == len(scene.true_points)


# ---------------------------------------------------------------------------
# Bias file round trip
# ---------------------------------------------------------------------------


def test_bias_save_load_round_trip(tmp_path, small_scene):
    graph = scene_graph(small_scene)
    graph.bias[0] = 1.25, -0.5
    path = tmp_path / "bias.txt"
    save_biases(graph, path)
    loaded = load_biases(path)
    assert loaded["img_000"] == BiasCorrection(1.25, -0.5)
    assert set(loaded) == set(graph.index)


def test_load_biases_rejects_a_repeated_image(tmp_path):
    path = tmp_path / "bias.txt"
    path.write_text("# image_id d_row d_col\na 1.0 2.0\nb 0.5 0.5\n"
                    "a 3.0 4.0\n")
    with pytest.raises(ParseError, match=r"bias\.txt:4: .*image a"):
        load_biases(path)
