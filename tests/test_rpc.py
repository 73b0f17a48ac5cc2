"""Unit tests for the RPC camera model core."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from satadjust import rpc as rpc_mod
from satadjust.adjust import POINT_BLOCK_COND_MAX
from satadjust.errors import (
    DegenerateDenominator,
    IllConditioned,
    NoConvergence,
    ParseError,
)
from satadjust.rpc import (
    BiasCorrection,
    GroundPoint,
    ImagePoint,
    RpcModel,
    format_rpc_text,
    inverse_project,
    jacobian,
    parse_rpc_text,
    poly_terms,
    project,
    project_arrays,
    residual,
    stack_models,
    triangulate,
)
from satadjust.synth import fd_jacobian, random_rpc

# ---------------------------------------------------------------------------
# Polynomial basis
# ---------------------------------------------------------------------------


def direct_terms(p: float, l: float, h: float) -> np.ndarray:
    """The 20 cubic monomials written out one by one."""
    return np.array([
        1.0, l, p, h,
        l * p, l * h, p * h,
        l * l, p * p, h * h,
        p * l * h, l ** 3, l * p * p, l * h * h,
        l * l * p, p ** 3, p * h * h, l * l * h, p * p * h, h ** 3,
    ])


def test_poly_terms_matches_direct_expansion(rng):
    for _ in range(50):
        p, l, h = rng.uniform(-1, 1, 3)
        np.testing.assert_allclose(poly_terms(p, l, h),
                                   direct_terms(p, l, h), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Projection and residuals
# ---------------------------------------------------------------------------


def linear_rpc() -> RpcModel:
    """A hand-built purely linear model: row = 100*lat_n, col = 50*lon_n."""
    num_line = np.zeros(20)
    num_line[2] = 1.0
    num_samp = np.zeros(20)
    num_samp[1] = 1.0
    den = np.zeros(20)
    den[0] = 1.0
    return RpcModel(
        line_off=0.0, line_scale=100.0, samp_off=0.0, samp_scale=50.0,
        lat_off=10.0, lat_scale=0.1, lon_off=20.0, lon_scale=0.1,
        hei_off=0.0, hei_scale=100.0,
        line_num=num_line, line_den=den,
        samp_num=num_samp, samp_den=den,
    )


def test_project_linear_model_by_hand():
    rpc = linear_rpc()
    g = GroundPoint(lat=10.05, lon=19.98, hei=0.0)
    p = project(rpc, BiasCorrection(), g)
    assert p.row == pytest.approx(100.0 * 0.5)
    assert p.col == pytest.approx(50.0 * -0.2)


def test_project_applies_bias_as_subtraction():
    rpc = linear_rpc()
    g = GroundPoint(10.05, 19.98, 0.0)
    raw = project(rpc, BiasCorrection(), g)
    shifted = project(rpc, BiasCorrection(d_row=2.0, d_col=-3.0), g)
    assert shifted.row == pytest.approx(raw.row - 2.0)
    assert shifted.col == pytest.approx(raw.col + 3.0)


def test_residual_is_observed_minus_projected():
    rpc = linear_rpc()
    g = GroundPoint(10.05, 19.98, 0.0)
    p = project(rpc, BiasCorrection(), g)
    obs = ImagePoint(p.row + 0.25, p.col - 0.5)
    v = residual(rpc, BiasCorrection(), g, obs)
    assert v[0] == pytest.approx(0.25)
    assert v[1] == pytest.approx(-0.5)


def test_project_rejects_degenerate_denominator():
    from dataclasses import replace

    bad = replace(linear_rpc(), samp_den=np.zeros(20))
    with pytest.raises(DegenerateDenominator):
        project(bad, BiasCorrection(), GroundPoint(10.0, 20.0, 0.0))


def test_validate_rejects_nan_denominator():
    from dataclasses import replace

    rpc = linear_rpc()
    rpc.validate()
    # NaN, then 1 + 5 L: a pole at L = -0.2, between the grid samples
    for value in (np.nan, 5.0):
        den = rpc.line_den.copy()
        den[1] = value
        with pytest.raises(DegenerateDenominator):
            replace(rpc, line_den=den).validate()
        with pytest.raises(DegenerateDenominator):
            replace(rpc, samp_den=den).validate()


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


def test_jacobian_matches_finite_differences(rng):
    for _ in range(25):
        rpc = random_rpc(rng)
        g = GroundPoint(
            rpc.lat_off + rng.uniform(-0.8, 0.8) * rpc.lat_scale,
            rpc.lon_off + rng.uniform(-0.8, 0.8) * rpc.lon_scale,
            rpc.hei_off + rng.uniform(-0.8, 0.8) * rpc.hei_scale,
        )
        bias = BiasCorrection(*rng.uniform(-5, 5, 2))
        ana = jacobian(rpc, g)
        a, b = fd_jacobian(rpc, bias, g, step=1e-7)
        # the bias block is the identity, which jacobian leaves implicit
        np.testing.assert_allclose(a, np.eye(2), atol=1e-6)
        np.testing.assert_allclose(ana, b, atol=1e-5 * np.abs(b).max())


# ---------------------------------------------------------------------------
# Evaluation kernel
# ---------------------------------------------------------------------------


def inside(rpc: RpcModel, rng, spread: float = 0.8) -> GroundPoint:
    return GroundPoint(
        rpc.lat_off + rng.uniform(-spread, spread) * rpc.lat_scale,
        rpc.lon_off + rng.uniform(-spread, spread) * rpc.lon_scale,
        rpc.hei_off + rng.uniform(-spread, spread) * rpc.hei_scale,
    )


def test_evaluate_mixed_stack_matches_each_model(rng):
    models = [random_rpc(rng) for _ in range(3)]
    # several rows per model, interleaved in one call
    owner = [0, 1, 2, 2, 0, 1, 1, 0, 2, 0]
    rows = [(models[k], inside(models[k], rng)) for k in owner]
    raw, d_raw, usable = rpc_mod.evaluate_masked(
        stack_models([m for m, _ in rows]), None, [g.lat for _, g in rows],
        [g.lon for _, g in rows], [g.hei for _, g in rows], derivatives=True)
    assert usable.all()
    assert raw.shape == (len(rows), 2)
    assert d_raw.shape == (len(rows), 2, 3)
    for k, (rpc, g) in enumerate(rows):
        p = project(rpc, BiasCorrection(), g)
        np.testing.assert_allclose(raw[k], [p.row, p.col], rtol=1e-13)
        _, num = fd_jacobian(rpc, BiasCorrection(), g)
        # the kernel differentiates the projection, the residual is minus it
        np.testing.assert_allclose(-d_raw[k], num,
                                   atol=1e-5 * np.abs(num).max())


def test_evaluate_one_model_over_a_grid(rng):
    rpc = random_rpc(rng)
    axis = np.linspace(-0.9, 0.9, 7)
    lats, lons = np.meshgrid(rpc.lat_off + axis[:5] * rpc.lat_scale,
                             rpc.lon_off + axis * rpc.lon_scale,
                             indexing="ij")
    heis = np.full_like(lats, rpc.hei_off + 0.3 * rpc.hei_scale)
    raw, d_raw, usable = rpc_mod.evaluate_masked(rpc.arrays, None, lats,
                                                 lons, heis)
    assert raw.shape == (5, 7, 2) and d_raw is None and usable.all()
    rows, cols = project_arrays(rpc, lats, lons, heis)
    np.testing.assert_array_equal(rows, raw[..., 0])
    np.testing.assert_array_equal(cols, raw[..., 1])
    # the one-point edge, bit for bit: project is the raw projection minus
    # the bias, inverse_project casts the observed pixel plus the bias
    bias = BiasCorrection(1.5, -2.5)
    for idx in np.ndindex(lats.shape):
        g = GroundPoint(lats[idx], lons[idx], heis[idx])
        row, col = project_arrays(rpc, g.lat, g.lon, g.hei)
        np.testing.assert_allclose([rows[idx], cols[idx]], [row, col],
                                   rtol=1e-13)
        p = project(rpc, bias, g)
        np.testing.assert_array_equal([p.row, p.col],
                                      [row - bias.d_row, col - bias.d_col])
        back = inverse_project(rpc, bias, p, g.hei)
        lat, lon = rpc_mod.inverse_project_arrays(
            rpc, p.row + bias.d_row, p.col + bias.d_col, g.hei)
        np.testing.assert_array_equal([back.lat, back.lon], [lat, lon])


def test_evaluate_rejects_degenerate_denominator_in_a_stack(rng):
    from dataclasses import replace

    good = random_rpc(rng)
    bad = replace(good, line_den=np.zeros(20))
    stack = stack_models([good, bad])
    g = inside(good, rng, spread=0.0)
    _, _, usable = rpc_mod.evaluate_masked(stack, None, g.lat, g.lon, g.hei)
    assert usable.tolist() == [True, False]
    with pytest.raises(DegenerateDenominator):
        project_arrays(bad, g.lat, g.lon, g.hei)


def test_evaluate_masked_row_index_equals_each_model_alone(rng):
    """Row k under model ``index[k]`` of a stack gives the bits of that
    model passed as itself."""
    models = [random_rpc(rng) for _ in range(3)]
    index = rng.integers(0, 3, 200)
    u = rng.uniform(-1.1, 1.1, (3, len(index)))
    m = stack_models(models)
    lats = m.offset[index, 0] + u[0] * m.scale[index, 0]
    lons = m.offset[index, 1] + u[1] * m.scale[index, 1]
    heis = m.offset[index, 2] + u[2] * m.scale[index, 2]
    mixed = rpc_mod.evaluate_masked(m, index, lats, lons, heis, True)
    for k, model in enumerate(models):
        rows = index == k
        alone = rpc_mod.evaluate_masked(model.arrays, None, lats[rows],
                                        lons[rows], heis[rows], True)
        for got, want in zip(mixed, alone):
            np.testing.assert_array_equal(got[rows], want)


def test_non_finite_evaluations_are_not_usable(rng):
    """A point whose denominator is NaN, and one whose projection
    overflows past a denominator that does not vanish, are not usable,
    and :func:`project_arrays` raises for either."""
    from dataclasses import replace

    good = random_rpc(rng)
    huge = replace(good, line_num=np.r_[1e308, good.line_num[1:]])
    g = inside(good, rng)
    raw, _, usable = rpc_mod.evaluate_masked(
        stack_models([good, huge]), np.array([0, 0, 1]),
        [g.lat, np.nan, g.lat], [g.lon] * 3, [g.hei] * 3, True)
    assert usable.tolist() == [True, False, False]
    assert np.isfinite(raw[0]).all() and not np.isfinite(raw[2]).all()
    for model, lat in ((good, np.nan), (huge, g.lat)):
        with pytest.raises(DegenerateDenominator):
            project_arrays(model, lat, g.lon, g.hei)


@pytest.mark.parametrize("gathered", [False, True])
def test_lone_point_equals_the_same_point_in_a_batch(rng, gathered):
    """One point, as scalars or as length-1 arrays, gets the bits it gets
    inside a batch, derivatives and mask too, under one model passed as
    itself and gathered from a stack: ``np.einsum`` would sum a lone
    point's monomials in another order than a batch's."""
    models = [random_rpc(rng) for _ in range(3)]
    stack = stack_models(models)
    index = rng.integers(0, 3, 40) if gathered else np.zeros(40, dtype=int)
    u = rng.uniform(-1.1, 1.1, (3, len(index)))
    table = stack.table[index]
    lats, lons, heis = (table[:, i] + u[i] * table[:, 5 + i]
                        for i in range(3))

    def evaluate(rows, *ground):
        if gathered:
            return rpc_mod.evaluate_masked(stack, index[rows], *ground, True)
        return rpc_mod.evaluate_masked(models[0].arrays, None, *ground, True)

    batch = evaluate(slice(None), lats, lons, heis)
    for k in range(len(index)):
        scalar = evaluate(k, lats[k], lons[k], heis[k])
        one = evaluate(slice(k, k + 1), lats[k:k + 1], lons[k:k + 1],
                       heis[k:k + 1])
        for got_scalar, got_one, want in zip(scalar, one, batch):
            np.testing.assert_array_equal(got_scalar, want[k])
            np.testing.assert_array_equal(got_one, want[k:k + 1])


def pair_tracks(rng, stack, k):
    """k observations under random rows of ``stack``, in tracks of two
    (the last alone when k is odd): their models, grounds inside the
    models' cubes, noisy raw projections as targets, the tracks' starts
    and the grounds of their first observations."""
    index = rng.integers(0, len(stack.table), k)
    u = rng.uniform(-0.7, 0.7, (3, k))
    table = stack.table[index]
    g = np.column_stack([table[:, i] + u[i] * table[:, 5 + i]
                         for i in range(3)])
    targets = (rpc_mod.evaluate_masked(stack, index, *g.T)[0]
               + rng.normal(0.0, 0.5, (k, 2)))
    starts = np.r_[np.arange(0, k, 2), k]
    return index, g, targets, starts, g[starts[:-1]]


S = rpc_mod.GATHER_OBSERVATIONS


@pytest.mark.parametrize("k", [1, 2, S - 1, S, S + 1, 2 * S + 1])
def test_sliced_gather_gives_the_bytes_of_one_whole_gather(rng, monkeypatch,
                                                           k):
    """A stacked evaluation gathers its models' constants
    ``GATHER_OBSERVATIONS`` points at a time.  Whichever slice a point
    falls in, a trailing slice of one point (evaluated as a pair)
    included, every result of :func:`evaluate_masked` under a stack
    broadcast against the points and under a row index, of
    :func:`linearize_tracks` and of :func:`inverse_project_many` has the
    bytes and the layout of one whole gather: a later sum along the
    observation axis runs in another order on another layout."""
    stack = stack_models([random_rpc(rng) for _ in range(3)])
    index, g, targets, starts, grounds = pair_tracks(rng, stack, k)
    rows = rpc_mod.RpcArrays(stack.table[index])

    def run():
        return (*rpc_mod.evaluate_masked(rows, None, *g.T, True),
                *rpc_mod.evaluate_masked(stack, index, *g.T, True),
                *rpc_mod.linearize_tracks(stack, index, targets, grounds,
                                          starts,
                                          rpc_mod.TRIANGULATION_COND_MAX),
                *rpc_mod.inverse_project_many(stack, index, targets, g[:, 2]))

    sliced = run()
    monkeypatch.setattr(rpc_mod, "GATHER_OBSERVATIONS", k)
    whole = run()
    assert len(sliced) == len(whole) == 17
    for got, want in zip(sliced, whole):
        assert (got.dtype, got.strides) == (want.dtype, want.strides)
        assert got.tobytes() == want.tobytes()


def test_linearize_tracks_memory_per_observation(rng):
    """One :func:`linearize_tracks` call with point blocks, on tracks of
    two observations (the most tracks per observation), grows its traced
    peak by at most 400 B per observation from 4,096 observations to
    16,384: the model constants are gathered a slice at a time, where a
    whole gather alone would take 1,680 B per observation."""
    stack = stack_models([random_rpc(rng) for _ in range(3)])
    peaks = {}
    for k in (4096, 16384):
        index, _, targets, starts, grounds = pair_tracks(rng, stack, k)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rpc_mod.linearize_tracks(stack, index, targets, grounds, starts,
                                     rpc_mod.TRIANGULATION_COND_MAX)
            peaks[k] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peaks[16384] - peaks[4096] <= 400 * (16384 - 4096)


def test_lone_pixel_cast_equals_the_same_pixel_in_a_batch(small_scene, rng):
    """The array cast of one pixel, as scalars or as length-1 arrays,
    gives the bits the pixel gets inside a batch."""
    rpc = small_scene.images[0].rpc
    u = rng.uniform(-0.7, 0.7, (3, 30))
    heis = rpc.hei_off + u[2] * rpc.hei_scale
    rows, cols = project_arrays(rpc, rpc.lat_off + u[0] * rpc.lat_scale,
                                rpc.lon_off + u[1] * rpc.lon_scale, heis)
    lats, lons = rpc_mod.inverse_project_arrays(rpc, rows, cols, heis)
    for k in range(len(heis)):
        lat, lon = rpc_mod.inverse_project_arrays(rpc, rows[k], cols[k],
                                                  heis[k])
        assert (lat, lon) == (lats[k], lons[k])
        lat, lon = rpc_mod.inverse_project_arrays(
            rpc, rows[k:k + 1], cols[k:k + 1], heis[k:k + 1])
        assert (lat.tolist(), lon.tolist()) == ([lats[k]], [lons[k]])


# ---------------------------------------------------------------------------
# Inverse projection and triangulation
# ---------------------------------------------------------------------------


def test_inverse_project_round_trip(rng):
    for _ in range(25):
        rpc = random_rpc(rng)
        bias = BiasCorrection(*rng.uniform(-10, 10, 2))
        g = GroundPoint(
            rpc.lat_off + rng.uniform(-0.7, 0.7) * rpc.lat_scale,
            rpc.lon_off + rng.uniform(-0.7, 0.7) * rpc.lon_scale,
            rpc.hei_off + rng.uniform(-0.7, 0.7) * rpc.hei_scale,
        )
        p = project(rpc, bias, g)
        back = inverse_project(rpc, bias, p, g.hei)
        assert abs(back.lat - g.lat) < 1e-9
        assert abs(back.lon - g.lon) < 1e-9


def test_triangulate_recovers_exact_intersection(small_scene):
    for g in small_scene.true_points[:10]:
        obs = []
        for im in small_scene.images:
            raw = project(im.rpc, BiasCorrection(), g)
            obs.append((im.rpc, BiasCorrection(), raw))
        got = triangulate(obs)
        assert abs(got.lat - g.lat) < 1e-9
        assert abs(got.lon - g.lon) < 1e-9
        assert abs(got.hei - g.hei) < 1e-4


def test_triangulate_requires_two_observations(small_scene):
    im = small_scene.images[0]
    g = small_scene.true_points[0]
    raw = project(im.rpc, BiasCorrection(), g)
    with pytest.raises(ValueError):
        triangulate([(im.rpc, BiasCorrection(), raw)])


def test_triangulate_rejects_rays_from_one_image(small_scene):
    im = small_scene.images[0]
    g = small_scene.true_points[0]
    raw = project(im.rpc, BiasCorrection(), g)
    obs = [(im.rpc, BiasCorrection(), raw),
           (im.rpc, BiasCorrection(), ImagePoint(raw.row + 1, raw.col + 1))]
    with pytest.raises(IllConditioned):
        triangulate(obs)


def packed_tracks(tracks):
    """Model stack, per-observation model index, targets and track
    offsets of tracks given as lists of (model, (row, col))
    observations."""
    starts = np.cumsum([0] + [len(t) for t in tracks])
    models = stack_models([m for t in tracks for m, _ in t])
    targets = np.array([p for t in tracks for _, p in t])
    return models, np.arange(len(targets)), targets, starts


def test_batched_triangulation_fails_only_the_bad_tracks(small_scene):
    from dataclasses import replace

    rpcs = [im.rpc for im in small_scene.images]
    ordinary = [[(rpcs[i], (p.row, p.col)) for i, p in sorted(obs.items())]
                for obs in small_scene.true_observations[:6]]
    p0 = small_scene.true_observations[0][0]
    p1 = small_scene.true_observations[1]
    twin = [(rpcs[0], (p0.row, p0.col))] * 2
    far_start = [(rpcs[0], (1e7, -1e7)), (rpcs[1], (p1[1].row, p1[1].col))]
    vanishing = [(rpcs[0], (p1[0].row, p1[0].col)),
                 (replace(rpcs[2], line_den=np.zeros(20)),
                  (p1[2].row, p1[2].col))]
    mixed = ordinary[:3] + [twin, far_start] + ordinary[3:] + [vanishing]
    grounds, status = rpc_mod.triangulate_many(*packed_tracks(mixed))
    assert status.tolist() == [rpc_mod.SOLVED] * 3 + [
        rpc_mod.ILL_CONDITIONED, rpc_mod.DIVERGED] + [rpc_mod.SOLVED] * 3 \
        + [rpc_mod.DEGENERATE]
    alone, alone_status = rpc_mod.triangulate_many(*packed_tracks(ordinary))
    assert (alone_status == rpc_mod.SOLVED).all()
    np.testing.assert_allclose(grounds[[0, 1, 2, 5, 6, 7]], alone,
                               rtol=0, atol=1e-12)
    # the one-track wrappers still raise
    with pytest.raises(IllConditioned):
        triangulate([(m, BiasCorrection(), ImagePoint(*p)) for m, p in twin])
    with pytest.raises(NoConvergence):
        triangulate([(m, BiasCorrection(), ImagePoint(*p))
                     for m, p in far_start])
    with pytest.raises(NoConvergence):
        inverse_project(rpcs[0], BiasCorrection(), ImagePoint(1e7, -1e7),
                        rpcs[0].hei_off)
    with pytest.raises(DegenerateDenominator):
        triangulate([(m, BiasCorrection(), ImagePoint(*p))
                     for m, p in vanishing])


def row_models(rows):
    """Linear unit-scale models at the origin, two per (3, 3) block of
    ``rows``: a track of the two sees residual Jacobian rows -rows[0],
    -rows[1], -rows[2] and 0, whatever its ground."""
    models = []
    den = np.eye(20)[0]
    for block in rows:
        for line, samp in ((block[0], block[1]), (block[2], np.zeros(3))):
            # (P, L, H) slopes are the coefficients of monomials 2, 1, 3
            num_line, num_samp = np.zeros(20), np.zeros(20)
            num_line[[2, 1, 3]], num_samp[[2, 1, 3]] = line, samp
            models.append(RpcModel(
                line_off=0.0, line_scale=1.0, samp_off=0.0, samp_scale=1.0,
                lat_off=0.0, lat_scale=1.0, lon_off=0.0, lon_scale=1.0,
                hei_off=0.0, hei_scale=1.0, line_num=num_line,
                line_den=den, samp_num=num_samp, samp_den=den))
    return stack_models(models)


def unit_diagonal_blocks(rng, count, cond):
    """Rows whose equilibrated normal matrices have condition ``cond``
    (an array), up to rounding: a random unit-diagonal block of
    condition 1e13, blended with the identity."""
    q, _ = np.linalg.qr(rng.normal(size=(count, 3, 3)))
    a = np.einsum("nij,j,nkj->nik", q, [1.0, 1e-6, 1e-13], q)
    d = np.sqrt(np.einsum("nii->ni", a))
    a /= d[:, :, None] * d[:, None, :]
    lo, hi = np.linalg.eigvalsh(a)[:, [0, 2]].T
    # (1 - t) a + t I keeps the unit diagonal; pick t for the condition
    t = (cond * lo - hi) / ((1.0 - hi) - cond * (1.0 - lo))
    blend = (1.0 - t)[:, None, None] * a + t[:, None, None] * np.eye(3)
    return np.swapaxes(np.linalg.cholesky(blend), 1, 2)


@pytest.mark.parametrize("cond_max", [rpc_mod.TRIANGULATION_COND_MAX,
                                      POINT_BLOCK_COND_MAX])
def test_point_block_verdict_is_the_condition_rule(rng, cond_max):
    """``linearize_tracks`` accepts a point block by its ``eigvalsh``
    eigenvalues, and agrees with ``np.linalg.cond(block) <= cond_max``
    on random blocks, on blocks near the bound, and on exactly singular
    blocks, which it never accepts.  Near the bound the two estimates
    differ by rounding, which for any condition estimate is about
    eps * cond relative (measured up to 4e-8 at 1e8 and 4e-6 at 1e10),
    so blocks within 64 eps * cond_max of the bound are not compared."""
    near = cond_max * (1.0 + rng.choice([-1.0, 1.0], 400)
                       * 10.0 ** rng.uniform(-9.0, -1.0, 400))
    u, w = rng.normal(size=(2, 100, 1, 3))
    rank_one = rng.normal(size=(100, 3, 1)) * u
    rank_two = np.concatenate([u, w, u - 2.0 * w], axis=1)
    rows = np.concatenate([rng.normal(size=(300, 3, 3)),
                           10.0 ** rng.uniform(-3, 3, (300, 1, 3))
                           * rng.normal(size=(300, 3, 3)),
                           unit_diagonal_blocks(rng, 400, near),
                           rank_one, rank_two])
    singular = np.arange(len(rows)) >= len(rows) - 200
    lin = rpc_mod.linearize_tracks(
        row_models(rows), np.arange(2 * len(rows)),
        np.zeros((2 * len(rows), 2)), np.zeros((len(rows), 3)),
        np.arange(0, 2 * len(rows) + 1, 2), cond_max)
    gram = np.einsum("tri,trj->tij", rows, rows)
    norms = np.sqrt(np.einsum("tii->ti", gram))
    cond = np.linalg.cond(gram / (norms[:, :, None] * norms[:, None, :]))
    apart = np.abs(cond / cond_max - 1.0) > 64 * np.finfo(float).eps * cond_max
    assert (lin.ok == (cond <= cond_max))[apart].all()
    assert not lin.ok[singular].any()
    assert (lin.inverse[~lin.ok] == np.eye(3)).all()
    # the test is not empty: a good share of the blocks near the bound
    # are compared, and the verdict goes both ways
    assert apart[600:1000].mean() > 0.25
    assert 0 < lin.ok[apart].mean() < 1


@pytest.mark.parametrize("cond_max", [rpc_mod.TRIANGULATION_COND_MAX,
                                      POINT_BLOCK_COND_MAX])
def test_determinant_screen_agrees_with_eigvalsh(rng, monkeypatch,
                                                 cond_max):
    """Blocks that pass the determinant screen skip ``eigvalsh``; all of
    them have ``np.linalg.cond <= cond_max``, and the verdict on every
    block equals the ``eigvalsh`` verdict alone.  Random positive
    definite blocks, blocks near the bound, indefinite and singular
    blocks; every accepted block's inverse solves it to 16 eps times its
    condition."""
    near = cond_max * (1.0 + rng.choice([-1.0, 1.0], 400)
                       * 10.0 ** rng.uniform(-9.0, -1.0, 400))
    x = (10.0 ** rng.uniform(-3, 3, (300, 1, 3))
         * rng.normal(size=(300, 3, 3)))
    rows = unit_diagonal_blocks(rng, 400, near)
    u = rng.normal(size=(100, 1, 3))
    gram = np.concatenate([np.einsum("tri,trj->tij", x, x),
                           np.einsum("tri,trj->tij", rows, rows),
                           np.einsum("tri,trj->tij", u, u)])
    d = np.sqrt(np.einsum("tii->ti", gram))
    normal = gram / (d[:, :, None] * d[:, None, :])
    # and symmetric unit-diagonal blocks whose off-diagonal entries lie
    # in (-1, 1), many of them indefinite
    off = np.concatenate([normal[:, [0, 0, 1], [1, 2, 2]].T,
                          rng.uniform(-1.0, 1.0, (3, 200))], axis=1)
    unit = rpc_mod._unpack(np.concatenate([np.ones((3, off.shape[1])),
                                           off]))
    eig = np.linalg.eigvalsh(unit)
    verdict = (eig[:, 0] > 0.0) & (eig[:, -1] <= cond_max * eig[:, 0])
    sent = []
    real = np.linalg.eigvalsh

    def recording(blocks):
        sent.extend(block.tobytes() for block in blocks)
        return real(blocks)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    ok, inverse = rpc_mod._invert_blocks(off, np.ones(len(unit), bool),
                                         cond_max)
    screened = np.array([block.tobytes() not in sent for block in unit])
    np.testing.assert_array_equal(ok, verdict)
    assert (np.linalg.cond(unit[screened]) <= cond_max).all()
    assert (inverse[~ok] == np.eye(3)).all()
    cond = np.linalg.cond(unit[ok])
    residual = np.abs(inverse[ok] @ unit[ok] - np.eye(3)).max(axis=(1, 2))
    assert (residual <= 16 * np.finfo(float).eps * cond).all()
    # both routes are taken, and eigvalsh both accepts and rejects
    assert screened.sum() >= 250 and 0 < ok[~screened].mean() < 1


def test_batched_inverse_project_matches_one_point_calls(rng):
    rpc = random_rpc(rng)
    grounds = [inside(rpc, rng, spread=0.7) for _ in range(12)]
    targets = [project(rpc, BiasCorrection(), g) for g in grounds]
    targets[4] = ImagePoint(1e7, -1e7)
    lats, lons, status = rpc_mod.inverse_project_many(
        stack_models([rpc] * len(grounds)), np.arange(len(grounds)),
        [(p.row, p.col) for p in targets], [g.hei for g in grounds])
    assert status[4] == rpc_mod.DIVERGED
    for k, (g, p) in enumerate(zip(grounds, targets)):
        if k == 4:
            continue
        assert status[k] == rpc_mod.SOLVED
        one = inverse_project(rpc, BiasCorrection(), p, g.hei)
        assert abs(lats[k] - one.lat) < 1e-12
        assert abs(lons[k] - one.lon) < 1e-12
    # the array form equals the one-point calls bit for bit, bias added
    bias = BiasCorrection(1.5, -2.25)
    rows = np.array([p.row for p in targets])
    cols = np.array([p.col for p in targets])
    heis = np.array([g.hei for g in grounds])
    good = np.arange(len(grounds)) != 4
    arr_lats, arr_lons = rpc_mod.inverse_project_arrays(
        rpc, rows[good] + bias.d_row, cols[good] + bias.d_col, heis[good])
    for k, i in enumerate(np.flatnonzero(good)):
        one = inverse_project(rpc, bias, targets[i], grounds[i].hei)
        assert (arr_lats[k], arr_lons[k]) == (one.lat, one.lon)
    # one diverging point fails the whole array call with its error
    with pytest.raises(NoConvergence):
        rpc_mod.inverse_project_arrays(rpc, rows, cols, heis)


def test_array_cast_shares_one_copy_of_the_model(small_scene, rng):
    """The array cast passes its one model as itself, also for the
    points still iterating once others have converged: it equals a cast
    over a stack of copies bit for bit, and 100k points stay far below
    the 1.6 kB of constants a copy per point would take."""
    # a fitted pushbroom model: its points need different numbers of
    # Newton steps, so the live set shrinks during the cast
    rpc = small_scene.images[0].rpc

    def targets(k):
        p = rpc.lat_off + rng.uniform(-0.7, 0.7, k) * rpc.lat_scale
        l = rpc.lon_off + rng.uniform(-0.7, 0.7, k) * rpc.lon_scale
        h = rpc.hei_off + rng.uniform(-0.7, 0.7, k) * rpc.hei_scale
        return (*project_arrays(rpc, p, l, h), h)

    rows, cols, heis = targets(2000)
    lats, lons = rpc_mod.inverse_project_arrays(rpc, rows, cols, heis)
    copy_lats, copy_lons, status = rpc_mod.inverse_project_many(
        stack_models([rpc] * len(rows)), np.arange(len(rows)),
        np.column_stack([rows, cols]), heis)
    assert (status == rpc_mod.SOLVED).all()
    assert np.array_equal(lats, copy_lats) and np.array_equal(lons, copy_lons)

    rows, cols, heis = targets(100_000)
    tracemalloc.start()
    try:
        rpc_mod.inverse_project_arrays(rpc, rows, cols, heis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128e6


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_rpc_text_round_trip(rng):
    rpc = random_rpc(rng)
    text = format_rpc_text(rpc)
    back = parse_rpc_text(text)
    for name in ("line_off", "line_scale", "samp_off", "samp_scale",
                 "lat_off", "lat_scale", "lon_off", "lon_scale",
                 "hei_off", "hei_scale"):
        assert getattr(back, name) == getattr(rpc, name)
    np.testing.assert_array_equal(back.line_num, rpc.line_num)
    np.testing.assert_array_equal(back.line_den, rpc.line_den)
    np.testing.assert_array_equal(back.samp_num, rpc.samp_num)
    np.testing.assert_array_equal(back.samp_den, rpc.samp_den)


def test_parse_tolerates_units_and_whitespace():
    rpc = linear_rpc()
    text = format_rpc_text(rpc)
    noisy = "\n".join(
        line + (" pixels" if line.startswith("LINE_OFF") else "")
        for line in text.splitlines()
    )
    back = parse_rpc_text(noisy)
    assert back.line_off == rpc.line_off


def test_parse_missing_key_raises():
    rpc = linear_rpc()
    text = format_rpc_text(rpc)
    broken = "\n".join(line for line in text.splitlines()
                       if not line.startswith("LAT_OFF"))
    with pytest.raises(ParseError):
        parse_rpc_text(broken)


def test_parse_non_numeric_value_raises():
    rpc = linear_rpc()
    text = format_rpc_text(rpc).replace(
        f"LINE_OFF: {rpc.line_off!r}", "LINE_OFF: junk", 1)
    with pytest.raises(ParseError):
        parse_rpc_text(text)
