"""Synthetic scenes with exact ground truth plus brute-force oracles.

Scenes are built from near-parallel pushbroom cameras, converted to RPC
form by the production fitting code, so every downstream quantity
(biases, ground points, observations) has a known truth. The oracles
recompute Jacobians and the bundle solution the slow, obvious way for
equivalence testing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import adjust as adjust_mod
from . import rpc as rpc_mod
from . import textfile
from .errors import ConfigInvalid, DegenerateDenominator, RankDeficient
from .geodesy import meters_per_degree
from .raster import Raster, write_pgm
from .rectify import Level2Product, fit_rpc
from .rpc import (
    BiasCorrection,
    GroundPoint,
    ImagePoint,
    RpcModel,
)

# Ground sampling distance of every generated camera, m/px.
GSD = 0.5
# Generated points lie within this many meters of the block's base
# height; the fitted models cover twice that.
HEIGHT_HALF_RANGE_M = 50.0
# Default footprint half extents, m: the full 90 km block, and a
# raster-friendly footprint for rendered scenes.
HALF_EXTENT_M = 45000.0
RENDERED_HALF_EXTENT_M = 400.0
# Largest footprint half extent, m: a 1,000 km block is wider than any
# one satellite scene and keeps every generated latitude within 50 deg.
MAX_HALF_EXTENT_M = 500000.0
# Largest rendered image, px (5,792 square); rendering holds a few
# float64 images of this size at once.
RENDER_MAX_PIXELS = 2 ** 25


def fd_jacobian(
    rpc: RpcModel, bias: BiasCorrection, g: GroundPoint, step: float = 1e-7
) -> tuple[np.ndarray, np.ndarray]:
    """Residual derivatives by central finite differences: ``(a, b)``,
    d(residual)/d(d_row, d_col) (2, 2) and d(residual)/d(lat, lon, hei)
    (2, 3).

    ``step`` is relative to each parameter's natural scale: ground
    coordinates are stepped by ``step`` normalized units, bias components
    by ``step`` times the matching image scale.  One value therefore
    suits all five parameters.
    """
    obs = ImagePoint(0.0, 0.0)

    def res(b, gg):
        return np.array(rpc_mod.residual(rpc, b, gg, obs))

    a = np.empty((2, 2))
    for k, scale in enumerate((rpc.line_scale, rpc.samp_scale)):
        d = step * scale
        d_row = d if k == 0 else 0.0
        d_col = d if k == 1 else 0.0
        plus = BiasCorrection(bias.d_row + d_row, bias.d_col + d_col)
        minus = BiasCorrection(bias.d_row - d_row, bias.d_col - d_col)
        a[:, k] = (res(plus, g) - res(minus, g)) / (2 * d)

    b = np.empty((2, 3))
    for k, scale in enumerate((rpc.lat_scale, rpc.lon_scale, rpc.hei_scale)):
        d = step * scale
        delta = [0.0, 0.0, 0.0]
        delta[k] = d
        plus = GroundPoint(g.lat + delta[0], g.lon + delta[1],
                           g.hei + delta[2])
        minus = GroundPoint(g.lat - delta[0], g.lon - delta[1],
                            g.hei - delta[2])
        b[:, k] = (res(bias, plus) - res(bias, minus)) / (2 * d)
    return a, b


def random_rpc(rng: np.random.Generator) -> RpcModel:
    """A random but plausible camera: dominant linear terms, mild cubic
    and denominator perturbations, regenerated until the denominators are
    safely nonzero over the validity cube."""
    for _ in range(100):
        lat_off = rng.uniform(-55.0, 55.0)
        lon_off = rng.uniform(-160.0, 160.0)
        hei_off = rng.uniform(0.0, 800.0)
        lat_scale = rng.uniform(0.02, 0.09)
        lon_scale = rng.uniform(0.02, 0.09)
        hei_scale = rng.uniform(300.0, 800.0)
        line_scale = rng.uniform(3000.0, 12000.0)
        samp_scale = rng.uniform(3000.0, 12000.0)

        def numerator(main_index, cross_index):
            c = np.zeros(20)
            c[0] = rng.uniform(-0.03, 0.03)
            c[main_index] = rng.uniform(0.85, 1.05)
            c[cross_index] = rng.uniform(-0.08, 0.08)
            c[3] = rng.uniform(-0.12, 0.12)
            c[4:10] = rng.uniform(-1e-3, 1e-3, 6)
            c[10:20] = rng.uniform(-1e-5, 1e-5, 10)
            return c

        def denominator():
            d = np.zeros(20)
            d[0] = 1.0
            d[1:4] = rng.uniform(-5e-4, 5e-4, 3)
            d[4:10] = rng.uniform(-1e-5, 1e-5, 6)
            d[10:20] = rng.uniform(-1e-7, 1e-7, 10)
            return d

        model = RpcModel(
            line_off=line_scale * rng.uniform(0.9, 1.1),
            line_scale=line_scale,
            samp_off=samp_scale * rng.uniform(0.9, 1.1),
            samp_scale=samp_scale,
            lat_off=lat_off, lat_scale=lat_scale,
            lon_off=lon_off, lon_scale=lon_scale,
            hei_off=hei_off, hei_scale=hei_scale,
            line_num=numerator(2, 1), line_den=denominator(),
            samp_num=numerator(1, 2), samp_den=denominator(),
        )
        try:
            model.validate()
            return model
        except DegenerateDenominator:
            continue
    raise ConfigInvalid("could not generate a valid random RPC")


# ---------------------------------------------------------------------------
# Pushbroom forward model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PushbroomCamera:
    """Near-parallel pushbroom view over a local tangent plane.

    Ground coordinates are local east/north/up meters anchored at
    (lat0, lon0, h0).  The scan direction is rotated by ``azimuth``:
    along-track position maps to rows by pure parallel projection (the
    scan is a time axis) while across-track position maps to columns
    through a perspective center at ``altitude`` meters, so the mapping
    is a ratio of affine functions of the ground coordinates, exactly
    representable by a rational model.  ``tan_along`` / ``tan_across``
    are the view-direction tangents at the anchor and ``gsd`` the meters
    per pixel at the anchor plane.

    The across-track perspective matters even though rays are nearly
    parallel: with exactly parallel (affine) cameras, sliding every
    ground point along the gauge image's ray is absorbed by constant
    image biases, so a constant-bias free network stays rank deficient
    no matter how the view directions differ.
    """

    lat0: float
    lon0: float
    h0: float
    gsd: float
    row0: float
    col0: float
    azimuth: float
    tan_along: float
    tan_across: float
    altitude: float

    def project_arrays(self, lats, lons, heis):
        m_lat, m_lon = meters_per_degree(self.lat0)
        east = (np.asarray(lons) - self.lon0) * m_lon
        north = (np.asarray(lats) - self.lat0) * m_lat
        up = np.asarray(heis) - self.h0
        ca, sa = math.cos(self.azimuth), math.sin(self.azimuth)
        along = ca * east + sa * north
        across = -sa * east + ca * north
        rows = self.row0 - (along + self.tan_along * up) / self.gsd
        cols = self.col0 + (across + self.tan_across * up) / (
            self.gsd * (1.0 - up / self.altitude))
        return rows, cols


def camera_fit_samples(
    cam: PushbroomCamera,
    lat_half: float,
    lon_half: float,
    hei_half: float,
) -> tuple[np.ndarray, ...]:
    """Ground/image sample grid of a camera, ready for :func:`fit_rpc`:
    8 x 8 planimetric samples at 5 heights, height-major, as the arrays
    ``(lats, lons, heis, rows, cols)``."""
    heis, lats, lons = (a.ravel() for a in np.meshgrid(
        np.linspace(cam.h0 - hei_half, cam.h0 + hei_half, 5),
        np.linspace(cam.lat0 - lat_half, cam.lat0 + lat_half, 8),
        np.linspace(cam.lon0 - lon_half, cam.lon0 + lon_half, 8),
        indexing="ij"))
    return (lats, lons, heis) + cam.project_arrays(lats, lons, heis)


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------


@dataclass
class SceneImage:
    image_id: str
    rpc: RpcModel
    true_bias: BiasCorrection
    camera: PushbroomCamera
    shape: tuple[int, int]
    raster: Raster | None = None


@dataclass
class SyntheticScene:
    """Ground-truth scene: cameras, biases, points and observations.

    ``true_observations[j]`` maps image index to the observed pixel of
    point j: the true projection shifted by the image's true bias plus
    Gaussian noise.  Identical seeds reproduce the scene bit for bit.
    """

    images: list[SceneImage]
    true_points: list[GroundPoint]
    true_observations: list[dict[int, ImagePoint]]
    noise_sigma: float
    seed: int
    plane_height: float


def _render_image(
    scene: SyntheticScene,
    index: int,
    texture_phases: tuple[float, float],
    constellations: list[np.ndarray],
) -> Raster:
    """Draw the image content a biased camera would record.

    Smooth background (no corners) plus one sharp dot per visible point
    at its noiseless biased projection, surrounded by a faint per-point
    satellite constellation that stays below the corner-detection
    threshold even under a doubling intensity transform, yet falls
    inside the census window so descriptors can tell points apart.
    ``texture_phases`` places the ground-attached background pattern,
    shared by every image; ``constellations[j]`` holds point j's
    satellite rows (east_m, north_m, amplitude).
    """
    img = scene.images[index]
    h, w = img.shape
    cam = img.camera
    m_lat, m_lon = meters_per_degree(cam.lat0)

    # A pixel records the ground location its biased ray hits the plane:
    # a column of rows against a row of columns, full size from the
    # ground coordinates on.
    raw_r = np.arange(h, dtype=np.float64)[:, None] + img.true_bias.d_row
    raw_c = np.arange(w, dtype=np.float64) + img.true_bias.d_col
    along = (cam.row0 - raw_r) * cam.gsd
    across = (raw_c - cam.col0) * cam.gsd
    ca, sa = math.cos(cam.azimuth), math.sin(cam.azimuth)
    east = ca * along - sa * across
    north = sa * along + ca * across
    phase1, phase2 = texture_phases
    # Kilometre-scale swell: gentle enough that in-window comparisons
    # between background pixels tie instead of flipping with subpixel
    # sampling phase, so census bits come from the planted content.
    canvas = 60.0 + 25.0 * (
        np.sin(2 * math.pi * east / 2500.0 + phase1)
        * np.sin(2 * math.pi * north / 2200.0 + phase2)
    )

    # (lat, lon, hei, amplitude, sigma) of every dot, in drawing order:
    # each visible point, then its constellation.
    dots = []
    for j, g in enumerate(scene.true_points):
        if index not in scene.true_observations[j]:
            continue
        dots.append((g.lat, g.lon, g.hei, 45.0, 1.3))
        dots.extend((g.lat + d_north / m_lat, g.lon + d_east / m_lon, g.hei,
                     amp, 1.0)
                    for d_east, d_north, amp in constellations[j])
    if dots:
        lats, lons, heis, amps, sigmas = np.array(dots).T
        rows, cols = rpc_mod.project_arrays(img.rpc, lats, lons, heis)
        rows, cols = rows - img.true_bias.d_row, cols - img.true_bias.d_col
        radius = 6  # px stamped around each dot's center
        for r0, c0, amp, sigma in zip(rows, cols, amps, sigmas):
            r_lo = max(int(math.floor(r0)) - radius, 0)
            r_hi = min(int(math.ceil(r0)) + radius + 1, h)
            c_lo = max(int(math.floor(c0)) - radius, 0)
            c_hi = min(int(math.ceil(c0)) + radius + 1, w)
            if r_lo >= r_hi or c_lo >= c_hi:
                continue
            d2 = ((np.arange(r_lo, r_hi, dtype=np.float64)[:, None] - r0) ** 2
                  + (np.arange(c_lo, c_hi, dtype=np.float64) - c0) ** 2)
            canvas[r_lo:r_hi, c_lo:c_hi] += amp * np.exp(
                -d2 / (2 * sigma * sigma))

    pixels = np.clip(np.rint(canvas), 1, 112).astype(np.uint8)
    return Raster(pixels, nodata=0)


def gen_scene(
    n_images: int,
    n_points: int,
    bias_range_px: float,
    noise_sigma_px: float,
    seed: int,
    render: bool = False,
    visibility: str = "full",
    half_extent_m: float = HALF_EXTENT_M,
    biases: list[BiasCorrection] | None = None,
) -> SyntheticScene:
    """Generate a reproducible multi-view scene with known truth.

    Cameras are near-parallel pushbrooms modelling a repeat-pass mosaic
    block: one scan heading and base pointing shared across the block,
    per-image pointing jitter of about a degree, and orbit altitudes
    drawn from distinct sources.  Each camera is converted to RPC form
    by the production fitting code.  Observations are the fitted-model
    projections shifted by the per-image true bias plus isotropic
    Gaussian noise.

    The default footprint is a 90 km block: free-network height-datum
    observability rests on the across-track perspective, whose leverage
    grows with footprint / altitude, and the datum error enters biases
    scaled by the pointing spread.  Rendered scenes should pass a small
    ``half_extent_m`` such as ``RENDERED_HALF_EXTENT_M`` (rasters are
    only allocated when rendering, and a rendered image may hold at most
    ``RENDER_MAX_PIXELS`` pixels: a half extent up to about 1,390 m).

    Args:
        visibility: "full" (every image sees every point) or "random"
            (each point gets a random subset of at least two images).
        biases: explicit per-image true biases; drawn uniformly from
            [-bias_range_px, bias_range_px] when omitted.

    Raises:
        ConfigInvalid: non-positive counts, negative or non-finite
            ranges, an extent that is not positive or above
            ``MAX_HALF_EXTENT_M``, an unknown visibility mode, a bias
            list of the wrong length, or a rendered image of more than
            ``RENDER_MAX_PIXELS`` pixels.
    """
    if n_images < 2:
        raise ConfigInvalid("need at least 2 images")
    if n_points < 1:
        raise ConfigInvalid("need at least 1 point")
    for name, value in (("bias range", bias_range_px),
                        ("noise sigma", noise_sigma_px)):
        if not 0 <= value < math.inf:
            raise ConfigInvalid(f"{name} must be finite and >= 0, "
                                f"not {value!r}")
    if not 0 < half_extent_m <= MAX_HALF_EXTENT_M:
        raise ConfigInvalid(f"half extent must be > 0 and at most "
                            f"{MAX_HALF_EXTENT_M:g} m, not {half_extent_m!r}")
    if visibility not in ("full", "random"):
        raise ConfigInvalid(f"unknown visibility mode {visibility!r}")
    if biases is not None and len(biases) != n_images:
        raise ConfigInvalid("biases list must have one entry per image")
    # Image size: footprint plus parallax, bias and matching-window margin.
    hei_half = 2.0 * HEIGHT_HALF_RANGE_M
    margin_px = (0.35 * hei_half + bias_range_px * GSD) / GSD + 40.0
    side = int(math.ceil(2 * half_extent_m / GSD + 2 * margin_px))
    if render and side * side > RENDER_MAX_PIXELS:
        raise ConfigInvalid(f"a rendered image would be {side} px square, "
                            f"over the {RENDER_MAX_PIXELS} px cap; pass a "
                            f"smaller half extent")
    shape = (side, side)
    center = (side - 1) / 2.0

    rng = np.random.default_rng(seed)
    lat0 = rng.uniform(-45.0, 45.0)
    lon0 = rng.uniform(-120.0, 120.0)
    h0 = rng.uniform(100.0, 600.0)
    m_lat, m_lon = meters_per_degree(lat0)
    lat_half = half_extent_m / m_lat
    lon_half = half_extent_m / m_lon

    if biases is None:
        draws = rng.uniform(-bias_range_px, bias_range_px, (n_images, 2))
        biases = [BiasCorrection(float(dr), float(dc)) for dr, dc in draws]

    # Repeat-pass mosaic constellation: one scan heading and one base
    # pointing per block (sub-milliradian heading spread, about a degree
    # of pointing spread), orbit altitudes from distinct sources.  Bias
    # corrections are only comparable across images when the planimetric
    # ground-to-image mappings agree (a shared ground translation
    # masquerades as per-image biases under rotated scan grids), and the
    # block height datum -- observable only through the across-track
    # perspective -- leaks into biases scaled by the pointing spread.
    heading = rng.uniform(0.0, 2 * math.pi)
    base_along, base_across = rng.uniform(-0.25, 0.25, 2)
    altitudes = (4.5e5, 5.4e5, 6.2e5, 7.0e5, 7.7e5)
    images = []
    for i in range(n_images):
        azimuth = float(heading + rng.uniform(-2e-4, 2e-4))
        jit_along, jit_across = rng.uniform(-0.03, 0.03, 2)
        cam = PushbroomCamera(
            lat0=lat0, lon0=lon0, h0=h0, gsd=GSD,
            row0=center, col0=center, azimuth=azimuth,
            tan_along=float(base_along + jit_along),
            tan_across=float(base_across + jit_across),
            altitude=altitudes[i % len(altitudes)],
        )
        fitted = fit_rpc(*camera_fit_samples(cam, lat_half, lon_half,
                                             hei_half))
        images.append(SceneImage(
            image_id=f"img_{i:03d}", rpc=fitted, true_bias=biases[i],
            camera=cam, shape=shape,
        ))

    lats = lat0 + rng.uniform(-0.85, 0.85, n_points) * lat_half
    lons = lon0 + rng.uniform(-0.85, 0.85, n_points) * lon_half
    heis = h0 + rng.uniform(-HEIGHT_HALF_RANGE_M, HEIGHT_HALF_RANGE_M,
                            n_points)
    points = [GroundPoint(float(a), float(b), float(c))
              for a, b, c in zip(lats, lons, heis)]
    raw = [rpc_mod.project_arrays(im.rpc, lats, lons, heis) for im in images]

    observations: list[dict[int, ImagePoint]] = []
    for j in range(n_points):
        if visibility == "full":
            seen = list(range(n_images))
        else:
            degree = int(rng.integers(2, n_images + 1))
            seen = sorted(rng.choice(n_images, degree, replace=False))
        noise = rng.normal(0.0, noise_sigma_px, (len(seen), 2))
        per_image = {}
        for slot, i in enumerate(seen):
            rows, cols = raw[i]
            per_image[i] = ImagePoint(
                rows[j] - images[i].true_bias.d_row + noise[slot, 0],
                cols[j] - images[i].true_bias.d_col + noise[slot, 1],
            )
        observations.append(per_image)

    scene = SyntheticScene(
        images=images, true_points=points, true_observations=observations,
        noise_sigma=noise_sigma_px, seed=seed, plane_height=h0,
    )

    if render:
        # Background texture phases, drawn once so every image renders
        # the same ground-attached pattern, then one constellation per
        # point so each planted corner carries a unique census signature.
        texture_phases = tuple(rng.uniform(0.0, 2 * math.pi, 2))
        constellations = []
        for _ in range(n_points):
            count = int(rng.integers(5, 9))
            angles = rng.uniform(0.0, 2 * math.pi, count)
            # Pixel radii chosen to land inside the census window (half
            # width 13 px) without disturbing the corner peak itself;
            # signed amplitudes stay below the corner detector even
            # under a doubling intensity transform.
            radii_px = rng.uniform(3.5, 11.0, count)
            amps = rng.uniform(5.0, 8.0, count) * rng.choice(
                (-1.0, 1.0), count)
            offsets = np.stack([np.cos(angles) * radii_px * GSD,
                                np.sin(angles) * radii_px * GSD,
                                amps], axis=1)
            constellations.append(offsets)
        for i, img in enumerate(images):
            img.raster = _render_image(scene, i, texture_phases,
                                       constellations)
    return scene


def scene_products(scene: SyntheticScene) -> list[Level2Product]:
    """Wrap rendered scene images as level-2 products.

    The geo transform comes from the unbiased camera at the plane height,
    matching what the refitted RPC describes; the recorded content is
    shifted by the (unknown to the consumer) true bias, exactly the
    situation the pipeline is meant to correct.
    """
    products = []
    for img in scene.images:
        if img.raster is None:
            raise ConfigInvalid("scene was generated without render=True")
        cam = img.camera
        m_lat, m_lon = meters_per_degree(cam.lat0)
        ca, sa = math.cos(cam.azimuth), math.sin(cam.azimuth)
        # Invert the plane-height camera: rows/cols -> along/across ->
        # east/north.  The image grid is rotated by the scan azimuth.
        dlat_drow = -cam.gsd * sa / m_lat
        dlat_dcol = cam.gsd * ca / m_lat
        dlon_drow = -cam.gsd * ca / m_lon
        dlon_dcol = -cam.gsd * sa / m_lon
        geo = np.array([
            cam.lat0 - cam.row0 * dlat_drow - cam.col0 * dlat_dcol,
            dlat_dcol, dlat_drow,
            cam.lon0 - cam.row0 * dlon_drow - cam.col0 * dlon_dcol,
            dlon_dcol, dlon_drow,
        ])
        products.append(Level2Product(
            raster=img.raster,
            rpc=img.rpc,
            plane_height=scene.plane_height,
            geo_transform=geo,
            image_id=img.image_id,
        ))
    return products


def save_scene(scene: SyntheticScene, directory) -> None:
    """Dump a scene as PGM rasters, RPC files and truth tables."""
    os.makedirs(directory, exist_ok=True)
    for img in scene.images:
        rpc_mod.save_rpc_file(img.rpc,
                              os.path.join(directory, img.image_id + ".rpc"))
        if img.raster is not None:
            write_pgm(img.raster,
                      os.path.join(directory, img.image_id + ".pgm"))
    textfile.write(
        os.path.join(directory, "truth_bias.txt"), ("image_id d_row d_col",),
        (f"{img.image_id} {float(img.true_bias.d_row)!r}"
         f" {float(img.true_bias.d_col)!r}\n" for img in scene.images))
    textfile.write(
        os.path.join(directory, "truth_points.txt"), ("point_id lat lon hei",),
        (f"{j} {float(g.lat)!r} {float(g.lon)!r} {float(g.hei)!r}\n"
         for j, g in enumerate(scene.true_points)))


# ---------------------------------------------------------------------------
# Dense bundle oracle
# ---------------------------------------------------------------------------


def dense_solve(graph, gauge_image: int | None = None):
    """Solve the full bundle normal equations without elimination.

    Builds the explicit Jacobian over all 2N bias and 3M ground unknowns
    (ground columns scaled like the production code, GCP tracks with
    fixed grounds, optional gauge image pinned) and solves the dense
    normal equations by Cholesky.  Desk-scale only.

    Returns:
        (x, y): x is an (N, 2) array of bias corrections in pixels
        (zeros at the gauge image); y maps track index to its (3,)
        ground correction in normalized units (free tracks only).

    Raises:
        RankDeficient: the normal matrix is not positive definite
            (e.g. free network without a gauge).
    """
    n_images = len(graph.images)
    free_tracks = np.flatnonzero(~graph.gcp).tolist()
    ground_col = {j: 2 * n_images + 3 * slot
                  for slot, j in enumerate(free_tracks)}
    n_params = 2 * n_images + 3 * len(free_tracks)

    rows_j = []
    rows_r = []
    starts = graph.track_start
    for j in range(len(starts) - 1):
        scales = graph.models.scale[graph.obs_image[starts[j]], :3]
        ground = GroundPoint(*graph.ground[j].tolist())
        for k in range(starts[j], starts[j + 1]):
            i = int(graph.obs_image[k])
            rpc, bias = graph.images[i][1], BiasCorrection(*graph.bias[i])
            obs = ImagePoint(*graph.obs_pixel[k].tolist())
            v = rpc_mod.residual(rpc, bias, ground, obs)
            block = np.zeros((2, n_params))
            block[:, 2 * i:2 * i + 2] = np.eye(2)
            if not graph.gcp[j]:
                col = ground_col[j]
                block[:, col:col + 3] = rpc_mod.jacobian(rpc, ground) * scales
            rows_j.append(block)
            rows_r.append(v)
    jac_full = np.vstack(rows_j)
    res_full = np.concatenate(rows_r)

    keep = np.ones(n_params, dtype=bool)
    if gauge_image is not None:
        keep[2 * gauge_image:2 * gauge_image + 2] = False
    jac_kept = jac_full[:, keep]
    normal = jac_kept.T @ jac_kept
    rhs = -jac_kept.T @ res_full
    try:
        factor = scipy.linalg.cho_factor(normal)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        raise RankDeficient(
            "dense normal matrix is not positive definite"
        ) from None
    pivots = np.abs(np.diag(factor[0]))
    if pivots.size and pivots.min() <= adjust_mod.PIVOT_RATIO_MIN * pivots.max():
        raise RankDeficient("dense normal matrix is numerically rank "
                            "deficient")
    solution = np.zeros(n_params)
    solution[keep] = scipy.linalg.cho_solve(factor, rhs)

    x = solution[:2 * n_images].reshape(n_images, 2)
    y = {j: solution[ground_col[j]:ground_col[j] + 3] for j in free_tracks}
    return x, y
