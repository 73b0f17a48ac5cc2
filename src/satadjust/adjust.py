"""Bias-compensated bundle adjustment with reduced normal equations.

Gauss-Newton on biases and grounds.  Ground-point unknowns are
eliminated track by track while the normal equations are accumulated, so
the largest matrix ever materialized is the 2N x 2N reduced bias system
for N images (each track touches at most a 2t x 2t sub-block, t being
its degree); the ground corrections are then recovered per track by
back-substitution.  GCP tracks keep their surveyed grounds fixed and
contribute only bias terms, the exact limit of an infinitely stiff
ground constraint.

Free networks (no GCPs) have an unobservable common image-space
translation; the datum is fixed by pinning image 0's bias correction to
zero, so reported biases are relative to image 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import rpc as rpc_mod
from .errors import ConfigInvalid, NumericalError, RankDeficient
from .rpc import BiasCorrection, GroundPoint, RpcModel
from .tracks import Track, apply_gcps

logger = logging.getLogger(__name__)

POINT_BLOCK_COND_MAX = 1e10

# Relative Cholesky pivot below which the reduced system counts as
# singular (catches the exact-nullspace case that rounding lets through).
PIVOT_RATIO_MIN = 1e-7

CONVERGENCE_PX = 0.001
MAX_ITER = 50


@dataclass
class ImageState:
    image_id: str
    rpc: RpcModel
    bias: BiasCorrection


@dataclass
class ObservationGraph:
    """Images, tracks and the visibility linking them.

    ``visibility[j]`` holds the sorted image indices observing track j
    and ``observations[j]`` the matching (degree, 2) array of observed
    (row, col) pixels; both are derived from the tracks on construction,
    as is ``models``, the image models packed in image order.
    """

    images: list[ImageState]
    tracks: list[Track]
    index: dict[str, int] = field(init=False)
    visibility: list[np.ndarray] = field(init=False)
    observations: list[np.ndarray] = field(init=False)
    models: rpc_mod.RpcArrays = field(init=False)

    def __post_init__(self):
        self.index = {im.image_id: i for i, im in enumerate(self.images)}
        if len(self.index) != len(self.images):
            raise ConfigInvalid("duplicate image ids")
        self.models = rpc_mod.stack_models([im.rpc for im in self.images])
        self.visibility = []
        self.observations = []
        for track in self.tracks:
            items = []
            for image_id, p in track.observations.items():
                if image_id not in self.index:
                    raise ConfigInvalid(f"track references unknown image "
                                        f"{image_id}")
                items.append((self.index[image_id], p.row, p.col))
            items.sort()
            self.visibility.append(np.array([i for i, _, _ in items]))
            self.observations.append(
                np.array([(r, c) for _, r, c in items])
            )

    @property
    def has_gcp(self) -> bool:
        return any(t.is_gcp for t in self.tracks)


@dataclass
class ReducedNormalSystem:
    """Reduced normal equations ``matrix @ x = rhs`` in the 2N bias
    corrections, the Schur terms of the eliminated grounds subtracted,
    and the tracks left out because their point block is singular.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    excluded_tracks: list[int]


@dataclass
class AdjustmentResult:
    """``history[k]`` is the average reprojection error after k steps
    (``history[0]`` before the first); ``steps[k]`` is the largest
    |bias correction| of step k + 1, in pixels."""

    biases: list[BiasCorrection]
    iterations: int
    history: list[float]
    steps: list[float]
    converged: bool


@dataclass(frozen=True)
class ReprojectionReport:
    """Residual statistics; x is the column axis, y the row axis."""

    avg_x: float
    avg_y: float
    avg_xy: float
    max_x: float
    max_y: float
    max_xy: float
    per_image_avg_xy: dict[str, float]
    count: int


def track_scales(graph: ObservationGraph, track: Track) -> np.ndarray:
    """Ground normalization used for a track's eliminated unknowns: the
    (lat, lon, hei) scales of its first observing image.  Pure
    conditioning; the reduced bias system is invariant to this choice."""
    first = min(graph.index[image_id] for image_id in track.observations)
    rpc = graph.images[first].rpc
    return np.array([rpc.lat_scale, rpc.lon_scale, rpc.hei_scale])


def _bias_array(graph: ObservationGraph) -> np.ndarray:
    """Current (d_row, d_col) of every image as an (N, 2) array."""
    return np.array([(im.bias.d_row, im.bias.d_col) for im in graph.images])


def _track_blocks(graph: ObservationGraph, j: int, bias: np.ndarray,
                  derivatives: bool = True):
    """Residuals (t, 2) of track j under the biases ``bias`` and the
    equilibrated point block of their Jacobian with respect to the
    track's ground in its normalized units (:func:`track_scales`); the
    block is None without ``derivatives`` or when it is singular.
    Equilibration keeps the conditioning check scale-free; the Schur
    contribution b (b'b)^-1 b' is invariant under it."""
    idxs = graph.visibility[j]
    track = graph.tracks[j]
    g = track.ground
    raw, d_raw = rpc_mod.evaluate(graph.models.take(idxs), g.lat, g.lon,
                                  g.hei, derivatives)
    v = graph.observations[j] + bias[idxs] - raw
    if d_raw is None:
        return v, None
    # residual = observed - project: minus the projection derivative
    b = (-d_raw * track_scales(graph, track)).reshape(-1, 3)
    return v, rpc_mod.equilibrated_point_block(b, POINT_BLOCK_COND_MAX)


def _interleaved(idxs: np.ndarray) -> np.ndarray:
    rows = np.empty(2 * len(idxs), dtype=np.intp)
    rows[0::2] = 2 * idxs
    rows[1::2] = 2 * idxs + 1
    return rows


def assemble(
    images: list[tuple[str, RpcModel]],
    tracks: list[Track],
    gcps: dict[int, GroundPoint] | None = None,
) -> ObservationGraph:
    """Build the observation graph: zero biases, triangulated grounds.

    GCP tracks (flagged via ``gcps``, keyed by track id) take their
    surveyed coordinates verbatim; the rest are triangulated with zero
    biases by :func:`update_points`, and those that fail are dropped.
    The tracks are modified in place (GCP flags and grounds).

    Raises:
        ConfigInvalid: duplicate or unknown image ids, or a GCP naming an
            unknown track.
    """
    if gcps:
        apply_gcps(tracks, gcps)
    for track in tracks:
        if track.is_gcp:
            track.ground = track.gcp_ground
    states = [ImageState(image_id, rpc, BiasCorrection())
              for image_id, rpc in images]
    graph = ObservationGraph(images=states, tracks=list(tracks))
    failed = set(update_points(graph))
    if not failed:
        return graph
    return ObservationGraph(
        images=states,
        tracks=[t for j, t in enumerate(tracks) if j not in failed],
    )


def accumulate_reduced(
    graph: ObservationGraph, alloc_hook=None
) -> ReducedNormalSystem:
    """One pass over the tracks building the reduced 2N x 2N system.

    Each track's 3x3 point block is inverted on the spot and its Schur
    contribution subtracted from the 2t x 2t sub-block of its observing
    images, so no matrix larger than 2N x 2N exists at any time.  Tracks
    whose point block is numerically singular are excluded and named in
    one log warning.

    Args:
        alloc_hook: optional callable receiving the shape of every array
            this function allocates explicitly (test instrumentation).
    """
    n = len(graph.images)

    def alloc(*shape):
        if alloc_hook is not None:
            alloc_hook(shape)
        return np.zeros(shape)

    matrix = alloc(2 * n, 2 * n)
    rhs = alloc(2 * n)
    bias = _bias_array(graph)
    excluded = []

    for j, track in enumerate(graph.tracks):
        v, block = _track_blocks(graph, j, bias,
                                 derivatives=not track.is_gcp)
        if block is None and not track.is_gcp:
            excluded.append(j)
            continue
        rows = _interleaved(graph.visibility[j])
        matrix[rows, rows] += 1.0
        rhs[rows] -= v.ravel()
        if track.is_gcp:
            continue
        b_eq, n_b, _ = block
        l_b = -b_eq.T @ v.ravel()
        tmp = b_eq @ np.linalg.inv(n_b)
        matrix[np.ix_(rows, rows)] -= tmp @ b_eq.T
        rhs[rows] -= tmp @ l_b
    if excluded:
        logger.warning(
            "excluded %d track(s) with point block condition above %.0e "
            "(first indices: %s)", len(excluded), POINT_BLOCK_COND_MAX,
            excluded[:5],
        )
    return ReducedNormalSystem(matrix=matrix, rhs=rhs,
                               excluded_tracks=excluded)


def solve_bias(
    system: ReducedNormalSystem, gauge_image: int | None = None
) -> np.ndarray:
    """Bias corrections from the reduced system, Cholesky-factored.

    Args:
        gauge_image: image whose correction is pinned to zero (rows and
            columns deleted before the solve); None when GCPs provide
            the datum.

    Returns:
        (N, 2) array of (d_row, d_col) corrections in pixels.

    Raises:
        RankDeficient: the (gauge-fixed) reduced matrix is not positive
            definite, e.g. a free network with no gauge.
    """
    size = system.matrix.shape[0]
    keep = np.ones(size, dtype=bool)
    if gauge_image is not None:
        keep[2 * gauge_image:2 * gauge_image + 2] = False
    x = np.zeros(size)
    if int(keep.sum()) == 0:
        return x.reshape(-1, 2)
    kept = system.matrix[np.ix_(keep, keep)]
    try:
        factor = scipy.linalg.cho_factor(kept)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        raise RankDeficient(
            "reduced bias system is not positive definite; free networks "
            "need a gauge image or GCPs"
        ) from None
    pivots = np.abs(np.diag(factor[0]))
    if pivots.min() <= PIVOT_RATIO_MIN * pivots.max():
        raise RankDeficient(
            "reduced bias system is numerically rank deficient; free "
            "networks need a gauge image or GCPs"
        )
    x[keep] = scipy.linalg.cho_solve(factor, system.rhs[keep])
    return x.reshape(-1, 2)


def ground_corrections(
    graph: ObservationGraph, x: np.ndarray
) -> dict[int, np.ndarray]:
    """Schur back-substitution: per-track normalized ground corrections
    implied by bias corrections ``x`` at the current linearization (none
    for GCP tracks and the tracks :func:`accumulate_reduced` excludes)."""
    bias = _bias_array(graph)
    x_flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = {}
    for j, track in enumerate(graph.tracks):
        if track.is_gcp:
            continue
        v, block = _track_blocks(graph, j, bias)
        if block is None:
            continue
        b_eq, n_b, col_norms = block
        rows = _interleaved(graph.visibility[j])
        out[j] = np.linalg.solve(
            n_b, -b_eq.T @ (v.ravel() + x_flat[rows])) / col_norms
    return out


def update_points(graph: ObservationGraph) -> list[int]:
    """Triangulate every non-GCP track afresh with the current biases.

    GCP grounds are never touched.  Tracks whose triangulation fails
    keep their previous ground; their indices are returned and named in
    one log warning.
    """
    failed = []
    for j, track in enumerate(graph.tracks):
        if track.is_gcp:
            continue
        obs = [(graph.images[i].rpc, graph.images[i].bias,
                rpc_mod.ImagePoint(*graph.observations[j][slot]))
               for slot, i in enumerate(graph.visibility[j])]
        try:
            track.ground = rpc_mod.triangulate(obs)
        except NumericalError:
            failed.append(j)
    if failed:
        logger.warning("triangulation failed for %d track(s) (first "
                       "indices: %s)", len(failed), failed[:5])
    return failed


def report(graph: ObservationGraph) -> ReprojectionReport:
    """Residual statistics of all observations at the current state.

    avg_x / avg_y are mean absolute per-axis distances (x = column,
    y = row), avg_xy the mean Euclidean distance, max_* the maxima;
    per-image averages use the Euclidean distance.
    """
    bias = _bias_array(graph)
    abs_r = []
    abs_c = []
    euclid = []
    image_sums = np.zeros(len(graph.images))
    image_counts = np.zeros(len(graph.images), dtype=np.int64)
    for j in range(len(graph.tracks)):
        idxs = graph.visibility[j]
        v, _ = _track_blocks(graph, j, bias, derivatives=False)
        d = np.hypot(v[:, 0], v[:, 1])
        abs_r.append(np.abs(v[:, 0]))
        abs_c.append(np.abs(v[:, 1]))
        euclid.append(d)
        np.add.at(image_sums, idxs, d)
        np.add.at(image_counts, idxs, 1)
    if not euclid:
        return ReprojectionReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, {}, 0)
    abs_r = np.concatenate(abs_r)
    abs_c = np.concatenate(abs_c)
    euclid = np.concatenate(euclid)
    per_image = {
        im.image_id: float(image_sums[i] / image_counts[i])
        for i, im in enumerate(graph.images) if image_counts[i]
    }
    return ReprojectionReport(
        avg_x=float(abs_c.mean()), avg_y=float(abs_r.mean()),
        avg_xy=float(euclid.mean()),
        max_x=float(abs_c.max()), max_y=float(abs_r.max()),
        max_xy=float(euclid.max()),
        per_image_avg_xy=per_image, count=int(euclid.size),
    )


def adjust_loop(
    graph: ObservationGraph,
    tol: float = CONVERGENCE_PX,
    max_iter: int = MAX_ITER,
) -> AdjustmentResult:
    """Gauss-Newton on biases and grounds: each step runs accumulate ->
    solve -> back-substitute -> report and applies the bias and ground
    corrections together.  No track is re-triangulated.

    Stops once no bias component moves by more than ``tol`` pixels in a
    step; ``converged`` is False when ``max_iter`` steps were taken
    instead.
    """
    gauge = None if graph.has_gcp else 0
    history = [report(graph).avg_xy]
    steps = []
    for _ in range(max_iter):
        x = solve_bias(accumulate_reduced(graph), gauge)
        dg = ground_corrections(graph, x)
        for im, (d_row, d_col) in zip(graph.images, x.tolist()):
            im.bias = BiasCorrection(im.bias.d_row + d_row,
                                     im.bias.d_col + d_col)
        for j, d in dg.items():
            track = graph.tracks[j]
            lat, lon, hei = (d * track_scales(graph, track)).tolist()
            g = track.ground
            track.ground = GroundPoint(g.lat + lat, g.lon + lon, g.hei + hei)
        history.append(report(graph).avg_xy)
        steps.append(float(np.abs(x).max()))
        if steps[-1] <= tol:
            break
    return AdjustmentResult(
        biases=[im.bias for im in graph.images], iterations=len(steps),
        history=history, steps=steps,
        converged=bool(steps) and steps[-1] <= tol,
    )


# ---------------------------------------------------------------------------
# Bias files
# ---------------------------------------------------------------------------


def save_biases(graph: ObservationGraph, path,
                header: str | None = None) -> None:
    """One line per image: ``image_id d_row d_col``."""
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("# image_id d_row d_col\n")
        for im in graph.images:
            fh.write(f"{im.image_id} {im.bias.d_row!r} {im.bias.d_col!r}\n")


def load_biases(path) -> dict[str, BiasCorrection]:
    """Read a bias file written by :func:`save_biases`."""
    from .errors import ParseError

    biases = {}
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(
                    f"{path}:{line_no}: expected 3 fields, got {len(tokens)}"
                )
            try:
                biases[tokens[0]] = BiasCorrection(float(tokens[1]),
                                                   float(tokens[2]))
            except ValueError:
                raise ParseError(
                    f"{path}:{line_no}: non-numeric field"
                ) from None
    return biases
