"""Bias-compensated bundle adjustment with reduced normal equations.

Gauss-Newton on biases and grounds.  Ground-point unknowns are
eliminated track by track while the normal equations are accumulated;
the ground corrections are then recovered per track by
back-substitution.  GCP tracks keep their surveyed grounds fixed and
contribute only bias terms, the exact limit of an infinitely stiff
ground constraint.

The passes run on the observations that :class:`ObservationGraph`
takes from a :class:`~satadjust.tracks.TrackTable`, sharing its pixels
and starts (the table holds about 20 B per observation and 41 B per
track; the graph adds 8 B per observation, its image indices, and 25 B
per track, its grounds and GCP flags), in chunks of whole tracks
holding at most ``CHUNK_OBSERVATIONS`` observations.  A pass
linearizes ``BATCH_CHUNKS`` consecutive chunks, a batch, per
:func:`rpc.linearize_tracks` call, and then reports, reduces and
back-substitutes chunk by chunk.  Three bounds hold whatever the number
of tracks:

* the call gathers its models' constants 512 observations at a time,
  512 x 210 x 8 B = 860,160 B (``rpc.GATHER_OBSERVATIONS``);
* the rest of its state is about 300 B per observation, some 1.2 MB
  for a full batch of 4,096, freed before the next batch is linearized;
* a chunk's Schur terms are subtracted as one dense panel product,
  whose panels have a row pair per image the chunk sees and three
  columns per track: at most 2 min(N, 1,024) x 1,536 doubles, 1.2 MB
  each at N = 50.

The one 2N x 2N array is the reduced bias system for N images.  A step
of :func:`adjust_loop` is one linearization pass plus a
back-substitution: the pass reports the residuals, reduces each chunk
and keeps the arrays that back-substitution reads, from which the
ground corrections follow once the biases are solved.  Its working
memory is a batch, the 2N x 2N matrix and one step's kept arrays
(about 64 B per observation and 105 B per track).
:func:`accumulate_reduced`, :func:`ground_corrections` and
:func:`report` each linearize on their own and keep nothing.
Triangulation (:func:`update_points`) solves the free tracks of a batch
in one lock-step :func:`rpc.triangulate_many` call, from starts cast
for many batches at once.

Free networks (no GCPs) have an unobservable common image-space
translation; the datum is fixed by pinning image 0's bias correction to
zero, so reported biases are relative to image 0.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import rpc as rpc_mod
from . import textfile
from .errors import (
    ConfigInvalid,
    DegenerateDenominator,
    ParseError,
    RankDeficient,
)
from .rpc import BiasCorrection, GroundPoint, RpcModel
from .tracks import Track, TrackTable, apply_gcps, as_table

logger = logging.getLogger(__name__)

POINT_BLOCK_COND_MAX = 1e10

# Relative Cholesky pivot below which the reduced system counts as
# singular (catches the exact-nullspace case that rounding lets through).
PIVOT_RATIO_MIN = 1e-7

CONVERGENCE_PX = 0.001
MAX_ITER = 50

# Observations per chunk of the per-track passes; bounds their panels
# whatever the number of tracks.
CHUNK_OBSERVATIONS = 1024

# Consecutive chunks linearized or triangulated by one call: fewer calls
# for the same per-track arithmetic, at about 300 B per observation.
BATCH_CHUNKS = 4


@dataclass
class ObservationGraph:
    """Images, tracks and the visibility linking them, and the state of
    the adjustment.

    ``images`` holds the ``(image_id, rpc)`` pairs as given, and
    ``index`` maps an image id to its position.  ``tracks`` is the
    :class:`~satadjust.tracks.TrackTable` the graph was built from; a
    list of :class:`~satadjust.tracks.Track` is packed into one first.
    Its observations are taken over track by track and, within a track,
    in image order: ``obs_image`` and ``obs_pixel`` hold each one's image
    index and observed (row, col) pixel, and track j owns rows
    ``track_start[j]:track_start[j + 1]``; the pixels and starts are the
    table's own arrays unless image order differs from image-id order.
    ``models`` holds the image models packed in image order.  ``bias``
    (N, 2), zero on construction, holds image i's (d_row, d_col) in row
    i; ``ground`` (M, 3) holds each track's (lat, lon, hei), a copy of
    the table's, and ``gcp`` flags the GCP tracks.  These arrays, not
    the images or tracks, are what the passes read and update.
    """

    images: list[tuple[str, RpcModel]]
    tracks: TrackTable
    index: dict[str, int] = field(init=False)
    obs_image: np.ndarray = field(init=False)
    obs_pixel: np.ndarray = field(init=False)
    track_start: np.ndarray = field(init=False)
    models: rpc_mod.RpcArrays = field(init=False)
    bias: np.ndarray = field(init=False)
    ground: np.ndarray = field(init=False)
    gcp: np.ndarray = field(init=False)

    def __post_init__(self):
        self.index = {image_id: i
                      for i, (image_id, _) in enumerate(self.images)}
        if len(self.index) != len(self.images):
            raise ConfigInvalid("duplicate image ids")
        self.models = rpc_mod.stack_models([rpc for _, rpc in self.images])
        self.bias = np.zeros((len(self.images), 2))
        table = self.tracks = as_table(self.tracks)
        # each image id's index, -1 for an image the graph lacks
        to_index = np.array([self.index.get(image_id, -1)
                             for image_id in table.image_ids], dtype=np.intp)
        image = to_index[table.image]
        unknown = image < 0
        if unknown.any():
            raise ConfigInvalid(
                f"track references unknown image "
                f"{table.image_ids[table.image[np.argmax(unknown)]]}")
        self.obs_image, self.obs_pixel = image, table.pixel
        if (np.diff(to_index[to_index >= 0]) <= 0).any():
            # image order is not image-id order: sort each track's rows
            order = np.lexsort((image, np.repeat(np.arange(len(table)),
                                                 np.diff(table.start))))
            self.obs_image, self.obs_pixel = image[order], table.pixel[order]
        self.track_start = table.start
        self.ground = table.ground.copy()
        self.gcp = table.gcp.copy()

    @property
    def has_gcp(self) -> bool:
        return bool(self.gcp.any())

    def chunks(self):
        """Consecutive track ranges ``(a, b)`` holding at most
        ``CHUNK_OBSERVATIONS`` observations each, or a single track."""
        starts = self.track_start
        a = 0
        while a < len(starts) - 1:
            b = int(np.searchsorted(starts, starts[a] + CHUNK_OBSERVATIONS,
                                    side="right")) - 1
            b = max(b, a + 1)
            yield a, b
            a = b

    def batches(self):
        """Runs of up to ``BATCH_CHUNKS`` consecutive :meth:`chunks`, each
        a list of them."""
        chunks = self.chunks()
        while batch := list(itertools.islice(chunks, BATCH_CHUNKS)):
            yield batch


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
    """``before`` and ``after`` report the residuals before the first
    step and after the last; ``history[k]`` is the average reprojection
    error after k steps (``history[0]`` before the first); ``steps[k]``
    is the largest |bias correction| of step k + 1, in pixels, and
    ``excluded[k]`` the number of tracks that step left out of the
    reduced system.  The adjusted biases are ``graph.bias``."""

    before: ReprojectionReport
    after: ReprojectionReport
    iterations: int
    history: list[float]
    steps: list[float]
    excluded: list[int]
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


def _linearize(graph: ObservationGraph, a: int, b: int,
               cond_max: float | None = None):
    """Tracks a..b-1 at their current grounds and biases: the image of
    each of their observations, and :func:`rpc.linearize_tracks` of
    them."""
    span = slice(graph.track_start[a], graph.track_start[b])
    starts = graph.track_start[a:b + 1] - graph.track_start[a]
    image = graph.obs_image[span]
    return image, rpc_mod.linearize_tracks(
        graph.models, image, graph.obs_pixel[span] + graph.bias[image],
        graph.ground[a:b], starts, cond_max)


def _each_chunk(graph: ObservationGraph, cond_max: float | None,
                visit) -> None:
    """Call ``visit(a, b, image, lin)`` for every chunk ``(a, b)`` in
    order, ``image`` and ``lin`` as :func:`_linearize` gives them: one
    :func:`_linearize` call per batch of :meth:`ObservationGraph.batches`,
    taken apart chunk by chunk.  A track's linearization does not depend
    on the tracks beside it, so each chunk gets the bits of a call of
    its own.  What ``visit`` does not keep of a batch is freed before
    the next batch is linearized."""
    for batch in graph.batches():
        first = batch[0][0]
        image, lin = _linearize(graph, first, batch[-1][1], cond_max)
        for a, b in batch:
            span = slice(lin.starts[a - first], lin.starts[b - first])
            visit(a, b, image[span], lin.tracks(a - first, b - first))
        del image, lin


def _warn_tracks(tracks: list[int], what: str) -> None:
    if tracks:
        logger.warning("%d track(s) %s (first indices: %s)", len(tracks),
                       what, tracks[:5])


def assemble(
    images: list[tuple[str, RpcModel]],
    tracks: TrackTable | list[Track],
    gcps: dict[int, GroundPoint] | None = None,
) -> ObservationGraph:
    """Build the observation graph: zero biases, triangulated grounds.

    GCP tracks (flagged via ``gcps``, keyed by track id) take their
    surveyed coordinates verbatim; the rest are triangulated with zero
    biases by :func:`update_points`, and those that fail are dropped.
    A table given is flagged in place by :func:`tracks.apply_gcps`; a
    list of tracks is packed into a table first and left as it is.

    Raises:
        ConfigInvalid: duplicate or unknown image ids, or a GCP naming an
            unknown track.
    """
    table = as_table(tracks)
    if gcps:
        apply_gcps(table, gcps)
    graph = ObservationGraph(images=images, tracks=table)
    failed = update_points(graph)
    if not failed:
        return graph
    kept = np.delete(np.arange(len(table)), failed)
    kept_graph = ObservationGraph(images=images, tracks=table.take(kept))
    kept_graph.ground[:] = graph.ground[kept]
    return kept_graph


def accumulate_reduced(
    graph: ObservationGraph, alloc_hook=None
) -> ReducedNormalSystem:
    """One pass over the tracks, chunk by chunk, building the reduced
    2N x 2N system.

    A chunk's Schur terms are subtracted as one dense panel product
    ``W @ B.T``: B (2u x 3c) holds the equilibrated point blocks of the
    chunk's c tracks side by side, on the bias rows of the u images
    those tracks see, and W the same blocks times the inverse normal
    matrices of :func:`rpc.linearize_tracks`.  A chunk of
    k <= ``CHUNK_OBSERVATIONS`` observations has u <= min(N, k) and,
    as a track has at least two observations, c <= k/2; so the panels
    and the 2u x 2u product are bounded by the chunk and by N, never by
    the number of tracks, and the reduced matrix is the only (2N)^2
    array.  Each chunk costs O(u^2 c) flops.
    Tracks whose point block is not positive definite with an
    eigenvalue ratio of at most 1e10, or whose residual meets a vanished
    denominator, are excluded and named in one log warning.

    Args:
        alloc_hook: optional callable receiving the shape of every array
            this function allocates explicitly (test instrumentation).
    """

    def alloc(shape):
        if alloc_hook is not None:
            alloc_hook(shape)
        return np.zeros(shape)

    system = _empty_system(len(graph.images), alloc)
    _each_chunk(graph, POINT_BLOCK_COND_MAX,
                lambda a, b, image, lin: _reduce_chunk(system, graph, a, b,
                                                       image, lin, alloc))
    _warn_excluded(system)
    return system


def _empty_system(n: int, alloc=np.zeros) -> ReducedNormalSystem:
    return ReducedNormalSystem(matrix=alloc((2 * n, 2 * n)),
                               rhs=alloc((2 * n,)), excluded_tracks=[])


def _reduce_chunk(system: ReducedNormalSystem, graph: ObservationGraph,
                  a: int, b: int, image, lin, alloc=np.zeros) -> np.ndarray:
    """Add tracks a..b-1, linearized with derivatives as ``lin``, to
    ``system``: the used tracks' bias terms and the free tracks' Schur
    terms.  Records the excluded tracks and returns the free mask, the
    tracks that back-substitution steps."""
    n = len(graph.images)
    gcp = graph.gcp[a:b]
    used = lin.usable & (gcp | lin.ok)
    system.excluded_tracks.extend((a + np.flatnonzero(~used)).tolist())
    obs_used = used[lin.owner]
    # each used observation adds one to its image's two bias rows and
    # subtracts its residual from their right-hand sides
    counts = np.bincount(image[obs_used], minlength=n)
    diag = np.arange(2 * n)
    system.matrix[diag, diag] += np.repeat(counts, 2)
    for r in range(2):
        system.rhs[r::2] -= np.bincount(image[obs_used],
                                        weights=lin.v[r, obs_used],
                                        minlength=n)
    free = used & ~gcp
    if not free.any():
        return free
    # the other tracks get zero blocks and so add nothing below
    b_eq = np.where(free[lin.owner], lin.b, 0.0)
    l_b = np.where(free, rpc_mod._gradient(lin, lin.v), 0.0)
    # panel rows: the bias rows of the images the chunk sees
    present = np.bincount(image, minlength=n) > 0
    seen = np.flatnonzero(present)
    # each image's position among those seen
    local = np.cumsum(present) - 1
    bias_rows = (2 * seen[:, None] + np.arange(2)).ravel()
    w = alloc((bias_rows.size, 3 * (b - a)))
    bt = alloc((bias_rows.size, 3 * (b - a)))
    # (panel row, panel column) of each observation row and ground column
    r = (2 * local[image] + np.arange(2)[:, None])[:, None]
    c = 3 * lin.owner + np.arange(3)[:, None]
    bt[r, c] = b_eq
    # a track's three columns of W are its columns of B times its
    # inverse normal matrix
    np.matmul(bt.reshape(len(bias_rows), b - a, 3).transpose(1, 0, 2),
              lin.inverse,
              out=w.reshape(len(bias_rows), b - a, 3).transpose(1, 0, 2))
    if seen[-1] - seen[0] == len(seen) - 1:
        # one run of images, as in a full-visibility block: a slice
        # updates the same entries without gathering them
        bias_rows = slice(2 * seen[0], 2 * seen[-1] + 2)
        system.matrix[bias_rows, bias_rows] -= w @ bt.T
    else:
        system.matrix[np.ix_(bias_rows, bias_rows)] -= w @ bt.T
    system.rhs[bias_rows] -= w @ l_b.T.ravel()
    return free


def _warn_excluded(system: ReducedNormalSystem) -> None:
    _warn_tracks(system.excluded_tracks,
                 f"excluded: point block eigenvalue ratio above "
                 f"{POINT_BLOCK_COND_MAX:.0e} or a vanished denominator")


def solve_bias(
    system: ReducedNormalSystem, gauge_image: int | None = None
) -> np.ndarray:
    """Bias corrections from the reduced system, Cholesky-factored in
    place on one copy of its kept rows and columns.

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
        # the copy is factored in place: its transpose, the same symmetric
        # matrix in Fortran order, is what LAPACK overwrites
        factor = scipy.linalg.cho_factor(kept.T, lower=True,
                                         overwrite_a=True)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Schur back-substitution: the ground corrections implied by bias
    corrections ``x`` at the current linearization, chunk by chunk
    through :func:`rpc.point_steps`.

    Returns:
        ``(tracks, steps)``: the indices of the tracks corrected (not
        the GCP tracks nor those :func:`accumulate_reduced` excludes), in
        order, and their (k, 3) corrections in their first image's
        normalized ground units.
    """
    shift = np.asarray(x, dtype=np.float64).reshape(-1, 2)
    tracks, steps = [np.empty(0, dtype=np.intp)], [np.empty((0, 3))]

    def correct(a, b, image, lin):
        free = lin.usable & lin.ok & ~graph.gcp[a:b]
        tracks.append(a + np.flatnonzero(free))
        # the residual once the biases move by x
        steps.append(rpc_mod.point_steps(lin, lin.v + shift[image].T, free))

    _each_chunk(graph, POINT_BLOCK_COND_MAX, correct)
    return np.concatenate(tracks), np.concatenate(steps)


def update_points(graph: ObservationGraph) -> list[int]:
    """Triangulate every non-GCP track afresh with the current biases,
    one lock-step :func:`rpc.triangulate_many` call per batch of
    :meth:`ObservationGraph.batches` that holds a free track.  The
    batches' starts are cast together: one :func:`rpc.cast_heads` call
    per run of consecutive batches that holds a free track, a run
    closing once it holds
    ``CHUNK_OBSERVATIONS // 2`` tracks (the most a chunk can hold), so
    a cast covers fewer tracks than that plus one batch.  No array spans
    all tracks.

    GCP grounds are never touched.  Tracks whose triangulation fails
    keep their previous ground; their indices are returned in order and
    named in one log warning.
    """
    failed = []
    for run in _cast_runs(graph):
        a = run[0][0][0]
        free = a + np.flatnonzero(~graph.gcp[a:run[-1][-1][1]])
        if not free.size:
            continue
        first = graph.track_start[free]
        heads = graph.obs_image[first]
        # residual = observed - (raw - bias), so fold the bias into the
        # target, as rpc.triangulate does
        cast = rpc_mod.cast_heads(graph.models, heads,
                                  graph.obs_pixel[first] + graph.bias[heads])
        for batch in run:
            lo, hi = np.searchsorted(free, [batch[0][0], batch[-1][1]])
            if lo < hi:
                failed += _triangulate(graph, free[lo:hi],
                                       (cast[0][lo:hi], cast[1][lo:hi]))
    _warn_tracks(failed, "failed to triangulate")
    return failed


def _cast_runs(graph: ObservationGraph):
    """Runs of consecutive batches, each closing once it holds
    ``CHUNK_OBSERVATIONS // 2`` tracks, whose starts
    :func:`update_points` casts together."""
    run = []
    for batch in graph.batches():
        run.append(batch)
        if batch[-1][1] - run[0][0][0] >= CHUNK_OBSERVATIONS // 2:
            yield run
            run = []
    if run:
        yield run


def _triangulate(graph: ObservationGraph, tracks, cast) -> list[int]:
    """Triangulate the free ``tracks`` from their starts ``cast`` in one
    :func:`rpc.triangulate_many` call and store the grounds solved;
    returns the tracks that failed.  Its arrays are freed on return,
    before the next batch's are built."""
    rows, starts = rpc_mod._segment_rows(graph.track_start, tracks)
    image = graph.obs_image[rows]
    grounds, status = rpc_mod.triangulate_many(
        graph.models, image, graph.obs_pixel[rows] + graph.bias[image],
        starts, cast)
    solved = status == rpc_mod.SOLVED
    graph.ground[tracks[solved]] = grounds[solved]
    return tracks[~solved].tolist()


def report(graph: ObservationGraph) -> ReprojectionReport:
    """Residual statistics of all observations at the current state,
    accumulated chunk by chunk.

    avg_x / avg_y are mean absolute per-axis distances (x = column,
    y = row), avg_xy the mean Euclidean distance, max_* the maxima;
    per-image averages use the Euclidean distance.

    Raises:
        DegenerateDenominator: a rational denominator vanished, or the
            projection was not finite, at some observation.
    """
    return _linearization_pass(graph, derive=False)[0]


def _linearization_pass(graph: ObservationGraph, derive: bool):
    """Linearize every chunk at the current state: the report and, with
    ``derive`` (else None, None), the reduced system and per chunk what
    back-substitution reads, ``(a, b, free, lin)``, ``lin`` keeping
    ``starts``, ``v``, ``b``, ``inverse`` and ``col_norms``."""
    n = len(graph.images)
    # columns: |row residual| (y), |column residual| (x), Euclidean
    sums = np.zeros(3)
    maxima = np.zeros(3)
    image_sums = np.zeros(n)
    system = _empty_system(n) if derive else None
    kept = [] if derive else None

    def visit(a, b, image, lin):
        nonlocal sums, maxima, image_sums
        if not lin.usable.all():
            raise DegenerateDenominator(
                f"denominator vanished or projection not finite at an "
                f"observation of track "
                f"{a + int(np.argmin(lin.usable))}")
        dist = np.vstack([np.abs(lin.v), np.hypot(*lin.v)])
        sums += dist.sum(axis=1)
        maxima = np.maximum(maxima, dist.max(axis=1))
        image_sums += np.bincount(image, weights=dist[2], minlength=n)
        if derive:
            free = _reduce_chunk(system, graph, a, b, image, lin)
            kept.append((a, b, free, lin._replace(owner=None, usable=None,
                                                  ok=None)))

    _each_chunk(graph, POINT_BLOCK_COND_MAX if derive else None, visit)
    if derive:
        _warn_excluded(system)
    count = int(graph.track_start[-1])
    if not count:
        return (ReprojectionReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, {}, 0),
                system, kept)
    image_counts = np.bincount(graph.obs_image, minlength=n)
    per_image = {
        image_id: float(image_sums[i] / image_counts[i])
        for image_id, i in graph.index.items() if image_counts[i]
    }
    avg_y, avg_x, avg_xy = (sums / count).tolist()
    max_y, max_x, max_xy = maxima.tolist()
    return ReprojectionReport(
        avg_x=avg_x, avg_y=avg_y, avg_xy=avg_xy,
        max_x=max_x, max_y=max_y, max_xy=max_xy,
        per_image_avg_xy=per_image, count=count,
    ), system, kept


def adjust_loop(
    graph: ObservationGraph,
    tol: float = CONVERGENCE_PX,
    max_iter: int = MAX_ITER,
) -> AdjustmentResult:
    """Gauss-Newton on biases and grounds.  A step is one linearization
    pass and a back-substitution: the pass reports every chunk's
    residuals, adds its Schur terms to the reduced system and keeps
    what back-substitution reads; once :func:`solve_bias` has the bias
    corrections, each chunk's ground corrections come from the kept
    arrays as in :func:`ground_corrections`, and both are applied
    together.  The pass at the new state reports the step and, only
    when another step may follow, takes derivatives.  No track is
    re-triangulated.  Working memory is a chunk, the 2N x 2N system
    and one step's kept arrays (about 64 B per observation and 105 B
    per track).

    Stops once no bias component moves by more than ``tol`` pixels in a
    step; ``converged`` is False when ``max_iter`` steps were taken
    instead.
    """
    gauge = None if graph.has_gcp else 0
    before, system, kept = _linearization_pass(graph, max_iter > 0)
    after = before
    history = [before.avg_xy]
    steps = []
    excluded = []
    while system is not None:
        x = solve_bias(system, gauge)
        excluded.append(len(system.excluded_tracks))
        # release this step's arrays before the next pass builds its own
        system = None
        for a, b, free, lin in kept:
            image = graph.obs_image[graph.track_start[a]:graph.track_start[b]]
            # the residual once the biases move by x; each track's step
            # is in its first image's ground units
            step = rpc_mod.point_steps(lin, lin.v + x[image].T, free)
            first = graph.obs_image[graph.track_start[a:b][free]]
            graph.ground[a:b][free] += step * graph.models.scale[first, :3]
        kept = None
        graph.bias += x
        steps.append(float(np.abs(x).max()))
        after, system, kept = _linearization_pass(
            graph, steps[-1] > tol and len(steps) < max_iter)
        history.append(after.avg_xy)
    return AdjustmentResult(
        before=before, after=after, iterations=len(steps), history=history,
        steps=steps, excluded=excluded,
        converged=bool(steps) and steps[-1] <= tol,
    )


# ---------------------------------------------------------------------------
# Bias files
# ---------------------------------------------------------------------------


def save_biases(graph: ObservationGraph, path, header: str = "") -> None:
    """One line per image: ``image_id d_row d_col``."""
    textfile.write(path, (header, "image_id d_row d_col"), (
        f"{image_id} {float(d_row)!r} {float(d_col)!r}\n"
        for (image_id, _), (d_row, d_col) in zip(graph.images, graph.bias)))


def load_biases(path) -> dict[str, BiasCorrection]:
    """Read a bias file written by :func:`save_biases`; raises
    ParseError for a malformed record or an image id given twice."""
    biases = {}
    for line_no, image_id, d_row, d_col in textfile.records(path, "sff"):
        if image_id in biases:
            raise ParseError(f"{path}:{line_no}: duplicate bias for image "
                             f"{image_id}")
        biases[image_id] = BiasCorrection(d_row, d_col)
    return biases
