"""Seeded input generators for the benchmark workloads.

Each workload writes ``scenes`` independent problem instances per run,
one directory each, from sub-seeds of the run's ``--seed``.  Scene
files are what the program reads (RPC text, PGM rasters, track and GCP
files) plus the generator's truth tables, which only the checks read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Size:
    scenes: int       # independent scenes per run
    images: int
    points: int
    half_extent_m: float = 0.0   # rendered footprint (pipeline only)


PIPELINE = "pipeline-rendered"
RANDOM = "adjust-random"
WIDE_GCP = "adjust-wide-gcp"

# Scene sizes per workload: "full" for the benchmark, "tiny" for its own
# tests.  BENCHMARK.json says why each workload exists.
WORKLOADS = {
    PIPELINE: {"full": Size(scenes=5, images=3, points=40,
                            half_extent_m=100.0),
               "tiny": Size(scenes=1, images=3, points=10,
                            half_extent_m=50.0)},
    RANDOM: {"full": Size(scenes=4, images=12, points=300),
             "tiny": Size(scenes=2, images=6, points=150)},
    WIDE_GCP: {"full": Size(scenes=4, images=50, points=160),
               "tiny": Size(scenes=2, images=12, points=40)},
}

BIAS_RANGE_RENDERED_PX = 8.0
BIAS_RANGE_PX = 30.0
NOISE_PX = 0.25
GCP_TRACKS = (0, 1, 2)

# Rectified rasters cover the north-up bounding box of each footprint,
# whose area varies twofold with the scan heading.  Rendered scenes are
# drawn until the heading lies within this many degrees of a diagonal,
# where that area is largest and nearly flat in the heading, so seeds
# change the content of a scene but not its raster size.
DIAGONAL_TOLERANCE_DEG = 12.0
MAX_HEADING_DRAWS = 500


def scene_seed(seed: int, scene: int) -> int:
    """First generator seed of scene ``scene`` of run seed ``seed``."""
    return seed * 1_000_000 + scene * 1_000


def make_scene(workload: str, seed: int, scene: int, size: Size,
               directory: str) -> None:
    """Write one scene of ``workload`` into ``directory``."""
    first = scene_seed(seed, scene)
    if workload == PIPELINE:
        _rendered_scene(_diagonal_seed(first, size), size, directory)
    else:
        _track_scene(first, size, directory, gcps=workload == WIDE_GCP)


def _diagonal_seed(first: int, size: Size) -> int:
    """First generator seed from ``first`` whose scan heading is near a
    diagonal.  The heading is drawn before the points, so a one-point,
    unrendered scene shows it cheaply."""
    from satadjust import synth

    for seed in range(first, first + MAX_HEADING_DRAWS):
        probe = synth.gen_scene(size.images, 1, BIAS_RANGE_RENDERED_PX, 0.0,
                                seed, half_extent_m=size.half_extent_m)
        heading = math.degrees(probe.images[0].camera.azimuth) % 90.0
        if abs(heading - 45.0) <= DIAGONAL_TOLERANCE_DEG:
            return seed
    raise RuntimeError(f"no diagonal heading in seeds {first}.."
                       f"{first + MAX_HEADING_DRAWS - 1}")


def _rendered_scene(seed: int, size: Size, directory: str) -> None:
    """``satadjust synth --render``: PGM + RPC per image, truth tables."""
    from satadjust import cli

    argv = ["synth", "--out", directory, "--images", str(size.images),
            "--points", str(size.points),
            "--bias-range", repr(BIAS_RANGE_RENDERED_PX), "--noise", "0",
            "--seed", str(seed), "--render",
            "--half-extent", repr(size.half_extent_m)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"satadjust synth exited with {code}")


def _track_scene(seed: int, size: Size, directory: str, gcps: bool) -> None:
    """Unrendered scene written as RPC files, a track file (one track per
    planted point, in point order) and, with ``gcps``, a GCP file holding
    the true grounds of tracks 0-2.

    Observations are cast to float first: ``save_tracks`` writes reprs,
    and a NumPy 2 scalar's repr (``np.float64(...)``) does not load back.
    """
    from satadjust import synth, tracks
    from satadjust.rpc import ImagePoint

    scene = synth.gen_scene(size.images, size.points, BIAS_RANGE_PX,
                            NOISE_PX, seed,
                            visibility="full" if gcps else "random")
    synth.save_scene(scene, directory)
    track_list = [
        tracks.Track(observations={
            scene.images[i].image_id: ImagePoint(float(p.row), float(p.col))
            for i, p in per_image.items()})
        for per_image in scene.true_observations
    ]
    tracks.save_tracks(track_list, os.path.join(directory, "tracks.txt"))
    if gcps:
        tracks.save_gcps({j: scene.true_points[j] for j in GCP_TRACKS},
                         os.path.join(directory, "gcps.txt"))


def digest(directory: str) -> str:
    """SHA-256 over the relative paths and bytes of every file below
    ``directory``, in sorted order."""
    h = hashlib.sha256()
    for root, dirs, names in os.walk(directory):
        dirs.sort()
        for name in sorted(names):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()
