"""Correctness checks of one timed run against the scene's known truth.

Every check returns a list of failure messages (empty when the run is
correct).  Output files are parsed here rather than with the program's
own readers, so a reader bug cannot hide a wrong output.
"""

from __future__ import annotations

import json
import os

# Pipeline.  Corners are found at whole pixels, so one 40-point scene's
# after.avg_xy scatters from about 0.25 to 0.37 px and its recall from
# 0.9 to 1.  Each scene must stay within the product's own residual
# bound (tests/test_cli.py); the 0.3 px target is reported, not enforced.
# The 90% recall bound applies to all planted points of the run.
SCENE_RESIDUAL_MAX_PX = 0.5    # after.avg_xy of one scene
RESIDUAL_TARGET_PX = 0.3       # reported: scenes above it
SCENE_RECALL_MIN = 0.75        # planted points found as tracks, one scene
RUN_RECALL_MIN = 0.9           # planted points found as tracks, all scenes
PLANTED_MATCH_PX = 2.0         # distance of a track observation to a plant
BIAS_TOL_PX = 0.2              # adjust workloads, per bias component


def _rows(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.split() for line in fh
                if line.strip() and not line.lstrip().startswith("#")]


def read_biases(path: str) -> dict[str, tuple[float, float]]:
    """``image_id d_row d_col`` lines (biases.txt and truth_bias.txt)."""
    return {r[0]: (float(r[1]), float(r[2])) for r in _rows(path)}


def read_points(path: str) -> list[tuple[float, float, float]]:
    """truth_points.txt: ``point_id lat lon hei`` in point order."""
    return [(float(r[1]), float(r[2]), float(r[3])) for r in _rows(path)]


def read_tracks(path: str) -> dict[int, dict[str, tuple[float, float]]]:
    """tracks.txt: ``track_id image_id row col``."""
    out: dict[int, dict[str, tuple[float, float]]] = {}
    for r in _rows(path):
        out.setdefault(int(r[0]), {})[r[1]] = (float(r[2]), float(r[3]))
    return out


def bias_error(scene_dir: str, biases: dict[str, tuple[float, float]],
               absolute: bool) -> float:
    """Worst bias component against truth, in pixels.  Free networks are
    compared relative to the gauge image (the first image id)."""
    truth = read_biases(os.path.join(scene_dir, "truth_bias.txt"))
    gauge = min(truth)
    ref_t = (0.0, 0.0) if absolute else truth[gauge]
    ref_e = (0.0, 0.0) if absolute else biases[gauge]
    worst = 0.0
    for image_id, t in truth.items():
        e = biases[image_id]
        for k in (0, 1):
            worst = max(worst, abs((e[k] - ref_e[k]) - (t[k] - ref_t[k])))
    return worst


def check_adjust(scene_dir: str, out_dir: str, result: dict,
                 gcp: bool) -> tuple[list[str], float]:
    """Adjust workloads: converged, biases within BIAS_TOL_PX of truth
    (relative to the gauge in free networks, absolute with GCPs), and
    with GCPs the control grounds bit-identical before and after."""
    if result.get("exit") != 0:
        return [f"adjustment exited with {result.get('exit')}"], 0.0
    failures = []
    if not result.get("converged"):
        failures.append("adjustment did not converge")
    biases = read_biases(os.path.join(out_dir, "biases.txt"))
    err = bias_error(scene_dir, biases, absolute=gcp)
    if not err <= BIAS_TOL_PX:
        failures.append(f"bias error {err:.4f} px above {BIAS_TOL_PX} px")
    if gcp:
        surveyed = [[float(v) for v in r[1:]] for r in sorted(
            _rows(os.path.join(scene_dir, "gcps.txt")),
            key=lambda r: int(r[0]))]
        if result.get("gcp_grounds") != surveyed:
            failures.append("GCP grounds changed during the adjustment")
    return failures, err


def planted_positions(scene_dir: str, products_dir: str):
    """Where each planted point shows in each rectified product.

    The raw image records point j at its true projection minus the
    image's true bias; rectification maps that pixel through the raw
    model onto the common plane, and the product's geo transform places
    the ground point in the product grid.
    """
    from satadjust.rectify import load_product
    from satadjust.rpc import (BiasCorrection, GroundPoint, inverse_project,
                               load_rpc_file, project)

    truth = read_biases(os.path.join(scene_dir, "truth_bias.txt"))
    points = read_points(os.path.join(scene_dir, "truth_points.txt"))
    positions: dict[str, list[tuple[float, float]]] = {}
    for image_id, (d_row, d_col) in truth.items():
        raw = load_rpc_file(os.path.join(scene_dir, image_id + ".rpc"))
        product = load_product(os.path.join(products_dir, image_id))
        bias = BiasCorrection(d_row, d_col)
        row = []
        for lat, lon, hei in points:
            p = project(raw, bias, GroundPoint(lat, lon, hei))
            g = inverse_project(raw, BiasCorrection(), p,
                                product.plane_height)
            r, c = product.ground_to_pixel(g.lat, g.lon)
            row.append((float(r), float(c)))
        positions[image_id] = row
    return positions


def planted_recall(scene_dir: str, out_dir: str) -> float:
    """Share of planted points that some track observes, within
    PLANTED_MATCH_PX of the planted position, in at least two images."""
    positions = planted_positions(scene_dir,
                                  os.path.join(out_dir, "products"))
    n_points = len(next(iter(positions.values())))
    found = set()
    for obs in read_tracks(os.path.join(out_dir, "tracks.txt")).values():
        hits: dict[int, int] = {}
        for image_id, (r, c) in obs.items():
            for j, (pr, pc) in enumerate(positions.get(image_id, ())):
                if (r - pr) ** 2 + (c - pc) ** 2 <= PLANTED_MATCH_PX ** 2:
                    hits[j] = hits.get(j, 0) + 1
        found.update(j for j, n in hits.items() if n >= 2)
    return len(found) / n_points


def check_pipeline(scene_dir: str, out_dir: str,
                   result: dict) -> tuple[list[str], float, float]:
    """Pipeline, one scene: exit 0, converged, after.avg_xy within
    SCENE_RESIDUAL_MAX_PX and at least SCENE_RECALL_MIN of the planted
    points found as tracks.  Returns the failures, the recall and
    after.avg_xy; the recalls go on to :func:`check_pipeline_run`.
    """
    if result.get("exit") != 0:
        return [f"pipeline exited with {result.get('exit')}"], 0.0, 0.0
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    failures = []
    if not report.get("converged"):
        failures.append("adjustment did not converge")
    avg_xy = report["after"]["avg_xy"]
    if not avg_xy <= SCENE_RESIDUAL_MAX_PX:
        failures.append(f"after.avg_xy {avg_xy} px above "
                        f"{SCENE_RESIDUAL_MAX_PX}")
    recall = planted_recall(scene_dir, out_dir)
    if recall < SCENE_RECALL_MIN:
        failures.append(f"planted recall {recall:.2f} below "
                        f"{SCENE_RECALL_MIN}")
    return failures, recall, avg_xy


def check_pipeline_run(recalls: list[float]) -> list[str]:
    """Pipeline, whole run: at least RUN_RECALL_MIN of all planted points
    found (every scene holds equally many points)."""
    if not recalls:
        return ["no scene completed"]
    recall = sum(recalls) / len(recalls)
    if recall < RUN_RECALL_MIN:
        return [f"planted recall {recall:.3f} below {RUN_RECALL_MIN}"]
    return []
