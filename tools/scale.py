"""Scale harness: the adjustment's and the matching's time and memory at
sizes the benchmark does not reach.  Each scenario runs in a fresh
process.

An adjustment scenario is a synthetic scene (``synth.gen_scene``, bias
range 30 px, noise 0.25 px) whose tracks are written with
``save_tracks``, then adjusted as a free network through
``load_tracks`` -> ``assemble`` -> ``adjust_loop``.  It records:

* ``seconds``: the best of three runs of each step;
* ``bytes_per_observation``: the traced memory held after
  ``load_tracks`` and, with its table still alive, after ``assemble``,
  per observation;
* ``linearize_us_per_1k_obs``: one pass of ``rpc.linearize_tracks``
  over every batch of chunks, as the adjustment's passes call it,
  residuals only and with the point blocks, in microseconds per 1,000
  observations (best of three);
* ``linearize_calls_per_pass``: the ``rpc.linearize_tracks`` calls that
  one ``adjust.report`` pass makes, counted;
* ``tracemalloc_peak_mb``: each step's traced peak above its start, in
  a run of its own (tracing slows the Python code, so the timed runs
  are untraced), and the process's ``ru_maxrss_mb``;
* ``worst_bias_error_px``: the largest bias error against the truth,
  relative to image 0 (the gauge), and ``iterations``.

A match scenario is a rendered two-image pair (``satadjust synth
--render``, seed 7, then ``satadjust rectify``) with a given number of
planted points.  It records:

* ``seconds``: the best of three runs of the match stage
  (``cli.cmd_match``: detection, description, matching, tracks and
  files), of ``detect_corners`` on both products and of ``match_pair``
  on their described features;
* ``features``: the described features of each product, and
  ``match_stage_ms_per_feature``, the match stage over their mean;
* ``tracemalloc_peak_mb``: the traced peak of the match stage and of
  ``match_pair``, above their start, and the process's
  ``ru_maxrss_mb``;
* ``correspondences`` and the product size ``raster_px``.

One ``BENCH_scale_<commit>.json`` is written per run::

    python tools/scale.py                  # full sizes, at the repository root
    python tools/scale.py --toy --out DIR  # toy sizes, for a smoke test

The program is imported from the ``src`` directory of the checkout the
script sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (images, points, visibility)
SCENARIOS = {
    "random-n10-m30k": (10, 30_000, "random"),
    "full-n50-m2k": (50, 2_000, "full"),
}
TOY_SCENARIOS = {
    "random-n10-m30k": (4, 60, "random"),
    "full-n50-m2k": (5, 20, "full"),
}
# name: (planted points, half extent in m) of a rendered pair; 800 m
# renders 3,440^2 images
MATCH_SCENARIOS = {
    "match-800": (800, 800.0),
    "match-1600": (1_600, 800.0),
    "match-3200": (3_200, 800.0),
}
TOY_MATCH_SCENARIOS = {
    "match-800": (10, 100.0),
    "match-1600": (20, 100.0),
    "match-3200": (40, 100.0),
}
MATCH_SEED = 7
BIAS_RANGE_PX = 30.0
NOISE_PX = 0.25
SEED = 1
REPEATS = 3


def _best(run, prepare=None) -> float:
    """Best of ``REPEATS`` timed calls of ``run``, each after an untimed
    ``prepare``."""
    times = []
    for _ in range(REPEATS):
        if prepare is not None:
            prepare()
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def _traced_peak_mb(run) -> float:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


def run_scenario(images: int, points: int, visibility: str) -> dict:
    """Measure one scenario in this process."""
    import numpy as np

    from satadjust import adjust, rpc, synth
    from satadjust.tracks import Track, load_tracks, save_tracks

    t0 = time.perf_counter()
    scene = synth.gen_scene(images, points, BIAS_RANGE_PX, NOISE_PX, SEED,
                            visibility=visibility)
    setup_s = time.perf_counter() - t0
    models = [(im.image_id, im.rpc) for im in scene.images]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tracks.txt")
        save_tracks([Track(observations={scene.images[i].image_id: p
                                         for i, p in per_image.items()})
                     for per_image in scene.true_observations], path)
        seconds = {"load_tracks": _best(lambda: load_tracks(path))}
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = load_tracks(path)
            loaded = tracemalloc.get_traced_memory()[0] - start
            graph = adjust.assemble(models, table)
            assembled = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
    observations = int(graph.track_start[-1])
    held = {"load_tracks": loaded / observations,
            "assemble": assembled / observations}

    seconds["assemble"] = _best(lambda: adjust.assemble(models, table))
    grounds = graph.ground.copy()

    def reset():
        graph.bias[:] = 0.0
        graph.ground[:] = grounds

    seconds["adjust_loop"] = _best(lambda: adjust.adjust_loop(graph), reset)
    peaks = {"assemble": _traced_peak_mb(
        lambda: adjust.assemble(models, table))}
    reset()
    peaks["adjust_loop"] = _traced_peak_mb(lambda: adjust.adjust_loop(graph))
    reset()
    result = adjust.adjust_loop(graph)

    linearize = {}
    for name, cond_max in (("residuals", None),
                           ("blocks", adjust.POINT_BLOCK_COND_MAX)):
        best = _best(lambda: [
            adjust._linearize(graph, batch[0][0], batch[-1][1], cond_max)
            for batch in graph.batches()])
        linearize[name] = best * 1e9 / observations
    calls = [0]
    linearize_tracks = rpc.linearize_tracks

    def counted(*args, **kwargs):
        calls[0] += 1
        return linearize_tracks(*args, **kwargs)

    rpc.linearize_tracks = counted
    try:
        adjust.report(graph)
    finally:
        rpc.linearize_tracks = linearize_tracks

    truth = np.array([(im.true_bias.d_row, im.true_bias.d_col)
                      for im in scene.images])
    error = np.abs(graph.bias - (truth - truth[0])).max()
    return {
        "images": images,
        "points": points,
        "visibility": visibility,
        "tracks": len(graph.tracks),
        "observations": observations,
        "setup_s": setup_s,
        "seconds": seconds,
        "bytes_per_observation": held,
        "linearize_us_per_1k_obs": linearize,
        "linearize_calls_per_pass": calls[0],
        "tracemalloc_peak_mb": peaks,
        "ru_maxrss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "worst_bias_error_px": float(error),
        "iterations": result.iterations,
        "converged": result.converged,
    }


def run_match_scenario(points: int, half_extent_m: float) -> dict:
    """Measure one match scenario in this process."""
    import contextlib
    import io

    from satadjust import cli, match, rectify

    def quiet(fn, *args):
        with contextlib.redirect_stdout(io.StringIO()):
            return fn(*args)

    with tempfile.TemporaryDirectory() as tmp:
        raw, products, out = (os.path.join(tmp, d)
                              for d in ("raw", "products", "out"))
        t0 = time.perf_counter()
        for argv in (["synth", "--out", raw, "--images", "2", "--points",
                      str(points), "--seed", str(MATCH_SEED), "--render",
                      "--half-extent", repr(half_extent_m)],
                     ["rectify", os.path.join(raw, "img_000"),
                      os.path.join(raw, "img_001"), "--out", products]):
            if quiet(cli.main, argv) != 0:
                raise RuntimeError(f"satadjust {argv[0]} failed")
        setup_s = time.perf_counter() - t0

        config = cli.PipelineConfig()
        params = config.match_params()

        def stage():
            quiet(cli.cmd_match, products, out, config)

        left, right = (rectify.load_product(stem)
                       for stem in cli._product_stems(products))

        def detect():
            return [match.detect_corners(p.raster, params.fast_threshold,
                                         params.nms_radius)
                    for p in (left, right)]

        (lf, lb), (rf, rb) = (
            match.describe_features(p.raster, f, params.window,
                                    params.blocks)
            for p, f in zip((left, right), detect()))

        def pair():
            return match.match_pair(left, right, params, left_features=lf,
                                    left_bits=lb, right_features=rf,
                                    right_bits=rb)

        seconds = {"match_stage": _best(stage), "detect_corners":
                   _best(detect), "match_pair": _best(pair)}
        peaks = {"match_stage": _traced_peak_mb(stage),
                 "match_pair": _traced_peak_mb(pair)}
        correspondences = len(pair())
    return {
        "points": points,
        "half_extent_m": half_extent_m,
        "raster_px": list(left.raster.pixels.shape),
        "features": [len(lf), len(rf)],
        "correspondences": correspondences,
        "setup_s": setup_s,
        "seconds": seconds,
        "match_stage_ms_per_feature":
            seconds["match_stage"] * 1e3 / ((len(lf) + len(rf)) / 2),
        "tracemalloc_peak_mb": peaks,
        "ru_maxrss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, seconds in all")
    parser.add_argument("--out", default=str(ROOT),
                        help="directory of the JSON file (default: the "
                             "repository root)")
    parser.add_argument("--scenario", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    scenarios = TOY_SCENARIOS if args.toy else SCENARIOS
    matches = TOY_MATCH_SCENARIOS if args.toy else MATCH_SCENARIOS
    if args.scenario:
        # the child process: one scenario, its record on stdout
        record = (run_match_scenario(*matches[args.scenario])
                  if args.scenario in matches
                  else run_scenario(*scenarios[args.scenario]))
        print(json.dumps(record))
        return 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    records = {}
    for name in [*scenarios, *matches]:
        child = subprocess.run(
            [sys.executable, __file__, "--scenario", name,
             *(["--toy"] if args.toy else [])],
            env=env, capture_output=True, text=True, check=True)
        records[name] = json.loads(child.stdout.splitlines()[-1])
        print(f"{name}: {json.dumps(records[name])}", flush=True)
    commit = _commit()
    path = Path(args.out) / f"BENCH_scale_{commit}.json"
    path.write_text(json.dumps({
        "commit": commit,
        "toy": args.toy,
        "machine": {"python": platform.python_version(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "scenarios": records,
    }, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
