"""Scale harness: the adjustment's time and memory at sizes the benchmark
does not reach.

Each scenario is a synthetic scene (``synth.gen_scene``, bias range
30 px, noise 0.25 px) whose tracks are written with ``save_tracks``,
then adjusted as a free network through ``load_tracks`` ->
``assemble`` -> ``adjust_loop``, in a fresh process.  Per scenario it
records:

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
    if args.scenario:
        # the child process: one scenario, its record on stdout
        print(json.dumps(run_scenario(*scenarios[args.scenario])))
        return 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    records = {}
    for name in scenarios:
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
