"""One timed run of the program, in a process of its own.

    python3 perfbench/child.py WORKLOAD SCENE_DIR OUT_DIR RESULT_JSON
        [--trace TRACE_JSON]
    python3 perfbench/child.py --serve

The program is imported before the clock starts, so ``wall_s`` is the
timed part alone.  ``--serve`` imports it once and then forks a fresh
process for every request read from standard input (one JSON line:
``{"argv": [...], "stderr": PATH}``).  For each request it answers with
two JSON lines, ``{"pid": ...}`` once the process runs and
``{"exit": ..., "maxrss_kb": ...}`` once it has ended, so a run pays the
interpreter's start-up and imports once rather than per sample.

The pipeline workload runs ``satadjust pipeline ... --threads 1``; the
adjust workloads run the library path
load -> assemble -> adjust_loop -> report -> save_biases.  RESULT_JSON
receives the exit code, ``wall_s``, the mean host-speed probe time
during it (``hostspeed.py``) and what the checks need; with
``--trace`` the tracer wraps the program and TRACE_JSON receives its
aggregates and spans (and, for the pipeline, a separate tracemalloc
measurement of one ``rectify_image`` call).
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import sys
import time
import traceback
import tracemalloc

import satadjust.cli
from satadjust import adjust, rpc, tracks
from satadjust.errors import DataError, NumericalError

from hostspeed import SpeedSampler
from tracer import Tracer
from workloads import PIPELINE


def run_pipeline(scene_dir: str, out_dir: str) -> dict:
    stems = sorted(p[:-4] for p in glob.glob(os.path.join(scene_dir,
                                                          "img_*.pgm")))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = satadjust.cli.main(["pipeline", *stems, "--out", out_dir,
                                   "--threads", "1"])
    return {"exit": code}


def run_adjust(scene_dir: str, out_dir: str) -> dict:
    images = [(os.path.basename(p)[:-4], rpc.load_rpc_file(p))
              for p in sorted(glob.glob(os.path.join(scene_dir, "img_*.rpc")))]
    track_list = tracks.load_tracks(os.path.join(scene_dir, "tracks.txt"))
    gcp_path = os.path.join(scene_dir, "gcps.txt")
    gcps = tracks.load_gcps(gcp_path) if os.path.exists(gcp_path) else None
    graph = adjust.assemble(images, track_list, gcps)
    result = adjust.adjust_loop(graph)
    after = adjust.report(graph)
    os.makedirs(out_dir, exist_ok=True)
    adjust.save_biases(graph, os.path.join(out_dir, "biases.txt"))
    return {
        "exit": 0,
        "converged": result.converged,
        "iterations": result.iterations,
        "avg_xy": after.avg_xy,
        "gcp_grounds": [[t.ground.lat, t.ground.lon, t.ground.hei]
                        for t in graph.tracks if t.is_gcp],
    }


def rectify_alloc_peak_mb(scene_dir: str) -> float:
    """tracemalloc peak inside ``rectify_image`` for the scene's first
    image, on the pipeline's plane and GSD.  Measured apart from the
    timed runs: tracemalloc slows the Python code in the call fivefold."""
    from satadjust import raster, rectify

    stems = sorted(p[:-4] for p in glob.glob(os.path.join(scene_dir,
                                                          "img_*.pgm")))
    images = [(raster.read_pgm(s + ".pgm"), rpc.load_rpc_file(s + ".rpc"))
              for s in stems]
    plane = rectify.common_plane_height([m for _, m in images])
    gsd = rectify.common_gsd(images, plane)
    tracemalloc.start()
    try:
        rectify.rectify_image(images[0][0], images[0][1], plane, gsd)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("scene_dir")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    body = run_pipeline if args.workload == PIPELINE else run_adjust

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            result = body(args.scene_dir, args.out_dir)
        except DataError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            result = {"exit": 2}
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            result = {"exit": 3}
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start
    result["probe_s"] = sampler.mean_probe_s
    if tracer:
        tracer.uninstall()
        summary = tracer.summary()
        summary["rectify_alloc_peak_mb"] = (
            rectify_alloc_peak_mb(args.scene_dir)
            if args.workload == PIPELINE and result["exit"] == 0 else 0.0)
        with open(args.trace, "w") as fh:
            json.dump({"summary": summary,
                       "spans": tracer.span_records()}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return result["exit"]


def forked(argv: list[str], stderr_path: str) -> None:
    """Body of one forked sample process; never returns."""
    code = 1
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(null, 1)
        os.dup2(err, 2)
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", closefd=False)
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:   # the process ends in ``finally`` either way
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def serve() -> int:
    """Fork one sample process per request line; report its pid, then its
    exit code and peak RSS.  Ends when standard input closes.  The server
    starts no threads (BLAS runs on one), so forking it is safe."""
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            forked(request["argv"], request["stderr"])
        print(json.dumps({"pid": pid}), flush=True)
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps({"exit": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve() if sys.argv[1:] == ["--serve"] else main())
