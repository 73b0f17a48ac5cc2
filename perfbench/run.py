"""satadjust benchmark: time to solution, peak RSS, set-up time and
accuracy per workload, or per-layer numbers from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  Each run generates its workload's scenes from ``--seed``
(timing each scene's set-up), then runs the timed part in a fresh
process per sample, forked by one server per run, cycling through the
scenes until ``--seconds`` have passed, every scene has run and the
first scene has run twice.  Every sample is checked against the scene's
truth; repeated runs of one scene must write bit-identical outputs.
``wall_s`` and ``setup_s`` are scaled to the speed of an unloaded vCPU
with a probe timed throughout each measurement (hostspeed.py); the raw
times are printed beside them.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` each scene runs once
untraced and once traced per pass, and the JSON holds the per-layer
metrics, the tracing overhead among them.  Human-readable lines before
it give the machine, the input digest, the tail percentile of
``wall_s`` and the per-layer self-time split.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 150.0
ENV_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Sample:
    scene: int
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    probe_s: float = 0.0         # mean host-speed probe (hostspeed.py)
    rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    outputs: str = ""            # digest of the output directory
    accuracy: float = 0.0        # bias error (adjust) or recall (pipeline)
    residual_px: float = 0.0
    trace: dict | None = None
    spans: list[dict] = field(default_factory=list)

    @property
    def scaled_s(self) -> float:
        """``wall_s`` at the speed of an unloaded vCPU (hostspeed.py)."""
        from hostspeed import scaled

        return scaled(self.wall_s, self.probe_s)


def machine() -> dict:
    import numpy
    import scipy

    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "ram_gb": round(mem_kb / 2**20, 1),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k, "1") for k in ENV_THREADS},
        "program_threads": 1, "commit": commit,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    for key in ENV_THREADS:
        env.setdefault(key, "1")
    return env


class SampleServer:
    """``child.py --serve``: one process per run that imports the program
    once and forks a fresh process for every sample."""

    def __init__(self) -> None:
        self.proc: subprocess.Popen | None = None

    def run(self, argv: list[str], stderr_path: str,
            timeout: float) -> tuple[int | None, float]:
        """Run one sample; return its exit code (None if the server
        died) and its peak RSS in kB.  A sample still running after
        ``timeout`` seconds is killed."""
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), "--serve"],
                env=child_env(), cwd=ROOT, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
        try:
            self.proc.stdin.write(json.dumps({"argv": argv,
                                              "stderr": stderr_path}) + "\n")
            self.proc.stdin.flush()
            pid = json.loads(self.proc.stdout.readline())["pid"]
            timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
            timer.start()
            try:
                done = json.loads(self.proc.stdout.readline())
            finally:
                timer.cancel()
                timer.join()
        except (OSError, ValueError):
            self.close()
            return None, 0.0
        return done["exit"], done["maxrss_kb"]

    def close(self) -> None:
        """Stop the server and wait for it; it waits for its samples."""
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def run_sample(server: SampleServer, workload: str, scene_dir: str,
               work: str, index: int, sample: Sample) -> Sample:
    """Run the timed part once in a fresh process and check it."""
    from checks import check_adjust, check_pipeline
    from workloads import PIPELINE, WIDE_GCP, digest

    out_dir = os.path.join(work, f"out{index}")
    result_path = os.path.join(work, f"result{index}.json")
    trace_path = os.path.join(work, f"trace{index}.json")
    stderr_path = os.path.join(work, f"stderr{index}.txt")
    argv = [workload, scene_dir, out_dir, result_path]
    if sample.traced:
        argv += ["--trace", trace_path]
    code, maxrss_kb = server.run(argv, stderr_path, CHILD_TIMEOUT_S)
    sample.rss_mb = maxrss_kb / 1024.0
    if code is None:
        sample.failures.append("the sample server exited")
        return sample
    if not os.path.exists(result_path):
        with open(stderr_path) as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        sample.failures.append(f"exit {code}: {tail[0]}")
        return sample
    with open(result_path) as fh:
        result = json.load(fh)
    sample.wall_s = result["wall_s"]
    sample.cpu_s = result["cpu_s"]
    sample.probe_s = result["probe_s"]
    if workload == PIPELINE:
        sample.failures, sample.accuracy, sample.residual_px = \
            check_pipeline(scene_dir, out_dir, result)
    else:
        sample.failures, sample.accuracy = check_adjust(
            scene_dir, out_dir, result, gcp=workload == WIDE_GCP)
        sample.residual_px = result.get("avg_xy", 0.0)
    if code != 0 and not sample.failures:
        sample.failures.append(f"exit {code}")
    if os.path.isdir(out_dir):
        sample.outputs = digest(out_dir)
        shutil.rmtree(out_dir)
    if sample.traced:
        with open(trace_path) as fh:
            trace = json.load(fh)
        sample.trace = trace["summary"]
        sample.spans = trace["spans"]
    return sample


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def end_to_end(samples: list[Sample], setup_times: list[float],
               residual: float) -> dict:
    """``wall_s`` and ``setup_s`` are scaled to an unloaded vCPU."""
    walls = [s.scaled_s for s in samples if not s.failures] or [0.0]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(
            s.rss_mb for s in samples), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "residual_px": {"value": residual, "unit": "px"},
    }


def _sum_traces(traces: list[dict]) -> dict:
    functions: dict[str, dict] = {}
    layers: dict[str, float] = {}
    incl: dict[str, float] = {}
    alloc = 0.0
    for t in traces:
        for name, f in t["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "failed": 0,
                                              "incl_s": 0.0, "self_s": 0.0,
                                              "work": {}})
            for key in ("calls", "failed", "incl_s", "self_s"):
                acc[key] += f[key]
            for key, value in f["work"].items():
                acc["work"][key] = acc["work"].get(key, 0.0) + value
        for layer, value in t["layer_self_s"].items():
            layers[layer] = layers.get(layer, 0.0) + value
        for layer, value in t["layer_incl_s"].items():
            incl[layer] = incl.get(layer, 0.0) + value
        alloc = max(alloc, t["rectify_alloc_peak_mb"])
    return {"functions": functions, "layers": layers, "layers_incl": incl,
            "alloc_peak_mb": alloc}


def per_layer(samples: list[Sample], setup_trace: dict,
              setup_raw: list[float], bias_err: float, scenes: int) -> dict:
    """Per-layer metrics, averaged per traced run of the timed part."""
    from tracer import READERS, WRITERS

    traced = [s for s in samples if s.traced and s.trace]
    plain = [s for s in samples if not s.traced and not s.failures]
    n = max(len(traced), 1)
    agg = _sum_traces([s.trace for s in traced])
    fn = agg["functions"]

    def get(name, key="calls"):
        return fn.get(name, {}).get(key, 0.0)

    def work(name, key):
        return fn.get(name, {}).get("work", {}).get(key, 0.0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    def per_call(name, scale):
        return ratio(get(name, "incl_s"), get(name), scale)

    m: dict[str, tuple[float, str]] = {}
    for f in ("triangulate", "inverse_project", "project"):
        m[f"rpc.{f}.calls"] = (get(f"rpc.{f}") / n, "count")
        m[f"rpc.{f}.us_per_call"] = (per_call(f"rpc.{f}", 1e6), "us")
    m["rpc.triangulate.failed"] = (get("rpc.triangulate", "failed") / n,
                                   "count")
    m["rpc.triangulate.share_pct"] = (
        ratio(get("rpc.triangulate", "incl_s"),
              sum(s.wall_s for s in traced), 100.0), "%")
    points = work("rpc.project_arrays", "points")
    m["rpc.project_arrays.points"] = (points / n, "count")
    m["rpc.project_arrays.ns_per_point"] = (
        ratio(get("rpc.project_arrays", "incl_s"), points, 1e9), "ns")

    rect = "rectify.rectify_image"
    m[f"{rect}.s"] = (get(rect, "incl_s") / n, "s")
    m["rectify.s_per_mpx"] = (ratio(get(rect, "incl_s"), work(rect, "mpx")),
                              "s/Mpx")
    m["rectify.alloc_peak_mb"] = (agg["alloc_peak_mb"], "MB")
    m["rectify.fit_rpc.calls"] = (get("rectify.fit_rpc") / n, "count")
    m["rectify.fit_rpc.ms_per_call"] = (per_call("rectify.fit_rpc", 1e3),
                                        "ms")

    det, pair = "match.detect_corners", "match.match_pair"
    left = work(pair, "left_features")
    corrs = work(pair, "correspondences")
    m["match.detect_corners.s_per_mpx"] = (
        ratio(get(det, "incl_s"), work(det, "mpx")), "s/Mpx")
    m["match.features"] = (work(det, "features") / n, "count")
    m["match.match_pair.ms_per_feature"] = (
        ratio(get(pair, "incl_s"), left, 1e3), "ms")
    m["match.epipolar_curve.calls"] = (get("match.epipolar_curve") / n,
                                       "count")
    m["match.epipolar_curve.ms_per_call"] = (
        per_call("match.epipolar_curve", 1e3), "ms")
    m["match.mbcensus_descriptor.calls"] = (
        get("match.mbcensus_descriptor") / n, "count")
    m["match.match_score.calls"] = (get("match.match_score") / n, "count")
    m["match.correspondences"] = (corrs / n, "count")
    m["match.yield"] = (ratio(corrs, left), "corr/feature")

    bt = "tracks.build_tracks"
    m["tracks.build_tracks.s"] = (get(bt, "incl_s") / n, "s")
    m["tracks.count"] = (work(bt, "tracks") / n, "count")
    m["tracks.mean_degree"] = (ratio(work(bt, "observations"),
                                     work(bt, "tracks")), "obs/track")

    asm, upd = "adjust.assemble", "adjust.update_points"
    acc = "adjust.accumulate_reduced"
    m["adjust.assemble.ms_per_track"] = (
        ratio(get(asm, "incl_s"), work(asm, "tracks_in"), 1e3), "ms")
    m["adjust.tracks_dropped"] = (
        (work(asm, "tracks_in") - work(asm, "tracks_out")) / n, "count")
    m["adjust.update_points.calls"] = (get(upd) / n, "count")
    m["adjust.update_points.ms_per_track"] = (
        ratio(get(upd, "incl_s"), work(upd, "tracks"), 1e3), "ms")
    m["adjust.update_points.failed"] = (work(upd, "failed_tracks") / n,
                                        "count")
    m["adjust.accumulate_reduced.calls"] = (get(acc) / n, "count")
    m["adjust.accumulate_reduced.ms_per_track"] = (
        ratio(get(acc, "incl_s"), work(acc, "tracks"), 1e3), "ms")
    m["adjust.excluded_tracks"] = (work(acc, "excluded_tracks") / n, "count")
    m["adjust.solve_bias.ms"] = (per_call("adjust.solve_bias", 1e3), "ms")
    m["adjust.report.ms_per_call"] = (per_call("adjust.report", 1e3), "ms")
    m["adjust.iterations"] = (work("adjust.adjust_loop", "iterations") / n,
                              "count")
    m["adjust.bias_err_px"] = (bias_err, "px")

    gen = setup_trace.get("functions", {}).get("synth.gen_scene", {})
    m["synth.gen_scene.s"] = (gen.get("incl_s", 0.0) / scenes, "s")

    readers = {f"{a}.{b}" for a, b in READERS}
    writers = {f"{a}.{b}" for a, b in WRITERS}
    m["io.read_s"] = (sum(get(f, "self_s") for f in readers) / n, "s")
    m["io.write_s"] = (sum(get(f, "self_s") for f in writers) / n, "s")
    m["io.bytes_written"] = (sum(work(f, "bytes") for f in writers) / n, "B")

    traced_scaled = sum(s.scaled_s for s in traced)
    plain_scaled = sum(s.scaled_s for s in plain)
    m["trace.overhead_pct"] = (
        ratio(traced_scaled * len(plain), plain_scaled * len(traced), 100.0)
        - 100.0 if plain and traced else 0.0, "%")
    m["host.wall_raw_s"] = (statistics.median(
        s.wall_s for s in plain) if plain else 0.0, "s")
    m["host.setup_raw_s"] = (statistics.median(setup_raw), "s")
    m["host.probe_us"] = (statistics.median(
        [s.probe_s * 1e6 for s in samples if s.probe_s] or [0.0]), "us")
    traced_wall = sum(s.wall_s for s in traced)
    layered = 0.0
    for layer in ("rpc", "raster", "rectify", "match", "tracks", "adjust",
                  "io"):
        self_s = agg["layers"].get(layer, 0.0)
        layered += self_s
        m[f"{layer}.self_s"] = (self_s / n, "s")
        m[f"{layer}.share_pct"] = (ratio(self_s, traced_wall, 100.0), "%")
        m[f"{layer}.incl_share_pct"] = (
            ratio(agg["layers_incl"].get(layer, 0.0), traced_wall, 100.0),
            "%")
    m["other.self_s"] = ((traced_wall - layered) / n, "s")
    m["other.share_pct"] = (ratio(traced_wall - layered, traced_wall, 100.0),
                            "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run(args: argparse.Namespace, work: str) -> dict:
    from checks import RESIDUAL_TARGET_PX, check_pipeline_run
    from hostspeed import SpeedSampler, scaled
    from tracer import Tracer
    from workloads import PIPELINE, WORKLOADS, digest, make_scene

    size = WORKLOADS[args.workload][args.scale]
    print("machine: " + json.dumps(machine(), sort_keys=True))

    # Set-up: every scene is one complete set-up, timed on its own and
    # scaled to an unloaded vCPU like the samples.
    scene_dirs, setup_times, setup_raw = [], [], []
    setup_tracer = Tracer() if args.trace else None
    with setup_tracer or nullcontext():
        for k in range(size.scenes):
            d = os.path.join(work, "inputs", f"scene{k}")
            with SpeedSampler() as sampler:
                start = time.perf_counter()
                make_scene(args.workload, args.seed, k, size, d)
                elapsed = time.perf_counter() - start
            setup_times.append(scaled(elapsed, sampler.mean_probe_s))
            setup_raw.append(elapsed)
            scene_dirs.append(d)
    regen = os.path.join(work, "inputs", "regenerated")
    make_scene(args.workload, args.seed, 0, size, regen)
    regenerated_ok = digest(regen) == digest(scene_dirs[0])
    shutil.rmtree(regen)
    inputs = digest(os.path.join(work, "inputs"))
    print(f"inputs: {args.workload} seed {args.seed}, {size.scenes} "
          f"scene(s), sha256 {inputs}")

    # Timed part.
    failures: list[str] = []
    samples: list[Sample] = []
    runs = os.path.join(work, "runs")
    os.makedirs(runs)
    server = SampleServer()
    try:
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            scene = k % size.scenes
            order = [False]
            if args.trace:
                first = (k // size.scenes + scene) % 2 == 0
                order = [False, True] if first else [True, False]
            for traced in order:
                s = run_sample(server, args.workload, scene_dirs[scene],
                               runs, len(samples), Sample(scene, traced))
                samples.append(s)
                for msg in s.failures:
                    failures.append(f"scene {scene}: {msg}")
            k += 1
            done = k >= size.scenes + (0 if args.trace else 1)
            if args.trace:
                done = done and k % size.scenes == 0
            if done and time.perf_counter() >= deadline:
                break
    finally:
        server.close()

    # Outputs must not depend on the run: compare repeats of a scene.
    first_outputs: dict[int, str] = {}
    for s in samples:
        if s.failures:
            continue
        ref = first_outputs.setdefault(s.scene, s.outputs)
        if s.outputs != ref:
            s.failures.append("outputs differ from the scene's first run")
            failures.append(f"scene {s.scene}: outputs not bit-identical")

    good = [s for s in samples if not s.failures]
    first: dict[int, Sample] = {}
    for s in good:
        first.setdefault(s.scene, s)
    accuracy = [s.accuracy for s in first.values()]
    mean_accuracy = statistics.fmean(accuracy) if accuracy else 0.0
    bias_err = 0.0 if args.workload == PIPELINE else mean_accuracy

    # Checks of the run as a whole, each one more attempt.
    run_failures = {"set-up": [] if regenerated_ok else [
        "the same seed generated different inputs"]}
    if args.workload == PIPELINE:
        run_failures["scenes"] = check_pipeline_run(accuracy)
    for name, msgs in run_failures.items():
        failures += [f"{name}: {msg}" for msg in msgs]
    failed = (sum(1 for s in samples if s.failures)
              + sum(1 for msgs in run_failures.values() if msgs))
    attempted = len(samples) + len(run_failures)

    plain = [s for s in good if not s.traced]
    if plain:
        walls = [s.scaled_s for s in plain]
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                     "no percentile has ten samples above it")
        raw = statistics.median(s.wall_s for s in plain)
        print(f"wall_s: median {statistics.median(walls):.4f} s scaled to "
              f"an unloaded vCPU, {tail_text}, {len(walls)} samples; "
              f"{raw:.4f} s as measured")
    print(f"setup_s: median {statistics.median(setup_times):.4f} s scaled, "
          f"{statistics.median(setup_raw):.4f} s as measured, "
          f"{len(setup_times)} scenes")
    print("samples (scene[t if traced]: wall_s/cpu_s/mean probe us): "
          + ", ".join(f"{s.scene}{'t' if s.traced else ''}: {s.wall_s:.3f}/"
                      f"{s.cpu_s:.3f}/{s.probe_s * 1e6:.0f}"
                      for s in samples))
    if args.workload == PIPELINE:
        above = sum(s.residual_px > RESIDUAL_TARGET_PX for s in first.values())
        print(f"planted recall: {mean_accuracy:.3f} (mean over scenes); "
              f"after.avg_xy above {RESIDUAL_TARGET_PX} px on {above} of "
              f"{len(first)} scenes")
    else:
        print(f"bias_err_px: {bias_err:.4f} px (worst component, mean over "
              f"scenes)")
    print(f"fail_ratio: {failed}/{attempted}")
    for msg in failures:
        print(f"failed: {msg}", file=sys.stderr)

    if args.trace:
        spans_path = os.path.join(ROOT, ".perfbench",
                                  f"spans-{args.workload}-{args.seed}.jsonl")
        with open(spans_path, "w") as fh:
            for i, s in enumerate(samples):
                if s.traced:
                    fh.write(json.dumps({"sample": i, "scene": s.scene,
                                         "spans": s.spans}) + "\n")
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
        metrics = per_layer(samples, setup_tracer.summary(), setup_raw,
                            bias_err, size.scenes)
        metrics["fail_ratio"] = {"value": failed / attempted, "unit": "1"}
        for kind in ("share_pct", "incl_share_pct"):
            split = ", ".join(
                f"{k.split('.')[0]} {v['value']:.1f}%"
                for k, v in metrics.items()
                if k.endswith("." + kind) and k.count(".") == 1)
            print(f"{'self' if kind == 'share_pct' else 'inclusive'} "
                  f"time share: {split}")
    else:
        metrics = end_to_end(samples, setup_times, statistics.median(
            s.residual_px for s in first.values()) if first else 0.0)
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a small problem for the benchmark's "
                             "own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    # On SIGTERM, unwind as on Ctrl-C: stop the sample server and remove
    # the work directory.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "satadjust", "__init__.py")):
        print(f"perfbench: no satadjust sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
