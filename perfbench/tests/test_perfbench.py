"""Tests of the benchmark itself: tiny runs of every workload, the
checks against perturbed outputs, the tracer and the refusal to run
without sources.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (PIPELINE, RANDOM, WIDE_GCP, WORKLOADS,  # noqa: E402
                       digest, make_scene)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result, stdout = bench(workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "machine: " in stdout and "sha256" in stdout


@pytest.mark.parametrize("workload", [PIPELINE, WIDE_GCP])
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    result, stdout = bench(workload, trace=1)
    assert_metrics(result, SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == PIPELINE:
        assert m["rectify.rectify_image.s"] > 0 and m["match.features"] > 0
        assert m["rectify.alloc_peak_mb"] > 0
    else:
        assert m["rectify.rectify_image.s"] == 0 and m["match.features"] == 0
        assert m["adjust.bias_err_px"] > 0
    assert m["rpc.triangulate.calls"] > 0
    assert "self time share" in stdout


def test_same_seed_same_inputs(tmp_path):
    size = WORKLOADS[RANDOM]["tiny"]
    make_scene(RANDOM, 5, 0, size, str(tmp_path / "a"))
    make_scene(RANDOM, 5, 0, size, str(tmp_path / "b"))
    make_scene(RANDOM, 5, 1, size, str(tmp_path / "c"))
    assert digest(str(tmp_path / "a")) == digest(str(tmp_path / "b"))
    assert digest(str(tmp_path / "a")) != digest(str(tmp_path / "c"))


def run_child(workload, scene, out, tmp_path) -> dict:
    result_path = tmp_path / "result.json"
    subprocess.run([sys.executable, os.path.join(BENCH, "child.py"),
                    workload, str(scene), str(out), str(result_path)],
                   env=run.child_env(), check=True, timeout=300)
    return json.loads(result_path.read_text())


def shift_bias(path, image_id: str, d_row: float) -> None:
    lines = []
    for line in path.read_text().splitlines():
        fields = line.split()
        if fields and fields[0] == image_id:
            line = f"{image_id} {float(fields[1]) + d_row!r} {fields[2]}"
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", [RANDOM, WIDE_GCP])
def test_shifted_bias_counts_as_failed(workload, tmp_path):
    scene, out = tmp_path / "scene", tmp_path / "out"
    make_scene(workload, 4, 0, WORKLOADS[workload]["tiny"], str(scene))
    result = run_child(workload, scene, out, tmp_path)
    gcp = workload == WIDE_GCP
    failures, err = checks.check_adjust(str(scene), str(out), result, gcp)
    assert failures == [] and 0 < err <= checks.BIAS_TOL_PX

    shift_bias(out / "biases.txt", "img_001", 1.0)
    failures, _ = checks.check_adjust(str(scene), str(out), result, gcp)
    assert any("bias error" in f for f in failures)

    if gcp:
        moved = json.loads(json.dumps(result))
        moved["gcp_grounds"][0][2] += 1e-9
        failures, _ = checks.check_adjust(str(scene), str(out), moved, gcp)
        assert any("GCP" in f for f in failures)
    failures, _ = checks.check_adjust(str(scene), str(out),
                                      dict(result, converged=False), gcp)
    assert "adjustment did not converge" in failures


def test_perturbed_pipeline_outputs_count_as_failed(tmp_path):
    scene, out = tmp_path / "scene", tmp_path / "out"
    make_scene(PIPELINE, 4, 0, WORKLOADS[PIPELINE]["tiny"], str(scene))
    result = run_child(PIPELINE, scene, out, tmp_path)
    failures, recall, _ = checks.check_pipeline(str(scene), str(out),
                                                result)
    assert failures == [] and recall >= checks.SCENE_RECALL_MIN
    assert checks.check_pipeline_run([recall]) == []

    report = json.loads((out / "report.json").read_text())
    report["after"]["avg_xy"] = checks.SCENE_RESIDUAL_MAX_PX + 0.01
    (out / "report.json").write_text(json.dumps(report))
    failures, _, _ = checks.check_pipeline(str(scene), str(out), result)
    assert any("avg_xy" in f for f in failures)

    # Tracks moved 3 px off the planted corners no longer find them.
    tracks = out / "tracks.txt"
    rows = [line.split() for line in tracks.read_text().splitlines()
            if not line.startswith("#")]
    tracks.write_text("".join(f"{t} {i} {float(r) + 3.0!r} {c}\n"
                              for t, i, r, c in rows))
    failures, recall, _ = checks.check_pipeline(str(scene), str(out), result)
    assert recall == 0.0 and any("recall" in f for f in failures)

    failures, _, _ = checks.check_pipeline(str(scene), str(out), {"exit": 3})
    assert failures == ["pipeline exited with 3"]


def test_pipeline_recall_bound_applies_to_the_whole_run():
    assert checks.check_pipeline_run([1.0, 0.85]) == []
    assert checks.check_pipeline_run([0.9, 0.85]) != []
    assert checks.check_pipeline_run([]) != []


def test_tracer_counts_and_restores(tmp_path):
    import satadjust.adjust
    import satadjust.rpc
    import satadjust.tracks
    from satadjust import synth

    original = satadjust.rpc.triangulate
    scene = synth.gen_scene(3, 5, 2.0, 0.1, seed=9)
    with Tracer() as tracer:
        assert satadjust.rpc.triangulate is not original
        graph = satadjust.adjust.assemble(
            [(im.image_id, im.rpc) for im in scene.images],
            [satadjust.tracks.Track(observations={
                scene.images[i].image_id: p for i, p in obs.items()})
             for obs in scene.true_observations])
    assert satadjust.rpc.triangulate is original
    assert len(graph.tracks) == 5
    summary = tracer.summary()
    tri = summary["functions"]["rpc.triangulate"]
    asm = summary["functions"]["adjust.assemble"]
    assert tri["calls"] == 5 and asm["calls"] == 1
    assert asm["work"] == {"tracks_in": 5, "tracks_out": 5}
    # assemble's self time excludes the rpc work it caused
    assert asm["self_s"] < asm["incl_s"]
    assert summary["layer_incl_s"]["adjust"] == pytest.approx(asm["incl_s"])
    names = [s["name"] for s in tracer.span_records()]
    assert names[0] == "adjust.assemble" and "rpc.triangulate" in names
    assert all(s["parent"] == 0 for s in tracer.span_records()[1:])


def test_sample_server_survives_failed_and_killed_samples(tmp_path):
    scene = tmp_path / "scene"
    make_scene(RANDOM, 4, 0, WORKLOADS[RANDOM]["tiny"], str(scene))
    err = str(tmp_path / "stderr.txt")
    server = run.SampleServer()
    try:
        argv = [RANDOM, str(scene), str(tmp_path / "out"),
                str(tmp_path / "result.json")]
        # A missing scene fails inside the sample process, not the server.
        code, _ = server.run([RANDOM, str(tmp_path / "missing"),
                              str(tmp_path / "o"), str(tmp_path / "r.json")],
                             err, timeout=60)
        assert code != 0 and not (tmp_path / "r.json").exists()
        # A sample past its timeout is killed; the server answers anyway.
        code, _ = server.run(argv, err, timeout=0.001)
        assert code == -9
        code, rss_kb = server.run(argv, err, timeout=60)
        assert code == 0 and rss_kb > 0
        assert json.loads((tmp_path / "result.json").read_text())["exit"] == 0
        pid = server.proc.pid
    finally:
        server.close()
    assert server.proc is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_speed_sampler_probes_on_one_cpu_and_restores_affinity():
    affinity = os.sched_getaffinity(0)
    with hostspeed.SpeedSampler() as sampler:
        assert os.sched_getaffinity(0) == {hostspeed.current_cpu()}
        time.sleep(3 * hostspeed.INTERVAL_S)
    assert os.sched_getaffinity(0) == affinity
    # one probe at the start, at least two on the interval, one at the end
    assert len(sampler.probes) >= 4 and min(sampler.probes) > 0
    slow = 2 * hostspeed.PROBE_REFERENCE_S
    assert hostspeed.scaled(3.0, slow) == pytest.approx(1.5)


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile([float(v) for v in range(100)])
    assert pct == 90 and sum(v > value for v in range(100)) >= 10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", RANDOM, "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
