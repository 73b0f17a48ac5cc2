"""Smoke test of the scale harness, ``tools/scale.py``, at toy size."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "scale.py"


def test_scale_harness_writes_one_record_per_scenario(tmp_path):
    """One JSON file per run, one record per scenario, every measured
    quantity present.  Timings are not checked."""
    subprocess.run([sys.executable, str(SCRIPT), "--toy", "--out",
                    str(tmp_path)], check=True, capture_output=True,
                   timeout=600)
    (path,) = tmp_path.glob("BENCH_scale_*.json")
    data = json.loads(path.read_text())
    assert set(data) == {"commit", "toy", "machine", "scenarios"}
    assert data["toy"] is True
    assert path.name == f"BENCH_scale_{data['commit']}.json"
    assert set(data["scenarios"]) == {"random-n10-m30k", "full-n50-m2k",
                                      "match-800", "match-1600",
                                      "match-3200"}
    for name in ("match-800", "match-1600", "match-3200"):
        record = data["scenarios"].pop(name)
        assert set(record) == {
            "points", "half_extent_m", "raster_px", "features",
            "correspondences", "setup_s", "seconds",
            "match_stage_ms_per_feature", "tracemalloc_peak_mb",
            "ru_maxrss_mb"}
        assert set(record["seconds"]) == {"match_stage", "detect_corners",
                                          "match_pair"}
        assert set(record["tracemalloc_peak_mb"]) == {"match_stage",
                                                      "match_pair"}
        assert min(record["features"]) > 0
        assert record["correspondences"] > 0
    for record in data["scenarios"].values():
        assert set(record) == {
            "images", "points", "visibility", "tracks", "observations",
            "setup_s", "seconds", "bytes_per_observation",
            "linearize_us_per_1k_obs", "linearize_calls_per_pass",
            "tracemalloc_peak_mb", "ru_maxrss_mb", "worst_bias_error_px",
            "iterations", "converged"}
        assert set(record["seconds"]) == {"load_tracks", "assemble",
                                          "adjust_loop"}
        assert set(record["bytes_per_observation"]) == {"load_tracks",
                                                        "assemble"}
        assert set(record["tracemalloc_peak_mb"]) == {"assemble",
                                                      "adjust_loop"}
        assert set(record["linearize_us_per_1k_obs"]) == {"residuals",
                                                          "blocks"}
        # toy scenes fill one chunk, so one batch
        assert record["linearize_calls_per_pass"] == 1
