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
    assert set(data["scenarios"]) == {"random-n10-m30k", "full-n50-m2k"}
    for record in data["scenarios"].values():
        assert set(record) == {
            "images", "points", "visibility", "tracks", "observations",
            "setup_s", "seconds", "linearize_us_per_1k_obs",
            "tracemalloc_peak_mb", "ru_maxrss_mb", "worst_bias_error_px",
            "iterations", "converged"}
        assert set(record["seconds"]) == {"assemble", "adjust_loop"}
        assert set(record["tracemalloc_peak_mb"]) == {"assemble",
                                                      "adjust_loop"}
        assert set(record["linearize_us_per_1k_obs"]) == {"residuals",
                                                          "blocks"}
