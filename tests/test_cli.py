"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satadjust.cli import PipelineConfig, load_config, main
from satadjust.errors import ConfigInvalid, ParseError
from satadjust.geodesy import meters_per_degree
from satadjust.raster import Raster
from satadjust.rectify import GroundBBox, Level2Product, save_product
from satadjust.rpc import BiasCorrection, GroundPoint, project
from satadjust.synth import PushbroomCamera, camera_rpc, gen_scene
from satadjust.tracks import Track, save_gcps, save_tracks

from conftest import scene_tracks

SYNTH_ARGS = [
    "--images", "2", "--points", "40", "--bias-range", "6",
    "--noise", "0", "--seed", "77", "--render", "--half-extent", "350",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("raw")
    assert main(["synth", "--out", str(d)] + SYNTH_ARGS) == 0
    return d


def stems(dataset):
    return [str(dataset / "img_000"), str(dataset / "img_001")]


@pytest.fixture(scope="module")
def pipeline_out(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    args = ["pipeline", *stems(dataset), "--out", str(out), "--threads", "1"]
    assert main(args) == 0
    return out


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["match", "--products"])
    assert exc.value.code == 1


def test_load_config_parses_and_validates(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("# comment\n\nfast_threshold = 35\nmax_iter = 7\n")
    assert load_config(cfg) == {"fast_threshold": 35.0, "max_iter": 7}
    cfg.write_text("no_such_knob = 1\n")
    with pytest.raises(ConfigInvalid):
        load_config(cfg)
    cfg.write_text("just a line\n")
    with pytest.raises(ParseError):
        load_config(cfg)
    cfg.write_text("max_iter = many\n")
    with pytest.raises(ConfigInvalid):
        load_config(cfg)


def test_pipeline_config_rejects_bad_values():
    with pytest.raises(ConfigInvalid):
        PipelineConfig(threads=0)
    with pytest.raises(ConfigInvalid):
        PipelineConfig(ratio_threshold=-1.0)
    with pytest.raises(ConfigInvalid):
        PipelineConfig(nodata=-1)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigInvalid):
            PipelineConfig(epipolar_buffer_px=value)


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------


def test_synth_writes_dataset(dataset):
    for name in ("img_000.pgm", "img_000.rpc", "img_001.pgm",
                 "img_001.rpc", "truth_bias.txt", "truth_points.txt"):
        assert (dataset / name).exists()


def test_pipeline_outputs(dataset, pipeline_out):
    for name in ("products/img_000.pgm", "products/img_000.meta",
                 "products/img_001.pgm", "products/img_001.meta",
                 "correspondences.txt", "tracks.txt", "biases.txt",
                 "report.txt", "report.json"):
        assert (pipeline_out / name).exists(), name
    payload = json.loads((pipeline_out / "report.json").read_text())
    assert payload["converged"] is True
    assert payload["after"]["avg_xy"] < payload["before"]["avg_xy"]
    assert payload["gauge_image"] == "img_000"
    assert set(payload["biases"]) == {"img_000", "img_001"}


def test_pipeline_reaches_subpixel_residuals(dataset, pipeline_out):
    # A two-image free network cannot pin biases against ground truth
    # (points may slide along the reference rays), so the meaningful
    # end-to-end claim is the residual level after compensation.
    payload = json.loads((pipeline_out / "report.json").read_text())
    assert payload["after"]["avg_xy"] < 0.5
    assert payload["iterations"] <= 50
    # the gauge image must stay untouched
    assert payload["biases"]["img_000"] == [0.0, 0.0]


def test_report_command(pipeline_out, capsys):
    args = ["report", "--tracks", str(pipeline_out / "tracks.txt"),
            "--products", str(pipeline_out / "products"),
            "--biases", str(pipeline_out / "biases.txt")]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Before" in out and "After" in out


@pytest.mark.parametrize("lines, named", [
    ("img_000 0.0 0.0\nimg_001 1.0 2.0\nimg_999 1.0 2.0\n", "img_999"),
    ("img_000 0.0 0.0\n", "img_001"),
])
def test_report_rejects_a_bias_file_off_the_products(pipeline_out, tmp_path,
                                                     capsys, lines, named):
    """A bias file naming an image that is not among the products, or
    lacking one that is, is a data error naming the file and image."""
    path = tmp_path / "biases.txt"
    path.write_text(lines)
    capsys.readouterr()
    assert main(["report", "--tracks", str(pipeline_out / "tracks.txt"),
                 "--products", str(pipeline_out / "products"),
                 "--biases", str(path)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert str(path) in err and named in err


def metadata_products(scene, directory):
    """Save each scene image as a product whose raster is a 4x4 stub:
    the adjustment reads only the RPCs."""
    directory.mkdir()
    for im in scene.images:
        rpc = im.rpc
        box = GroundBBox(rpc.lat_off - rpc.lat_scale,
                         rpc.lat_off + rpc.lat_scale,
                         rpc.lon_off - rpc.lon_scale,
                         rpc.lon_off + rpc.lon_scale)
        save_product(Level2Product(
            raster=Raster(np.full((4, 4), 60, dtype=np.uint8)), rpc=rpc,
            plane_height=rpc.hei_off, gsd=0.5,
            geo_transform=np.array([box.max_lat, 0.0, -1e-5,
                                    box.min_lon, 1e-5, 0.0]),
            footprint=box, image_id=im.image_id,
        ), str(directory / im.image_id))


def test_report_with_gcps_matches_adjust(tmp_path, capsys):
    scene = gen_scene(5, 60, 20.0, 0.25, seed=7)
    metadata_products(scene, tmp_path / "products")
    save_tracks(scene_tracks(scene), tmp_path / "tracks.txt")
    save_gcps({j: scene.true_points[j] for j in (0, 1, 2)},
              tmp_path / "gcps.txt")
    common = ["--tracks", str(tmp_path / "tracks.txt"),
              "--products", str(tmp_path / "products")]
    assert main(["adjust", *common, "--gcps", str(tmp_path / "gcps.txt"),
                 "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    capsys.readouterr()
    assert main(["report", *common, "--gcps", str(tmp_path / "gcps.txt"),
                 "--biases", str(tmp_path / "out" / "biases.txt")]) == 0
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]]
            for line in capsys.readouterr().out.splitlines()[1:]}
    columns = ("avg_x", "avg_y", "avg_xy", "max_x", "max_y", "max_xy")
    assert rows["Before"] == [payload["before"][c] for c in columns]
    assert rows["After"] == [payload["after"][c] for c in columns]


def test_resume_matches_single_run(dataset, pipeline_out, tmp_path, capsys):
    out = tmp_path / "resumed"
    assert main(["rectify", *stems(dataset), "--out",
                 str(out / "products"), "--threads", "1"]) == 0
    args = ["pipeline", *stems(dataset), "--out", str(out),
            "--threads", "1", "--resume"]
    assert main(args) == 0
    assert "resume: products exist" in capsys.readouterr().out
    for name in ("biases.txt", "report.json", "tracks.txt"):
        assert (out / name).read_bytes() == \
            (pipeline_out / name).read_bytes()


def test_repeat_run_is_bit_identical(dataset, pipeline_out, tmp_path):
    out = tmp_path / "again"
    args = ["pipeline", *stems(dataset), "--out", str(out), "--threads", "1"]
    assert main(args) == 0
    for name in ("products/img_000.pgm", "products/img_000.meta",
                 "correspondences.txt", "tracks.txt", "biases.txt",
                 "report.json"):
        assert (out / name).read_bytes() == \
            (pipeline_out / name).read_bytes()


def test_multithreaded_run_completes(dataset, tmp_path):
    out = tmp_path / "mt"
    args = ["pipeline", *stems(dataset), "--out", str(out), "--threads", "4"]
    assert main(args) == 0
    assert (out / "report.json").exists()


def test_config_file_and_flag_precedence(pipeline_out, tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("fast_threshold = 35\nmax_iter = 7\n")
    out = tmp_path / "cfg_run"
    base = ["match", "--products", str(pipeline_out / "products")]
    assert main(base + ["--out", str(out), "--config", str(cfg)]) == 0
    header = (out / "tracks.txt").read_text().splitlines()[0]
    assert "fast_threshold=35.0" in header and "max_iter=7" in header

    out2 = tmp_path / "flag_run"
    assert main(base + ["--out", str(out2), "--config", str(cfg),
                        "--fast-threshold", "12"]) == 0
    header = (out2 / "tracks.txt").read_text().splitlines()[0]
    assert "fast_threshold=12.0" in header


# ---------------------------------------------------------------------------
# Error exit codes
# ---------------------------------------------------------------------------


def test_exit_2_on_data_errors(dataset, pipeline_out, tmp_path):
    # missing input file
    assert main(["adjust", "--tracks", str(tmp_path / "nope.txt"),
                 "--products", str(pipeline_out / "products"),
                 "--out", str(tmp_path / "o1")]) == 2
    # no products in the directory
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["match", "--products", str(empty),
                 "--out", str(tmp_path / "o2")]) == 2
    # malformed product sidecar
    broken = tmp_path / "broken"
    shutil.copytree(pipeline_out / "products", broken)
    meta = broken / "img_000.meta"
    meta.write_text(meta.read_text().replace("GSD:", "GSD: oops #", 1))
    assert main(["match", "--products", str(broken),
                 "--out", str(tmp_path / "o3")]) == 2
    # bad config file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    assert main(["match", "--products", str(pipeline_out / "products"),
                 "--out", str(tmp_path / "o4"), "--config", str(cfg)]) == 2
    # a track observed in an image missing from --products
    ghost = tmp_path / "ghost_tracks.txt"
    ghost.write_text("0 img_000 10.0 20.0\n0 img_999 11.0 21.0\n")
    assert main(["adjust", "--tracks", str(ghost),
                 "--products", str(pipeline_out / "products"),
                 "--out", str(tmp_path / "o5")]) == 2
    # a scale that is not positive in a raw .rpc file
    raw = tmp_path / "raw"
    shutil.copytree(dataset, raw)
    rpc_file = raw / "img_000.rpc"
    rpc_file.write_text(re.sub(r"^LINE_SCALE: .*$", "LINE_SCALE: 0.0",
                               rpc_file.read_text(), flags=re.M))
    assert main(["rectify", *stems(raw), "--out", str(tmp_path / "o6")]) == 2
    # malformed numbers in a product sidecar; the third puts the minimum
    # latitude of the footprint above its maximum
    for k, line in enumerate(["SAMP_SCALE: -1.0", "NODATA: nan",
                              "FOOTPRINT_MIN_LAT: 90.0", "LAT_OFF: nan",
                              "NODATA: 300"]):
        bad = tmp_path / f"bad_meta_{k}"
        shutil.copytree(pipeline_out / "products", bad)
        meta = bad / "img_000.meta"
        key = line.split(":")[0]
        meta.write_text(re.sub(rf"^{key}: .*$", line, meta.read_text(),
                               flags=re.M))
        assert main(["match", "--products", str(bad),
                     "--out", str(tmp_path / f"o{7 + k}")]) == 2
    # synth ranges that are not finite, or an extent that is not positive
    for k, flags in enumerate([["--bias-range", "nan"], ["--noise", "inf"],
                               ["--half-extent", "0"]]):
        assert main(["synth", "--out", str(tmp_path / f"s{k}"),
                     *flags]) == 2
        assert not (tmp_path / f"s{k}").exists()


def test_malformed_pgm_exits_2_without_traceback(dataset, tmp_path, capsys):
    """Pixel data shorter than width x height, at 8 and 16 bits, and an
    empty raster are data errors."""
    for k, blob in enumerate([b"P5\n4 4\n255\n" + bytes(10),
                              b"P5\n4 4\n65535\n" + bytes(10),
                              b"P5\n0 4\n255\n" + bytes(16)]):
        raw = tmp_path / f"raw_{k}"
        shutil.copytree(dataset, raw)
        (raw / "img_000.pgm").write_bytes(blob)
        capsys.readouterr()
        assert main(["rectify", *stems(raw), "--out",
                     str(tmp_path / f"o{k}")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err


@pytest.mark.parametrize("source", ["flags", "config"])
def test_bad_census_knobs_exit_2_before_rectifying(dataset, tmp_path, capsys,
                                                   source):
    """A window that blocks do not divide, no blocks or a negative window
    are data errors found before any stage runs."""
    for k, (key, value) in enumerate([("window", "28"), ("blocks", "0"),
                                      ("window", "-27")]):
        with pytest.raises(ConfigInvalid):
            PipelineConfig(**{key: int(value)})
        if source == "flags":
            extra = [f"--{key}", value]
        else:
            cfg = tmp_path / f"bad_{k}.cfg"
            cfg.write_text(f"{key} = {value}\n")
            extra = ["--config", str(cfg)]
        out = tmp_path / f"o{k}"
        capsys.readouterr()
        assert main(["pipeline", *stems(dataset), "--out", str(out),
                     *extra]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err
        assert not (out / "products").exists()


@pytest.mark.parametrize("nodata", ["300", "-1"])
def test_out_of_range_nodata_exits_2_before_rectifying(dataset, tmp_path,
                                                       capsys, nodata):
    """A nodata value that 8-bit samples cannot hold used to be written as
    data-looking fill (300 as 44, -1 as 255); it is a data error found
    before any product is written."""
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["pipeline", *stems(dataset), "--out", str(out),
                 "--nodata", nodata]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    assert not (out / "products").exists()
    if nodata == "300":
        assert "img_000.pgm" in err and "[0, 255]" in err


def test_exit_3_on_rank_deficient_network(tmp_path):
    # Exactly parallel cameras: the constant-bias free network loses the
    # translation datum entirely, so the solver must report deficiency.
    m_lat, m_lon = meters_per_degree(30.0)
    lat_half, lon_half = 2000.0 / m_lat, 2000.0 / m_lon
    tangents = ((0.10, -0.20), (-0.15, 0.05), (0.20, 0.25))
    cams = [
        PushbroomCamera(lat0=30.0, lon0=50.0, h0=200.0, gsd=0.5,
                        row0=4000.0, col0=4000.0, azimuth=0.3,
                        tan_along=ta, tan_across=tc, altitude=1e13)
        for ta, tc in tangents
    ]
    products_dir = tmp_path / "products"
    products_dir.mkdir()
    box = GroundBBox(30.0 - lat_half, 30.0 + lat_half,
                     50.0 - lon_half, 50.0 + lon_half)
    rpcs = []
    for i, cam in enumerate(cams):
        rpc = camera_rpc(cam, lat_half, lon_half, 100.0, (8001, 8001))
        rpcs.append(rpc)
        product = Level2Product(
            raster=Raster(np.full((4, 4), 60, dtype=np.uint8)),
            rpc=rpc, plane_height=200.0, gsd=0.5,
            geo_transform=np.array([30.0, 0.0, -0.5 / m_lat,
                                    50.0, 0.5 / m_lon, 0.0]),
            footprint=box, image_id=f"aff_{i}",
        )
        save_product(product, str(products_dir / f"aff_{i}"))

    gen = np.random.default_rng(4)
    tracks = []
    for _ in range(15):
        g = GroundPoint(30.0 + gen.uniform(-0.8, 0.8) * lat_half,
                        50.0 + gen.uniform(-0.8, 0.8) * lon_half,
                        200.0 + gen.uniform(-80.0, 80.0))
        tracks.append(Track(observations={
            f"aff_{i}": project(rpc, BiasCorrection(), g)
            for i, rpc in enumerate(rpcs)
        }))
    track_path = tmp_path / "tracks.txt"
    save_tracks(tracks, track_path)

    assert main(["adjust", "--tracks", str(track_path),
                 "--products", str(products_dir),
                 "--out", str(tmp_path / "out")]) == 3


@pytest.fixture(scope="module")
def adjust_inputs(tmp_path_factory):
    """Stub products, a track file and a GCP file that adjust cleanly."""
    d = tmp_path_factory.mktemp("fuzz")
    scene = gen_scene(3, 12, 10.0, 0.1, seed=8)
    metadata_products(scene, d / "products")
    save_tracks(scene_tracks(scene), d / "tracks.txt")
    save_gcps({j: scene.true_points[j] for j in (0, 1, 2)}, d / "gcps.txt")
    return d


def _mutate(text: str, kind: str, data) -> str:
    """``text`` with one line or field changed as ``kind`` says."""
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    lines = text.splitlines(keepends=True)
    n = data.draw(st.sampled_from([n for n, line in enumerate(lines)
                                   if line.strip()
                                   and not line.startswith("#")]))
    if kind == "duplicate":
        return "".join(lines[:n + 1] + lines[n:])
    fields = lines[n].split()
    k = data.draw(st.integers(0, len(fields) - 1))
    fields[k] = kind
    return "".join(lines[:n]) + " ".join(fields) + "\n" + "".join(lines[n + 1:])


# finite values at the ends of the float64 range, which the parsers accept
EXTREMES = ["1e200", "-1e200", "1e-300"]


@settings(max_examples=80, deadline=None)
@given(which=st.sampled_from(["tracks.txt", "gcps.txt"]),
       kind=st.sampled_from(["", "nan", "inf", "1e400", *EXTREMES, "img_999",
                             "999999", "truncate", "duplicate"]),
       data=st.data())
def test_mutated_inputs_exit_0_2_or_3_without_traceback(adjust_inputs, which,
                                                        kind, data):
    """One field or line of a valid track or GCP file emptied, made
    non-finite or out of range, pointed at an unknown image or track,
    cut short or repeated: adjust succeeds or reports a data (2) or
    numerical (3) error, and never crashes."""
    work = adjust_inputs / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for name in ("tracks.txt", "gcps.txt"):
        text = (adjust_inputs / name).read_text()
        if name == which:
            text = _mutate(text, kind, data)
        (work / name).write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["adjust", "--tracks", str(work / "tracks.txt"),
                     "--products", str(adjust_inputs / "products"),
                     "--gcps", str(work / "gcps.txt"),
                     "--out", str(work / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extreme_sidecar_value_exits_0_2_or_3_without_traceback(
        pipeline_out, tmp_path_factory, data):
    """One ``KEY: value`` line of a product sidecar set to a huge or tiny
    finite value: match succeeds or reports a data (2) or numerical (3)
    error, and never crashes."""
    work = tmp_path_factory.mktemp("sidecar")
    products = work / "products"
    shutil.copytree(pipeline_out / "products", products)
    meta = products / data.draw(st.sampled_from(["img_000.meta",
                                                 "img_001.meta"]))
    lines = meta.read_text().splitlines()
    scalars = [n for n, line in enumerate(lines) if "_COEFF_" not in line]
    # half the draws go to the 23 scalar keys, not the 80 coefficients
    n = data.draw(st.one_of(st.sampled_from(scalars),
                            st.integers(0, len(lines) - 1)))
    key = lines[n].split(":")[0]
    lines[n] = f"{key}: {data.draw(st.sampled_from(EXTREMES))}"
    meta.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["match", "--products", str(products),
                     "--out", str(work / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
