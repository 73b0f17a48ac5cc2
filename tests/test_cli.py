"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satadjust import match as match_mod
from satadjust import raster as raster_mod
from satadjust import rectify as rectify_mod
from satadjust import cli
from satadjust.cli import PipelineConfig, cmd_rectify, load_config, main
from satadjust.errors import ConfigInvalid, ParseError
from satadjust.geodesy import meters_per_degree
from satadjust.raster import Raster
from satadjust.rectify import Level2Product, fit_rpc, save_product
from satadjust.rpc import BiasCorrection, GroundPoint, project
from satadjust.synth import PushbroomCamera, camera_fit_samples, gen_scene
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


def test_readme_configuration_table_matches_pipeline_config():
    """Each ``| key | default | meaning |`` row of README's Configuration
    table names a knob and states its default, and every knob has one."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("\n## Configuration\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, flags=re.M)
    names = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert sorted(key for key, _ in rows) == sorted(names)
    defaults = PipelineConfig()
    for key, value in rows:
        assert float(value) == getattr(defaults, key), key


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


def test_adjust_and_report_read_no_pixels(pipeline_out, tmp_path,
                                          monkeypatch):
    """adjust and report take each product's model from its sidecar and
    never read a raster: with every PGM reader failing, adjust still
    writes the pipeline's biases and report."""
    def no_pixels(*args, **kwargs):
        raise AssertionError("a raster was read")

    for module in (raster_mod, rectify_mod, cli):
        monkeypatch.setattr(module, "read_pgm", no_pixels)
    common = ["--tracks", str(pipeline_out / "tracks.txt"),
              "--products", str(pipeline_out / "products")]
    out = tmp_path / "adj"
    assert main(["adjust", *common, "--out", str(out)]) == 0
    for name in ("biases.txt", "report.json"):
        assert (out / name).read_bytes() == \
            (pipeline_out / name).read_bytes()
    assert main(["report", *common, "--biases",
                 str(out / "biases.txt")]) == 0


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
        save_product(Level2Product(
            raster=Raster(np.full((4, 4), 60, dtype=np.uint8)), rpc=rpc,
            plane_height=rpc.hei_off,
            geo_transform=np.array([rpc.lat_off + rpc.lat_scale, 0.0, -1e-5,
                                    rpc.lon_off - rpc.lon_scale, 1e-5, 0.0]),
            image_id=im.image_id,
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


def test_multithreaded_run_completes(dataset, pipeline_out, tmp_path):
    """Four workers write what one writes: every file under ``--out``,
    byte for byte."""
    out = tmp_path / "mt"
    args = ["pipeline", *stems(dataset), "--out", str(out), "--threads", "4"]
    assert main(args) == 0

    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    one, four = files(pipeline_out), files(out)
    assert len(one) == 5 + 2 * len(stems(dataset))
    assert four.keys() == one.keys()
    for name in one:
        assert four[name] == one[name], name


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
    meta.write_text(meta.read_text().replace("PLANE_HEIGHT:",
                                              "PLANE_HEIGHT: oops #", 1))
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
    # malformed numbers in a product sidecar
    for k, line in enumerate(["SAMP_SCALE: -1.0", "NODATA: nan",
                              "LAT_OFF: nan", "NODATA: 300"]):
        bad = tmp_path / f"bad_meta_{k}"
        shutil.copytree(pipeline_out / "products", bad)
        meta = bad / "img_000.meta"
        key = line.split(":")[0]
        meta.write_text(re.sub(rf"^{key}: .*$", line, meta.read_text(),
                               flags=re.M))
        assert main(["match", "--products", str(bad),
                     "--out", str(tmp_path / f"o{7 + k}")]) == 2
    # text that is not UTF-8 in a track file, a GCP file, a product
    # sidecar, a raw .rpc file and a config file
    products = str(pipeline_out / "products")
    not_utf8 = tmp_path / "not_utf8.txt"
    not_utf8.write_bytes(b"\xff\xfe0 img_000 10.0 20.0\n")
    assert main(["adjust", "--tracks", str(not_utf8), "--products",
                 products, "--out", str(tmp_path / "u1")]) == 2
    assert main(["adjust", "--tracks", str(pipeline_out / "tracks.txt"),
                 "--products", products, "--gcps", str(not_utf8),
                 "--out", str(tmp_path / "u2")]) == 2
    assert main(["match", "--products", products, "--out",
                 str(tmp_path / "u3"), "--config", str(not_utf8)]) == 2
    bad = tmp_path / "not_utf8_meta"
    shutil.copytree(pipeline_out / "products", bad)
    (bad / "img_000.meta").write_bytes(
        b"\xff\xfe" + (bad / "img_000.meta").read_bytes())
    assert main(["match", "--products", str(bad),
                 "--out", str(tmp_path / "u4")]) == 2
    raw = tmp_path / "not_utf8_raw"
    shutil.copytree(dataset, raw)
    (raw / "img_001.rpc").write_bytes(
        b"\xff\xfe" + (raw / "img_001.rpc").read_bytes())
    assert main(["rectify", *stems(raw), "--out", str(tmp_path / "u5")]) == 2
    # synth ranges that are not finite, an extent that is not positive or
    # far wider than a satellite scene, or a render too large to allocate
    # (about 180,000 px square)
    for k, flags in enumerate([["--bias-range", "nan"], ["--noise", "inf"],
                               ["--half-extent", "0"],
                               ["--half-extent", "1e200"],
                               ["--half-extent", "1e308"],
                               ["--render", "--half-extent", "45000"]]):
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
    rpcs = []
    for i, cam in enumerate(cams):
        rpc = fit_rpc(*camera_fit_samples(cam, lat_half, lon_half, 100.0))
        rpcs.append(rpc)
        product = Level2Product(
            raster=Raster(np.full((4, 4), 60, dtype=np.uint8)),
            rpc=rpc, plane_height=200.0,
            geo_transform=np.array([30.0, 0.0, -0.5 / m_lat,
                                    50.0, 0.5 / m_lon, 0.0]),
            image_id=f"aff_{i}",
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


def test_overflowing_model_exits_2_with_one_line(dataset, tmp_path, capsys):
    """A raw model whose height scale makes every projection overflow
    leaves no usable track: exit 2, and stderr holds the one data-error
    line, with no NumPy warning before it."""
    raw = tmp_path / "raw"
    shutil.copytree(dataset, raw)
    rpc_file = raw / "img_000.rpc"
    rpc_file.write_text(re.sub(r"^HEIGHT_SCALE: .*$", "HEIGHT_SCALE: 1e200",
                               rpc_file.read_text(), flags=re.M))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pipeline", *stems(raw), "--out", str(tmp_path / "o"),
                     "--threads", "1"])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("satadjust: data error:")


@pytest.mark.parametrize("command", ["adjust", "match"])
def test_denominator_pole_between_samples_exits_3_with_one_line(
        pipeline_out, tmp_path, capsys, command):
    """A product sidecar whose line denominator 1 + 5 L + ... vanishes
    at L = -0.2, between two samples of the validation grid: adjust and
    match report a numerical failure (3) on one line instead of working
    through the pole."""
    products = tmp_path / "products"
    shutil.copytree(pipeline_out / "products", products)
    meta = products / "img_000.meta"
    meta.write_text(re.sub(r"^LINE_DEN_COEFF_2: .*$", "LINE_DEN_COEFF_2: 5.0",
                           meta.read_text(), flags=re.M))
    capsys.readouterr()
    args = ["--products", str(products), "--out", str(tmp_path / "o")]
    if command == "adjust":
        args += ["--tracks", str(pipeline_out / "tracks.txt")]
    code = main([command, *args])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("satadjust: numerical failure:")
    assert not (tmp_path / "o" / "correspondences.txt").exists()


# every knob but threads, which would ask for worker threads
FUZZED_KEYS = [f.name for f in dataclasses.fields(PipelineConfig)
               if f.name != "threads"]


@settings(max_examples=60, deadline=None)
@given(line=st.one_of(
    st.tuples(st.sampled_from(FUZZED_KEYS),
              st.sampled_from(["nan", "inf", "-1", "0", "1e400", "abc",
                               ""])).map(" = ".join),
    st.just("warp_speed = 9"),
    st.sampled_from(FUZZED_KEYS).map("{} 5".format)))
def test_config_line_through_adjust_exits_0_or_2_without_traceback(
        adjust_inputs, line):
    """A config file of one line, a knob set to a malformed token, an
    unknown knob or a line without ``=``: adjust exits 2 with one
    data-error line, except for ``nodata = 0``, which is valid."""
    work = adjust_inputs / "cfg_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    (work / "run.cfg").write_text(line + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["adjust", "--tracks", str(adjust_inputs / "tracks.txt"),
                     "--products", str(adjust_inputs / "products"),
                     "--gcps", str(adjust_inputs / "gcps.txt"),
                     "--config", str(work / "run.cfg"),
                     "--out", str(work / "out")])
    assert code == (0 if line == "nodata = 0" else 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("satadjust: data error:")


# ---------------------------------------------------------------------------
# Raw inputs: memory and malformed files
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_raw(tmp_path_factory):
    """Four rendered 472 x 472 raw images; the tests rectify two or all."""
    d = tmp_path_factory.mktemp("small_raw")
    assert main(["synth", "--out", str(d), "--images", "4", "--points",
                 "20", "--bias-range", "6", "--noise", "0", "--seed", "77",
                 "--render", "--half-extent", "60"]) == 0
    return d


def test_rectify_holds_one_raw_raster_at_a_time(small_raw, tmp_path):
    """Four raw images peak no more than one raster above two: each is
    read when its rectification needs it."""
    stems = [str(small_raw / f"img_{i:03d}") for i in range(4)]
    raster_bytes = min(raster_mod.read_pgm(s + ".pgm").pixels.nbytes
                       for s in stems)
    peaks = []
    for n in (2, 4):
        tracemalloc.start()
        try:
            cmd_rectify(stems[:n], str(tmp_path / f"p{n}"), PipelineConfig())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < raster_bytes


def test_rectify_reads_each_raw_raster_once(small_raw, tmp_path,
                                           monkeypatch):
    """The sampling distance takes each raw image's size from its PGM
    header, so its pixels are read once, to rectify it."""
    reads = []
    real = raster_mod.read_pgm

    def counted(path, *args, **kwargs):
        reads.append(os.path.basename(path))
        return real(path, *args, **kwargs)

    for module in (raster_mod, rectify_mod, cli):
        monkeypatch.setattr(module, "read_pgm", counted)
    stems = [str(small_raw / f"img_{i:03d}") for i in range(4)]
    cmd_rectify(stems, str(tmp_path / "products"), PipelineConfig())
    assert sorted(reads) == [f"img_{i:03d}.pgm" for i in range(4)]


def test_match_describes_each_product_once(small_raw, tmp_path, monkeypatch,
                                           capsys):
    """An image is described once however many pairs it is in: three
    products in three pairs make three census_bits calls, one each."""
    products = str(tmp_path / "products")
    cmd_rectify([str(small_raw / f"img_{i:03d}") for i in range(3)],
                products, PipelineConfig())
    described = []
    real = match_mod.census_bits

    def counted(raster, *args, **kwargs):
        described.append(id(raster))
        return real(raster, *args, **kwargs)

    monkeypatch.setattr(match_mod, "census_bits", counted)
    capsys.readouterr()
    cli.cmd_match(products, str(tmp_path / "out"), PipelineConfig())
    assert "matched 3 pair(s)" in capsys.readouterr().out
    assert len(described) == 3 and len(set(described)) == 3


def _mutate_pgm(blob: bytes, data) -> bytes:
    """``blob``, a PGM written by ``write_pgm``, with one header token
    replaced, its body cut short or extended, or its magic changed."""
    kind = data.draw(st.sampled_from(["token", "truncate", "extend",
                                      "magic"]))
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if kind == "extend":
        return blob + bytes(data.draw(st.integers(1, 64)))
    if kind == "magic":
        return data.draw(st.sampled_from([b"P2", b"P6", b"p5", b"  "])) \
            + blob[2:]
    magic, size, maxval, body = blob.split(b"\n", 3)
    tokens = size.split() + [maxval]
    tokens[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(
        [b"0", b"-1", b"65536", b"1e9", b"x"]))
    return b"%s\n%s %s\n%s\n" % (magic, *tokens) + body


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_pgm_through_rectify_exits_0_or_2_with_one_line(
        small_raw, data):
    """A raw PGM with a header token set to 0, -1, 65536, 1e9 or x, its
    body cut short or extended, or another magic: rectify succeeds or
    exits 2 with one data-error line before products/ exists."""
    work = small_raw / "pgm_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for stem in ("img_000", "img_001"):
        for ext in (".pgm", ".rpc"):
            shutil.copy(small_raw / (stem + ext), work)
    victim = work / data.draw(st.sampled_from(["img_000.pgm",
                                               "img_001.pgm"]))
    victim.write_bytes(_mutate_pgm(victim.read_bytes(), data))
    code, err = _run_quietly(["rectify", str(work / "img_000"),
                              str(work / "img_001"),
                              "--out", str(work / "products")])
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("satadjust: data error:")
        assert not (work / "products").exists()


@pytest.fixture(scope="module")
def small_products(small_raw):
    """Products of two of the small raw images."""
    out = small_raw / "products"
    assert main(["rectify", str(small_raw / "img_000"),
                 str(small_raw / "img_001"), "--out", str(out)]) == 0
    return out


@settings(max_examples=40, deadline=None)
@given(line=st.one_of(
    st.tuples(st.sampled_from(FUZZED_KEYS),
              st.sampled_from(["nan", "inf", "-1", "0", "1e400", "abc",
                               ""])).map(" = ".join),
    st.just("warp_speed = 9"),
    st.sampled_from(FUZZED_KEYS).map("{} 5".format)))
def test_config_line_through_match_exits_0_or_2_without_traceback(
        small_products, line):
    """The config lines of the adjust test above, through match: exit 2
    with one data-error line, except for ``nodata = 0``, which is
    valid."""
    work = small_products.parent / "match_cfg_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    (work / "run.cfg").write_text(line + "\n")
    code, err = _run_quietly(["match", "--products", str(small_products),
                              "--config", str(work / "run.cfg"),
                              "--out", str(work / "out")])
    assert code == (0 if line == "nodata = 0" else 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("satadjust: data error:")
