"""The shared text reader and the loaders built on it, and PGM rasters:
writer -> reader round trips, and rejection of malformed and non-finite
numbers."""

from __future__ import annotations

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from satadjust import textfile
from satadjust.adjust import load_biases, save_biases
from satadjust.errors import ParseError
from satadjust.match import load_correspondences, save_correspondences
from satadjust.raster import Raster, read_pgm, write_pgm
from satadjust.rectify import Level2Product, load_product, save_product
from satadjust.rpc import (
    BiasCorrection,
    GroundPoint,
    ImagePoint,
    RpcModel,
    format_rpc_text,
    load_rpc_file,
    parse_rpc_text,
)
from satadjust.synth import save_scene
from satadjust.tracks import (
    Track,
    load_gcps,
    load_tracks,
    save_gcps,
    save_tracks,
)

EXAMPLES = settings(max_examples=40, deadline=None)
# Without shrinking, for the tests that draw RPC models: a failing
# example fails within seconds, while shrinking its 90 floats ran for
# over 8 CPU-minutes.
RPC_EXAMPLES = settings(EXAMPLES, phases=[phase for phase in Phase
                                          if phase != Phase.shrink])


def _or_numpy(numbers: st.SearchStrategy, scalar) -> st.SearchStrategy:
    """``numbers`` as Python numbers and as NumPy ``scalar``s, which the
    writers must not write as their repr (``np.float64(1.5)``)."""
    return numbers | numbers.map(scalar)


finite = _or_numpy(st.floats(allow_nan=False, allow_infinity=False),
                   np.float64)
moderate = _or_numpy(st.floats(-1e9, 1e9, allow_nan=False), np.float64)
positive = _or_numpy(st.floats(1e-9, 1e9), np.float64)
ids = _or_numpy(st.integers(-10**12, 10**12), np.int64)
names = st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True)
BAD_NUMBERS = ["nan", "NaN", "inf", "-inf", "+Infinity", "x", "1.0.0", "0x10"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory for the examples' files, each overwritten by the next
    example (hypothesis does not reset function-scoped fixtures)."""
    return tmp_path_factory.mktemp("textfile")


def _replace_field(text: str, line_no: int, field: int, token: str) -> str:
    lines = text.splitlines()
    tokens = lines[line_no - 1].split()
    tokens[field] = token
    lines[line_no - 1] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _data_lines(text: str) -> list[int]:
    return [n for n, line in enumerate(text.splitlines(), 1)
            if line.strip() and not line.lstrip().startswith("#")]


def _assert_rejected(load, path: str, text: str, line_no: int) -> None:
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ParseError, match=f"{re.escape(path)}:{line_no}: "):
        load(path)


# ---------------------------------------------------------------------------
# The reader
# ---------------------------------------------------------------------------


def test_records_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header\n\n  # indented comment\n7 a 1.5 -2e3\n"
                    "\t\n8 b 3 4 \n")
    assert list(textfile.records(path, "isff")) == [
        (4, 7, "a", 1.5, -2000.0), (6, 8, "b", 3.0, 4.0)]


def test_records_name_the_line_of_the_first_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1 a 1.0 2.0\n1 b 1.0\n")
    with pytest.raises(ParseError, match=r"t\.txt:2: expected 4 fields, "
                                         r"got 3"):
        list(textfile.records(path, "isff"))
    # a bad number before a short line is the first error
    path.write_text("1 a 1.0 nan\n1 b 1.0\n")
    with pytest.raises(ParseError, match=r"t\.txt:1: a field is not a "
                                         r"finite number: '1 a 1.0 nan'"):
        list(textfile.records(path, "isff"))
    path.write_text("1 a 1.0 2.0\n1.5 b 1.0 2.0\n")
    with pytest.raises(ParseError, match=r"t\.txt:2: a field "):
        list(textfile.records(path, "isff"))


def test_records_count_lines_across_blocks(tmp_path):
    path = tmp_path / "t.txt"
    n = 3 * textfile.BLOCK_CHARS // 20
    lines = [f"{k} img_{k % 7} {k}.25 {-k}.5" for k in range(n)]
    lines.insert(n // 2, "# a comment in the middle")
    path.write_text("\n".join(lines) + "\n")
    got = list(textfile.records(path, "isff"))
    assert len(got) == n
    for line_no, k, image, row, col in got:
        assert lines[line_no - 1].split() == [str(k), image, f"{k}.25",
                                              f"{-k}.5"]
    bad = len(lines) - 3
    lines[bad] = lines[bad].replace(".25", ".25e999")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=rf":{bad + 1}: a field "):
        list(textfile.records(path, "isff"))


def test_keys_take_the_first_token_and_skip_comments():
    text = ("# sidecar\n\nLINE_OFF: 10872.0 pixels\n  GSD : 0.5 m\n"
            "# NOTE: not a key\nOTHER_KEY: -3e2\n")
    assert textfile.keys(text, "x.meta") == {
        "LINE_OFF": 10872.0, "GSD": 0.5, "OTHER_KEY": -300.0}


@pytest.mark.parametrize("text, message", [
    ("A: 1\nB 2\n", r"x\.meta:2: expected 'KEY: value'"),
    ("A: 1\nB:\n", r"x\.meta:2: expected 'KEY: value'"),
    ("A: 1\nB: nan\n", r"x\.meta:2: key B is not a finite number"),
    ("A: 1\nB: -inf m\n", r"x\.meta:2: key B is not a finite number"),
    ("A: 1\nA: 1\n", r"x\.meta:2: key A given twice"),
])
def test_keys_reject_malformed_lines(text, message):
    with pytest.raises(ParseError, match=message):
        textfile.keys(text, "x.meta")


# ---------------------------------------------------------------------------
# Whitespace tables: round trips and rejected fields
# ---------------------------------------------------------------------------

track_files = st.dictionaries(
    ids,
    st.dictionaries(names, st.builds(ImagePoint, finite, finite),
                    min_size=2, max_size=4),
    min_size=1, max_size=6)


@EXAMPLES
@given(track_files)
def test_tracks_round_trip_keeping_ids(scratch, per_track):
    tracks = [Track(observations=obs, id=tid)
              for tid, obs in per_track.items()]
    path = str(scratch / "tracks.txt")
    save_tracks(tracks, path, header="round trip")
    loaded = load_tracks(path)
    assert [(t.id, t.observations) for t in loaded] == sorted(
        (t.id, t.observations) for t in tracks)


@EXAMPLES
@given(st.dictionaries(ids, st.builds(GroundPoint, finite, finite, finite),
                       max_size=6))
def test_gcps_round_trip(scratch, gcps):
    path = str(scratch / "gcps.txt")
    save_gcps(gcps, path)
    assert load_gcps(path) == gcps


@EXAMPLES
@given(st.dictionaries(names, st.builds(BiasCorrection, finite, finite),
                       max_size=6))
def test_biases_round_trip(scratch, biases):
    graph = SimpleNamespace(
        images=[(image_id, None) for image_id in biases],
        bias=np.array([(b.d_row, b.d_col) for b in biases.values()]))
    path = str(scratch / "biases.txt")
    save_biases(graph, path, header="round trip")
    assert load_biases(path) == biases


# match arrays: (n, 5) rows of four positions and an integer score
match_arrays = st.integers(0, 4).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, (n, 4),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.int64, n, elements=st.integers(0, 10**6)),
).map(np.column_stack))
correspondences = st.dictionaries(st.tuples(names, names), match_arrays,
                                  max_size=4)


@EXAMPLES
@given(correspondences)
def test_correspondences_round_trip(scratch, per_pair):
    pairs = [(a, b, matches) for (a, b), matches in per_pair.items()]
    path = str(scratch / "corr.txt")
    save_correspondences(pairs, path)
    back = load_correspondences(path)
    # a pair without matches writes no line
    kept = [pair for pair in pairs if len(pair[2])]
    assert [(a, b) for a, b, _ in back] == [(a, b) for a, b, _ in kept]
    for (_, _, got), (_, _, want) in zip(back, kept):
        np.testing.assert_array_equal(got, want)


# (writer, loader, numeric field positions) of each whitespace table
TABLES = {
    "tracks": (lambda p: save_tracks([
        Track({"a": ImagePoint(1.0, 2.0), "b": ImagePoint(3.0, 4.0)}, id=4),
        Track({"a": ImagePoint(5.0, 6.0), "c": ImagePoint(7.0, 8.0)}, id=9),
    ], p), load_tracks, (0, 2, 3)),
    "gcps": (lambda p: save_gcps({1: GroundPoint(25.5, 48.25, 410.0),
                                  2: GroundPoint(25.6, 48.5, 395.5)}, p),
             load_gcps, (0, 1, 2, 3)),
    "biases": (lambda p: save_biases(SimpleNamespace(
        images=[("a", None), ("b", None)],
        bias=np.array([(1.25, -0.5), (0.0, 2.0)])), p), load_biases, (1, 2)),
    "correspondences": (lambda p: save_correspondences([
        ("a", "b", np.array([[1.0, 2.0, 3.0, 4.0, 5]])),
        ("a", "c", np.array([[6.0, 7.0, 8.0, 9.0, 0]])),
    ], p), load_correspondences, (1, 2, 3, 4, 5)),
}


@EXAMPLES
@given(st.sampled_from(sorted(TABLES)), st.data(),
       st.sampled_from(BAD_NUMBERS))
def test_tables_reject_any_bad_numeric_field(scratch, name, data, token):
    write, load, fields = TABLES[name]
    path = str(scratch / f"{name}.txt")
    write(path)
    with open(path) as fh:
        text = fh.read()
    line_no = data.draw(st.sampled_from(_data_lines(text)))
    field = data.draw(st.sampled_from(fields))
    _assert_rejected(load, path, _replace_field(text, line_no, field, token),
                     line_no)


# ---------------------------------------------------------------------------
# KEY: value files: round trips and rejected values
# ---------------------------------------------------------------------------


def _den(rest: list[float]) -> np.ndarray:
    return np.array([1.0, *rest])


rpc_models = st.builds(
    RpcModel,
    line_off=moderate, line_scale=positive, samp_off=moderate,
    samp_scale=positive, lat_off=moderate, lat_scale=positive,
    lon_off=moderate, lon_scale=positive, hei_off=moderate,
    hei_scale=positive,
    line_num=st.lists(moderate, min_size=20, max_size=20).map(np.array),
    line_den=st.lists(moderate, min_size=19, max_size=19).map(_den),
    samp_num=st.lists(moderate, min_size=20, max_size=20).map(np.array),
    samp_den=st.lists(moderate, min_size=19, max_size=19).map(_den),
)


def _assert_same_rpc(a: RpcModel, b: RpcModel) -> None:
    for name in ("line_off", "line_scale", "samp_off", "samp_scale",
                 "lat_off", "lat_scale", "lon_off", "lon_scale", "hei_off",
                 "hei_scale"):
        assert getattr(a, name) == getattr(b, name)
    for name in ("line_num", "line_den", "samp_num", "samp_den"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@RPC_EXAMPLES
@given(rpc_models)
def test_rpc_text_round_trip(rpc):
    _assert_same_rpc(parse_rpc_text(format_rpc_text(rpc)), rpc)


@RPC_EXAMPLES
@given(st.lists(names, min_size=1, max_size=3, unique=True), st.data())
def test_scene_truth_tables_read_back(scratch, image_ids, data):
    images = [SimpleNamespace(
        image_id=image_id, raster=None, rpc=data.draw(rpc_models),
        true_bias=data.draw(st.builds(BiasCorrection, finite, finite)))
        for image_id in image_ids]
    points = data.draw(st.lists(st.builds(GroundPoint, finite, finite,
                                          finite), max_size=6))
    directory = scratch / "scene"
    save_scene(SimpleNamespace(images=images, true_points=points),
               directory)
    assert [record[1:] for record in textfile.records(
        directory / "truth_bias.txt", "sff")] == [
        (im.image_id, im.true_bias.d_row, im.true_bias.d_col)
        for im in images]
    assert [record[1:] for record in textfile.records(
        directory / "truth_points.txt", "ifff")] == [
        (j, g.lat, g.lon, g.hei) for j, g in enumerate(points)]
    for im in images:
        with open(directory / f"{im.image_id}.rpc") as fh:
            _assert_same_rpc(parse_rpc_text(fh.read()), im.rpc)


def _product(rpc: RpcModel, plane: float, nodata: int,
             geo: list[float]) -> Level2Product:
    return Level2Product(
        raster=Raster(np.full((2, 3), 7, dtype=np.uint8), nodata=nodata),
        rpc=rpc, plane_height=plane, geo_transform=np.array(geo),
    )


products = st.builds(
    _product, rpc_models, moderate,
    _or_numpy(st.integers(0, 255), np.int64),
    st.lists(moderate, min_size=6, max_size=6))


@RPC_EXAMPLES
@given(products)
def test_product_sidecar_round_trip(scratch, product):
    stem = str(scratch / "p0")
    save_product(product, stem)
    back = load_product(stem)
    _assert_same_rpc(back.rpc, product.rpc)
    assert back.plane_height == product.plane_height
    assert back.raster.nodata == product.raster.nodata
    assert back.footprint == product.footprint
    np.testing.assert_array_equal(back.geo_transform, product.geo_transform)
    np.testing.assert_array_equal(back.raster.pixels, product.raster.pixels)


def _pgm_pixels(dtype) -> st.SearchStrategy:
    top = np.iinfo(dtype).max
    return hnp.arrays(dtype, st.tuples(st.integers(1, 40), st.integers(1, 40)),
                      elements=st.integers(0, top)).map(
        lambda a: _with_extremes(a, top))


def _with_extremes(pixels: np.ndarray, top: int) -> np.ndarray:
    pixels = pixels.copy()
    pixels.flat[-1] = top
    pixels.flat[0] = 0
    return pixels


@EXAMPLES
@given(st.sampled_from([np.uint8, np.uint16]).flatmap(_pgm_pixels))
def test_pgm_round_trip(scratch, pixels):
    path = scratch / "r.pgm"
    write_pgm(Raster(pixels), path)
    back = read_pgm(path)
    assert back.pixels.dtype == pixels.dtype
    assert np.array_equal(back.pixels, pixels)
    # comment lines in the header read the same
    height, width = pixels.shape
    maxval = np.iinfo(pixels.dtype).max
    header = f"P5\n{width} {height}\n{maxval}\n".encode()
    blob = path.read_bytes()
    assert blob.startswith(header)
    path.write_bytes(f"P5\n# a comment\n{width} {height}\n#another\n"
                     f"{maxval}\n".encode() + blob[len(header):])
    back = read_pgm(path)
    assert back.pixels.dtype == pixels.dtype
    assert np.array_equal(back.pixels, pixels)


def test_pgm_read_holds_one_copy(tmp_path):
    """Reading fills the returned array from the file: the traced peak is
    the pixels plus a small constant, not a file buffer and a copy."""
    pixels = np.arange(2000 * 2000, dtype=np.uint32).reshape(2000, 2000)
    pixels = (pixels % 251).astype(np.uint8)
    path = tmp_path / "big.pgm"
    write_pgm(Raster(pixels), path)
    del pixels
    tracemalloc.start()
    try:
        back = read_pgm(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.pixels[1999, 1999] == (2000 * 2000 - 1) % 251
    assert peak < 1.2 * back.pixels.nbytes


@RPC_EXAMPLES
@given(products, st.data(), st.sampled_from(BAD_NUMBERS))
def test_key_files_reject_any_bad_value(scratch, product, data, token):
    stem = str(scratch / "p0")
    save_product(product, stem)
    with open(stem + ".meta") as fh:
        meta = fh.read()
    line_no = data.draw(st.sampled_from(_data_lines(meta)))
    text = _replace_field(meta, line_no, 1, token)
    _assert_rejected(lambda p: load_product(p[:-5]), stem + ".meta", text,
                     line_no)
    rpc_text = format_rpc_text(product.rpc)
    line_no = data.draw(st.sampled_from(_data_lines(rpc_text)))
    _assert_rejected(load_rpc_file, str(scratch / "p0.rpc"),
                     _replace_field(rpc_text, line_no, 1, token), line_no)


def test_rpc_text_keeps_its_key_checks():
    text = format_rpc_text(RpcModel(
        line_off=0.0, line_scale=100.0, samp_off=0.0, samp_scale=50.0,
        lat_off=10.0, lat_scale=0.1, lon_off=20.0, lon_scale=0.1,
        hei_off=0.0, hei_scale=100.0, line_num=np.ones(20),
        line_den=np.ones(20), samp_num=np.ones(20), samp_den=np.ones(20)))
    assert parse_rpc_text(text + "UNKNOWN_KEY: 5 units\n").line_off == 0.0
    for extra, message in [("LINE_NUM_COEFF_21: 1.0", "out of range"),
                           ("SAMP_DEN_COEFF_0: 1.0", "out of range"),
                           ("UNKNOWN_KEY: junk", "UNKNOWN_KEY")]:
        with pytest.raises(ParseError, match=message):
            parse_rpc_text(text + extra + "\n")
    with pytest.raises(ParseError, match="HEIGHT_SCALE must be positive"):
        parse_rpc_text(text.replace("HEIGHT_SCALE: 100.0",
                                    "HEIGHT_SCALE: 0.0"))
    with pytest.raises(ParseError, match="missing key SAMP_NUM_COEFF_7"):
        parse_rpc_text(text.replace("SAMP_NUM_COEFF_7: 1.0\n", ""))
