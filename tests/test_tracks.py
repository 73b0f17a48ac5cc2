"""Unit tests for track building and track/GCP files."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from satadjust.adjust import assemble
from satadjust.errors import ConfigInvalid, ParseError
from satadjust.rpc import GroundPoint, ImagePoint
from satadjust.synth import gen_scene
from satadjust.tracks import (
    Track,
    TrackTable,
    apply_gcps,
    build_tracks,
    load_gcps,
    load_tracks,
    save_gcps,
    save_tracks,
    track_stats,
)


def corr(left_image, lr, lc, right_image, rr, rc):
    """One pair holding one match, as build_tracks takes it."""
    return left_image, right_image, np.array([[lr, lc, rr, rc, 10.0]])


def test_chain_of_correspondences_becomes_one_track():
    corrs = [corr("a", 1, 2, "b", 3, 4), corr("b", 3, 4, "c", 5, 6)]
    tracks = build_tracks(corrs)
    assert len(tracks) == 1
    assert tracks[0].degree == 3
    assert tracks[0].observations == {
        "a": ImagePoint(1.0, 2.0),
        "b": ImagePoint(3.0, 4.0),
        "c": ImagePoint(5.0, 6.0),
    }


def test_disjoint_components_stay_separate():
    corrs = [corr("a", 1, 1, "b", 2, 2), corr("a", 9, 9, "b", 8, 8)]
    tracks = build_tracks(corrs)
    assert len(tracks) == 2
    assert all(t.degree == 2 for t in tracks)


def test_contradictory_component_is_dropped():
    # two different features of image a claim the same feature of b
    corrs = [
        corr("a", 1, 1, "b", 2, 2),
        corr("a", 7, 7, "b", 2, 2),
        corr("a", 20, 20, "c", 21, 21),
    ]
    tracks = build_tracks(corrs)
    assert len(tracks) == 1
    assert set(tracks[0].observations) == {"a", "c"}


def test_build_tracks_is_input_order_independent():
    corrs = [
        corr("a", 1, 2, "b", 3, 4),
        corr("b", 3, 4, "c", 5, 6),
        corr("a", 9, 9, "c", 7, 7),
        corr("b", 50, 50, "c", 60, 60),
    ]
    reference = build_tracks(corrs)
    assert build_tracks(corrs[::-1]) == reference
    assert build_tracks([corrs[2], corrs[0], corrs[3], corrs[1]]) == reference


def test_a_pair_array_builds_what_its_rows_build():
    rows = [(1, 2, 3, 4), (9, 9, 8, 8), (5, 5, 3, 4), (20, 21, 22, 23)]
    matches = np.array([(*row, 10.0) for row in rows])
    one_per_row = [corr("a", lr, lc, "b", rr, rc) for lr, lc, rr, rc in rows]
    tracks = build_tracks([("a", "b", matches), ("a", "c", np.empty((0, 5)))])
    assert tracks == build_tracks(one_per_row)
    # (1, 2) and (5, 5) of image a both claim (3, 4) of b: dropped
    assert [t.observations for t in tracks] == [
        {"a": ImagePoint(9.0, 9.0), "b": ImagePoint(8.0, 8.0)},
        {"a": ImagePoint(20.0, 21.0), "b": ImagePoint(22.0, 23.0)}]


def test_track_requires_two_observations():
    with pytest.raises(ValueError):
        Track(observations={"a": ImagePoint(1.0, 1.0)})


def test_gcp_track_requires_ground():
    with pytest.raises(ValueError):
        Track(observations={"a": ImagePoint(1.0, 1.0),
                            "b": ImagePoint(2.0, 2.0)}, is_gcp=True)


def test_track_stats_histogram():
    corrs = [
        corr("a", 1, 2, "b", 3, 4), corr("b", 3, 4, "c", 5, 6),
        corr("a", 9, 9, "c", 7, 7),
    ]
    assert track_stats(build_tracks(corrs)) == {2: 1, 3: 1}


def test_track_file_round_trip(tmp_path):
    tracks = build_tracks([
        corr("a", 1.5, 2.25, "b", 3.125, 4.0),
        corr("b", 3.125, 4.0, "c", 5.0, 6.0),
        corr("a", 9.0, 9.0, "c", 7.0, 7.0),
    ])
    path = tmp_path / "tracks.txt"
    save_tracks(tracks, path, header="unit test")
    assert list(load_tracks(path)) == tracks


def test_files_round_trip_numpy_scalars_from_gen_scene(tmp_path):
    scene = gen_scene(3, 5, 5.0, 0.25, seed=1)
    tracks = [Track(observations={scene.images[i].image_id: p
                                  for i, p in per_image.items()})
              for per_image in scene.true_observations]
    assert any(isinstance(p.row, np.float64)
               for t in tracks for p in t.observations.values())
    path = tmp_path / "tracks.txt"
    save_tracks(tracks, path)
    loaded = load_tracks(path)
    assert [t.observations for t in loaded] == [t.observations
                                                for t in tracks]
    assert [t.id for t in loaded] == list(range(len(tracks)))

    gcps = {j: GroundPoint(*np.array([g.lat, g.lon, g.hei]))
            for j, g in enumerate(scene.true_points[:2])}
    gcp_path = tmp_path / "gcps.txt"
    save_gcps(gcps, gcp_path)
    assert load_gcps(gcp_path) == gcps


def test_load_tracks_rejects_malformed_lines(tmp_path):
    path = tmp_path / "tracks.txt"
    path.write_text("0 a 1.0\n")
    with pytest.raises(ParseError):
        load_tracks(path)
    path.write_text("0 a 1.0 x\n")
    with pytest.raises(ParseError):
        load_tracks(path)
    path.write_text("0 a 1.0 2.0\n0 a 3.0 4.0\n")
    with pytest.raises(ParseError):
        load_tracks(path)
    path.write_text("0 a 1.0 2.0\n")
    with pytest.raises(ParseError):
        load_tracks(path)


def test_gcp_file_round_trip(tmp_path):
    gcps = {0: GroundPoint(25.5, 48.25, 410.0),
            3: GroundPoint(25.6, 48.5, 395.5)}
    path = tmp_path / "gcps.txt"
    save_gcps(gcps, path)
    assert load_gcps(path) == gcps


def test_load_gcps_rejects_malformed_lines(tmp_path):
    path = tmp_path / "gcps.txt"
    path.write_text("0 1.0 2.0\n")
    with pytest.raises(ParseError):
        load_gcps(path)
    path.write_text("0 1.0 2.0 x\n")
    with pytest.raises(ParseError):
        load_gcps(path)
    path.write_text("0 1.0 2.0 3.0\n0 4.0 5.0 6.0\n")
    with pytest.raises(ParseError):
        load_gcps(path)


def test_apply_gcps_flags_tracks():
    tracks = TrackTable.from_tracks(build_tracks([
        corr("a", 1, 2, "b", 3, 4),
        corr("a", 9, 9, "c", 7, 7),
    ]))
    g = GroundPoint(25.5, 48.25, 410.0)
    apply_gcps(tracks, {1: g})
    assert not tracks[0].is_gcp
    assert tracks[1].is_gcp
    assert tracks[1].ground == g


def test_gcps_bind_to_track_file_ids(tmp_path):
    path = tmp_path / "tracks.txt"
    path.write_text("5 a 1.0 2.0\n5 b 3.0 4.0\n"
                    "9 a 5.0 6.0\n9 c 7.0 8.0\n")
    resaved = tmp_path / "resaved.txt"
    save_tracks(load_tracks(path), resaved)
    g = GroundPoint(25.5, 48.25, 410.0)
    for source in (path, resaved):
        tracks = load_tracks(source)
        assert [t.id for t in tracks] == [5, 9]
        apply_gcps(tracks, {9: g})
        assert not tracks[0].is_gcp
        assert tracks[1].is_gcp and tracks[1].ground == g
        with pytest.raises(ConfigInvalid):
            apply_gcps(load_tracks(source), {1: g})


def test_save_tracks_rejects_equal_ids(tmp_path):
    obs = {"a": ImagePoint(1.0, 2.0), "b": ImagePoint(3.0, 4.0)}
    # the first track falls back to its position, 0, which the second has
    tracks = [Track(observations=obs), Track(observations=obs, id=0)]
    with pytest.raises(ValueError):
        save_tracks(tracks, tmp_path / "tracks.txt")


def test_apply_gcps_rejects_unknown_track():
    tracks = TrackTable.from_tracks(build_tracks([corr("a", 1, 2, "b", 3, 4)]))
    with pytest.raises(ConfigInvalid):
        apply_gcps(tracks, {5: GroundPoint(25.5, 48.25, 410.0)})


# ---------------------------------------------------------------------------
# The packed track table
# ---------------------------------------------------------------------------


def scene_table_file(tmp_path, points):
    """A random-visibility scene's tracks saved to a file, and its
    images."""
    scene = gen_scene(6, points, 10.0, 0.2, seed=17, visibility="random")
    path = tmp_path / f"tracks_{points}.txt"
    save_tracks([Track(observations={scene.images[i].image_id: p
                                     for i, p in per_image.items()})
                 for per_image in scene.true_observations], path,
                header="table test")
    return path, [(im.image_id, im.rpc) for im in scene.images]


@pytest.mark.parametrize("points", [500, 2000])
def test_loaded_and_assembled_tracks_hold_at_most_100_bytes_per_observation(
        tmp_path, points):
    """``load_tracks`` parses into the table's arrays (about 20 B per
    observation and 41 B per track), and the graph built from it adds
    its image indices and a copy of the grounds; with both alive, the
    traced memory stays within 100 B per observation at degrees 2-6.
    A ``Track`` per track with a dict of ``ImagePoint`` objects held
    about 250 B per observation."""
    path, images = scene_table_file(tmp_path, points)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = load_tracks(path)
        loaded = tracemalloc.get_traced_memory()[0] - start
        graph = assemble(images, table)
        assembled = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    observations = int(table.start[-1])
    assert len(graph.tracks) == len(table) == points
    assert loaded / observations <= 100
    assert assembled / observations <= 100


def test_track_file_saves_back_byte_for_byte(tmp_path):
    path, _ = scene_table_file(tmp_path, 300)
    resaved = tmp_path / "resaved.txt"
    save_tracks(load_tracks(path), resaved, header="table test")
    assert resaved.read_bytes() == path.read_bytes()


def test_table_packs_and_gives_back_tracks():
    tracks = [Track({"b": ImagePoint(1.0, 2.0), "a": ImagePoint(3.0, 4.0)}),
              Track({"c": ImagePoint(5.0, 6.0), "a": ImagePoint(7.0, 8.0)},
                    ground=GroundPoint(1.0, 2.0, 3.0), is_gcp=True, id=9)]
    table = TrackTable.from_tracks(tracks)
    assert table.ids.tolist() == [0, 9]
    assert table.start.tolist() == [0, 2, 4]
    assert table.image_ids == ["a", "b", "c"]
    # within a track, by image id
    assert table.image.tolist() == [0, 1, 0, 2]
    assert table.pixel.tolist() == [[3.0, 4.0], [1.0, 2.0],
                                    [7.0, 8.0], [5.0, 6.0]]
    assert table.gcp.tolist() == [False, True]
    assert np.isnan(table.ground[0]).all()
    assert list(table) == [Track(dict(sorted(tracks[0].observations.items())),
                                 id=0), tracks[1]]
    assert table[-1] == table[1:][0] == tracks[1]
    # observations are read from the arrays on access
    observations = table[1].observations
    assert observations["c"] == ImagePoint(5.0, 6.0)
    assert "b" not in observations and "z" not in observations
    assert len(observations) == 2 and list(observations) == ["a", "c"]
    assert repr(observations) == repr(dict(sorted(
        tracks[1].observations.items())))
    kept = table.take([1])
    assert list(kept) == [tracks[1]] and kept.start.tolist() == [0, 2]


def test_repeated_image_is_reported_at_the_line_that_repeats_it(tmp_path):
    path = tmp_path / "tracks.txt"
    path.write_text("0 a 1.0 2.0\n1 a 3.0 4.0\n# a comment\n0 b 5.0 6.0\n"
                    "1 b 7.0 8.0\n0 a 9.0 9.5\n1 b 1.5 2.5\n0 a 3.5 4.5\n")
    with pytest.raises(ParseError,
                       match=r"tracks\.txt:6: image a appears twice in "
                             r"track 0$"):
        load_tracks(path)


def test_one_observation_track_among_interleaved_lines(tmp_path):
    path = tmp_path / "tracks.txt"
    path.write_text("7 a 1.0 2.0\n3 a 3.0 4.0\n9 c 0.5 0.5\n7 b 5.0 6.0\n"
                    "5 c 1.0 1.0\n3 b 7.0 8.0\n")
    with pytest.raises(ParseError) as info:
        load_tracks(path)
    assert str(info.value) == (f"{path}: track 5 has fewer than two "
                               f"observations")


@pytest.mark.parametrize("bad_line", [5, 3000])
def test_load_tracks_reports_errors_in_reading_order(tmp_path, bad_line):
    """Records are read and converted a block at a time: a bad number in
    the block of an earlier repeated image is reported first, one in a
    later block only after the repeat."""
    lines = [f"{j // 2} {'ab'[j % 2]} 1.0 2.0\n" for j in range(4000)]
    lines[2] = "0 a 5.0 6.0\n"
    lines[bad_line - 1] = lines[bad_line - 1].replace("2.0", "x")
    path = tmp_path / "tracks.txt"
    path.write_text("".join(lines))
    want = (r":5: a field is not a finite number" if bad_line == 5
            else r":3: image a appears twice in track 0")
    with pytest.raises(ParseError, match=want):
        load_tracks(path)
