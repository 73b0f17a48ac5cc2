"""Multi-view tie-point tracks.

Pairwise matches sharing a feature (same image, exact same detected
position) belong to the same object-space point; connected components
under that relation become tracks.  Components that would put two
different features of one image into a single track are contradictory
and dropped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import textfile
from .errors import ConfigInvalid, ParseError
from .rpc import GroundPoint, ImagePoint


@dataclass
class Track:
    """Observations of one object-space point, at most one per image.

    ``ground`` is only where the track starts when an
    :class:`~satadjust.adjust.ObservationGraph` packs it: the surveyed
    point of a GCP track (``is_gcp``), else None or a prior guess; the
    adjustment's grounds live in the graph.  ``id`` is the number GCP
    files refer to the track by: its id in the track file it was loaded
    from, or its position in the list that :func:`build_tracks` returned.
    """

    observations: dict[str, ImagePoint]
    ground: GroundPoint | None = None
    is_gcp: bool = False
    id: int | None = None

    def __post_init__(self):
        if len(self.observations) < 2:
            raise ValueError("a track needs observations in >= 2 images")
        if self.is_gcp and self.ground is None:
            raise ValueError("GCP track without ground coordinates")

    @property
    def degree(self) -> int:
        return len(self.observations)


def _find(parent: dict, key):
    root = key
    while parent[root] != root:
        root = parent[root]
    while parent[key] != root:
        parent[key], key = root, parent[key]
    return root


def build_tracks(pairs: list[tuple[str, str, np.ndarray]]) -> list[Track]:
    """Union the matches of each pair, ``(left_id, right_id, matches)``
    with ``matches`` the (n, 5) array of
    :func:`~satadjust.match.match_pair`, into tracks (connected
    components).

    Feature identity is the exact pair (image_id, position); detection
    runs once per image, so equal positions mean the same feature.  The
    result is canonically ordered and independent of input order; each
    track's id is its position in it.
    """
    parent: dict = {}
    for left_id, right_id, matches in pairs:
        for lr, lc, rr, rc, _ in matches.tolist():
            a, b = (left_id, lr, lc), (right_id, rr, rc)
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    # A root is its component's least key (parent[max] = min), so in key
    # order each component's members, and the components by their least
    # member, come out in canonical order.
    components: dict = {}
    for key in sorted(parent):
        components.setdefault(_find(parent, key), []).append(key)

    tracks = []
    for members in components.values():
        images = [m[0] for m in members]
        if len(set(images)) != len(images):
            continue  # two features of one image: contradictory, drop
        tracks.append(Track(observations={
            image_id: ImagePoint(row, col)
            for image_id, row, col in members
        }, id=len(tracks)))
    return tracks


def track_stats(tracks: list[Track]) -> dict[int, int]:
    """Histogram of track degrees, e.g. {2: 15433, 3: 4761, ...}."""
    histogram: dict[int, int] = {}
    for t in tracks:
        histogram[t.degree] = histogram.get(t.degree, 0) + 1
    return dict(sorted(histogram.items()))


# ---------------------------------------------------------------------------
# Track and GCP files
# ---------------------------------------------------------------------------


def save_tracks(tracks: list[Track], path, header: str = "") -> None:
    """One line per observation: ``track_id image_id row col``, the
    track id being ``Track.id``, or the track's position in ``tracks``
    when that is None.  Raises ValueError if two ids would be equal."""
    ids = [pos if track.id is None else int(track.id)
           for pos, track in enumerate(tracks)]
    if len(set(ids)) != len(ids):
        raise ValueError("two tracks would be saved with the same id")
    textfile.write(path, (header, "track_id image_id row col"), (
        f"{tid} {image_id} {float(p.row)!r} {float(p.col)!r}\n"
        for tid, track in zip(ids, tracks)
        for image_id, p in sorted(track.observations.items())))


def load_tracks(path) -> list[Track]:
    """Read a track file written by :func:`save_tracks`, in id order;
    each track keeps its id from the file.

    Raises:
        ParseError: malformed record, duplicate image within a track, or
            a track with fewer than two observations.
    """
    per_track: dict[int, dict[str, ImagePoint]] = {}
    for line_no, tid, image_id, row, col in textfile.records(path, "isff"):
        obs = per_track.get(tid)
        if obs is None:
            obs = per_track[tid] = {}
        elif image_id in obs:
            raise ParseError(f"{path}:{line_no}: image {image_id} appears "
                             f"twice in track {tid}")
        obs[image_id] = ImagePoint(row, col)
    tracks = []
    for tid in sorted(per_track):
        obs = per_track[tid]
        if len(obs) < 2:
            raise ParseError(f"{path}: track {tid} has fewer than two "
                             f"observations")
        tracks.append(Track(observations=obs, id=tid))
    return tracks


def save_gcps(gcps: dict[int, GroundPoint], path) -> None:
    """Companion GCP file: ``track_id lat lon hei`` per line."""
    textfile.write(path, ("track_id lat lon hei",), (
        f"{int(tid)} {float(g.lat)!r} {float(g.lon)!r} {float(g.hei)!r}\n"
        for tid, g in sorted(gcps.items())))


def load_gcps(path) -> dict[int, GroundPoint]:
    """Read a GCP companion file written by :func:`save_gcps`; raises
    ParseError for a malformed record or a track id given twice."""
    gcps: dict[int, GroundPoint] = {}
    for line_no, tid, lat, lon, hei in textfile.records(path, "ifff"):
        if tid in gcps:
            raise ParseError(f"{path}:{line_no}: duplicate GCP for "
                             f"track {tid}")
        gcps[tid] = GroundPoint(lat, lon, hei)
    return gcps


def apply_gcps(tracks: list[Track], gcps: dict[int, GroundPoint]) -> None:
    """Flag the tracks with the given ids as ground control points,
    their surveyed points as their grounds.

    Raises:
        ConfigInvalid: no track has a GCP's track id.
    """
    by_id = {track.id: track for track in tracks}
    for tid, g in gcps.items():
        if tid not in by_id:
            raise ConfigInvalid(f"GCP refers to unknown track {tid}")
        by_id[tid].is_gcp = True
        by_id[tid].ground = g
