"""Multi-view tie-point tracks.

Pairwise matches sharing a feature (same image, exact same detected
position) belong to the same object-space point; connected components
under that relation become tracks.  Components that would put two
different features of one image into a single track are contradictory
and dropped entirely.

Tracks are kept as a :class:`TrackTable`: a few arrays, track by track,
from which :class:`~satadjust.adjust.ObservationGraph` takes its
observations without repacking them.  :func:`load_tracks` parses the
track file straight into one: after loading it holds about 20 B per
observation and 41 B per track (a track id, a start, a ground and a
flag), where a :class:`Track` with a dict of :class:`ImagePoint`
objects held about 250 B per observation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from math import isnan

import numpy as np

from . import textfile
from .errors import ConfigInvalid, ParseError
from .rpc import GroundPoint, ImagePoint, _segment_rows


@dataclass
class Track:
    """Observations of one object-space point, at most one per image: what
    :func:`build_tracks` returns, what a list of tracks is made of before
    :meth:`TrackTable.from_tracks` packs it, and what indexing a
    :class:`TrackTable` builds (its ``observations`` then a read-only
    mapping over the table's arrays).

    ``ground`` is only where the track starts when an
    :class:`~satadjust.adjust.ObservationGraph` packs it: the surveyed
    point of a GCP track (``is_gcp``), else None or a prior guess; the
    adjustment's grounds live in the graph.  ``id`` is the number GCP
    files refer to the track by: its id in the track file it was loaded
    from, or its position in the list that :func:`build_tracks` returned.
    """

    observations: Mapping[str, ImagePoint]
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


@dataclass(eq=False)
class TrackTable(Sequence):
    """M tracks and their K observations, packed track by track and,
    within a track, in image-id order.

    Track j has id ``ids[j]`` (int64) and owns observation rows
    ``start[j]:start[j + 1]`` (``start`` is (M + 1,) intp).  Observation
    k was seen in image ``image_ids[image[k]]`` (``image_ids`` sorted,
    ``image`` int32 codes) at the (row, col) pixel ``pixel[k]``.
    ``ground`` (M, 3) holds where each track starts, (lat, lon, hei) or
    NaN where unknown, and ``gcp`` flags the ground control points,
    whose grounds are surveyed.

    As a sequence, item j is track j as a :class:`Track`, built on
    access, whose ``observations`` is a read-only mapping that reads the
    table's arrays; nothing in the package reads tracks that way.
    """

    ids: np.ndarray
    start: np.ndarray
    image_ids: list[str]
    image: np.ndarray
    pixel: np.ndarray
    ground: np.ndarray
    gcp: np.ndarray

    @classmethod
    def from_tracks(cls, tracks: Iterable[Track]) -> TrackTable:
        """Pack ``tracks`` in their order, each with its ``Track.id``, or
        its position when that is None."""
        tracks = list(tracks)
        names, points, degrees = [], [], []
        for track in tracks:
            names.extend(track.observations)
            points.extend(track.observations.values())
            degrees.append(len(track.observations))
        image_ids = sorted(set(names))
        code = dict(zip(image_ids, range(len(image_ids))))
        image = np.fromiter(map(code.__getitem__, names), dtype=np.int32,
                            count=len(names))
        pixel = np.array([[p.row for p in points], [p.col for p in points]],
                         dtype=np.float64).T.reshape(-1, 2)
        owner = np.repeat(np.arange(len(tracks)), degrees)
        order = _grouping(owner, image)
        if order is not None:
            image, pixel = image[order], pixel[order]
        start = np.zeros(len(tracks) + 1, dtype=np.intp)
        np.cumsum(degrees, out=start[1:])
        return cls(
            ids=np.array([j if t.id is None else int(t.id)
                          for j, t in enumerate(tracks)], dtype=np.int64),
            start=start, image_ids=image_ids, image=image, pixel=pixel,
            ground=np.array(
                [(np.nan,) * 3 if t.ground is None
                 else (t.ground.lat, t.ground.lon, t.ground.hei)
                 for t in tracks], dtype=np.float64).reshape(-1, 3),
            gcp=np.array([t.is_gcp for t in tracks], dtype=bool))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[k] for k in range(*j.indices(len(self)))]
        j = range(len(self))[j]
        ground = self.ground[j].tolist()
        return Track(
            observations=_Observations(
                self, slice(int(self.start[j]), int(self.start[j + 1]))),
            ground=None if isnan(ground[0]) else GroundPoint(*ground),
            is_gcp=bool(self.gcp[j]), id=int(self.ids[j]))

    def take(self, tracks) -> TrackTable:
        """The tracks at the indices ``tracks``, in that order."""
        tracks = np.asarray(tracks, dtype=np.intp)
        rows, start = _segment_rows(self.start, tracks)
        return TrackTable(
            ids=self.ids[tracks], start=start, image_ids=self.image_ids,
            image=self.image[rows], pixel=self.pixel[rows],
            ground=self.ground[tracks], gcp=self.gcp[tracks])


class _Observations(Mapping):
    """The observation rows ``rows`` of ``table`` as a read-only mapping
    from image id to :class:`ImagePoint`, read from the arrays on access
    so that a :class:`Track` built from a table costs no object per
    observation until its observations are read."""

    def __init__(self, table: TrackTable, rows: slice):
        self._table, self._rows = table, rows

    def __len__(self) -> int:
        return self._rows.stop - self._rows.start

    def __iter__(self):
        return map(self._table.image_ids.__getitem__,
                   self._table.image[self._rows].tolist())

    def __getitem__(self, image_id) -> ImagePoint:
        image_ids = self._table.image_ids
        code = bisect_left(image_ids, image_id)
        image = self._table.image[self._rows]
        # within a track, the codes are sorted
        k = int(np.searchsorted(image, code))
        if k == len(image) or image[k] != code or image_ids[code] != image_id:
            raise KeyError(image_id)
        return ImagePoint(*self._table.pixel[self._rows.start + k].tolist())

    def __repr__(self) -> str:
        return repr(dict(self))


def as_table(tracks: TrackTable | Iterable[Track]) -> TrackTable:
    """``tracks`` if it is a table, else the table that packs them."""
    if isinstance(tracks, TrackTable):
        return tracks
    return TrackTable.from_tracks(tracks)


def _grouping(track: np.ndarray, image: np.ndarray) -> np.ndarray | None:
    """The order that puts observations by ``track`` and, within a
    track, by ``image``, keeping ties in their order; None when they are
    in that order and without ties already."""
    step = np.diff(track)
    if ((step > 0) | ((step == 0) & (np.diff(image) > 0))).all():
        return None
    return np.lexsort((image, track))


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


def track_stats(tracks: TrackTable | Iterable[Track]) -> dict[int, int]:
    """Histogram of track degrees, e.g. {2: 15433, 3: 4761, ...}."""
    degrees, counts = np.unique(np.diff(as_table(tracks).start),
                                return_counts=True)
    return dict(zip(degrees.tolist(), counts.tolist()))


# ---------------------------------------------------------------------------
# Track and GCP files
# ---------------------------------------------------------------------------


def save_tracks(tracks: TrackTable | Iterable[Track], path,
                header: str = "") -> None:
    """One line per observation: ``track_id image_id row col``, track by
    track in the order given and, within a track, by image id.  A list
    of :class:`Track` is packed first (:meth:`TrackTable.from_tracks`).
    Raises ValueError if two ids would be equal."""
    table = as_table(tracks)
    if np.unique(table.ids).size != table.ids.size:
        raise ValueError("two tracks would be saved with the same id")
    # each track's id is formatted once, not once per observation
    heads = np.repeat(np.array([f"{tid} " for tid in table.ids.tolist()],
                               dtype=object), np.diff(table.start)).tolist()
    rows, cols = table.pixel.T.tolist()
    textfile.write(path, (header, "track_id image_id row col"), [
        f"{head}{image_id} {row!r} {col!r}\n"
        for head, image_id, row, col in zip(
            heads, map(table.image_ids.__getitem__, table.image.tolist()),
            rows, cols)])


def load_tracks(path) -> TrackTable:
    """Read a track file written by :func:`save_tracks` into a table:
    tracks in id order, each keeping its id from the file.  The file's
    lines may come in any order.

    Raises:
        ParseError: malformed record, an id beyond 64 bits, an image
            repeated within a track (at the line that repeats it), or a
            track with fewer than two observations.
    """
    code: dict[str, int] = {}
    # line numbers, track ids, image codes and pixels, a block each
    parts = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
              np.empty(0, dtype=np.int32), np.empty((0, 2)))]
    try:
        for numbers, columns in textfile.blocks(path, "isff"):
            parts.append(_block(path, code, numbers, *columns))
    except ParseError:
        # the records before the bad one were read in file order: a
        # repeated image among them comes first
        line, tid, image, _ = map(np.concatenate, zip(*parts))
        _order_records(path, code, line, tid, image)
        raise
    line, tid, image, pixel = map(np.concatenate, zip(*parts))
    del parts
    image_ids, tid, image, order = _order_records(path, code, line, tid,
                                                  image)
    if order is not None:
        pixel = pixel[order]
    new = np.ones(len(tid), dtype=bool)
    new[1:] = tid[1:] != tid[:-1]
    first = np.flatnonzero(new)
    start = np.append(first, len(tid)).astype(np.intp)
    short = np.diff(start) < 2
    if short.any():
        raise ParseError(f"{path}: track {tid[first[np.argmax(short)]]} "
                         f"has fewer than two observations")
    return TrackTable(ids=tid[first], start=start, image_ids=image_ids,
                      image=image, pixel=pixel,
                      ground=np.full((len(first), 3), np.nan),
                      gcp=np.zeros(len(first), dtype=bool))


def _block(path, code: dict[str, int], numbers: list[int], tids: list[int],
           names: list[str], rows: list[float], cols: list[float]):
    """One block of track records as arrays: line numbers, track ids,
    image codes (numbering each new image id in ``code``) and pixels."""
    try:
        ids = np.array(tids, dtype=np.int64)
    except OverflowError:
        k = next(k for k, tid in enumerate(tids)
                 if not -2**63 <= tid < 2**63)
        raise ParseError(f"{path}:{numbers[k]}: track id {tids[k]} is "
                         f"beyond 64 bits") from None
    try:
        image = np.fromiter(map(code.__getitem__, names), dtype=np.int32,
                            count=len(names))
    except KeyError:
        for name in names:
            code.setdefault(name, len(code))
        image = np.fromiter(map(code.__getitem__, names), dtype=np.int32,
                            count=len(names))
    return (np.array(numbers, dtype=np.int64), ids, image,
            np.array((rows, cols), dtype=np.float64).T)


def _order_records(path, code: dict[str, int], line, tid, image):
    """The sorted image ids, and the records' track ids and image codes
    (into those ids) by track id and, within a track, by image id, with
    the order that sorts them (None if they are sorted).

    Raises:
        ParseError: an image repeated within a track, at the first line
            that repeats one.
    """
    image_ids = sorted(code)
    recode = np.empty(len(code), dtype=np.int32)
    recode[[code[name] for name in image_ids]] = np.arange(len(code))
    image = recode[image]
    order = _grouping(tid, image)
    if order is None:
        return image_ids, tid, image, None
    tid, image = tid[order], image[order]
    repeat = 1 + np.flatnonzero((tid[1:] == tid[:-1])
                                & (image[1:] == image[:-1]))
    if repeat.size:
        # ties keep file order, so each repeat follows its first line
        k = repeat[np.argmin(order[repeat])]
        raise ParseError(f"{path}:{line[order[k]]}: image "
                         f"{image_ids[image[k]]} appears twice in track "
                         f"{tid[k]}")
    return image_ids, tid, image, order


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


def apply_gcps(table: TrackTable, gcps: dict[int, GroundPoint]) -> None:
    """Flag the tracks of ``table`` with the given ids as ground control
    points, their surveyed points as their grounds, in place.

    Raises:
        ConfigInvalid: no track has a GCP's track id.
    """
    order = np.argsort(table.ids, kind="stable")
    ids = table.ids[order]
    bits = np.iinfo(np.int64)
    for tid, g in gcps.items():
        # of equal ids, the last
        k = (int(np.searchsorted(ids, tid, side="right")) - 1
             if bits.min <= tid <= bits.max else -1)
        if k < 0 or ids[k] != tid:
            raise ConfigInvalid(f"GCP refers to unknown track {tid}")
        table.gcp[order[k]] = True
        table.ground[order[k]] = g.lat, g.lon, g.hei
