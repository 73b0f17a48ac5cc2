"""Bias-corrected rational polynomial camera model.

An RPC camera maps normalized ground coordinates (lat, lon, height) to
normalized image coordinates (row, col) through two cubic rational
polynomials with 20 coefficients each in numerator and denominator.  The
monomial ordering follows the de-facto RPC00B convention so that real RPC
text files load correctly.

:func:`evaluate_masked` and its kernel are the only place the
polynomials are evaluated: every projection, Jacobian, image-to-ground
iteration, triangulation and the adjustment's per-track reduction use
them on the 210 constants packed once per model (:class:`RpcArrays`),
and they flag vanished denominators and non-finite projections per
point.  A single model is passed as itself (``rpc.arrays``); a batch
that mixes models is passed as a stack of them (:func:`stack_models`)
plus a per-point row index, gathered with one ``np.take`` per slice of
at most ``GATHER_OBSERVATIONS`` points.
The kernel works with the observation axis last: the monomials are
(20, k) rows, both contractions and the quotient rule run on (., k)
arrays, and a lone point is evaluated as a pair so that it gets the
bits it would get in a batch.  :meth:`RpcModel.validate` and the RPC
fit in :mod:`.rectify` use the monomials only as a design matrix, its
transpose.

Triangulation and the adjustment's passes share one per-track linearization
and elimination, :func:`linearize_tracks`, and step, :func:`point_steps`.
A track's equilibrated 3x3 point block is accepted by a determinant
screen where that proves it well conditioned, and inverted in closed
form; only the other blocks are judged by ``eigvalsh``.

Image-to-ground and triangulation are batched: :func:`inverse_project_many`
and :func:`triangulate_many` iterate many points or tracks in lock-step,
one kernel call per step, and report a per-point outcome code, so one
failing point never fails the others.  Their temporaries are proportional
to the points passed in, which the caller bounds.

Every batched call works in raw pixels: a bias, one constant offset per
image, is added to the observed pixels, never applied inside the model.
Callers outside the adjustment work on arrays of points under one model:
:func:`project_arrays` projects ground arrays to pixel arrays, and
:func:`inverse_project_arrays`, its twin, casts pixel arrays onto given
heights; both raise the error of the first point that fails.  Only the
one-point edge takes a :class:`BiasCorrection`: :func:`project` and
:func:`inverse_project` are their one-point cases, :func:`triangulate`
the one-track case of :func:`triangulate_many`, and :func:`residual`.

Sign conventions used throughout the package:

* ``project(rpc, bias, g)`` returns the raw RPC projection minus the bias
  ``(d_row, d_col)``.  A correctly estimated bias therefore makes
  ``project`` land on the observed pixel of a misregistered image.
* ``residual = observed - project``.  Its derivative with respect to the
  bias components is exactly the 2x2 identity, and its derivative with
  respect to (lat, lon, hei) is minus the raw projection derivative;
  :func:`jacobian` follows the residual convention so that downstream
  least squares can use it directly.

Heights are ellipsoidal meters (the input products do not state a datum;
this package assumes the ellipsoid throughout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import textfile
from .errors import (
    DegenerateDenominator,
    IllConditioned,
    NoConvergence,
    ParseError,
)

# Denominators below this magnitude are treated as degenerate.
DENOMINATOR_EPS = 1e-10

# Normalized ground cube over which a model is considered valid; RPCs
# extrapolate poorly, 20% margin beyond the nominal [-1, 1].
VALIDITY_MARGIN = 1.2

# Grid points per axis at which RpcModel.validate samples the cube.
VALIDATION_SAMPLES = 7

# Newton / Gauss-Newton iteration controls (double-precision comfort).
IMAGE_TOL_PX = 1e-6
GROUND_TOL_NORM = 1e-9
MAX_ITERATIONS = 20

# Divergence guard for image-to-ground Newton, in normalized ground units.
DIVERGENCE_BOUND = 10.0

TRIANGULATION_COND_MAX = 1e8

# Points whose model constants a stacked evaluation gathers at once.
GATHER_OBSERVATIONS = 512


@dataclass(frozen=True)
class GroundPoint:
    """Geodetic point: degrees latitude/longitude, meters above ellipsoid."""

    lat: float
    lon: float
    hei: float


@dataclass(frozen=True)
class ImagePoint:
    """Continuous pixel position, row down and column rightward."""

    row: float
    col: float


@dataclass(frozen=True)
class BiasCorrection:
    """Constant per-image translation in level-2 image space, pixels."""

    d_row: float = 0.0
    d_col: float = 0.0


class RpcArrays(NamedTuple):
    """The constants of one RPC model, or of a stack of models, packed
    once for :func:`evaluate_masked`: ``table`` is (210,) for one model
    and (N, 210) for a stack (:func:`stack_models`), a row per model.

    Columns 0-4 are the offsets and 5-9 the scales of latitude,
    longitude, height, line and sample; 10-89 the coefficients (4, 20)
    of the line and sample numerators, then the line and sample
    denominators; 90-209 their slopes (4, 3, 10), the derivatives with
    respect to latitude, longitude and height (per degree and per
    meter) as coefficients of the first ten monomials.  A batch gathers
    its points' rows with one ``np.take`` per slice of at most
    ``GATHER_OBSERVATIONS`` points and computes on the transposed view,
    observation axis last.
    """

    table: np.ndarray

    @property
    def offset(self) -> np.ndarray:
        return self.table[..., 0:5]

    @property
    def scale(self) -> np.ndarray:
        return self.table[..., 5:10]


def stack_models(models) -> RpcArrays:
    """Stack the packed constants of several models, a row per model."""
    return RpcArrays(np.stack([m.arrays.table for m in models]))


@dataclass(frozen=True)
class RpcModel:
    """The 80-coefficient rational polynomial camera.

    Coefficient vectors are length-20 float arrays ordered per RPC00B.
    Instances are immutable after construction; all operations on them are
    pure functions and safe to call concurrently.  ``arrays`` holds the
    same constants packed for :func:`evaluate_masked`, built once on
    construction.
    """

    line_off: float
    line_scale: float
    samp_off: float
    samp_scale: float
    lat_off: float
    lat_scale: float
    lon_off: float
    lon_scale: float
    hei_off: float
    hei_scale: float
    line_num: np.ndarray = field(repr=False)
    line_den: np.ndarray = field(repr=False)
    samp_num: np.ndarray = field(repr=False)
    samp_den: np.ndarray = field(repr=False)
    arrays: RpcArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("line_num", "line_den", "samp_num", "samp_den"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (20,):
                raise ValueError(f"{name} must have 20 coefficients")
            object.__setattr__(self, name, arr)
        for name in ("line_scale", "samp_scale", "lat_scale", "lon_scale",
                     "hei_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        coeffs = np.stack([self.line_num, self.samp_num,
                           self.line_den, self.samp_den])
        scale = np.array([self.lat_scale, self.lon_scale, self.hei_scale,
                          self.line_scale, self.samp_scale])
        # per degree and per meter: chained through the ground
        # normalization once here rather than at every evaluation
        slopes = np.einsum("ct,kts->cks", coeffs, _SLOPES) / scale[:3, None]
        object.__setattr__(self, "arrays", RpcArrays(np.concatenate([
            [self.lat_off, self.lon_off, self.hei_off, self.line_off,
             self.samp_off], scale, coeffs.ravel(), slopes.ravel()])))

    def validate(self) -> None:
        """Check the denominators over the validity cube.

        Samples a regular grid on [-1.2, 1.2]^3 in normalized ground
        coordinates and raises DegenerateDenominator if either denominator
        polynomial comes within 1e-10 of zero, is NaN somewhere, or
        changes sign between samples (a continuous polynomial that does
        has a root in the cube, even between the grid points).
        """
        for name, den in (("line", self.line_den), ("samp", self.samp_den)):
            vals = den @ _VALIDATION_TERMS
            worst = float(np.min(np.abs(vals)))
            if not worst > DENOMINATOR_EPS:  # NaN too
                raise DegenerateDenominator(
                    f"{name} denominator reaches |{worst:.3e}| inside the "
                    f"validity cube"
                )
            if vals.min() < 0 < vals.max():
                raise DegenerateDenominator(
                    f"{name} denominator changes sign inside the validity "
                    f"cube"
                )


# Every monomial after the first four is a product of two earlier ones
# (``np.power`` costs some 40x a multiplication on [-1, 1]): row t is
# row a times row b for each (t, a, b).
_PRODUCTS = ((4, 1, 2), (5, 1, 3), (6, 2, 3), (7, 1, 1), (8, 2, 2),
             (9, 3, 3), (10, 4, 3), (11, 7, 1), (12, 4, 2), (13, 5, 3),
             (14, 7, 2), (15, 8, 2), (16, 6, 3), (17, 7, 3), (18, 8, 3),
             (19, 9, 3))


def poly_terms(P, L, H) -> np.ndarray:
    """The 20 cubic monomials of the RPC00B convention, (20, ...): one
    row per monomial, the points' axes last.

    Accepts scalars or arrays that broadcast together.  Order: 1, L, P,
    H, LP, LH, PH, L2, P2, H2, PLH, L3, LP2, LH2, L2P, P3, PH2, L2H, P2H,
    H3.  Its transpose is the design matrix of a fit.
    """
    P, L, H = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64)
                                    for x in (P, L, H)))
    terms = np.empty((20,) + P.shape)
    terms[0] = 1.0
    terms[1], terms[2], terms[3] = L, P, H
    for t, a, b in _PRODUCTS:
        np.multiply(terms[a], terms[b], out=terms[t, ...])
    return terms


def _validation_terms() -> np.ndarray:
    """The monomials of the regular grid that :meth:`RpcModel.validate`
    samples, (20, VALIDATION_SAMPLES**3)."""
    axis = np.linspace(-VALIDITY_MARGIN, VALIDITY_MARGIN, VALIDATION_SAMPLES)
    pp, ll, hh = np.meshgrid(axis, axis, axis, indexing="ij")
    return poly_terms(pp.ravel(), ll.ravel(), hh.ravel())


_VALIDATION_TERMS = _validation_terms()


# (P, L, H) exponents of the poly_terms monomials, in their order.
_EXPONENTS = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 0),
              (0, 1, 1), (1, 0, 1), (0, 2, 0), (2, 0, 0), (0, 0, 2),
              (1, 1, 1), (0, 3, 0), (2, 1, 0), (0, 1, 2), (1, 2, 0),
              (3, 0, 0), (1, 0, 2), (0, 2, 1), (2, 0, 1), (0, 0, 3))


def _slope_table() -> np.ndarray:
    """(3, 20, 10): entry [k, t, s] is the factor of monomial s (one of
    the first ten, degree two or less) in the derivative of monomial t
    with respect to variable k of (P, L, H)."""
    table = np.zeros((3, 20, 10))
    for t, exps in enumerate(_EXPONENTS):
        for k, e in enumerate(exps):
            if e:
                lower = tuple(x - (i == k) for i, x in enumerate(exps))
                table[k, t, _EXPONENTS.index(lower)] = e
    return table


_SLOPES = _slope_table()


def _evaluate(models: RpcArrays, index, lats, lons, heis, derivatives: bool):
    """The kernel of :func:`evaluate_masked` on length-k ground arrays,
    point k under model ``index[k]`` of the stack ``models``, or with
    ``index`` None under the one model ``models``: (2, k) projections,
    their (2, 3, k) derivatives or None, and the (k,) usable mask.

    One model is broadcast against every point as a (210, 1) column and
    never gathered.  A stack's rows are gathered ``GATHER_OBSERVATIONS``
    points at a time, whole rows with one ``np.take`` (gathering along
    the columns of a (210, N) table takes three times as long), so the
    gathered constants never exceed 512 x 210 x 8 B = 860,160 B whatever
    k; beyond them a call holds its 65 B per point of results and
    per-point temporaries of about 500 B for one slice.
    """
    if index is None:
        return _evaluate_columns(models.table[:, None], lats, lons, heis,
                                 derivatives)
    if len(index) <= GATHER_OBSERVATIONS:
        return _evaluate_columns(np.take(models.table, index, axis=0).T,
                                 lats, lons, heis, derivatives)
    # observation-major, the layout of one whole gather's results: a
    # later sum along the observation axis would run in another order on
    # another layout
    raw = np.empty((len(index), 2)).T
    d_raw = (np.empty((len(index), 2, 3)).transpose(1, 2, 0) if derivatives
             else None)
    usable = np.empty(len(index), dtype=bool)
    for s in range(0, len(index), GATHER_OBSERVATIONS):
        part = slice(s, s + GATHER_OBSERVATIONS)
        raw[:, part], d_part, usable[part] = _evaluate_columns(
            np.take(models.table, index[part], axis=0).T, lats[part],
            lons[part], heis[part], derivatives)
        if derivatives:
            d_raw[..., part] = d_part
    return raw, d_raw, usable


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate_columns(columns: np.ndarray, lats, lons, heis,
                      derivatives: bool):
    """:func:`_evaluate` on (210, k) model ``columns``, or one (210, 1)
    column broadcast against the points, the observation axis last.

    Both contractions sum the monomials in order for every point when
    k >= 2; a lone point would be summed in another order, so it is
    evaluated as a pair and every result is the same bits as in a batch,
    whichever slice of a gather it falls in.
    """
    if len(lats) == 1:
        pair = _evaluate_columns(
            columns, *(np.repeat(x, 2) for x in (lats, lons, heis)),
            derivatives)
        return tuple(None if a is None else a[..., :1] for a in pair)
    off, scale = columns[0:5], columns[5:10]
    P = (lats - off[0]) / scale[0]
    L = (lons - off[1]) / scale[1]
    H = (heis - off[2]) / scale[2]
    terms = poly_terms(P, L, H)
    vals = np.einsum("tk,ctk->ck", terms, columns[10:90].reshape(4, 20, -1))
    num, den = vals[:2], vals[2:]
    usable = (np.abs(den) > DENOMINATOR_EPS).all(axis=0)  # NaN too
    if not usable.all():
        den = np.where(usable, den, 1.0)
    ratio = num / den
    raw = ratio * scale[3:] + off[3:]
    usable &= np.isfinite(raw).all(axis=0)
    if not derivatives:
        return raw, None, usable
    d_vals = np.einsum("sk,cjsk->cjk", terms[:10],
                      columns[90:].reshape(4, 3, 10, -1))
    # quotient rule, chained through the image normalization
    d_ratio = d_vals[:2] - ratio[:, None] * d_vals[2:]
    return raw, d_ratio * (scale[3:] / den)[:, None], usable


def evaluate_masked(models: RpcArrays, index, lats, lons, heis,
                    derivatives: bool = False):
    """Raw (row, col) projection of ground points by packed RPC models.
    Point k is evaluated under model ``index[k]`` of the stack ``models``
    (one gather of per-point model constants), or, with ``index`` None,
    under ``models`` broadcast against the ground arrays.

    Returns:
        ``(raw, d_raw, usable)``: the (..., 2) projection; with
        ``derivatives``, its (..., 2, 3) derivative with respect to (lat,
        lon, hei) in pixels per degree and per meter (else None); and
        ``usable``, False at points whose values are meaningless: a
        denominator vanished or the projection is not finite.
    """
    if index is None and models.table.ndim == 2:
        # a stack broadcast against the points: gather each of its rows
        index = np.arange(len(models.table))
    shape = np.broadcast_shapes(np.shape(lats), np.shape(lons),
                                np.shape(heis), np.shape(index))
    lats, lons, heis = (
        np.broadcast_to(np.asarray(x, dtype=np.float64), shape).ravel()
        for x in (lats, lons, heis))
    if index is not None:
        index = np.broadcast_to(index, shape).ravel()
    raw, d_raw, usable = _evaluate(models, index, lats, lons, heis,
                                   derivatives)
    if d_raw is not None:
        d_raw = np.moveaxis(d_raw, -1, 0).reshape(*shape, 2, 3)
    return raw.T.reshape(*shape, 2), d_raw, usable.reshape(shape)


def _segment_rows(starts: np.ndarray, which: np.ndarray):
    """Rows of the segments ``which`` of an array packed segment by
    segment (segment j spans rows ``starts[j]:starts[j + 1]``), and the
    offsets of those segments once the rows are gathered."""
    lengths = starts[which + 1] - starts[which]
    sub = np.zeros(len(which) + 1, dtype=np.intp)
    np.cumsum(lengths, out=sub[1:])
    rows = np.arange(sub[-1]) + np.repeat(starts[which] - sub[:-1], lengths)
    return rows, sub


class TrackLinearization(NamedTuple):
    """Many tracks linearized at their grounds (:func:`linearize_tracks`),
    the observation axis last.

    Track j owns columns ``starts[j]:starts[j + 1]`` of the
    per-observation arrays; ``owner`` is each column's track.  ``v``
    (2, k) are the residuals, target minus raw projection; ``usable`` is
    False for a track where a denominator vanished.  With derivatives
    (else None): ``b`` (2, 3, k) are the residual Jacobians in each
    track's first model's normalized ground units over its column norms
    ``col_norms`` (3, T), ``inverse`` (T, 3, 3) the inverse normal
    matrices of those columns (the identity where not ``ok``), and
    ``ok`` False where a column vanishes or is not finite, or the
    condition test fails.
    """

    starts: np.ndarray
    owner: np.ndarray
    v: np.ndarray
    usable: np.ndarray
    b: np.ndarray | None = None
    inverse: np.ndarray | None = None
    col_norms: np.ndarray | None = None
    ok: np.ndarray | None = None

    def tracks(self, lo: int, hi: int) -> TrackLinearization:
        """Tracks lo..hi-1 alone, numbered from zero: views of these
        arrays but for ``starts`` and ``owner``."""
        cols = slice(self.starts[lo], self.starts[hi])
        derived = () if self.b is None else (
            self.b[..., cols], self.inverse[lo:hi], self.col_norms[:, lo:hi],
            self.ok[lo:hi])
        return TrackLinearization(self.starts[lo:hi + 1] - self.starts[lo],
                                  self.owner[cols] - lo, self.v[:, cols],
                                  self.usable[lo:hi], *derived)


# The six distinct entries of a symmetric 3x3 matrix, (row, column): the
# diagonal, then (0, 1), (0, 2) and (1, 2); and where each of the nine
# entries of the matrix, in row-major order, sits among them.
_ROW = np.array([0, 1, 2, 0, 0, 1])
_COL = np.array([0, 1, 2, 1, 2, 2])
_SYMMETRIC = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _invert_blocks(off: np.ndarray, ok: np.ndarray, cond_max: float):
    """Judge and invert the unit-diagonal symmetric blocks whose
    off-diagonal entries (0, 1), (0, 2), (1, 2) are the rows of the
    (3, T) ``off``, among those ``ok`` already: a block passes when its
    eigenvalues are positive and the greatest is at most ``cond_max``
    times the least.

    The eigenvalues of a positive definite block (its leading 2x2 minor
    and its determinant positive) sum to its trace, 3, so the greatest
    is at most 3 and the product of the two greater at most 1.5^2; the
    least is then at least det / 2.25 and the condition at most
    6.75 / det.  Such a block with det >= 6.75 / cond_max passes without
    more ado and is inverted as its adjugate over det.  Only the other
    blocks are decided by their ``eigvalsh`` eigenvalues and, where they
    pass, inverted by ``np.linalg.inv``: the adjugate loses their small
    determinants to cancellation.

    Returns:
        ``(ok, inverse)``: the verdict, updated in ``ok`` itself, and the
        (T, 3, 3) inverses, the identity where not ``ok``.
    """
    a, b, c = off
    adjugate = np.stack([1.0 - c * c, 1.0 - b * b, 1.0 - a * a,
                         b * c - a, a * c - b, a * b - c])
    det = adjugate[0] + a * adjugate[3] + b * adjugate[4]
    screened = ok & (adjugate[2] > 0.0) & (det >= 6.75 / cond_max)
    inverse = _unpack(np.where(screened, adjugate / det,
                               (_ROW == _COL)[:, None]))
    rest = np.flatnonzero(ok & ~screened)
    if rest.size:
        normal = _unpack(np.concatenate([np.ones((3, rest.size)),
                                         off[:, rest]]))
        eig = np.linalg.eigvalsh(normal)
        ok[rest] = passed = (eig[:, 0] > 0.0) & (
            eig[:, -1] <= cond_max * eig[:, 0])
        inverse[rest[passed]] = np.linalg.inv(normal[passed])
    return ok, inverse


def _unpack(entries: np.ndarray) -> np.ndarray:
    """The (T, 3, 3) symmetric matrices of the (6, T) distinct
    ``entries`` in :data:`_ROW`, :data:`_COL` order."""
    return entries[_SYMMETRIC].T.reshape(-1, 3, 3)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def linearize_tracks(models: RpcArrays, index, targets, grounds, starts,
                     cond_max: float | None = None) -> TrackLinearization:
    """Residuals of many tracks at their (T, 3) ``grounds`` and, with
    ``cond_max``, their equilibrated point blocks, judged and inverted.

    Track j's observations are rows ``starts[j]:starts[j + 1]`` of the
    (k, 2) ``targets``, the raw projections its ground should reproduce,
    and of ``index``, their models in the stack ``models``.  One kernel
    call evaluates them all, observation axis last, and each track's
    point block is reduced once as the six distinct entries of its
    normal matrix.  Equilibration makes the condition check reflect ray
    geometry rather than the disparity between planimetric and height
    sensitivities, and leaves the Schur contribution b (b'b)^-1 b'
    unchanged.  A block is ``ok`` when its eigenvalues are positive and
    the greatest is at most ``cond_max`` times the least, decided by a
    determinant screen or else by ``eigvalsh`` (:func:`_invert_blocks`).

    Memory: beside the 860,160 B of one slice of the gather
    (:func:`_evaluate`), a call holds at most about 300 B per
    observation, tracks of two observations being the worst case, and
    returns 72 B per observation (``owner``, ``v``, ``b``) and 98 B per
    track.
    """
    owner = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    g = np.take(grounds, owner, axis=0)
    raw, d_raw, usable = _evaluate(models, index, g[:, 0], g[:, 1], g[:, 2],
                                   cond_max is not None)
    v = np.asarray(targets).T - raw
    usable = np.logical_and.reduceat(usable, starts[:-1])
    if d_raw is None:
        return TrackLinearization(starts, owner, v, usable)
    # residual = observed - project: minus the slope per normalized unit
    unit = models.scale[index[starts[:-1]], :3].T
    gram = np.add.reduceat(d_raw[0, _ROW] * d_raw[0, _COL]
                           + d_raw[1, _ROW] * d_raw[1, _COL],
                           starts[:-1], axis=1)
    gram *= unit[_ROW] * unit[_COL]
    squares = gram[:3]
    ok = (squares > 0.0).all(axis=0) & np.isfinite(gram).all(axis=0)
    col_norms = np.sqrt(np.where(ok, squares, 1.0))
    ok, inverse = _invert_blocks(
        gram[3:] / (col_norms[_ROW[3:]] * col_norms[_COL[3:]]), ok, cond_max)
    b = -d_raw * np.take(unit / col_norms, owner, axis=1)
    return TrackLinearization(starts, owner, v, usable, b, inverse,
                              col_norms, ok)


def _gradient(lin: TrackLinearization, v) -> np.ndarray:
    """Each track's -sum b'v over its columns of the (2, k) residuals
    ``v``, (3, T)."""
    return -np.add.reduceat(lin.b[0] * v[0] + lin.b[1] * v[1],
                            lin.starts[:-1], axis=1)


def point_steps(lin: TrackLinearization, v, which) -> np.ndarray:
    """Gauss-Newton ground steps (k, 3), in normalized units, of the
    tracks selected by the mask ``which``: their inverse normal blocks
    times their gradients of the (2, k) residuals ``v`` (``lin.v`` or a
    shifted copy), summed in the same order for any number of tracks."""
    g = _gradient(lin, v)[:, which, None]
    inverse = lin.inverse[which]
    return ((inverse[:, :, 0] * g[0] + inverse[:, :, 1] * g[1]
             + inverse[:, :, 2] * g[2]) / lin.col_norms[:, which].T)


def _check_usable(usable) -> None:
    """Raise DegenerateDenominator unless every point is usable."""
    if not usable.all():
        raise DegenerateDenominator(
            f"denominator magnitude at or below {DENOMINATOR_EPS:.0e}, or "
            f"projection not finite, at {int(usable.size - usable.sum())} "
            f"evaluation point(s)")


def project_arrays(rpc: RpcModel, lats, lons, heis):
    """Raw (rows, cols) pixel arrays of ground arrays.

    Raises:
        DegenerateDenominator: a denominator vanished, or a projection
            was not finite, at some point.
    """
    raw, _, usable = evaluate_masked(rpc.arrays, None, lats, lons, heis)
    _check_usable(usable)
    return raw[..., 0], raw[..., 1]


def project(rpc: RpcModel, bias: BiasCorrection, g: GroundPoint) -> ImagePoint:
    """Project a ground point into the image, bias applied.

    Raises:
        DegenerateDenominator: a rational denominator vanished at ``g``.
    """
    rows, cols = project_arrays(rpc, g.lat, g.lon, g.hei)
    return ImagePoint(float(rows - bias.d_row), float(cols - bias.d_col))


def residual(
    rpc: RpcModel, bias: BiasCorrection, g: GroundPoint, observed: ImagePoint
) -> tuple[float, float]:
    """Observed-minus-projected reprojection residual, (v_row, v_col) px."""
    p = project(rpc, bias, g)
    return observed.row - p.row, observed.col - p.col


def jacobian(rpc: RpcModel, g0: GroundPoint) -> np.ndarray:
    """Analytic (2, 3) residual derivative d(residual)/d(lat, lon, hei)
    at the linearization point ``g0``, in pixels per degree / per meter:
    minus the projection derivative.  The bias block is the 2x2 identity
    and is not returned.

    Raises:
        DegenerateDenominator: a rational denominator vanished at ``g0``.
    """
    _, d_raw, usable = evaluate_masked(rpc.arrays, None, g0.lat, g0.lon,
                                       g0.hei, derivatives=True)
    _check_usable(usable)
    return -d_raw


# Per-point outcome of the batched solvers; the one-point wrappers raise
# the matching error.
SOLVED, DEGENERATE, SINGULAR, ILL_CONDITIONED, DIVERGED, NOT_CONVERGED = \
    range(6)

_FAILURES = {
    DEGENERATE: (DegenerateDenominator,
                 "a rational denominator vanished, or the projection was "
                 "not finite, at an iterate"),
    SINGULAR: (IllConditioned, "planimetric Jacobian is singular"),
    ILL_CONDITIONED: (IllConditioned, "triangulation normal matrix "
                      f"condition exceeds {TRIANGULATION_COND_MAX:.0e}"),
    DIVERGED: (NoConvergence,
               "image-to-ground iteration left the model validity region"),
    NOT_CONVERGED: (NoConvergence,
                    f"no fix within {MAX_ITERATIONS} iterations"),
}


def _raise_failure(status) -> None:
    if status != SOLVED:
        error, message = _FAILURES[int(status)]
        raise error(message)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def inverse_project_many(models: RpcArrays, index, targets, heis):
    """Ground points at heights ``heis`` whose raw projections are the
    (K, 2) ``targets``: point k under model ``index[k]`` of the stack
    ``models``, or all under the one model ``models`` if ``index`` is
    None.

    Newton iteration on (lat, lon) in lock-step over the points, each
    using the 2x2 planimetric sub-block of its projection derivative and
    started at its model's ground offsets.  A point leaves the iteration
    once its residual is below 1e-6 px, or fails: a vanished denominator
    or a projection that is not finite, a singular planimetric block, an
    iterate beyond 10 ground scales of the model offsets, or no fix in 20
    iterations.

    Returns:
        ``(lats, lons, status)``: per-point outcome codes (``SOLVED`` or
        a failure); a failed point's coordinates are meaningless.
    """
    targets = np.asarray(targets, dtype=np.float64)
    heis = np.broadcast_to(np.asarray(heis, dtype=np.float64),
                           len(targets))
    offset, scale = (np.broadcast_to(a if index is None else a[index],
                                     (len(targets), 5))
                     for a in (models.offset, models.scale))
    lats = offset[:, 0].copy()
    lons = offset[:, 1].copy()
    status = np.full(len(targets), NOT_CONVERGED)
    live = np.arange(len(targets))
    for _ in range(MAX_ITERATIONS):
        if not live.size:
            break
        raw, d_raw, usable = _evaluate(
            models, None if index is None else index[live], lats[live],
            lons[live], heis[live], derivatives=True)
        v = targets[live].T - raw
        done = usable & (np.abs(v).max(axis=0) < IMAGE_TOL_PX)
        a, b = d_raw[0, 0], d_raw[0, 1]
        c, d = d_raw[1, 0], d_raw[1, 1]
        det = a * d - b * c
        status[live[~usable]] = DEGENERATE
        status[live[done]] = SOLVED
        status[live[usable & ~done & (det == 0.0)]] = SINGULAR
        s = np.flatnonzero(usable & ~done & (det != 0.0))
        moving = live[s]
        lats[moving] += (d[s] * v[0, s] - b[s] * v[1, s]) / det[s]
        lons[moving] += (a[s] * v[1, s] - c[s] * v[0, s]) / det[s]
        far = ((np.abs(lats[moving] - offset[moving, 0]) / scale[moving, 0]
                > DIVERGENCE_BOUND)
               | (np.abs(lons[moving] - offset[moving, 1]) / scale[moving, 1]
                  > DIVERGENCE_BOUND))
        status[moving[far]] = DIVERGED
        live = moving[~far]
    return lats, lons, status


def inverse_project_arrays(rpc: RpcModel, rows, cols, heis):
    """Vectorized image-to-ground: (lats, lons) arrays at heights ``heis``
    whose raw projections are the pixel arrays ``rows`` and ``cols``.
    One :func:`inverse_project_many` call under the model.

    Raises:
        NoConvergence, IllConditioned, DegenerateDenominator: the error of
            the first point that fails, as for :func:`inverse_project`.
    """
    rows, cols, heis = np.broadcast_arrays(rows, cols, heis)
    targets = np.stack([np.ravel(rows), np.ravel(cols)], axis=1)
    lats, lons, status = inverse_project_many(rpc.arrays, None, targets,
                                              np.ravel(heis))
    failed = np.flatnonzero(status != SOLVED)
    if failed.size:
        _raise_failure(status[failed[0]])
    return lats.reshape(rows.shape), lons.reshape(rows.shape)


def inverse_project(
    rpc: RpcModel, bias: BiasCorrection, p: ImagePoint, hei: float
) -> GroundPoint:
    """Ground point at height ``hei`` whose projection, bias applied, is
    ``p``: the one-point case of :func:`inverse_project_arrays`.

    Raises:
        NoConvergence: residual above 1e-6 px after 20 iterations, or the
            iterate left the normalized ground cube by a wide margin.
        IllConditioned: the planimetric Jacobian is singular.
        DegenerateDenominator: a rational denominator vanished.
    """
    # residual = observed - (raw - bias), so fold the bias into the target
    lats, lons = inverse_project_arrays(rpc, p.row + bias.d_row,
                                        p.col + bias.d_col, hei)
    return GroundPoint(float(lats), float(lons), float(hei))


def cast_heads(models: RpcArrays, heads, targets):
    """Ground points at the height offsets of the models ``heads`` whose
    raw projections under those models are the (T, 2) ``targets``: a
    track's start in :func:`triangulate_many`.  One
    :func:`inverse_project_many` call.

    Returns:
        ``(grounds, status)``: (T, 3) lat, lon, hei and the per-point
        outcome codes.
    """
    hei = models.offset[heads, 2]
    lats, lons, status = inverse_project_many(models, heads, targets, hei)
    return np.stack([lats, lons, hei], axis=1), status


def triangulate_many(models: RpcArrays, index, targets, starts, cast=None):
    """Least-squares ground points of many tracks by Gauss-Newton in
    lock-step.

    Track j's observations are rows ``starts[j]:starts[j + 1]`` of the
    (K, 2) ``targets``, the observed pixels plus their image's bias (the
    raw projection the ground must reproduce), and of ``index``, their
    models in the stack ``models``; every track needs at least two.
    Each track is parameterized in its first model's normalized ground
    units with the Jacobian columns equilibrated to unit norm
    (:func:`linearize_tracks`), and started by casting its first
    observation onto that model's height offset (:func:`cast_heads`,
    whose result for these tracks ``cast`` may hold, so that many calls
    can share one cast).  A track leaves the iteration once
    every normalized coordinate moves by less than 1e-9, or fails: its
    start fails, a denominator vanishes or a projection is not finite,
    its equilibrated normal matrix fails the eigenvalue test at 1e8, or
    20 iterations pass.  The tracks share
    nothing but the loop, so one failure leaves the others untouched.

    Returns:
        ``(grounds, status)``: (T, 3) lat, lon, hei and the per-track
        outcome codes; a failed track's ground is meaningless.
    """
    targets = np.asarray(targets, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    heads = index[starts[:-1]]
    scales = models.scale[heads, :3]
    if cast is None:
        cast = cast_heads(models, heads, targets[starts[:-1]])
    grounds, status = (np.array(a) for a in cast)
    live = np.flatnonzero(status == SOLVED)
    status[live] = NOT_CONVERGED
    for _ in range(MAX_ITERATIONS):
        if not live.size:
            break
        rows, sub = _segment_rows(starts, live)
        lin = linearize_tracks(models, index[rows], targets[rows],
                               grounds[live], sub, TRIANGULATION_COND_MAX)
        ok = lin.ok & lin.usable
        status[live[~lin.usable]] = DEGENERATE
        status[live[lin.usable & ~lin.ok]] = ILL_CONDITIONED
        step = point_steps(lin, lin.v, ok)
        moved = live[ok]
        grounds[moved] += step * scales[moved]
        done = np.abs(step).max(axis=1) < GROUND_TOL_NORM
        status[moved[done]] = SOLVED
        live = moved[~done]
    return grounds, status


def triangulate(
    observations: list[tuple[RpcModel, BiasCorrection, ImagePoint]],
) -> GroundPoint:
    """Least-squares ground point from two or more image observations:
    the one-track case of :func:`triangulate_many`, started from the
    first observation.

    Raises:
        ValueError: fewer than two observations.
        IllConditioned: equilibrated normal matrix condition above 1e8
            (e.g. all rays from one image).
        NoConvergence: no ground fix after 20 iterations.
        DegenerateDenominator: a rational denominator vanished.
    """
    if len(observations) < 2:
        raise ValueError("triangulation needs at least two observations")
    # residual = observed - (raw - bias), so fold the bias into the target
    targets = [(p.row + b.d_row, p.col + b.d_col) for _, b, p in observations]
    grounds, status = triangulate_many(
        stack_models([m for m, _, _ in observations]),
        np.arange(len(observations)), targets, [0, len(observations)])
    _raise_failure(status[0])
    return GroundPoint(*(float(x) for x in grounds[0]))


# ---------------------------------------------------------------------------
# RPC text file format
# ---------------------------------------------------------------------------

_SCALAR_KEYS = {
    "LINE_OFF": "line_off",
    "SAMP_OFF": "samp_off",
    "LAT_OFF": "lat_off",
    "LONG_OFF": "lon_off",
    "HEIGHT_OFF": "hei_off",
    "LINE_SCALE": "line_scale",
    "SAMP_SCALE": "samp_scale",
    "LAT_SCALE": "lat_scale",
    "LONG_SCALE": "lon_scale",
    "HEIGHT_SCALE": "hei_scale",
}

_COEFF_GROUPS = {
    "LINE_NUM_COEFF": "line_num",
    "LINE_DEN_COEFF": "line_den",
    "SAMP_NUM_COEFF": "samp_num",
    "SAMP_DEN_COEFF": "samp_den",
}

_COEFF_KEYS = {attr: [f"{group}_{i}" for i in range(1, 21)]
               for group, attr in _COEFF_GROUPS.items()}
# every key, in file order
_RPC_KEYS = dict.fromkeys([*_SCALAR_KEYS, *sum(_COEFF_KEYS.values(), [])])


def parse_rpc_text(text: str, source: str = "<string>") -> RpcModel:
    """Parse the line-oriented ``KEY: value`` RPC format.

    Tolerates extra whitespace, scientific notation and trailing unit words
    (``LINE_OFF: 10872.0 pixels``).  Other keys are skipped, but their
    values must be numbers too; see :func:`textfile.keys` and
    :func:`rpc_from_keys` for the ParseErrors raised.
    """
    return rpc_from_keys(textfile.keys(text, source), source)


def rpc_from_keys(values: dict[str, float], source: str) -> RpcModel:
    """The model given by the RPC keys among ``values``, read from
    ``source`` by :func:`textfile.keys`.

    Raises:
        ParseError: a missing key, a coefficient index outside 1-20, a
            scale that is not positive or a zero constant denominator.
    """
    for key in values:
        if key not in _RPC_KEYS and key.rpartition("_")[0] in _COEFF_GROUPS:
            raise ParseError(f"{source}: coefficient index out of range 1-20 "
                             f"in key {key}")
    for key in _RPC_KEYS:
        if key not in values:
            raise ParseError(f"{source}: missing key {key}")
    for key in _SCALAR_KEYS:
        if key.endswith("_SCALE") and not values[key] > 0:
            raise ParseError(f"{source}: key {key} must be positive, got "
                             f"{values[key]!r}")
    scalars = {attr: values[key] for key, attr in _SCALAR_KEYS.items()}
    arrays = {attr: np.array([values[k] for k in keys], dtype=np.float64)
              for attr, keys in _COEFF_KEYS.items()}
    # Normalize so both constant denominator coefficients are exactly one.
    for num_name, den_name in (("line_num", "line_den"),
                               ("samp_num", "samp_den")):
        den0 = arrays[den_name][0]
        if abs(den0) <= DENOMINATOR_EPS:
            raise ParseError(
                f"{source}: constant coefficient of {den_name} is zero"
            )
        if den0 != 1.0:
            arrays[num_name] = arrays[num_name] / den0
            arrays[den_name] = arrays[den_name] / den0
    return RpcModel(**scalars, **arrays)


def load_rpc_file(path) -> RpcModel:
    """Load and validate an RPC model from a text file."""
    with textfile.open_text(path) as fh:
        rpc = parse_rpc_text(fh.read(), source=str(path))
    rpc.validate()
    return rpc


def format_rpc_text(rpc: RpcModel) -> str:
    """Serialize a model to the text format, full double precision."""
    return textfile.format_keys([
        *((key, getattr(rpc, attr)) for key, attr in _SCALAR_KEYS.items()),
        *(pair for attr, keys in _COEFF_KEYS.items()
          for pair in zip(keys, getattr(rpc, attr).tolist()))])


def save_rpc_file(rpc: RpcModel, path) -> None:
    textfile.write(path, (), [format_rpc_text(rpc)])
