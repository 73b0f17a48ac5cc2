"""Bias-corrected rational polynomial camera model.

An RPC camera maps normalized ground coordinates (lat, lon, height) to
normalized image coordinates (row, col) through two cubic rational
polynomials with 20 coefficients each in numerator and denominator.  The
monomial ordering follows the de-facto RPC00B convention so that real RPC
text files load correctly.

:func:`evaluate_masked` is the only place the polynomials are evaluated:
every projection, Jacobian, image-to-ground iteration, triangulation and
the adjustment's per-track reduction call it on constants packed once
per model (:class:`RpcArrays`), and it flags vanished denominators and
non-finite projections per point.  A single model is passed as itself
(``rpc.arrays``); a batch that mixes models is passed as a stack of them
(:func:`stack_models`) plus a per-point row index, which it alone
gathers.  :meth:`RpcModel.validate` and the RPC fit in :mod:`.rectify`
use the monomials only as a design matrix.

Triangulation and the adjustment's passes share one per-track linearization
and elimination, :func:`linearize_tracks`, and step, :func:`point_steps`.

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
  respect to (lat, lon, hei) is minus the raw projection derivative; the
  ``Jacobians`` blocks follow the residual convention so that downstream
  least squares can use them directly.

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


@dataclass(frozen=True)
class Jacobians:
    """Residual derivatives at a linearization point.

    ``a_block`` is d(residual)/d(d_row, d_col), identically the 2x2
    identity for the constant-bias model.  ``b_block`` is
    d(residual)/d(lat, lon, hei) in pixels per degree / per meter.
    """

    a_block: np.ndarray
    b_block: np.ndarray


class RpcArrays(NamedTuple):
    """Constants of one RPC model, or of a stack of models along leading
    axes, packed for :func:`evaluate_masked`.  One model is passed as
    itself, a batch as their stack plus a row index per point.

    ``offset`` and ``scale`` are (..., 5): latitude, longitude, height,
    line, sample.  ``coeffs`` is (..., 4, 20): the line and sample
    numerators, then the line and sample denominators.  ``slopes`` is
    (..., 4, 3, 10): the derivatives of those four polynomials with
    respect to normalized (P, L, H), as coefficients of the first ten
    monomials.
    """

    offset: np.ndarray
    scale: np.ndarray
    coeffs: np.ndarray
    slopes: np.ndarray


def stack_models(models) -> RpcArrays:
    """Stack the packed constants of several models along a new first
    axis."""
    return RpcArrays(*(np.stack(a) for a in zip(*(m.arrays for m in models))))


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
        object.__setattr__(self, "arrays", RpcArrays(
            offset=np.array([self.lat_off, self.lon_off, self.hei_off,
                             self.line_off, self.samp_off]),
            scale=np.array([self.lat_scale, self.lon_scale, self.hei_scale,
                            self.line_scale, self.samp_scale]),
            coeffs=coeffs,
            slopes=np.einsum("ct,kts->cks", coeffs, _SLOPES),
        ))

    def validate(self) -> None:
        """Check the denominators over the validity cube.

        Samples a regular grid on [-1.2, 1.2]^3 in normalized ground
        coordinates and raises DegenerateDenominator if either denominator
        polynomial comes within 1e-10 of zero, is NaN somewhere, or
        changes sign between samples (a continuous polynomial that does
        has a root in the cube, even between the grid points).
        """
        for name, den in (("line", self.line_den), ("samp", self.samp_den)):
            vals = _VALIDATION_TERMS @ den
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


def poly_terms(P, L, H) -> np.ndarray:
    """The 20 cubic monomials of the RPC00B convention, last axis length 20.

    Accepts scalars or equally shaped arrays; broadcasting follows numpy
    rules.  Order: 1, L, P, H, LP, LH, PH, L2, P2, H2, PLH, L3, LP2, LH2,
    L2P, P3, PH2, L2H, P2H, H3.  Every monomial is a product of two
    others (``np.power`` costs some 40x a multiplication on [-1, 1]).
    """
    P = np.asarray(P, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    one = np.ones(np.broadcast(P, L, H).shape)
    lp, lh, ph = L * P, L * H, P * H
    ll, pp, hh = L * L, P * P, H * H
    return np.stack(
        [
            one,
            L, P, H,
            lp, lh, ph,
            ll, pp, hh,
            lp * H,
            ll * L, lp * P, lh * H, ll * P,
            pp * P, ph * H, ll * H, pp * H,
            hh * H,
        ],
        axis=-1,
    )


def _validation_terms() -> np.ndarray:
    """The monomials of the regular grid that :meth:`RpcModel.validate`
    samples, (VALIDATION_SAMPLES**3, 20)."""
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate_masked(models: RpcArrays, index, lats, lons, heis,
                    derivatives: bool = False):
    """Raw (row, col) projection of ground points by packed RPC models.
    Point k is evaluated under model ``index[k]`` of the stack ``models``
    (the only gather of per-point model constants), or, with ``index``
    None, under ``models`` broadcast against the ground arrays.

    Returns:
        ``(raw, d_raw, usable)``: the (..., 2) projection; with
        ``derivatives``, its (..., 2, 3) derivative with respect to (lat,
        lon, hei) in pixels per degree and per meter (else None); and
        ``usable``, False at points whose values are meaningless: a
        denominator vanished or the projection is not finite.
    """
    if index is not None:
        # np.take copies rows about twice as fast as a[index]
        models = RpcArrays(*(np.take(a, index, axis=0) for a in models))
    off, scale = models.offset, models.scale
    P = (np.asarray(lats, dtype=np.float64) - off[..., 0]) / scale[..., 0]
    L = (np.asarray(lons, dtype=np.float64) - off[..., 1]) / scale[..., 1]
    H = (np.asarray(heis, dtype=np.float64) - off[..., 2]) / scale[..., 2]
    terms = poly_terms(P, L, H)
    vals = np.einsum("...t,...ct->...c", terms, models.coeffs)
    num, den = vals[..., :2], vals[..., 2:]
    usable = (np.abs(den) > DENOMINATOR_EPS).all(axis=-1)  # NaN too
    if not usable.all():
        den = np.where(usable[..., None], den, 1.0)
    raw = num / den * scale[..., 3:] + off[..., 3:]
    usable &= np.isfinite(raw).all(axis=-1)
    if not derivatives:
        return raw, None, usable
    d_vals = np.einsum("...s,...cks->...ck", terms[..., :10], models.slopes)
    d_num, d_den = d_vals[..., :2, :], d_vals[..., 2:, :]
    # quotient rule, chained through the image and ground normalizations
    d_norm = ((d_num * den[..., None] - num[..., None] * d_den)
              / (den * den)[..., None])
    return raw, d_norm * scale[..., 3:, None] / scale[..., None, :3], usable


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
    """Many tracks linearized at their grounds (:func:`linearize_tracks`).

    Track j owns rows ``starts[j]:starts[j + 1]`` of the per-observation
    arrays; ``owner`` is each row's track.  ``v`` (k, 2) are the
    residuals, target minus raw projection; ``usable`` is False for a
    track where a denominator vanished.  With derivatives (else None):
    ``b`` (k, 2, 3) are the residual Jacobians in each track's first
    model's normalized ground units over its column norms ``col_norms``
    (T, 3), ``inverse`` (T, 3, 3) the inverse normal matrices of those
    columns (the identity where not ``ok``), and ``ok`` False where a
    column vanishes or is not finite, or the eigenvalue test fails.
    """

    starts: np.ndarray
    owner: np.ndarray
    v: np.ndarray
    usable: np.ndarray
    b: np.ndarray | None = None
    inverse: np.ndarray | None = None
    col_norms: np.ndarray | None = None
    ok: np.ndarray | None = None


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def linearize_tracks(models: RpcArrays, index, targets, grounds, starts,
                     cond_max: float | None = None) -> TrackLinearization:
    """Residuals of many tracks at their (T, 3) ``grounds`` and, with
    ``cond_max``, their equilibrated point blocks, judged and inverted.

    Track j's observations are rows ``starts[j]:starts[j + 1]`` of the
    (k, 2) ``targets``, the raw projections its ground should reproduce,
    and of ``index``, their models in the stack ``models``.
    Equilibration makes the condition check reflect ray geometry rather
    than the disparity between planimetric and height sensitivities, and
    leaves the Schur contribution b (b'b)^-1 b' unchanged.  A block is
    ``ok`` when its ``eigvalsh`` eigenvalues are positive and the
    greatest is at most ``cond_max`` times the least.
    """
    owner = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    g = grounds[owner]
    raw, d_raw, usable = evaluate_masked(models, index, g[:, 0], g[:, 1],
                                         g[:, 2], cond_max is not None)
    v = targets - raw
    usable = np.logical_and.reduceat(usable, starts[:-1])
    if d_raw is None:
        return TrackLinearization(starts, owner, v, usable)
    # residual = observed - project: minus the slope per normalized unit
    unit = models.scale[index[starts[:-1]], :3]
    rows = d_raw.reshape(-1, 3)
    gram = np.add.reduceat(rows[:, :, None] * rows[:, None, :],
                           2 * starts[:-1])
    gram *= unit[:, :, None] * unit[:, None]
    squares = np.einsum("tii->ti", gram)
    ok = (squares > 0.0).all(axis=1) & np.isfinite(gram).all(axis=(1, 2))
    col_norms = np.sqrt(np.where(ok[:, None], squares, 1.0))
    normal = gram / (col_norms[:, :, None] * col_norms[:, None, :])
    eig = np.linalg.eigvalsh(normal[ok])
    ok[ok] = (eig[:, 0] > 0.0) & (eig[:, -1] <= cond_max * eig[:, 0])
    inverse = np.linalg.inv(np.where(ok[:, None, None], normal, np.eye(3)))
    b = -d_raw * np.take(unit / col_norms, owner, axis=0)[:, None, :]
    return TrackLinearization(starts, owner, v, usable, b, inverse,
                              col_norms, ok)


def _gradient(lin: TrackLinearization, v) -> np.ndarray:
    """Each track's -sum b'v over its rows of the residuals ``v``."""
    return -np.add.reduceat(np.einsum("kri,kr->ki", lin.b, v), lin.starts[:-1])


def point_steps(lin: TrackLinearization, v, which) -> np.ndarray:
    """Gauss-Newton ground steps, in normalized units, of the tracks
    selected by the mask ``which``: their inverse normal blocks times
    their gradients of the residuals ``v`` (``lin.v`` or a shifted copy)."""
    return (np.einsum("tij,tj->ti", lin.inverse[which],
                      _gradient(lin, v)[which]) / lin.col_norms[which])


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


def jacobian(rpc: RpcModel, g0: GroundPoint) -> Jacobians:
    """Analytic residual derivatives at the linearization point ``g0``.

    The bias block is the identity because the bias enters the residual
    linearly; the ground block is minus the projection derivative.

    Raises:
        DegenerateDenominator: a rational denominator vanished at ``g0``.
    """
    _, d_raw, usable = evaluate_masked(rpc.arrays, None, g0.lat, g0.lon,
                                       g0.hei, derivatives=True)
    _check_usable(usable)
    return Jacobians(a_block=np.eye(2), b_block=-d_raw)


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
        raw, d_raw, usable = evaluate_masked(
            models, None if index is None else index[live], lats[live],
            lons[live], heis[live], derivatives=True)
        v = targets[live] - raw
        done = usable & (np.abs(v).max(axis=1) < IMAGE_TOL_PX)
        a, b = d_raw[:, 0, 0], d_raw[:, 0, 1]
        c, d = d_raw[:, 1, 0], d_raw[:, 1, 1]
        det = a * d - b * c
        status[live[~usable]] = DEGENERATE
        status[live[done]] = SOLVED
        status[live[usable & ~done & (det == 0.0)]] = SINGULAR
        s = np.flatnonzero(usable & ~done & (det != 0.0))
        moving = live[s]
        lats[moving] += (d[s] * v[s, 0] - b[s] * v[s, 1]) / det[s]
        lons[moving] += (a[s] * v[s, 1] - c[s] * v[s, 0]) / det[s]
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


def triangulate_many(models: RpcArrays, index, targets, starts):
    """Least-squares ground points of many tracks by Gauss-Newton in
    lock-step.

    Track j's observations are rows ``starts[j]:starts[j + 1]`` of the
    (K, 2) ``targets``, the observed pixels plus their image's bias (the
    raw projection the ground must reproduce), and of ``index``, their
    models in the stack ``models``; every track needs at least two.
    Each track is parameterized in its first model's normalized ground
    units with the Jacobian columns equilibrated to unit norm
    (:func:`linearize_tracks`), and started by casting its first
    observation onto that model's height offset
    (:func:`inverse_project_many`).  A track leaves the iteration once
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
    hei = models.offset[heads, 2]
    lats, lons, status = inverse_project_many(models, heads,
                                              targets[starts[:-1]], hei)
    grounds = np.stack([lats, lons, hei], axis=1)
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
    with open(path, "r") as fh:
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
