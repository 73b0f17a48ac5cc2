"""Bias-corrected rational polynomial camera model.

An RPC camera maps normalized ground coordinates (lat, lon, height) to
normalized image coordinates (row, col) through two cubic rational
polynomials with 20 coefficients each in numerator and denominator.  The
monomial ordering follows the de-facto RPC00B convention so that real RPC
text files load correctly.

:func:`evaluate` is the only place the polynomials are evaluated: every
projection, residual, Jacobian, image-to-ground iteration, triangulation
and the adjustment's per-track reduction call it on constants packed once
per model (:class:`RpcArrays`).  :meth:`RpcModel.validate` and the RPC
fit in :mod:`.rectify` use the monomials only as a design matrix.

Sign conventions used throughout the package:

* ``project(rpc, bias, g)`` returns the denormalized RPC projection minus
  the bias ``(d_row, d_col)``.  A correctly estimated bias therefore makes
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
    axes, packed for :func:`evaluate`.

    ``offset`` and ``scale`` are (..., 5): latitude, longitude, height,
    line, sample.  ``coeffs`` is (..., 4, 20): the line and sample
    numerators, then the line and sample denominators.
    """

    offset: np.ndarray
    scale: np.ndarray
    coeffs: np.ndarray

    def take(self, idxs) -> "RpcArrays":
        """The models at ``idxs`` of a stack, in that order."""
        return RpcArrays(*(a[idxs] for a in self))


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
    same constants packed for :func:`evaluate`, built once on
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
        object.__setattr__(self, "arrays", RpcArrays(
            offset=np.array([self.lat_off, self.lon_off, self.hei_off,
                             self.line_off, self.samp_off]),
            scale=np.array([self.lat_scale, self.lon_scale, self.hei_scale,
                            self.line_scale, self.samp_scale]),
            coeffs=np.stack([self.line_num, self.samp_num,
                             self.line_den, self.samp_den]),
        ))

    def validate(self, samples_per_axis: int = 7) -> None:
        """Check the denominator magnitude over the validity cube.

        Samples a regular grid on [-1.2, 1.2]^3 in normalized ground
        coordinates and raises DegenerateDenominator if either denominator
        polynomial comes within 1e-10 of zero.
        """
        axis = np.linspace(-VALIDITY_MARGIN, VALIDITY_MARGIN, samples_per_axis)
        pp, ll, hh = np.meshgrid(axis, axis, axis, indexing="ij")
        t = poly_terms(pp.ravel(), ll.ravel(), hh.ravel())
        for name, den in (("line", self.line_den), ("samp", self.samp_den)):
            vals = t @ den
            worst = float(np.min(np.abs(vals)))
            if worst <= DENOMINATOR_EPS:
                raise DegenerateDenominator(
                    f"{name} denominator reaches |{worst:.3e}| inside the "
                    f"validity cube"
                )


def poly_terms(P, L, H) -> np.ndarray:
    """The 20 cubic monomials of the RPC00B convention, last axis length 20.

    Accepts scalars or equally shaped arrays; broadcasting follows numpy
    rules.  Order: 1, L, P, H, LP, LH, PH, L2, P2, H2, PLH, L3, LP2, LH2,
    L2P, P3, PH2, L2H, P2H, H3.
    """
    P = np.asarray(P, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    one = np.ones(np.broadcast(P, L, H).shape)
    return np.stack(
        [
            one,
            L, P, H,
            L * P, L * H, P * H,
            L * L, P * P, H * H,
            P * L * H,
            L ** 3, L * P * P, L * H * H, L * L * P,
            P ** 3, P * H * H, L * L * H, P * P * H,
            H ** 3,
        ],
        axis=-1,
    )


def poly_partials(P, L, H) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial derivatives of :func:`poly_terms` w.r.t. P, L and H."""
    P = np.asarray(P, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    zero = np.zeros(np.broadcast(P, L, H).shape)
    one = np.ones_like(zero)
    d_p = np.stack(
        [
            zero,
            zero, one, zero,
            L, zero, H,
            zero, 2 * P, zero,
            L * H,
            zero, 2 * L * P, zero, L * L,
            3 * P * P, H * H, zero, 2 * P * H,
            zero,
        ],
        axis=-1,
    )
    d_l = np.stack(
        [
            zero,
            one, zero, zero,
            P, H, zero,
            2 * L, zero, zero,
            P * H,
            3 * L * L, P * P, H * H, 2 * L * P,
            zero, zero, 2 * L * H, zero,
            zero,
        ],
        axis=-1,
    )
    d_h = np.stack(
        [
            zero,
            zero, zero, one,
            zero, L, P,
            zero, zero, 2 * H,
            P * L,
            zero, zero, 2 * L * H, zero,
            zero, 2 * P * H, L * L, P * P,
            3 * H * H,
        ],
        axis=-1,
    )
    return d_p, d_l, d_h


def evaluate(models: RpcArrays, lats, lons, heis, derivatives: bool = False):
    """Raw (row, col) projection of ground points by packed RPC models.

    ``models`` is one model's :class:`RpcArrays` or a stack whose leading
    axes broadcast against the ground arrays: one model covers a whole
    grid, a per-observation stack pairs with its points row by row.

    Returns:
        ``(raw, d_raw)``: the (..., 2) projection without bias and, with
        ``derivatives``, its (..., 2, 3) derivative with respect to
        (lat, lon, hei) in pixels per degree and per meter (else None).

    Raises:
        DegenerateDenominator: a rational denominator vanished at some
            evaluation point.
    """
    off, scale = models.offset, models.scale
    P = (np.asarray(lats, dtype=np.float64) - off[..., 0]) / scale[..., 0]
    L = (np.asarray(lons, dtype=np.float64) - off[..., 1]) / scale[..., 1]
    H = (np.asarray(heis, dtype=np.float64) - off[..., 2]) / scale[..., 2]
    vals = np.einsum("...t,...ct->...c", poly_terms(P, L, H), models.coeffs)
    num, den = vals[..., :2], vals[..., 2:]
    worst = float(np.min(np.abs(den)))
    if worst <= DENOMINATOR_EPS:
        raise DegenerateDenominator(
            f"denominator magnitude {worst:.3e} at evaluation point"
        )
    raw = num / den * scale[..., 3:] + off[..., 3:]
    if not derivatives:
        return raw, None
    partials = np.stack(poly_partials(P, L, H), axis=-2)
    d_vals = np.einsum("...kt,...ct->...ck", partials, models.coeffs)
    d_num, d_den = d_vals[..., :2, :], d_vals[..., 2:, :]
    # quotient rule, chained through the image and ground normalizations
    d_norm = ((d_num * den[..., None] - num[..., None] * d_den)
              / (den * den)[..., None])
    return raw, d_norm * scale[..., 3:, None] / scale[..., None, :3]


def equilibrated_point_block(b_stack: np.ndarray, cond_max: float):
    """Normal matrix of one ground point's stacked (r, 3) Jacobian with
    its columns scaled to unit norm.

    Equilibration makes the condition check reflect ray geometry rather
    than the disparity between planimetric and height sensitivities.

    Returns:
        ``(b_eq, normal, col_norms)``, or None when a column vanishes or
        the equilibrated normal matrix condition exceeds ``cond_max``.
    """
    col_norms = np.linalg.norm(b_stack, axis=0)
    if col_norms.min() <= 0.0:
        return None
    b_eq = b_stack / col_norms
    normal = b_eq.T @ b_eq
    if np.linalg.cond(normal) > cond_max:
        return None
    return b_eq, normal, col_norms


def project_arrays(rpc: RpcModel, bias: BiasCorrection, lats, lons, heis):
    """Vectorized projection of ground arrays to (rows, cols) pixel arrays."""
    raw, _ = evaluate(rpc.arrays, lats, lons, heis)
    return raw[..., 0] - bias.d_row, raw[..., 1] - bias.d_col


def project(rpc: RpcModel, bias: BiasCorrection, g: GroundPoint) -> ImagePoint:
    """Project a ground point into the image, bias applied.

    Raises:
        DegenerateDenominator: a rational denominator vanished at ``g``.
    """
    rows, cols = project_arrays(rpc, bias, g.lat, g.lon, g.hei)
    return ImagePoint(float(rows), float(cols))


def residual(
    rpc: RpcModel, bias: BiasCorrection, g: GroundPoint, observed: ImagePoint
) -> tuple[float, float]:
    """Observed-minus-projected reprojection residual, (v_row, v_col) px."""
    p = project(rpc, bias, g)
    return observed.row - p.row, observed.col - p.col


def jacobian(rpc: RpcModel, bias0: BiasCorrection, g0: GroundPoint) -> Jacobians:
    """Analytic residual derivatives at the linearization point ``g0``.

    The bias block is the identity because the bias enters the residual
    linearly; the ground block is minus the projection derivative.

    Raises:
        DegenerateDenominator: a rational denominator vanished at ``g0``.
    """
    _, d_raw = evaluate(rpc.arrays, g0.lat, g0.lon, g0.hei, derivatives=True)
    return Jacobians(a_block=np.eye(2), b_block=-d_raw)


def inverse_project(
    rpc: RpcModel, bias: BiasCorrection, p: ImagePoint, hei: float
) -> GroundPoint:
    """Ground point at height ``hei`` whose projection is ``p``.

    Newton iteration on (lat, lon) using the 2x2 planimetric sub-block of
    the projection derivative, started at the model's ground offsets.

    Raises:
        NoConvergence: residual above 1e-6 px after 20 iterations, or the
            iterate left the normalized ground cube by a wide margin.
        DegenerateDenominator: propagated from projection.
    """
    lat, lon = rpc.lat_off, rpc.lon_off
    # residual = observed - (raw - bias), so fold the bias into the target
    target = np.array([p.row + bias.d_row, p.col + bias.d_col])
    for _ in range(MAX_ITERATIONS):
        raw, d_raw = evaluate(rpc.arrays, lat, lon, hei, derivatives=True)
        v = target - raw
        if float(np.max(np.abs(v))) < IMAGE_TOL_PX:
            return GroundPoint(lat, lon, float(hei))
        try:
            step = np.linalg.solve(d_raw[:, :2], v)
        except np.linalg.LinAlgError:
            raise IllConditioned("planimetric Jacobian is singular") from None
        lat = float(lat + step[0])
        lon = float(lon + step[1])
        if (abs(lat - rpc.lat_off) / rpc.lat_scale > DIVERGENCE_BOUND
                or abs(lon - rpc.lon_off) / rpc.lon_scale > DIVERGENCE_BOUND):
            raise NoConvergence(
                "image-to-ground iteration left the model validity region"
            )
    raise NoConvergence(
        f"image-to-ground residual above {IMAGE_TOL_PX} px "
        f"after {MAX_ITERATIONS} iterations"
    )


def triangulate(
    observations: list[tuple[RpcModel, BiasCorrection, ImagePoint]],
) -> GroundPoint:
    """Least-squares ground point from two or more image observations.

    Gauss-Newton on (lat, lon, hei), parameterized in the first model's
    normalized ground units with the Jacobian columns equilibrated to
    unit norm (:func:`equilibrated_point_block`).  Initialized by casting
    the first observation onto its height offset.

    Raises:
        ValueError: fewer than two observations.
        IllConditioned: equilibrated normal matrix condition above 1e8
            (e.g. all rays from one image).
        NoConvergence: no ground fix after 20 iterations.
    """
    if len(observations) < 2:
        raise ValueError("triangulation needs at least two observations")
    rpc0, bias0, p0 = observations[0]
    g = inverse_project(rpc0, bias0, p0, rpc0.hei_off)
    scales = rpc0.arrays.scale[:3]
    models = stack_models([m for m, _, _ in observations])
    # residual = observed - (raw - bias), so fold the bias into the target
    target = np.array([(p.row + b.d_row, p.col + b.d_col)
                       for _, b, p in observations])

    for _ in range(MAX_ITERATIONS):
        raw, d_raw = evaluate(models, g.lat, g.lon, g.hei, derivatives=True)
        # residual = observed - project: minus the projection slope
        block = equilibrated_point_block((-d_raw * scales).reshape(-1, 3),
                                         TRIANGULATION_COND_MAX)
        if block is None:
            raise IllConditioned(
                "triangulation normal matrix condition exceeds 1e8"
            )
        b_eq, normal, col_norms = block
        # residual linearizes as v + B*step, so solve for the decrement
        v = (target - raw).reshape(-1)
        step = np.linalg.solve(normal, -b_eq.T @ v) / col_norms
        g = GroundPoint(
            float(g.lat + step[0] * scales[0]),
            float(g.lon + step[1] * scales[1]),
            float(g.hei + step[2] * scales[2]),
        )
        if float(np.max(np.abs(step))) < GROUND_TOL_NORM:
            return g
    raise NoConvergence("triangulation did not converge in 20 iterations")


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


def parse_rpc_text(text: str, source: str = "<string>") -> RpcModel:
    """Parse the line-oriented ``KEY: value`` RPC format.

    Tolerates extra whitespace, scientific notation and trailing unit words
    (``LINE_OFF: 10872.0 pixels``).  Unknown keys are ignored.

    Raises:
        ParseError: a required key is missing or has a non-numeric value.
    """
    scalars: dict[str, float] = {}
    coeffs = {name: [None] * 20 for name in _COEFF_GROUPS.values()}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        tokens = rest.split()
        if not tokens:
            continue
        try:
            value = float(tokens[0])
        except ValueError:
            raise ParseError(f"{source}: key {key} has non-numeric value "
                             f"{tokens[0]!r}") from None
        if key in _SCALAR_KEYS:
            scalars[_SCALAR_KEYS[key]] = value
            continue
        group, _, index = key.rpartition("_")
        if group in _COEFF_GROUPS and index.isdigit():
            i = int(index)
            if not 1 <= i <= 20:
                raise ParseError(f"{source}: coefficient index {i} out of "
                                 f"range in key {key}")
            coeffs[_COEFF_GROUPS[group]][i - 1] = value

    for key, attr in _SCALAR_KEYS.items():
        if attr not in scalars:
            raise ParseError(f"{source}: missing key {key}")
    for group, attr in _COEFF_GROUPS.items():
        missing = [i + 1 for i, v in enumerate(coeffs[attr]) if v is None]
        if missing:
            raise ParseError(
                f"{source}: missing key {group}_{missing[0]}"
            )

    arrays = {name: np.array(vals, dtype=np.float64)
              for name, vals in coeffs.items()}
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
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read RPC file {path}: {exc}") from None
    rpc = parse_rpc_text(text, source=str(path))
    rpc.validate()
    return rpc


def format_rpc_text(rpc: RpcModel) -> str:
    """Serialize a model to the text format, full double precision."""
    lines = [f"{key}: {getattr(rpc, attr)!r}"
             for key, attr in _SCALAR_KEYS.items()]
    for group, attr in _COEFF_GROUPS.items():
        values = getattr(rpc, attr)
        lines.extend(f"{group}_{i + 1}: {float(values[i])!r}"
                     for i in range(20))
    return "\n".join(lines) + "\n"


def save_rpc_file(rpc: RpcModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_rpc_text(rpc))
