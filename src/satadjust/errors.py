"""Exception hierarchy shared by all pipeline stages.

Two broad families matter to callers: data problems (bad or insufficient
input, exit code 2 in the CLI) and numerical failures (degenerate or
ill-conditioned systems, exit code 3).
"""


class SatAdjustError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SatAdjustError):
    """Malformed or insufficient input data."""


class EmptyInput(DataError):
    """An operation that needs at least one element got none."""


class InsufficientSamples(DataError):
    """Too few samples to determine the unknowns."""


class ConfigMismatch(DataError):
    """Two objects with incompatible configurations were combined."""


class ConfigInvalid(DataError):
    """A configuration value is out of its legal range."""


class ParseError(DataError):
    """A text input could not be parsed; message names the offending key."""


class NumericalError(SatAdjustError):
    """Numerical failure in a solver or model evaluation."""


class DegenerateDenominator(NumericalError):
    """A rational polynomial denominator vanished at the evaluation point."""


class NoConvergence(NumericalError):
    """An iterative solver did not reach its tolerance."""


class IllConditioned(NumericalError):
    """A normal matrix exceeded its condition number bound."""


class RankDeficient(NumericalError):
    """The reduced normal system is singular (missing datum or GCPs)."""


class EmptyFootprint(DataError):
    """An image footprint is degenerate (zero area)."""


class EmptyHeightRange(DataError):
    """A product's height range, HEIGHT_OFF +- HEIGHT_SCALE, holds no
    height strictly inside it in double precision."""


class WindowOutOfBounds(DataError):
    """A descriptor window does not fit inside the raster."""
