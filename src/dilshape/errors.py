"""Exception types shared across the package, and the integer check that
raises one.

Every error raised on a contract violation derives from DilshapeError
through exactly one of four category bases.  The category carries the
command line exit code and the stderr prefix as class constants, so a
front end maps any failure by reading ``exc.exit_code`` and ``exc.prefix``
instead of listing classes by name (see FORMATS.md, "Exit codes").
"""

import operator


class DilshapeError(Exception):
    """Base class for all domain errors; raise one of its categories."""

    exit_code: int
    prefix: str


class ValidationError(DilshapeError):
    """Category: the input breaks a documented contract."""

    exit_code = 2
    prefix = "validation error"


class DegeneracyError(DilshapeError):
    """Category: a vanishing quantity leaves the request undefined."""

    exit_code = 3
    prefix = "degeneracy"


class WindowError(DilshapeError):
    """Category: an index, window or grid does not fit the data."""

    exit_code = 4
    prefix = "window/grid error"


class FormatError(DilshapeError):
    """Category: file content does not match the documented format."""

    exit_code = 5
    prefix = "i/o error"


# --- validation -------------------------------------------------------------

class NotSquare(ValidationError):
    """Matrix input is not square."""


class NotSymmetric(ValidationError):
    """Matrix is not symmetric within tolerance."""


class NotPositiveDefinite(ValidationError):
    """Smallest eigenvalue is at or below the admissible floor."""


class NonPositiveDiagonal(ValidationError):
    """A diagonal entry is zero or negative."""


class InsufficientRealizations(ValidationError):
    """Too few realizations to form an ensemble estimate."""


class DegenerateVariance(ValidationError):
    """A coordinate has vanishing sample variance."""


class OutOfRange(ValidationError):
    """Scalar argument outside its admissible interval."""


class NotAContraction(ValidationError):
    """A supplied parameter has magnitude above one, or a solved one above
    1 + dilation.CONTRACTION_SLACK; a non-finite one is OutOfRange instead."""


class BadPosition(ValidationError):
    """Rotation block position does not fit inside the requested size."""


class DimMismatch(ValidationError):
    """Operands live on groups of different size."""


class NotOrthogonal(ValidationError):
    """Matrix is not orthogonal within tolerance."""


class WrongComponent(ValidationError):
    """Matrix has determinant -1 and no logarithm in the algebra."""


class NotSkew(ValidationError):
    """Matrix is not skew-symmetric within tolerance."""


class NotClosed(ValidationError):
    """Operation requires closed curves."""


def _checked_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int; OutOfRange unless it is an integer (a float, NaN
    included, is not) within ``low`` and ``high`` where they are given."""
    try:
        v = operator.index(value)
    except TypeError:
        raise OutOfRange(f"{what} must be an integer, got {value!r}") from None
    if low is not None and v < low:
        raise OutOfRange(f"{what} {v} is below {low}")
    if high is not None and v > high:
        raise OutOfRange(f"{what} {v} is above {high}")
    return v


# --- degeneracy -------------------------------------------------------------

class SingularStep(DegeneracyError):
    """Order recursion hit a non-positive prediction error, or a dilation was
    asked of a parameter set with degenerate (unresolved) entries."""


class NearCutLocus(DegeneracyError):
    """Rotation angle too close to pi for a stable principal logarithm."""


class VanishingVelocity(DegeneracyError):
    """A curve segment has (numerically) zero velocity."""


class DegenerateCurve(DegeneracyError):
    """Curve carries no usable velocity information."""


# --- window / grid ----------------------------------------------------------

class BadDim(WindowError):
    """Truncation size is out of range for the parameter set."""


class TruncationWindowExceeded(WindowError, IndexError):
    """Requested entry lies outside the window or the sequence supports."""


class GridMismatch(WindowError):
    """Sample grids are incompatible for the requested comparison."""
