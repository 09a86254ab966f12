"""Exception types shared across the package.

Every error raised on a contract violation derives from DilshapeError, so
callers (and the command line front end) can map failures to a coarse
category without string matching.
"""


class DilshapeError(Exception):
    """Base class for all domain errors."""


# --- input validation -------------------------------------------------------

class NotSquare(DilshapeError):
    """Matrix input is not square."""


class NotSymmetric(DilshapeError):
    """Matrix is not symmetric within tolerance."""


class NotPositiveDefinite(DilshapeError):
    """Smallest eigenvalue is at or below the admissible floor."""


class NonPositiveDiagonal(DilshapeError):
    """A diagonal entry is zero or negative."""


class InsufficientRealizations(DilshapeError):
    """Too few realizations to form an ensemble estimate."""


class DegenerateVariance(DilshapeError):
    """A coordinate has vanishing sample variance."""


class OutOfRange(DilshapeError):
    """Scalar argument outside its admissible interval."""


# --- parcor / dilation ------------------------------------------------------

class NotAContraction(DilshapeError):
    """A solved or supplied parameter exceeds magnitude one."""


class BadPosition(DilshapeError):
    """Rotation block position does not fit inside the requested size."""


class BadDim(DilshapeError):
    """Truncation size is out of range for the parameter set."""


class TruncationWindowExceeded(DilshapeError):
    """Requested lag is larger than the truncation size supports."""


class SingularStep(DilshapeError):
    """Order recursion hit a non-positive prediction error."""


# --- group geometry ---------------------------------------------------------

class DimMismatch(DilshapeError):
    """Operands live on groups of different size."""


class NotOrthogonal(DilshapeError):
    """Matrix is not orthogonal within tolerance."""


class WrongComponent(DilshapeError):
    """Matrix has determinant -1 and no logarithm in the algebra."""


class NotSkew(DilshapeError):
    """Matrix is not skew-symmetric within tolerance."""


class NotTangent(DilshapeError):
    """Vector is not tangent at the claimed base point."""


class NearCutLocus(DilshapeError):
    """Rotation angle too close to pi for a stable principal logarithm."""


# --- curves / shape ---------------------------------------------------------

class GridMismatch(DilshapeError):
    """Sample grids are incompatible for the requested comparison."""


class VanishingVelocity(DilshapeError):
    """A curve segment has (numerically) zero velocity."""


class NotClosed(DilshapeError):
    """Operation requires closed curves."""


class DegenerateCurve(DilshapeError):
    """Curve carries no usable velocity information."""


# --- file interfaces --------------------------------------------------------

class FormatError(DilshapeError):
    """File content does not match the documented format."""
