"""Exception types shared across the package."""


class GrasspackError(Exception):
    """Base class for all grasspack errors."""


class RankDeficientError(GrasspackError):
    """Input columns do not have full numerical rank."""


class DimensionMismatchError(GrasspackError):
    """Operands live on different Grassmannians."""


class FullDimensionError(GrasspackError):
    """A full-dimensional subspace has no orthogonal complement here."""


class ClampError(GrasspackError):
    """A cosine landed too far above 1 to be roundoff."""


class AngleZeroError(GrasspackError):
    """Construction requires a strictly positive common angle."""


class NotEquiangularError(GrasspackError):
    """Input family fails its equiangularity precondition."""


class FamilyTooSmallError(GrasspackError):
    """Operation needs more family members than were given."""


class AlphaZeroError(GrasspackError):
    """The certificate is only defined for a common angle alpha in (eps_angle, pi/2]."""


class NotOddPrimeError(GrasspackError):
    """Parameter must be an odd prime."""


class InvalidProblemError(GrasspackError):
    """Packing problem violates its invariants."""


class ParseError(GrasspackError):
    """Family file is malformed or has an unsupported schema."""


class IndexOutOfRangeError(GrasspackError):
    """Member index outside the family."""


class UnknownMetricError(GrasspackError):
    """Metric name not found in the registry."""


class BadParamsError(GrasspackError):
    """Construction parameters missing or malformed."""
