"""Exception hierarchy for quasizeros.

Every failure mode raised by the library derives from QuasiZeroError so
callers (and the CLI) can map errors to outcomes uniformly.  Validation
problems derive from DomainError, numerical failures from NumericalError.
"""


class QuasiZeroError(Exception):
    """Base class for all quasizeros errors."""


class DomainError(QuasiZeroError, ValueError):
    """Invalid argument or parameter (caller error)."""


class InvalidIndexError(DomainError):
    """Branch index outside the indexed family (nu = 0, empty range, ...)."""


class OverflowRangeError(DomainError):
    """Direct evaluation would overflow; use the scaled form instead."""


class PreconditionHError(DomainError):
    """Strip half-width h below the admissible threshold for the bound."""


class DeltaTooLargeError(DomainError):
    """Exclusion radius delta is not below the separation radius."""


class NumericalError(QuasiZeroError):
    """A computation failed to converge or could not be completed."""


class DerivativeVanishesError(NumericalError):
    """Newton step undefined: |f'| below the vanishing threshold."""


class NotConvergedError(NumericalError):
    """A zero of the index ladder could not be refined, or the fixed-point
    iteration stopped contracting before it reached tolerance."""


class MaxIterationsError(NumericalError):
    """Newton refinement did not reach tolerance in the iteration budget."""


class EscapedBasinError(NumericalError):
    """Newton iterate moved too far from its seed to trust the index."""


class DuplicateZeroError(NumericalError):
    """Two refined values collapsed onto the same zero."""


class TooFewRecordsError(DomainError):
    """An operation requiring at least two records got fewer."""


class ZeroOnContourError(NumericalError):
    """A contour passes through or too near a zero: a proven tracking step
    fell below the rounding floor."""


class QuadratureStalledError(NumericalError):
    """A winding count or the disk search's branch walk exhausted its step
    budget.  The name stays for the CLI's error type string."""


class SubdivisionStalledError(NumericalError):
    """The disk search could not prove its zero list: no bounding square
    clear of the zero set was found, or the square's winding count differs
    from the listed multiplicities, or a listed record did not certify.  The
    name stays for the CLI's error type string."""


class RecordOutsideContourError(DomainError):
    """A record handed to a completeness check lies outside the contour."""


class EmptyRegionSampleError(NumericalError):
    """Rejection sampling failed too many consecutive times."""


class OutsideStripError(NumericalError):
    """A quadrangle ordinate line does not meet both level curves beyond R."""


class IncompleteZeroListError(QuasiZeroError):
    """The supplied zero list does not cover the sampled window."""
