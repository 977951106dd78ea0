"""Exception types shared across the library.

Every error raised by the computational modules derives from RzsError so
callers (notably the CLI) can distinguish "the computation refused"
from genuine bugs.
"""


class RzsError(Exception):
    """Base class for all errors raised by this library."""


class DomainError(RzsError):
    """An argument lies outside the mathematical domain of the operation."""


class PrecisionError(RzsError):
    """The requested tolerance is unreachable in the supported precision
    regime (double precision, heights t <= 1e4, tolerances >= 1e-8)."""


class AuditError(RzsError):
    """The zero scan could not resolve a Gram block: it shows fewer sign
    changes than Gram intervals even at the finest allowed node spacing,
    or more than Rosser's rule allows."""


class ConvergenceError(RzsError):
    """Adaptive quadrature failed to meet its tolerance."""


class NoSolutionError(RzsError):
    """The gap equation has no solution in the physical regime
    (the inverted mass would exceed the cutoff)."""


class InsufficientZerosError(RzsError):
    """A zero table is too short for the requested report size."""
