"""Exception types shared across the library, and its one integer check.

Every error raised by the computational modules derives from RzsError so
callers (notably the CLI) can distinguish "the computation refused"
from genuine bugs.
"""

import numbers


class RzsError(Exception):
    """Base class for all errors raised by this library."""


class DomainError(RzsError):
    """An argument lies outside the mathematical domain of the operation."""


def _integer(name: str, value) -> int:
    """value as an int: the one integer check of every argument that must
    be one.  A bool, a float or any other non-integer raises DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer")
    return int(value)


class PrecisionError(RzsError):
    """The requested tolerance is unreachable in the supported precision
    regime (double precision, heights t <= 1e4, tolerances >= 1e-8)."""


class AuditError(RzsError):
    """The zero scan could not close its Gram grid: no good Gram point at
    or past t_max, or a Gram block that shows fewer sign changes than
    Gram intervals even at the finest allowed node spacing, or more than
    Rosser's rule allows."""


class ConvergenceError(RzsError):
    """Adaptive quadrature failed to meet its tolerance."""


class NoSolutionError(RzsError):
    """The gap equation has no solution in the physical regime
    (the inverted mass would exceed the cutoff)."""


class InsufficientZerosError(RzsError):
    """A zero table is too short for the requested report size."""
