"""Exception types shared across the package.

Every contract violation raises one of these instead of a bare ValueError so
callers (and the CLI) can tell precondition failures apart from bugs.
"""


class SquareCodesError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrder(SquareCodesError, ValueError):
    """A field order is not a prime power, or a parameter exceeds its legal range
    tied to the field order (e.g. a designed distance >= q**m)."""


class InversionOfZero(SquareCodesError, ZeroDivisionError):
    """Multiplicative inverse of the additive identity was requested."""


class MismatchedFields(SquareCodesError, ValueError):
    """Two operands live in different finite fields."""


class MismatchedAmbient(SquareCodesError, ValueError):
    """Two exponent sets disagree on (q, m) and cannot be combined."""


class NotReduced(SquareCodesError, ValueError):
    """An operation requiring exponents in [0, q-1] received an unreduced set."""


class RangeError(SquareCodesError, ValueError):
    """A numeric parameter is outside its documented range."""


class ParityError(SquareCodesError, ValueError):
    """A parameter has the wrong parity (e.g. an odd designed distance where an
    even one is required)."""


class EmptySet(SquareCodesError, ValueError):
    """An operation that needs at least one monomial / codeword got none."""


class DimensionMismatch(SquareCodesError, ValueError):
    """Matrix shapes are incompatible (e.g. comparing row spaces of different
    lengths)."""


class BudgetExceeded(SquareCodesError, RuntimeError):
    """An enumeration would exceed the configured work budget.  The message
    records both the requested size and the limit."""


class SupportOutsideA(SquareCodesError, ValueError):
    """A witness polynomial uses a monomial outside the allowed exponent set."""


class CrossCheckFailed(SquareCodesError, RuntimeError):
    """Two independent computations of one quantity disagree.  This marks a
    defect in the package, not a bad input; it is raised instead of an
    ``assert`` so that the check also runs under ``python -O``."""
