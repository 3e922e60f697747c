"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the open domain of the requested function."""


class InvalidIndex(DomainError):
    """Index pair (l, m) violates the admissibility rules."""


class PoleInDenominator(DomainError):
    """The hypergeometric series hits a pole of (c)_j before terminating."""


class NonConvergent(ArithmeticError):
    """Non-terminating series requested outside its convergence region."""


class TermCapExceeded(ArithmeticError):
    """A Gauss series needs more than ``specfun.SERIES_TERM_CAP`` terms.

    Raised when a polynomial of a higher degree is compiled, or when a
    non-terminating series has not reached its relative tolerance within
    the cap.
    """


class NonPositiveArgument(DomainError):
    """Bessel evaluation requires a strictly positive argument."""


class IntegerOrderUnsupported(DomainError):
    """Only true half-integer Bessel orders are supported."""


class NonPositiveProduct(DomainError):
    """The product of the two radial mass parameters must be real and positive."""


class OrderNotEvaluable(DomainError):
    """The assembled wavefunction is evaluable at l = l_dot = 1/2 only."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


class OffShellError(ValueError):
    """Four-momentum does not satisfy the mass-shell relation."""


class PhaseOverflow(OverflowError):
    """A plane-wave phase p.x leaves the double range."""


class SizeCapExceeded(ValueError):
    """Requested grid exceeds the evaluation size cap."""
