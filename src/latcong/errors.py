"""Exception types shared across the package."""


class LatcongError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(LatcongError, ValueError):
    """An argument lies outside the values the call accepts."""


class CyclicCovers(LatcongError):
    """The cover relation contains a directed cycle."""


class NotBounded(LatcongError):
    """The order has no unique minimum or no unique maximum."""


class NotALattice(LatcongError):
    """Some pair of elements lacks a unique meet or join."""


class UnknownName(LatcongError):
    """No catalogue entry under the requested name."""


class SizeMismatch(LatcongError):
    """Objects built over carriers of different sizes were combined."""


class NotDistributive(LatcongError):
    """Operation requires a distributive lattice."""


class NotAChain(LatcongError):
    """Operation requires a totally ordered lattice."""


class ArityMismatch(LatcongError):
    """Input vector length differs from the declared arity."""


class ForeignElement(LatcongError):
    """An element index does not belong to the lattice at hand."""


class NotMonotone(LatcongError):
    """Operation requires a coordinatewise nondecreasing function."""


class NotAggregation(LatcongError):
    """Function violates monotonicity or the boundary conditions."""


class BudgetExceeded(LatcongError):
    """Enumeration would emit more objects than the configured budget."""


class TooLarge(LatcongError):
    """An array the request needs has more entries than the package allows."""


class ValidationError(LatcongError):
    """A parsed object failed its invariants."""


class ParseError(LatcongError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
