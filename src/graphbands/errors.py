"""Exception types shared across the package."""


class GraphbandsError(Exception):
    """Base class for all package errors."""


class ValidationError(GraphbandsError):
    """Malformed graph data or an unreadable input document."""


class ParameterError(GraphbandsError):
    """A parameter lies outside its admissible range."""


class PreconditionError(GraphbandsError):
    """An operation was applied to a graph lacking the required structure."""


class NumericError(GraphbandsError):
    """Numerical failure: a solver failure or a non-finite input or computed value."""


class InvariantViolation(GraphbandsError):
    """A mathematically guaranteed relation failed numerically."""
