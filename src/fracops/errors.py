"""Exception types shared across the package, and the one check of count arguments."""

import numbers


class FracopsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FracopsError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Raised for parameter-window violations, evaluation at excluded points
    (e.g. z = 0 in the quadrature route), and degenerate inputs such as a
    vanishing denominator series on a sample grid.
    """


class PoleHitError(FracopsError, ArithmeticError):
    """A Gamma-function argument landed on (or within guard distance of) a
    non-positive integer where Gamma has a pole."""

    def __init__(self, argument, message=None):
        self.argument = argument
        super().__init__(message or f"gamma pole at argument {argument!r}")


class ConvergenceError(FracopsError, RuntimeError):
    """An iterative or adaptive numerical process failed to stabilise.

    Carries the last two estimates so callers can inspect how far apart
    they were.
    """

    def __init__(self, message, last=None, previous=None):
        self.last = last
        self.previous = previous
        super().__init__(message)


def check_count(value, what: str, low: int, high: int | None = None) -> None:
    """Raise DomainError unless value is an integer in [low, high] (no cap if high is None).

    A Python int or NumPy integer passes. Anything else is refused, not
    rounded or read as 0 or 1: a float (4.0, 2.5 or nan), a bool or np.bool_.
    """
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < low or (high is not None and value > high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise DomainError(f"{what} must be an integer {span}, got {value!r}")
