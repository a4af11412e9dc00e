"""Exception and warning types shared across the package."""

from __future__ import annotations

import numpy as np


class Invar3Error(Exception):
    """Base class for all errors raised by this package."""


class ParseError(Invar3Error):
    """Syntax error in a coefficient expression.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: set[str] | None = None):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = expected or set()


class UnknownIdentifierError(ParseError):
    """An identifier other than x, y or a known function name."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class DomainEvalError(Invar3Error):
    """Evaluation left the real domain (log of a non-positive value, division
    by a series with zero constant term, even root of a negative, ...)."""


class OrderMismatchError(Invar3Error):
    """Jet orders of the operands are incompatible for the requested operation."""


class JetOrderError(Invar3Error):
    """Input jets do not carry enough derivatives for the requested operation."""


class SingularSymbolError(Invar3Error):
    """The cubic symbol has (numerically) vanishing discriminant."""


class RegularityError(Invar3Error):
    """A pointwise regularity condition required by a construction failed.

    ``conditions`` lists the failed requirements by name so callers can tell
    a vanishing torsion covector from a null one, a vanishing curvature form
    from a degenerate quadratic form, and so on.
    """

    def __init__(self, message: str, conditions: list[str]):
        super().__init__(f"{message}: {', '.join(conditions)}")
        self.conditions = conditions


class GeneralPositionError(Invar3Error):
    """No pair of candidate invariants is functionally independent on enough
    of the sampled domain."""


class InverseMismatchError(Invar3Error):
    """The supplied forward and inverse maps are not mutually inverse on the
    working window."""


class ZeroCrossingError(Invar3Error):
    """A multiplier that must stay away from zero crosses (or touches) zero
    on the working window."""


class NonPositiveScaleError(Invar3Error):
    """The normalization multiplier is not positive at the requested point."""


# what masks one grid point instead of aborting the grid: the package's own
# errors, and float arithmetic gone wrong (division by zero, overflow)
POINT_ERRORS = (Invar3Error, ArithmeticError)


def masked(compute, points) -> list:
    """``compute(x, y)`` at each point, or the point error that masks it."""
    out = []
    for x, y in points:
        try:
            out.append(compute(x, y))
        except POINT_ERRORS as err:
            out.append(err)
    return out


def raise_where(bad, error, value):
    """``value``, checked where it is computed.

    ``bad`` is a bool for one point, or a boolean array over the rows of a
    batch.  One point raises ``error()`` where the check fails.  A batch
    goes on, with ``value`` (a jet, a number or array, or a tuple of them)
    turned to NaN on the rows where ``bad`` holds; computed alone, such a
    point raises the error that tells what failed there.
    """
    if bad is False:
        return value
    if isinstance(bad, np.ndarray):
        if bad.any():
            # times 1.0 leaves every other row bit for bit as it was
            fill = np.where(bad, np.nan, 1.0)
            return tuple(v * fill for v in value) if isinstance(value, tuple) else value * fill
    elif bad:
        raise error()
    return value


class ConditioningWarning(UserWarning):
    """A dense solve met a condition number above the configured threshold."""
