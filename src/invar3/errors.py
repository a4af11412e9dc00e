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


class BatchRowError(Invar3Error):
    """Some points of a batch failed a pointwise check.

    ``rows`` indexes the failed points along the batch axis.  The check
    names no reason for them: computed alone, each such point raises the
    error that tells what failed there.
    """

    def __init__(self, rows):
        self.rows = np.asarray(rows)
        super().__init__(f"batch rows {self.rows.tolist()} failed a pointwise check")


def raise_where(bad, error) -> None:
    """Raise where a check fails.

    ``bad`` is a bool for one point, or a boolean array over the rows of a
    batch.  One point raises ``error()``; a batch raises
    :class:`BatchRowError` naming the rows where ``bad`` holds.
    """
    if bad is False:
        return
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise BatchRowError(np.flatnonzero(bad))
    elif bad:
        raise error()


class ConditioningWarning(UserWarning):
    """A dense solve met a condition number above the configured threshold."""
