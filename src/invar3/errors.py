"""Exception and warning types shared across the package."""

from __future__ import annotations

from contextlib import contextmanager

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


# per batch being computed, innermost last: {row: its first failed check's error}
_RECORDS: list = []


@contextmanager
def failure_record():
    """Opens the failure record of the batch computed inside it."""
    _RECORDS.append({})
    try:
        yield _RECORDS[-1]
    finally:
        _RECORDS.pop()


def record_failures(failures: dict) -> None:
    """Adds ``{row: error}`` to the open record, if any; a row keeps its first."""
    if _RECORDS:
        for k, err in failures.items():
            _RECORDS[-1].setdefault(k, err)


def raise_where(bad, error, value, *named):
    """``value``, checked where it is computed.

    ``bad`` is a bool for one point, or a boolean array over the rows of a
    batch.  ``error(*named)`` builds a point's error from the values its
    message names, as Python numbers (on a batch, the point's entries of
    ``named``).  One point raises it where the check fails.  A batch goes
    on, with ``value`` turned to NaN on the rows where ``bad`` holds (see
    :func:`nan_rows`), and records their errors (see :func:`failure_record`).
    """
    if not (isinstance(bad, np.ndarray) and bad.ndim):
        if bad:
            raise error(*(np.asarray(v).tolist() for v in named))
    elif bad.any():
        columns = [np.broadcast_to(v, bad.shape).tolist() for v in named]
        record_failures({k: error(*(c[k] for c in columns)) for k in np.flatnonzero(bad).tolist()})
        return nan_rows(value, bad)
    return value


def nan_rows(value, bad: np.ndarray):
    """``value`` (a jet, a number or array, or dicts and tuples of them) NaN
    on the rows where ``bad`` holds; times 1.0 leaves the others bit for bit."""
    if isinstance(value, tuple):
        return tuple(nan_rows(v, bad) for v in value)
    if isinstance(value, dict):
        return {k: nan_rows(v, bad) for k, v in value.items()}
    return value * np.where(bad, np.nan, 1.0)


class ConditioningWarning(UserWarning):
    """A dense solve met a condition number above the configured threshold."""
