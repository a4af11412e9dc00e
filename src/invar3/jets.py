"""Truncated two-variable Taylor jets with exact series arithmetic.

A jet of order K at a point stores the scaled Taylor coefficients
``c[i,j] = d^{i+j} f / dx^i dy^j / (i! j!)`` for all ``i + j <= K``.
Scaled coefficients make multiplication a plain truncated convolution and
keep the linear-solve recurrences free of binomial bookkeeping; raw partial
derivatives are recovered at the boundary via :meth:`Jet2.partial`.

Coefficients are packed into a flat array in graded order (total degree,
then increasing y-power), so truncation to a lower order is a prefix slice.
Elementary functions are applied through their univariate Taylor series
around the jet's constant term (Horner in ``u - u0``).

A jet may also hold a batch: coefficients shaped ``(N, ncoef)``, one row
per base point.  Every operation has one body for either rank (``c.T[k]``
is coefficient k on either) and runs the same floating-point operations in
the same order on every row, so a row of a batched result is bit-identical
to the one-point computation.  Rank shows only where the contract differs:
the inspection methods give a float at one point, and a pointwise check (a
zero constant term, a negative radicand) raises on one point and turns the
failing rows to NaN on a batch (see :func:`~invar3.errors.raise_where`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainEvalError, OrderMismatchError, raise_where, record_failures

__all__ = [
    "Jet2", "ncoef", "pack_index",
    "exp", "ln", "sin", "cos", "sqrt", "cbrt", "jabs", "asinh", "real_power",
    "compose", "as_jet", "stack",
]


def ncoef(order: int) -> int:
    """Number of coefficients of an order-``order`` jet."""
    return (order + 1) * (order + 2) // 2


def pack_index(i: int, j: int) -> int:
    """Flat position of the coefficient of x^i y^j."""
    t = i + j
    return t * (t + 1) // 2 + j


@lru_cache(maxsize=None)
def _conv_table(ka: int, kb: int, kout: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index triples (out, a, b) realizing truncated 2D convolution."""
    out_idx, a_idx, b_idx = [], [], []
    for p in range(min(ka, kout) + 1):
        for q in range(min(ka, kout) - p + 1):
            base = pack_index(p, q)
            rmax = min(kb, kout - p - q)
            for r in range(rmax + 1):
                for s in range(rmax - r + 1):
                    out_idx.append(pack_index(p + r, q + s))
                    a_idx.append(base)
                    b_idx.append(pack_index(r, s))
    return np.array(out_idx), np.array(a_idx), np.array(b_idx)


# _MUL_TABLES[order of a][order of b] -> (product order, its ncoef, out, a, b
# indices, [the out indices offset by row, for the largest batch seen (a
# smaller batch, or one point, uses a prefix)]), or None until first used;
# nested lists keep the per-multiply lookup cheap
_MUL_TABLES: list = []


def _mul_table(ka: int, kb: int) -> tuple:
    size = max(ka, kb, len(_MUL_TABLES) - 1) + 1
    for row in _MUL_TABLES:
        row.extend([None] * (size - len(row)))
    _MUL_TABLES.extend([None] * size for _ in range(size - len(_MUL_TABLES)))
    k = min(ka, kb)
    oi, ai, bi = _conv_table(ka, kb, k)
    table = (k, ncoef(k), oi, ai, bi, [oi])
    _MUL_TABLES[ka][kb] = table
    return table


def _table(ka: int, kb: int) -> tuple:
    try:
        return _MUL_TABLES[ka][kb] or _mul_table(ka, kb)
    except IndexError:
        return _mul_table(ka, kb)


def _product(a: np.ndarray, b: np.ndarray, table: tuple) -> np.ndarray:
    """Truncated convolution of two coefficient arrays, either of which (or
    both) may hold a batch: one bincount over output indices offset by row,
    so each row's coefficients are summed from zero in the table's term
    order, as at one point."""
    _, n, oi, ai, bi, row_index = table
    terms = a.take(ai, axis=-1) * b.take(bi, axis=-1)
    size = terms.size
    rows = size // len(oi)  # 1 at one point
    if len(row_index[0]) < size:
        row_index[0] = (oi + n * np.arange(rows)[:, None]).ravel()
    return _bincount(row_index[0][:size], terms.ravel(), rows * n).reshape(terms.shape[:-1] + (n,))


# the C implementation, without the array-function dispatch wrapper
_bincount = getattr(np.bincount, "_implementation", np.bincount)
_object_new = object.__new__


def _make(order: int, c: np.ndarray) -> "Jet2":
    """A jet from trusted coefficients, without validation."""
    jet = _object_new(Jet2)
    jet.order = order
    jet.c = c
    return jet


@lru_cache(maxsize=None)
def _diff_table(order: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices and multipliers for d/dx (axis 0) or d/dy (axis 1)."""
    src, mult = [], []
    for t in range(order):
        for j in range(t + 1):
            i = t - j
            if axis == 0:
                src.append(pack_index(i + 1, j))
                mult.append(i + 1.0)
            else:
                src.append(pack_index(i, j + 1))
                mult.append(j + 1.0)
    return np.array(src), np.array(mult)


class Jet2:
    """Order-K truncated Taylor expansion of a scalar field of (x, y).

    ``c`` holds the packed coefficients, shaped ``(ncoef,)`` at one point or
    ``(N, ncoef)`` for a batch of N points.  On a batch, the inspection
    methods return one value per row.
    """

    __slots__ = ("order", "c")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise OrderMismatchError("jet order must be non-negative")
        c = np.asarray(coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[-1] != ncoef(order):
            raise OrderMismatchError(
                f"order-{order} jet needs {ncoef(order)} coefficients, got shape {c.shape}")
        self.order = order
        self.c = c

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value: float, order: int) -> "Jet2":
        if order < 0:
            raise OrderMismatchError("jet order must be non-negative")
        c = np.zeros(ncoef(order))
        c[0] = value
        return _make(order, c)

    @classmethod
    def variable(cls, value, axis: int, order: int) -> "Jet2":
        """Jet of the coordinate function x (axis 0) or y (axis 1); a
        batch of them when ``value`` is an array of coordinates."""
        if order < 0:
            raise OrderMismatchError("jet order must be non-negative")
        n = ncoef(order)
        c = np.zeros(n if isinstance(value, (int, float, np.number)) else (len(value), n))
        # the transpose puts the coefficient index first on either rank
        c.T[0] = value
        if order >= 1:
            c.T[pack_index(1 - axis, axis)] = 1.0
        return _make(order, c)

    # -- inspection --------------------------------------------------------

    @property
    def batched(self) -> bool:
        return self.c.ndim == 2

    @property
    def value(self):
        c = self.c
        return float(c[0]) if c.ndim == 1 else c[:, 0]

    def partial(self, i: int, j: int):
        """Raw partial derivative d^{i+j} f / dx^i dy^j at the base point."""
        if i + j > self.order:
            raise OrderMismatchError(f"jet of order {self.order} has no ({i},{j}) derivative")
        c = self.c
        v = float(c[pack_index(i, j)]) if c.ndim == 1 else c[:, pack_index(i, j)]
        return v * math.factorial(i) * math.factorial(j)

    def coeff(self, i: int, j: int):
        """Scaled Taylor coefficient c_{ij}."""
        if i + j > self.order:
            raise OrderMismatchError(f"jet of order {self.order} has no ({i},{j}) coefficient")
        c = self.c
        return float(c[pack_index(i, j)]) if c.ndim == 1 else c[:, pack_index(i, j)]

    def norm(self):
        """Max-norm of the coefficients (per row on a batch)."""
        c = self.c
        return float(np.abs(c).max()) if c.ndim == 1 else np.abs(c).max(axis=1)

    def row(self, i: int) -> "Jet2":
        """The jet at point ``i`` of a batch."""
        return _make(self.order, self.c[i])

    def truncated(self, order: int) -> "Jet2":
        if order >= self.order:
            if order == self.order:
                return self
            raise OrderMismatchError(f"cannot extend order {self.order} jet to order {order}")
        return _make(order, self.c[..., :ncoef(order)])

    def __repr__(self) -> str:
        if self.batched:
            return f"Jet2(order={self.order}, batch={len(self.c)})"
        return f"Jet2(order={self.order}, value={self.value:.6g})"

    # -- derivatives -------------------------------------------------------

    def dx(self) -> "Jet2":
        if self.order < 1:
            raise OrderMismatchError("cannot differentiate an order-0 jet")
        src, mult = _diff_table(self.order, 0)
        return _make(self.order - 1, self.c.take(src, axis=-1) * mult)

    def dy(self) -> "Jet2":
        if self.order < 1:
            raise OrderMismatchError("cannot differentiate an order-0 jet")
        src, mult = _diff_table(self.order, 1)
        return _make(self.order - 1, self.c.take(src, axis=-1) * mult)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            if self.order == other.order:
                return _make(self.order, self.c + other.c)
            low = self if self.order < other.order else other
            n = low.c.shape[-1]
            return _make(low.order, self.c[..., :n] + other.c[..., :n])
        if isinstance(other, (int, float)):
            c = self.c.copy()
            c.T[0] += other
            return _make(self.order, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            if self.order == other.order:
                return _make(self.order, self.c - other.c)
            low = self if self.order < other.order else other
            n = low.c.shape[-1]
            return _make(low.order, self.c[..., :n] - other.c[..., :n])
        if isinstance(other, (int, float)):
            c = self.c.copy()
            c.T[0] -= other
            return _make(self.order, c)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            table = _table(self.order, other.order)
            return _make(table[0], _product(self.c, other.c, table))
        if isinstance(other, (int, float)):
            return _make(self.order, self.c * other)
        if isinstance(other, np.ndarray):
            # one number per row of a batch (or a 0-d array at one point)
            return _make(self.order, self.c * other[..., None])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * _reciprocal(other)
        if isinstance(other, (int, float)):
            if other == 0.0:
                raise DomainEvalError("division by zero")
            return _make(self.order, self.c / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return _reciprocal(self) * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _reciprocal(self) ** (-n)
        result = Jet2.constant(1.0, self.order)
        if n == 0:  # a NaN base (a failed row or point) stays NaN
            return result * np.where(np.isnan(self.c[..., 0]), np.nan, 1.0)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result


def as_jet(v, order: int) -> Jet2:
    """Lift numbers to constant jets; pass jets through (truncating)."""
    if isinstance(v, Jet2):
        return v if v.order <= order else v.truncated(order)
    return Jet2.constant(float(v), order)


def stack(points: list) -> Jet2:
    """One batched jet from jets of a common order, one per point."""
    return _make(points[0].order, np.stack([p.c for p in points]))


# -- univariate series composition ------------------------------------------

def _series_apply(u: Jet2, coeffs: np.ndarray) -> Jet2:
    """Evaluate sum coeffs[k] (u - u0)^k by Horner; coeffs has length
    order+1 (one such row per point on a batch)."""
    k = u.order
    table = _table(k, k)
    du = u.c.copy()
    du.T[0] = 0.0
    acc = np.zeros(du.shape)
    acc.T[0] = coeffs.T[k]
    for m in range(k - 1, -1, -1):
        acc = _product(acc, du, table)
        acc.T[0] += coeffs.T[m]
    return _make(k, acc)


def _coefficients(u: Jet2, series, name: str) -> np.ndarray:
    """The outer function's Taylor coefficients ``series(u0, order)`` at the
    constant term, one row per point on a batch, each computed by the same
    scalar code (so elementary functions round exactly as on one point).
    Where a coefficient overflows (a power of the term over- or
    underflows) or the function is off its domain (cos of an infinity),
    one point raises, and a batch records with a NaN row, a
    :class:`DomainEvalError` naming the function ``name`` and the term."""
    u0 = u.c[..., 0]
    rows, failed = [], {}
    for k, v in enumerate(u0.ravel().tolist()):
        try:
            rows.append(series(v, u.order))
        except (ArithmeticError, ValueError) as err:
            what = ("overflows: a series coefficient" if isinstance(err, ArithmeticError)
                    else "is not defined")
            failed[k] = DomainEvalError(f"{name} {what} at constant term {v:.6g}")
            rows.append([math.nan] * (u.order + 1))
    if failed and u0.ndim == 0:
        raise failed[0]
    record_failures(failed)
    return np.array(rows, dtype=float).reshape(u0.shape + (u.order + 1,))


def _flip(u: Jet2, negative) -> Jet2:
    """-u where ``negative`` holds (per row on a batch)."""
    return u * np.where(negative, -1.0, 1.0)


def _reciprocal_series(u0: float, order: int):
    k = np.arange(order + 1)
    return (-1.0) ** k / u0 ** (k + 1)


def _zero_divisor() -> DomainEvalError:
    return DomainEvalError("division by a jet with zero constant term")


def _reciprocal(u: Jet2) -> Jet2:
    u = raise_where(u.value == 0.0, _zero_divisor, u)
    return _series_apply(u, _coefficients(u, _reciprocal_series, "reciprocal"))


def _exp_series(u0: float, order: int):
    e0 = math.exp(u0)
    return [e0 / math.factorial(k) for k in range(order + 1)]


def exp(u):
    if isinstance(u, (int, float)):
        return math.exp(u)
    return _series_apply(u, _coefficients(u, _exp_series, "exp"))


def _ln_series(u0: float, order: int):
    coeffs = [math.log(u0)]
    for k in range(1, order + 1):
        coeffs.append((-1.0) ** (k + 1) / (k * u0 ** k))
    return coeffs


def ln(u):
    if isinstance(u, (int, float)):
        if u <= 0.0:
            raise DomainEvalError(f"log of non-positive value {u}")
        return math.log(u)
    u0 = u.value
    u = raise_where(u0 <= 0.0, lambda v: DomainEvalError(f"log of non-positive value {v}"), u, u0)
    return _series_apply(u, _coefficients(u, _ln_series, "ln"))


def _sin_series(u0: float, order: int):
    s0, c0 = math.sin(u0), math.cos(u0)
    cycle = [s0, c0, -s0, -c0]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_series(u0: float, order: int):
    s0, c0 = math.sin(u0), math.cos(u0)
    cycle = [c0, -s0, -c0, s0]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def sin(u):
    if isinstance(u, (int, float)):
        return math.sin(u)
    return _series_apply(u, _coefficients(u, _sin_series, "sin"))


def cos(u):
    if isinstance(u, (int, float)):
        return math.cos(u)
    return _series_apply(u, _coefficients(u, _cos_series, "cos"))


def _binomial_series(u: Jet2, r: float) -> Jet2:
    """u^r for u with positive constant term, via the binomial series."""
    def series(u0: float, order: int):
        acc = u0 ** r
        coeffs = [acc]
        for k in range(1, order + 1):
            acc *= (r - (k - 1)) / k / u0
            coeffs.append(acc)
        return coeffs
    return _series_apply(u, _coefficients(u, series, f"power {r:.6g}"))


def sqrt(u):
    if isinstance(u, (int, float)):
        if u <= 0.0:
            raise DomainEvalError(f"even root of non-positive value {u}")
        return math.sqrt(u)
    u0 = u.value
    u = raise_where(u0 <= 0.0,
                    lambda v: DomainEvalError(f"even root of non-positive value {v}"), u, u0)
    return _binomial_series(u, 0.5)


def cbrt(u):
    """Real, sign-preserving cube root: cbrt(-8) = -2."""
    if isinstance(u, (int, float)):
        if u == 0.0:
            return 0.0
        return math.copysign(abs(u) ** (1.0 / 3.0), u)
    u0 = u.value
    u = raise_where(u0 == 0.0,
                    lambda: DomainEvalError("cube root at a zero constant term is not smooth"), u)
    negative = u0 < 0.0
    return _flip(_binomial_series(_flip(u, negative), 1.0 / 3.0), negative)


def jabs(u):
    """|u| for a value bounded away from zero (sign taken from the constant term)."""
    if isinstance(u, (int, float)):
        return abs(u)
    u0 = u.value
    u = raise_where(u0 == 0.0,
                    lambda: DomainEvalError("absolute value at a zero constant term is not smooth"),
                    u)
    return _flip(u, u0 < 0.0)


def asinh(u):
    """Inverse hyperbolic sine, ln(u + sqrt(1 + u^2)); smooth on all of R."""
    if isinstance(u, (int, float)):
        return math.asinh(u)
    return ln(u + _binomial_series(1.0 + u * u, 0.5))


def real_power(u, r: float):
    """u^r with real-cube-root semantics when 3r is an integer.

    For other exponents the constant term must be positive.
    """
    three_r = 3.0 * r
    if isinstance(u, (int, float)):
        u = Jet2.constant(float(u), 0)
        return real_power(u, r).value
    if abs(three_r - round(three_r)) < 1e-12:
        m = int(round(three_r))
        return cbrt(u) ** m
    u0 = u.value
    u = raise_where(u0 <= 0.0,
                    lambda v: DomainEvalError(f"non-integer power {r} of non-positive value {v}"),
                    u, u0)
    return _binomial_series(u, r)


# -- two-variable composition ------------------------------------------------

def compose(f: Jet2, phi1: Jet2, phi2: Jet2) -> Jet2:
    """Jet of f(phi1, phi2) at the base point of phi1, phi2.

    ``f`` must be the jet of the outer field at the point
    ``(phi1.value, phi2.value)``; the caller guarantees that relation.
    The component jets must carry at least ``f.order`` derivatives.
    """
    k = f.order
    if phi1.order < k or phi2.order < k:
        raise OrderMismatchError(
            f"outer jet of order {k} needs inner jets of order >= {k}, "
            f"got {phi1.order} and {phi2.order}")
    # on a batch (in any of the three jets) every row runs the same Horner
    # steps as alone
    rows = max((j.c.shape[:-1] for j in (f, phi1, phi2)), key=len)
    n = ncoef(k)
    table = _table(k, k)
    u = phi1.c[..., :n].copy()
    u.T[0] = 0.0
    v = phi2.c[..., :n].copy()
    v.T[0] = 0.0
    # Horner over x-powers of rows that are Horner over y-powers.
    acc = _compose_row(f.c, k, k, v, table, rows)
    for i in range(k - 1, -1, -1):
        acc = _product(acc, u, table) + _compose_row(f.c, i, k, v, table, rows)
    return _make(k, acc)


def _compose_row(c: np.ndarray, i: int, k: int, v: np.ndarray, table: tuple,
                 rows: tuple) -> np.ndarray:
    """Horner evaluation of sum_j c_{ij} v^j, as order-k coefficients."""
    jmax = k - i
    acc = np.zeros(rows + (table[1],))
    acc.T[0] = c.T[pack_index(i, jmax)]
    for j in range(jmax - 1, -1, -1):
        acc = _product(acc, v, table)
        acc.T[0] += c.T[pack_index(i, j)]
    return acc
