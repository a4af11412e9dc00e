"""Coefficient expressions in two variables: parsing, jet evaluation, derivatives.

The grammar is deliberately tiny: numbers, the variables x and y, the four
arithmetic operations, integer powers, and the functions exp, ln, sin, cos,
sqrt, cbrt.  Precedence is ``^`` above unary minus above ``*``/``/`` above
``+``/``-``; binary ``-`` and ``/`` associate to the left.  Domain conditions
(log of a non-positive value and friends) surface at evaluation time, never
at parse time.

AST nodes support the Python arithmetic operators, so derived coefficient
fields can be assembled programmatically::

    x, y = var("x"), var("y")
    field = exp(x * y) / (1 + y**2)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import jets
from .errors import (POINT_ERRORS, DomainEvalError, ParseError,
                     UnknownIdentifierError, masked)
from .jets import Jet2

__all__ = [
    "Expr", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "parse", "eval_jet", "diff", "var", "const",
    "exp", "ln", "sin", "cos", "sqrt", "cbrt",
    "coefficient_field", "field_at",
]

_FUNCTIONS = {
    "exp": jets.exp,
    "ln": jets.ln,
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
    "cbrt": jets.cbrt,
}


class Expr:
    """Abstract syntax tree over the variables x and y."""

    def _jet(self, xj: Jet2, yj: Jet2):
        """Value of the node on the coordinate jets (a jet or a number)."""
        raise TypeError(f"not an expression node: {self!r}")

    def __add__(self, other):
        return Add(self, _lift(other))

    def __radd__(self, other):
        return Add(_lift(other), self)

    def __sub__(self, other):
        return Sub(self, _lift(other))

    def __rsub__(self, other):
        return Sub(_lift(other), self)

    def __mul__(self, other):
        return Mul(self, _lift(other))

    def __rmul__(self, other):
        return Mul(_lift(other), self)

    def __truediv__(self, other):
        return Div(self, _lift(other))

    def __rtruediv__(self, other):
        return Div(_lift(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("only integer powers are part of the expression language")
        return Pow(self, n)


def _lift(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __str__(self):
        return repr(self.value)

    def _jet(self, xj, yj):
        return self.value


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "x" or "y"

    def __str__(self):
        return self.name

    def _jet(self, xj, yj):
        return xj if self.name == "x" else yj


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def __str__(self):
        return f"(-{self.arg})"

    def _jet(self, xj, yj):
        return -self.arg._jet(xj, yj)


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} + {self.right})"

    def _jet(self, xj, yj):
        return self.left._jet(xj, yj) + self.right._jet(xj, yj)


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} - {self.right})"

    def _jet(self, xj, yj):
        return self.left._jet(xj, yj) - self.right._jet(xj, yj)


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} * {self.right})"

    def _jet(self, xj, yj):
        return self.left._jet(xj, yj) * self.right._jet(xj, yj)


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} / {self.right})"

    def _jet(self, xj, yj):
        num = self.left._jet(xj, yj)
        den = self.right._jet(xj, yj)
        if isinstance(den, (int, float)):
            if den == 0.0:
                raise DomainEvalError("division by zero")
            return num * (1.0 / den)
        return jets.as_jet(num, den.order) / den


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __str__(self):
        return f"({self.base}^{self.exponent})"

    def _jet(self, xj, yj):
        base = self.base._jet(xj, yj)
        if isinstance(base, (int, float)):
            if self.exponent < 0 and base == 0.0:
                raise DomainEvalError("zero raised to a negative power")
            return float(base) ** self.exponent
        return base ** self.exponent


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def __str__(self):
        return f"{self.func}({self.arg})"

    def _jet(self, xj, yj):
        arg = self.arg._jet(xj, yj)
        if isinstance(arg, (int, float)):
            arg = Jet2.constant(arg, xj.order)
        return _FUNCTIONS[self.func](arg)


def var(name: str) -> Var:
    if name not in ("x", "y"):
        raise ValueError("only 'x' and 'y' are variables")
    return Var(name)


def const(v: float) -> Const:
    return Const(float(v))


def exp(e) -> Call:
    return Call("exp", _lift(e))


def ln(e) -> Call:
    return Call("ln", _lift(e))


def sin(e) -> Call:
    return Call("sin", _lift(e))


def cos(e) -> Call:
    return Call("cos", _lift(e))


def sqrt(e) -> Call:
    return Call("sqrt", _lift(e))


def cbrt(e) -> Call:
    return Call("cbrt", _lift(e))


# -- parser -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", offset,
                             {"number", "identifier", "operator"})
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"got {val!r}" if val else "unexpected end of input",
                             off, {op})
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", off, {"+", "-", "*", "/", "^", "end"})
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                e = Mul(e, rhs) if val == "*" else Div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        # Unary minus binds below '^': -x^2 parses as -(x^2).
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        e = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            e = Pow(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, off = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ParseError(f"exponent must be an integer, got {val!r}", off, {"integer"})
        self.advance()
        return sign * int(val)

    def base(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            if val in ("x", "y"):
                return Var(val)
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise UnknownIdentifierError(val, off)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "op" and val == "-":
            return Neg(self.base())
        raise ParseError(f"got {val!r}" if val else "unexpected end of input",
                         off, {"number", "x", "y", "(", "-", "function"})


def parse(text: str) -> Expr:
    """Parse an expression in the two-variable coefficient language."""
    return _Parser(text).parse()


# -- evaluation ----------------------------------------------------------------

def eval_jet(e: Expr, p: tuple, order: int = 5) -> Jet2:
    """Exact order-``order`` Taylor expansion of ``e`` at the point ``p``.

    The engine-wide default depth of 5 covers the deepest standard
    pipeline (a frame derivative of a conformal invariant); pass exactly
    what a computation needs to avoid paying for unused orders.

    ``p`` may also hold two equal-length sequences of coordinates: every
    node then runs once on batched jets, one row per point.  A row is the
    point's jet bit for bit, or NaN: NaN wherever the point alone raises,
    and where a zeroth power turns a NaN base into 1 at the point alone.
    A batch never raises for one point: what still raises on batched jets
    does not depend on the point (a constant zero divisor) and turns every
    row to NaN; :func:`invariants._per_point` computes such points alone.
    """
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression node: {e!r}")
    x, y = p
    with np.errstate(all="ignore"):
        if isinstance(x, (int, float, np.number)):
            result = e._jet(Jet2.variable(x, 0, order), Jet2.variable(y, 1, order))
            if isinstance(result, (int, float)):
                result = Jet2.constant(result, order)
            if not result.is_finite():
                raise DomainEvalError(f"evaluation of {e} at {p} produced non-finite coefficients")
            return result
        try:
            c = jets.as_jet(e._jet(Jet2.variable(x, 0, order), Jet2.variable(y, 1, order)),
                            order).c
        except POINT_ERRORS:
            c = np.nan
    c = np.broadcast_to(c, (len(x), jets.ncoef(order)))
    return jets._make(order, np.where(np.isfinite(c).all(axis=1, keepdims=True), c, np.nan))


def _stacked(rows: list, order: int) -> Jet2:
    """One batched jet from per-point jets, with an all-NaN row for each
    point error."""
    k = next((r.order for r in rows if isinstance(r, Jet2)), order)
    failed = Jet2(k, [float("nan")] * jets.ncoef(k))
    return jets.stack([failed if isinstance(r, Exception) else r for r in rows])


# -- symbolic differentiation ---------------------------------------------------

def diff(e: Expr, name: str) -> Expr:
    """Symbolic partial derivative, without simplification."""
    if name not in ("x", "y"):
        raise ValueError("differentiation variable must be 'x' or 'y'")
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == name else 0.0)
    if isinstance(e, Neg):
        return Neg(diff(e.arg, name))
    if isinstance(e, Add):
        return Add(diff(e.left, name), diff(e.right, name))
    if isinstance(e, Sub):
        return Sub(diff(e.left, name), diff(e.right, name))
    if isinstance(e, Mul):
        return Add(Mul(diff(e.left, name), e.right), Mul(e.left, diff(e.right, name)))
    if isinstance(e, Div):
        num = Sub(Mul(diff(e.left, name), e.right), Mul(e.left, diff(e.right, name)))
        return Div(num, Mul(e.right, e.right))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        return Mul(Mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1)),
                   diff(e.base, name))
    if isinstance(e, Call):
        du = diff(e.arg, name)
        u = e.arg
        if e.func == "exp":
            return Mul(Call("exp", u), du)
        if e.func == "ln":
            return Div(du, u)
        if e.func == "sin":
            return Mul(Call("cos", u), du)
        if e.func == "cos":
            return Neg(Mul(Call("sin", u), du))
        if e.func == "sqrt":
            return Div(du, Mul(Const(2.0), Call("sqrt", u)))
        if e.func == "cbrt":
            return Div(du, Mul(Const(3.0), Pow(Call("cbrt", u), 2)))
    raise TypeError(f"not an expression node: {e!r}")


# -- coefficient fields -----------------------------------------------------------

class BatchField(partial):
    """Marks a coefficient field that takes either rank: at equal-length
    coordinate sequences, ``f(x, y, order)`` gives one batched jet whose
    rows are the points' jets, NaN where the point alone raises.
    :func:`field_at` calls any other callable point by point.  A
    :class:`functools.partial` (``BatchField(fn, *args)``), so the marker
    adds no Python frame to a call."""

    __slots__ = ()


def _expr_field(e: Expr, x, y, order: int) -> Jet2:
    return eval_jet(e, (x, y), order)


def _constant_field(v: float, x, y, order: int) -> Jet2:
    if isinstance(x, (int, float, np.number)):
        return Jet2.constant(v, order)
    return eval_jet(Const(v), (x, y), order)


def coefficient_field(component):
    """Normalize a coefficient component to a callable (x, y, order) -> Jet2.

    Accepts an :class:`Expr`, a string (parsed once), a plain number
    (constant field) or an already-callable field, which is returned as it
    is.  The others become a :class:`BatchField`.
    """
    if isinstance(component, str):
        component = parse(component)
    if isinstance(component, Expr):
        return BatchField(_expr_field, component)
    if isinstance(component, (int, float)):
        return BatchField(_constant_field, float(component))
    if callable(component):
        return component
    raise TypeError(f"cannot interpret {type(component).__name__} as a coefficient field")


def field_at(component, x, y, order: int) -> Jet2:
    """Jet of a coefficient component at the point (x, y).

    ``x`` and ``y`` may also be equal-length sequences: the result is then
    one batched jet, with NaN rows where evaluation fails (computed alone,
    such a point raises the error).  Expressions, strings, numbers and
    :class:`BatchField` callables are evaluated once for the whole batch
    (see :func:`eval_jet`); any other callable is called point by point.
    """
    f = coefficient_field(component)
    if isinstance(f, BatchField) or isinstance(x, (int, float, np.number)):
        return f(x, y, order)
    return _stacked(masked(lambda xk, yk: f(xk, yk, order), zip(x, y)), order)
