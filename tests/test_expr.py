"""Expression language: parsing, evaluation, symbolic derivative consistency."""

import math
import re
import warnings

import pytest

from invar3.errors import DomainEvalError, ParseError, UnknownIdentifierError
from invar3.expr import (Add, Call, Mul, Neg, Pow, Sub, Var, diff, eval_jet,
                         parse)


def test_parse_sum():
    e = parse("x + y")
    assert isinstance(e, Add)
    assert e.left == Var("x") and e.right == Var("y")


def test_parse_function_call():
    e = parse("exp(x*y)")
    assert isinstance(e, Call) and e.func == "exp"
    assert isinstance(e.arg, Mul)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("3*a")
    assert err.value.name == "a"
    assert err.value.offset == 2


def test_syntax_error_offset_and_expected():
    with pytest.raises(ParseError) as err:
        parse("x + * y")
    assert err.value.offset == 4
    assert err.value.expected


def test_precedence_and_associativity():
    # '^' binds above unary minus; '-' and '/' associate to the left
    e = parse("-x^2")
    assert isinstance(e, Neg) and isinstance(e.arg, Pow)
    e2 = parse("1 - 2 - 3")
    assert isinstance(e2, Sub) and isinstance(e2.left, Sub)
    v = eval_jet(parse("8 / 4 / 2"), (0.0, 0.0), 0).value
    assert v == pytest.approx(1.0)
    v = eval_jet(parse("2 + 3 * 4 ^ 2"), (0.0, 0.0), 0).value
    assert v == pytest.approx(50.0)


def test_parenthesized_and_negative_exponent():
    v = eval_jet(parse("(x + 1)^-2"), (1.0, 0.0), 0).value
    assert v == pytest.approx(0.25)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse("x + y )")


def test_eval_jet_bilinear():
    j = eval_jet(parse("x*y"), (2.0, 3.0), 2)
    assert j.coeff(0, 0) == 6.0
    assert j.coeff(1, 0) == 3.0
    assert j.coeff(0, 1) == 2.0
    assert j.coeff(1, 1) == 1.0
    assert j.coeff(2, 0) == 0.0
    assert j.coeff(0, 2) == 0.0


def test_eval_jet_exponential_series():
    j = eval_jet(parse("exp(x)"), (0.0, 0.0), 3)
    for i in range(4):
        assert j.coeff(i, 0) == pytest.approx(1.0 / math.factorial(i), rel=1e-14)
    assert j.coeff(0, 1) == 0.0


def test_eval_jet_log_singularity():
    with pytest.raises(DomainEvalError):
        eval_jet(parse("ln(x)"), (0.0, 0.0), 2)
    with pytest.raises(DomainEvalError):
        eval_jet(parse("ln(x)"), (-1.0, 0.0), 0)


def test_eval_division_by_zero_field():
    with pytest.raises(DomainEvalError):
        eval_jet(parse("1 / x"), (0.0, 1.0), 1)


@pytest.mark.parametrize("text, reason", [
    ("exp(400*x) * exp(400*x)", "produced non-finite coefficients"),
    ("1e309*x", "produced non-finite coefficients"),
    ("cos((10*x)^400)", "cos is not defined at constant term inf"),
])
def test_one_point_failure_raises_without_a_numpy_warning(text, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainEvalError, match=re.escape(reason)):
            eval_jet(parse(text), (1.0, 0.0), 2)


def test_expr_operator_overloads():
    x, y = Var("x"), Var("y")
    e = (x + 1.0) * y - x / 2.0
    v = eval_jet(e, (2.0, 3.0), 0).value
    assert v == pytest.approx((2 + 1) * 3 - 1)


@pytest.mark.parametrize("text", [
    "x^3 - 2*x*y + y^2",
    "exp(x*y) + sin(x) * cos(y)",
    "sqrt(x + 2) / (y + 3)",
    "cbrt(x - 5)",
    "ln(x + 4) * y",
])
def test_symbolic_derivative_matches_jet_coefficients(text, rng):
    """Differentiating the jet coefficients equals the jet of the symbolic
    derivative, cross-checked against central finite differences."""
    e = parse(text)
    dx = diff(e, "x")
    dy = diff(e, "y")
    h = 1e-5
    for _ in range(6):
        x, y = rng.uniform(-0.4, 0.9, size=2)
        j = eval_jet(e, (x, y), 3)
        jx = eval_jet(dx, (x, y), 2)
        jy = eval_jet(dy, (x, y), 2)
        # formal coefficient shift == symbolic derivative
        for (i, k) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            assert j.dx().partial(i, k) == pytest.approx(jx.partial(i, k),
                                                         rel=1e-11, abs=1e-11)
            assert j.dy().partial(i, k) == pytest.approx(jy.partial(i, k),
                                                         rel=1e-11, abs=1e-11)
        # finite-difference anchor on unit-scale inputs
        f = lambda u, v: eval_jet(e, (u, v), 0).value
        assert jx.value == pytest.approx((f(x + h, y) - f(x - h, y)) / (2 * h), abs=1e-6)
        assert jy.value == pytest.approx((f(x, y + h) - f(x, y - h)) / (2 * h), abs=1e-6)


def test_number_formats():
    assert eval_jet(parse("1.5e2"), (0, 0), 0).value == 150.0
    assert eval_jet(parse(".25"), (0, 0), 0).value == 0.25
    assert eval_jet(parse("3e-1"), (0, 0), 0).value == pytest.approx(0.3)
