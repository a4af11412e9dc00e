"""Batched jets, fields and the grid-batched pipelines against per-point runs.

A batched jet holds one row of coefficients per point, and every batched
operation must reproduce, row by row, the same operation on the row alone.
The comparisons are exact (``np.array_equal``, bit for bit): each row runs
the same floating-point operations in the same order as a single point.
"""

import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (image_box, random_diffeo, random_gauge, random_one_root_symbol,
                      random_operator, random_three_root_symbol, rng_for, small_poly)
from invar3 import equivalence, expr, invariants, jets
from invar3.equivalence import (DomainGrid, EquivConfig, _candidate_invariants, _PointMemo,
                                _stage_one, build_natural_model, gauge_transform,
                                line_bundle_connection, normalize, pushforward_operator,
                                scale_operator)
from invar3.errors import (POINT_ERRORS, ConditioningWarning, DomainEvalError,
                           InverseMismatchError, RegularityError, SingularSymbolError,
                           ZeroCrossingError, failure_record, raise_where)
from invar3.expr import eval_jet, field_at, parse
from invar3.invariants import OperatorInvariants, operator_invariants
from invar3.jets import Jet2, compose, ncoef
from invar3.linalg import solve_jet_system
from invar3.quantize import RAW_SLOTS, Operator3
from invar3.symbol import Symbol3, value_of

ROWS = 5


@st.composite
def batches(draw, order=None, positive=False):
    """A batched jet of ROWS rows (seeded coefficients)."""
    k = draw(st.integers(0, 5)) if order is None else order
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.uniform(-2.0, 2.0, (ROWS, ncoef(k)))
    if positive:
        c[:, 0] = 0.3 + np.abs(c[:, 0])
    return Jet2(k, c)


def rows_of(jet: Jet2) -> list:
    return [Jet2(jet.order, row) for row in jet.c]


def same_rows(batched: Jet2, singles: list) -> bool:
    return (batched.c.shape == (len(singles), ncoef(batched.order))
            and all(s.order == batched.order for s in singles)
            and all(np.array_equal(b, s.c) for b, s in zip(batched.c, singles)))


@given(batches(), batches())
def test_ring_operations_act_row_by_row(a, b):
    ra, rb = rows_of(a), rows_of(b)
    assert same_rows(a * b, [x * y for x, y in zip(ra, rb)])
    assert same_rows(a + b, [x + y for x, y in zip(ra, rb)])
    assert same_rows(b - a, [y - x for x, y in zip(ra, rb)])
    assert same_rows(a * 1.5 - 0.25, [x * 1.5 - 0.25 for x in ra])
    # a single-point jet broadcasts against every row
    assert same_rows(a * rb[0], [x * rb[0] for x in ra])
    assert same_rows(rb[0] + a, [rb[0] + x for x in ra])
    # one number per row
    w = np.linspace(-1.0, 2.0, ROWS)
    assert same_rows(a * w, [x * float(v) for x, v in zip(ra, w)])
    if a.order:
        assert same_rows(a.dx(), [x.dx() for x in ra])
        assert same_rows(a.dy(), [x.dy() for x in ra])
        assert same_rows(a.truncated(a.order - 1), [x.truncated(a.order - 1) for x in ra])
    assert np.array_equal(a.value, [x.value for x in ra])
    assert np.array_equal(a.norm(), [x.norm() for x in ra])


@given(batches(positive=True))
def test_series_functions_act_row_by_row(u):
    ru = rows_of(u)
    for fn in (jets.exp, jets.ln, jets.sin, jets.cos, jets.sqrt, jets.cbrt, jets.jabs,
               jets.asinh, lambda v: 1.0 / v, lambda v: jets.real_power(v, -2.0 / 3.0),
               lambda v: jets.real_power(v, 0.7), lambda v: v ** 3):
        assert same_rows(fn(u), [fn(x) for x in ru])
    # sign branches of the odd and absolute-value functions, row by row
    mixed = Jet2(u.order, u.c * np.array([1.0, -1.0, 1.0, -1.0, -1.0])[:, None])
    for fn in (jets.cbrt, jets.jabs, lambda v: jets.real_power(v, -1.0 / 3.0)):
        assert same_rows(fn(mixed), [fn(x) for x in rows_of(mixed)])


@given(st.integers(0, 4).flatmap(
    lambda k: st.tuples(batches(k), batches(k), batches(k))), st.integers(1, 7))
def test_compose_acts_row_by_row(triple, which):
    # which: a bit mask of the jets that hold the batch; the others are one
    # point (a single outer jet composed with a batch of inner jets, say)
    jets_in = [j if which >> i & 1 else rows_of(j)[0] for i, j in enumerate(triple)]
    rows = [rows_of(j) if which >> i & 1 else [j] * ROWS for i, j in enumerate(jets_in)]
    assert same_rows(compose(*jets_in), [compose(*r) for r in zip(*rows)])


def test_pointwise_checks_turn_failing_rows_nan():
    u = Jet2(2, np.array([[1.0, 0.1, 0, 0, 0, 0], [0.0, 1, 0, 0, 0, 0],
                          [-2.0, 0, 0, 0, 0, 0]]))
    checked = ((lambda v: 1.0 / v, [1]), (jets.ln, [1, 2]), (jets.sqrt, [1, 2]),
               (jets.cbrt, [1]), (jets.jabs, [1]), (lambda v: jets.real_power(v, 0.7), [1, 2]))
    for fn, failing in checked:
        got = fn(u)
        for i, row in enumerate(rows_of(u)):
            if i in failing:
                assert np.isnan(got.c[i]).all()
                # one point raises exactly as it always has
                with pytest.raises(DomainEvalError):
                    fn(row)
            else:
                assert np.array_equal(got.c[i], fn(row).c)
    with pytest.raises(DomainEvalError, match="zero constant term"):
        1.0 / rows_of(u)[1]


def conftest_expressions(seed: int) -> list:
    """The expressions the fixture builders draw from one seed: tame
    polynomials, the components of random operators over three-root and
    one-root symbols (exp, sin, cos, division by constants)."""
    rng = rng_for(seed)
    op = random_operator(rng, random_one_root_symbol(rng) if seed % 2 else None)
    return [c for c in (small_poly(rng), *random_three_root_symbol(rng).components,
                        *op.components) if isinstance(c, expr.Expr)]


# a tree over every node kind, with arguments that leave the domain of ln,
# sqrt, cbrt and division at some points
_leaves = st.one_of(st.sampled_from([expr.var("x"), expr.var("y")]),
                    st.floats(-2.0, 2.0, allow_nan=False).map(expr.const))
expression_trees = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(expr.Neg, sub),
    st.builds(expr.Add, sub, sub), st.builds(expr.Sub, sub, sub),
    st.builds(expr.Mul, sub, sub), st.builds(expr.Div, sub, sub),
    st.builds(expr.Pow, sub, st.integers(-2, 3)),
    st.builds(expr.Call, st.sampled_from(sorted(expr._FUNCTIONS)), sub)), max_leaves=8)

grid_points = st.lists(st.tuples(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
                                 | st.floats(-1.5, 1.5, allow_nan=False),
                                 st.sampled_from([-1.0, 0.0, 1.0])
                                 | st.floats(-1.5, 1.5, allow_nan=False)),
                       min_size=1, max_size=12)


def assert_rows_are_points(e, pts, order):
    """Batched evaluation at ``pts``: each row bit for bit the one-point
    jet, or NaN where the point alone raises a point error, and then that
    error, word for word, in the failure record."""
    alone = []
    for p in pts:
        try:
            alone.append(eval_jet(e, p, order))
        except POINT_ERRORS as err:
            alone.append(err)
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    for evaluate in (eval_jet, lambda e, p, order: field_at(e, *p, order)):
        with failure_record() as failures:
            got = evaluate(e, (xs, ys), order)
        assert got.order == order and got.c.shape == (len(pts), ncoef(order))
        for k, (row, want) in enumerate(zip(got.c, alone)):
            if isinstance(want, Exception):
                assert np.isnan(row).all()
                assert type(failures[k]) is type(want) and str(failures[k]) == str(want)
            else:
                assert np.array_equal(row, want.c) and k not in failures


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 4), grid_points)
def test_batched_evaluation_of_fixture_expressions_matches_each_point(seed, order, pts):
    for e in conftest_expressions(seed):
        assert_rows_are_points(e, pts, order)


@settings(max_examples=150, deadline=None)
@given(expression_trees, st.integers(0, 4), grid_points)
def test_batched_evaluation_of_any_expression_matches_each_point(e, order, pts):
    assert_rows_are_points(e, pts, order)


@pytest.mark.parametrize("text, failing, alone", [
    ("ln(x)", [0, 1], 0),                     # log of a non-positive value
    ("sqrt(x - 0.75)", [0, 1, 2, 3], 0),      # even root of a non-positive value
    ("cbrt(x - 0.5)", [2], 0),                # cube root at zero
    ("ln(x)^0", [0, 1], 0),                   # a failed base to the power 0
    ("exp(400*x) * exp(400*x)", [4], 0),      # overflows to infinity
    ("exp(800*x)", [4], 0),                   # math.exp overflows on its row alone
    ("x / (1 - 1)", [0, 1, 2, 3, 4], 0),      # a constant zero divisor: every row
    ("cos((10*x)^400)", [0, 2, 3, 4], 0),     # cos of an infinity is off its domain
])
def test_points_that_fail_alone_turn_nan(monkeypatch, text, failing, alone):
    calls = []

    def counted(e, p, order=5):
        calls.append(np.ndim(p[0]))
        return eval_jet(e, p, order)

    monkeypatch.setattr(expr, "eval_jet", counted)
    xs, ys = [-1.0, 0.0, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0, -1.0, 0.25]
    got = field_at(parse(text), xs, ys, 3)
    # one batched pass; a batch never raises for one point, so no point alone
    assert calls.count(1) == 1 and calls.count(0) == alone
    for i, p in enumerate(zip(xs, ys)):
        if i in failing:
            assert np.isnan(got.c[i]).all()
            with pytest.raises(POINT_ERRORS):
                eval_jet(parse(text), p, 3)
        else:
            assert np.array_equal(got.c[i], eval_jet(parse(text), p, 3).c)


def test_field_at_takes_numbers_strings_and_callables():
    xs, ys = [0.0, 0.5, 1.0], [1.0, 0.5, 0.0]
    assert np.array_equal(field_at(2.5, xs, ys, 2).c, np.tile(Jet2.constant(2.5, 2).c, (3, 1)))
    assert np.array_equal(field_at("x*y", xs, ys, 2).c,
                          [eval_jet(parse("x*y"), p, 2).c for p in zip(xs, ys)])
    calls = []

    def field(x, y, order):
        calls.append((x, y))
        if x == 0.5:
            raise DomainEvalError("not here")
        return Jet2.variable(x + y, 0, order)

    got = field_at(field, xs, ys, 2)
    assert calls == list(zip(xs, ys))  # a callable stays per point
    assert np.isnan(got.c[1]).all()
    assert np.array_equal(got.c[[0, 2]], [Jet2.variable(1.0, 0, 2).c] * 2)
    # a batch of coordinate jets is a stack of one-point ones
    assert np.array_equal(Jet2.variable(np.array(xs), 1, 2).c,
                          [Jet2.variable(x, 1, 2).c for x in xs])


class _Number(float):
    """A number entry of a batched system: the same at every row."""

    def row(self, i):
        return float(self)


class _PointJet(Jet2):
    """A one-point jet entry of a batched system: the same at every row."""

    __slots__ = ()

    def row(self, i):
        return Jet2(self.order, self.c)


@st.composite
def jet_system_batches(draw):
    """A well-posed system of batched jets, where some entries may be
    numbers or one-point jets (and then the same at every row); the
    first right-hand side is always batched."""
    n = draw(st.integers(1, 8))
    order = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M0 = rng.uniform(-1.0, 1.0, (ROWS, n, n)) + np.eye(n) * rng.uniform(2.0, 4.0, (ROWS, 1, n))
    Mc = rng.uniform(-1.0, 1.0, (ROWS, n, n, ncoef(order)))
    Mc[..., 0] = M0
    bc = rng.uniform(-2, 2, (n, ROWS, ncoef(order)))
    # per entry: 0 batched, 1 one-point jet (row 0 of the batch), 2 number
    kinds = draw(st.lists(st.integers(0, 2), min_size=n * n + n, max_size=n * n + n))
    kinds[n * n] = 0

    def entry(c, kind):
        if kind == 2:
            return _Number(c[0, 0])
        return _PointJet(order, c[0]) if kind else Jet2(order, c)
    M = [[entry(Mc[:, r, c], kinds[r * n + c]) for c in range(n)] for r in range(n)]
    b = [entry(bc[i], kinds[n * n + i]) for i in range(n)]
    return M, b


@settings(max_examples=60, deadline=None)
@given(jet_system_batches())
def test_jet_solve_solves_each_point_as_alone(system):
    M, b = system
    x, report = solve_jet_system(M, b)
    for i in range(ROWS):
        xi, ri = solve_jet_system([[e.row(i) for e in row] for row in M], [e.row(i) for e in b])
        for got, want in zip(x, xi):
            assert got.order == want.order
            assert np.array_equal(got.c[i], want.c)
        assert (report.det[i], report.cond[i], report.residual[i]) == (ri.det, ri.cond, ri.residual)


def test_jet_solve_turns_singular_points_nan():
    one = Jet2(1, np.ones((3, 3)))
    lower = Jet2(1, np.array([[2.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]))
    x, report = solve_jet_system([[one, one], [one, lower]], [one, one])
    for i in range(3):
        system = ([[one.row(i), one.row(i)], [one.row(i), lower.row(i)]],
                  [one.row(i), one.row(i)])
        if i == 1:
            assert all(np.isnan(xk.c[i]).all() for xk in x)
            assert np.isnan([report.det[i], report.cond[i], report.residual[i]]).all()
            with pytest.raises(SingularSymbolError):
                solve_jet_system(*system)
            continue
        xi, ri = solve_jet_system(*system)
        assert all(np.array_equal(got.c[i], want.c) for got, want in zip(x, xi, strict=True))
        assert (report.det[i], report.cond[i], report.residual[i]) == (ri.det, ri.cond, ri.residual)


def test_one_point_solve_keeps_its_rank():
    """A system of numbers and one-point jets is solved as one point: one-point
    jets and a report of floats, and a singular system raises."""
    one = Jet2.constant(1.0, 2)
    x, report = solve_jet_system([[one, 0.5], [0.0, 2.0]], [one, 1.0])
    assert all(xk.c.shape == (ncoef(2),) for xk in x)
    assert all(type(v) is float for v in (report.det, report.cond, report.residual))
    assert (report.det, x[0].value, x[1].value) == (2.0, 0.75, 0.5)
    with pytest.raises(SingularSymbolError, match="planted"):
        solve_jet_system([[one, 1.0], [2.0, one * 2.0]], [one, 1.0],
                         singular_message="planted")
    # an ill-conditioned point warns at the caller's line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve_jet_system([[one, 0.0], [0.0, 1e-13]], [one, one])
    [warning] = [w for w in caught if issubclass(w.category, ConditioningWarning)]
    assert warning.filename == __file__


def _jets(inv: OperatorInvariants) -> list:
    out = [*inv.sigma3, *inv.sigma2, *inv.sigma1, inv.sigma0]
    if inv.curvature_k is not None:
        out += [inv.curvature_k, inv.connection.t1, inv.connection.t2]
    return out


def _per_point(op, pts, mode, rel_tol=1e-9):
    out = []
    for p in pts:
        try:  # an overflow at one point may warn on its way to the error
            with np.errstate(all="ignore"):
                out.append(operator_invariants(op, *p, mode=mode, rel_tol=rel_tol))
        except Exception as err:  # the batch must report the same error
            out.append(err)
    return out


def _assert_same(batched, single):
    assert len(batched) == len(single)
    for got, want in zip(batched, single):
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        for a, b in zip(_jets(got), _jets(want), strict=True):
            assert a.order == b.order and np.array_equal(a.c, b.c)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.sampled_from(["scalar", "bundle"]))
def test_batched_operator_invariants_match_per_point(seed, mode):
    rng = rng_for(seed)
    op = random_operator(rng, random_one_root_symbol(rng) if seed % 2 else None)
    pts = [tuple(p) for p in rng.uniform(0.0, 1.0, (12, 2))]
    batched = operator_invariants(op, [p[0] for p in pts], [p[1] for p in pts], mode=mode)
    _assert_same(batched, _per_point(op, pts, mode))


HYP = {"a1": "0", "a2": "exp(0.4*x + 0.3*y + 0.2*x*y) / 3",
       "a3": "exp(0.5*y - 0.2*x + 0.15*x^2) / 3", "a4": "0",
       "b1": "0.5 + 0.2*sin(x)", "b2": "0.3*y", "b3": "1 + 0.1*x",
       "c1": "0.4*x", "c2": "0.2 + 0.1*y", "a0": "0.3 + 0.2*x*y"}


@pytest.mark.parametrize("mode", ["scalar", "bundle"])
def test_masked_points_keep_their_reasons(mode):
    hyp = Operator3(**{k: parse(v) for k, v in HYP.items()})
    pts = DomainGrid(0.0, 1.0, 0.0, 1.0, 16, 16).points()
    batched = operator_invariants(hyp, [p[0] for p in pts], [p[1] for p in pts], mode=mode)
    single = _per_point(hyp, pts, mode)
    _assert_same(batched, single)
    assert sum(isinstance(r, Exception) for r in batched) == 16


def test_overflow_inside_the_pipeline_masks_points_by_name():
    # b1 = exp(800 x) overflows the invariants from x = 3/7 on, with no check
    # failing on the way; at x = 1 the quadratic form degenerates
    op = Operator3(**{k: parse(v) for k, v in dict(HYP, b1="exp(800*x)").items()})
    pts = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8).points()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = operator_invariants(op, [p[0] for p in pts], [p[1] for p in pts], mode="bundle")
    reasons = {(round(7 * p[0]), str(r)) for p, r in zip(pts, out) if isinstance(r, Exception)}
    assert reasons == {(3, "non-finite J0"), (4, "non-finite J0, J1_1, J1_2"),
                       (5, "non-finite J0, J1_1, J1_2"), (6, "non-finite J0, J1_1, J1_2"),
                       (7, "conformal frame failed: quadratic form is degenerate")}
    assert sum(isinstance(r, Exception) for r in out) == 40
    assert all(np.isfinite(list(r.flat().values())).all()
               for r in out if not isinstance(r, Exception))


# criterion 10's operator with three ways to fail: ln leaves its domain for
# x <= -0.5, the symbol vanishes on y = -1, and the conformal frame is not
# regular where the unscaled operator's is not (a degenerate quadratic form;
# at the looser tolerance also a null covector)
MIXED = dict(HYP, b2="0.3*y + 0.1*ln(x + 0.5)",
             a2=f"(y + 1) * {HYP['a2']}", a3=f"(y + 1) * {HYP['a3']}")


@cache
def _mixed_grid(mode, rel_tol):
    op = Operator3(**{k: parse(v) for k, v in MIXED.items()})
    pts = DomainGrid(-1.0, 1.0, -1.0, 1.0, 16, 16).points()
    return op, pts, _per_point(op, pts, mode, rel_tol)


@st.composite
def mixed_batches(draw):
    """A mode, a tolerance, and points drawn from each outcome of the mixed
    grid (by error type and failed condition), shuffled."""
    mode = draw(st.sampled_from(["scalar", "bundle"]))
    rel_tol = draw(st.sampled_from([1e-9, 1e-2]))
    _op, _pts, single = _mixed_grid(mode, rel_tol)
    pools: dict = {}
    for k, res in enumerate(single):
        pools.setdefault((type(res), tuple(getattr(res, "conditions", ()))), []).append(k)
    assert {kind for kind, _ in pools} == {OperatorInvariants, DomainEvalError,
                                          SingularSymbolError, RegularityError}
    picks = [k for pool in pools.values()
             for k in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))]
    return mode, rel_tol, draw(st.permutations(picks))


@settings(max_examples=16, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mixed_batches())
def test_mixed_failures_in_one_batch_keep_their_reasons(drawn):
    mode, rel_tol, picks = drawn
    op, pts, single = _mixed_grid(mode, rel_tol)
    batched = operator_invariants(op, [pts[k][0] for k in picks], [pts[k][1] for k in picks],
                                  mode=mode, rel_tol=rel_tol)
    _assert_same(batched, [single[k] for k in picks])


def test_per_point_makes_one_batched_pass(monkeypatch):
    from invar3 import invariants
    batched = []
    compute = invariants._operator_invariants

    def counted(op, x, y, mode, rel_tol):
        batched.append(isinstance(x, list))
        return compute(op, x, y, mode, rel_tol)

    monkeypatch.setattr(invariants, "_operator_invariants", counted)
    hyp = Operator3(**{k: parse(v) for k, v in HYP.items()})
    pts = DomainGrid(0.0, 1.0, 0.0, 1.0, 16, 16).points()
    out = operator_invariants(hyp, [p[0] for p in pts], [p[1] for p in pts])
    assert sum(isinstance(r, Exception) for r in out) == 16
    # one pass over the grid, which names the 16 masked points itself
    assert batched.count(True) == 1 and batched.count(False) == 0


# criterion 10's operator with coefficients that leave the pipeline's domain:
# an overflow in the symbol and in a lower slot, and a cosine and a sine of
# an overflowing power
HYP_VARIANTS = [{}, {"a2": "exp(800*x) / 3"}, {"b1": "exp(800*x)"},
                {"a1": "1 + 0.1*cos((10*x)^400)"}, {"a1": "1 + 0.1*sin((2*x)^400)"}]


def _hyp_variant(variant: dict) -> Operator3:
    return Operator3(**{k: parse(v) for k, v in dict(HYP, **variant).items()})


def _alone(op, pts, mode):
    """Each point computed alone, by the rule of a single point: its result,
    the error it raises, or one naming its non-finite invariants."""
    return [operator_invariants(op, [x], [y], mode=mode)[0] for x, y in pts]


@pytest.mark.parametrize("mode", ["scalar", "bundle"])
@pytest.mark.parametrize("variant", HYP_VARIANTS, ids=lambda v: "-".join(v.values()) or "hyp")
def test_each_masked_grid_point_has_the_error_of_its_point_alone(variant, mode):
    op = _hyp_variant(variant)
    pts = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8).points()
    batched = operator_invariants(op, [p[0] for p in pts], [p[1] for p in pts], mode=mode)
    _assert_same(batched, _alone(op, pts, mode))
    assert any(isinstance(r, Exception) for r in batched)


@st.composite
def failing_batches(draw):
    """A mode, an operator and two or more points, some of which fail:
    grid points of a criterion 10 variant, or random points of a random
    operator whose symbol and a lower slot leave the domain of ln."""
    mode = draw(st.sampled_from(["scalar", "bundle"]))
    if draw(st.booleans()):
        grid = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8).points()
        picks = draw(st.lists(st.sampled_from(range(64)), min_size=2, max_size=10))
        return mode, _hyp_variant(draw(st.sampled_from(HYP_VARIANTS))), [grid[k] for k in picks]
    op = _with_ln(random_operator(rng_for(draw(st.integers(0, 10 ** 6)))))
    return mode, op, draw(st.lists(st.tuples(st.floats(-0.5, 1.0), st.floats(-0.5, 1.0)),
                                   min_size=2, max_size=10))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(failing_batches())
def test_each_failed_row_has_the_error_of_its_point_alone(drawn):
    """Each failed row of a batch carries, word for word, the error that
    its point raises alone; the batch is computed once."""
    mode, op, pts = drawn
    calls = []
    compute = invariants._operator_invariants

    def counted(*args):
        calls.append(args[1])
        return compute(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_operator_invariants", counted)
        batched = operator_invariants(op, [p[0] for p in pts], [p[1] for p in pts], mode=mode)
    assert calls == [[p[0] for p in pts]]
    _assert_same(batched, _alone(op, pts, mode))


def test_a_zeroth_power_of_a_nan_base_is_nan_at_either_rank():
    """(x/x)^0 at a subnormal x, where 1/x overflows: the point raises and
    the batch records the same error (the point used to get 1)."""
    e = parse("(x/x)^0")
    with pytest.raises(DomainEvalError) as alone:
        eval_jet(e, (5e-324, 0.0), 1)
    with failure_record() as failures:
        got = eval_jet(e, ([5e-324, 0.5], [0.0, 0.0]), 1)
    assert np.isnan(got.c[0]).all() and np.array_equal(got.c[1], eval_jet(e, (0.5, 0.0), 1).c)
    assert list(failures) == [0] and str(failures[0]) == str(alone.value)


def test_a_series_term_whose_power_underflows_fails_only_its_row():
    """ln's coefficient 1 / (k u0^k) divides by zero where u0^k underflows:
    one point raised a bare ZeroDivisionError, and the whole batch failed."""
    e = parse("ln(x)")
    with pytest.raises(DomainEvalError, match="ln overflows: a series coefficient at "
                                              "constant term 1e-200"):
        eval_jet(e, (1e-200, 0.0), 2)
    with failure_record() as failures:
        got = eval_jet(e, ([1e-200, 0.5], [0.0, 0.0]), 2)
    assert np.isnan(got.c[0]).all() and np.array_equal(got.c[1], eval_jet(e, (0.5, 0.0), 2).c)
    assert list(failures) == [0] and str(failures[0]).startswith("ln overflows")


def test_a_huge_covector_is_null_at_either_rank():
    """Squaring the covector's scale overflowed at one point (a float's
    ** 2 raises); now both ranks find the covector null."""
    from invar3.connection import OneForm
    from invar3.invariants import _build_coframe
    from invar3.symbol import Sym2Form

    @np.errstate(all="ignore")  # the pairing overflows
    def frame(v):
        theta = OneForm(Jet2.variable(v, 0, 1), Jet2.variable(v, 1, 1))
        return _build_coframe(theta, Sym2Form(1.0, 1.0, 1.0), rel_tol=1e-9, scale=1.0,
                              null_name="null", zero_name="zero", diagnostics={})
    with pytest.raises(RegularityError) as alone:
        frame(1e200)
    with failure_record() as failures:
        got = frame(np.array([1e200, 1.0]))
    assert list(failures) == [0] and str(failures[0]) == str(alone.value)
    assert np.array_equal(got.theta_prime.t1.c[1], frame(1.0).theta_prime.t1.c)


def test_an_overflowing_symbol_scale_is_named_at_either_rank():
    """A batch used to call the row singular (an infinite floor) where the
    point names the overflow."""
    from invar3.invariants import _per_point
    from invar3.symbol import scaled_hessian
    sym = Symbol3(parse("1 + exp(200*x)"), 0.0, 0.0, 1.0)

    def compute(x, y):
        return {"g": scaled_hessian(sym.at(x, y, 1), -1.0 / 3.0).g11}
    with pytest.raises(DomainEvalError) as alone:
        compute(1.0, 0.0)
    out = _per_point(compute, [0.0, 1.0], [0.0, 0.0])
    assert "fourth power overflows" in str(alone.value) and str(out[1]) == str(alone.value)
    assert not isinstance(out[0], Exception)


def test_a_non_finite_evaluation_names_its_point_as_floats():
    """numpy scalar coordinates printed as np.float64(...) at one point."""
    e = parse("exp(400*x) * exp(400*x)")
    with pytest.raises(DomainEvalError) as alone:
        eval_jet(e, (np.float64(1.0), np.float64(0.0)), 2)
    assert "at (1.0, 0.0) produced non-finite coefficients" in str(alone.value)
    with failure_record() as failures:
        eval_jet(e, (np.array([0.0, 1.0]), np.array([0.0, 0.0])), 2)
    assert list(failures) == [1] and str(failures[1]) == str(alone.value)


@pytest.mark.parametrize("mode", ["scalar", "bundle"])
def test_operator_invariants_of_no_points_are_an_empty_list(mode):
    op = random_operator(rng_for(32))
    assert operator_invariants(op, [], [], mode=mode) == []
    assert operator_invariants(op.map(equivalence._memoized_field), [], [], mode=mode) == []


def test_bundle_model_reuses_the_connection_form_of_its_fields():
    op = random_operator(rng_for(31))
    grid = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
    model = build_natural_model(op, grid, mode="bundle", config=EquivConfig())
    for (x, y) in model.points[model.chart.mask][::7]:
        theta, _ = line_bundle_connection(op, (x, y), extra_order=1)
        curv = theta.t2.dx() - theta.t1.dy()
        want = (value_of(theta.t1), value_of(theta.t2), value_of(curv))
        assert model.connection_at(x, y) == want


class _FakePoint:
    def __init__(self, value):
        self.value = value

    def flat(self):
        return {"v": self.value}


def test_per_point_names_a_non_finite_row_from_the_batch():
    """``compute`` runs once; a row that failed a check gets its recorded
    error, and a row that is not finite without one is named from the
    batch row."""
    from invar3.invariants import _per_point
    calls = []

    def compute(x, y):
        calls.append((x, y))
        v = np.asarray(x, dtype=float)
        checked = raise_where(v == 3.0, lambda w: DomainEvalError(f"no value at {w}"), -v, v)
        return {"v": np.where(v == 1.0, np.inf, checked), "kind": np.full(v.shape, "label")}

    out = _per_point(compute, [0.0, 1.0, 2.0, 3.0], [0.0] * 4)
    assert calls == [([0.0, 1.0, 2.0, 3.0], [0.0] * 4)]
    assert out[0] == {"v": -0.0, "kind": "label"} and out[2] == {"v": -2.0, "kind": "label"}
    assert isinstance(out[1], DomainEvalError) and str(out[1]) == "non-finite v"
    assert isinstance(out[3], DomainEvalError) and str(out[3]) == "no value at 3.0"
    # a single point is computed alone, by the same rule
    assert str(_per_point(compute, [3.0], [0.0])[0]) == "no value at 3.0"
    assert str(_per_point(compute, [1.0], [0.0])[0]) == "non-finite v"
    assert calls[1:] == [(3.0, 0.0), (1.0, 0.0)]


def test_per_point_names_a_non_finite_jet_row_from_the_batch():
    """A row whose jet is not finite past its value is masked, naming it;
    the batch is computed once."""
    from invar3.invariants import _per_point
    calls = []

    def compute(x, y):
        calls.append(x)
        u = Jet2.variable(x, 0, 2)
        # infinite in a second-order term on the rows of 1 and 2
        u.c[..., -1] = np.where(np.asarray(x) > 0.5, np.inf, 0.0)
        return {"u": u}

    out = _per_point(compute, [0.0, 1.0, 2.0], [0.0] * 3)
    assert calls == [[0.0, 1.0, 2.0]]
    assert np.array_equal(out[0]["u"].c, Jet2.variable(0.0, 0, 2).c)
    for k in (1, 2):
        assert isinstance(out[k], DomainEvalError) and str(out[k]) == "non-finite u"


def test_a_batch_that_raises_propagates_out_of_per_point():
    from invar3.errors import RegularityError
    from invar3.invariants import _per_point
    calls = []

    def compute(x, y):
        calls.append(x)
        if isinstance(x, list):
            raise RegularityError("batch failed", ["no rows named"])
        return _FakePoint(x)

    # a batch never raises for one point: one that does is not split up
    with pytest.raises(RegularityError, match="batch failed"):
        _per_point(compute, [0.0, 1.0, 2.0], [0.0] * 3)
    assert calls == [[0.0, 1.0, 2.0]]


# -- callable fields on batches ------------------------------------------------------

def assert_field_rows_are_points(build, names, pts, order):
    """Each slot in ``names`` of a fresh ``build()``, evaluated on the batch
    in that order: every row is the one-point jet of another fresh build
    (slots in the same order at each point), or NaN where that point
    raises; alone, such a point raises the same error on the batched build."""
    batched, single = build(), build()
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    with np.errstate(all="ignore"):
        rows = {n: field_at(getattr(batched, n), xs, ys, order) for n in names}
    failed = 0
    for k, p in enumerate(pts):
        for n in names:
            assert rows[n].order == order and rows[n].c.shape == (len(pts), ncoef(order))
            try:
                want = getattr(single, n)(*p, order)
            except POINT_ERRORS as err:
                failed += 1
                assert np.isnan(rows[n].c[k]).all()
                with pytest.raises(type(err)) as again:
                    getattr(batched, n)(*p, order)
                assert str(again.value) == str(err)
                continue
            assert np.array_equal(rows[n].c[k], want.c)
    return failed


# the principal-only path reads the symbol slots alone; the full path reads a
# lower slot first, so that the symbol slots come from the full memo
SLOT_PATHS = {"principal": ["a1", "a2", "a3", "a4"], "full": list(reversed(RAW_SLOTS))}
unit_points = st.lists(st.tuples(st.floats(-0.25, 1.0), st.floats(-0.25, 1.0)),
                       min_size=1, max_size=5)


def _with_ln(op: Operator3) -> Operator3:
    """The operator with a symbol and a lower slot that leave the domain
    of ln where x <= -0.2."""
    comps = list(op.components)
    comps[1] = comps[1] + 0.01 * expr.ln(expr.var("x") + 0.2)
    comps[5] = comps[5] + 0.1 * expr.ln(expr.var("x") + 0.2)
    return Operator3(*comps)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.integers(0, 4), st.sampled_from(sorted(SLOT_PATHS)),
       unit_points)
def test_batched_pushforward_fields_match_each_point(seed, order, path, pts):
    rng = rng_for(seed)
    op = _with_ln(random_operator(rng, random_one_root_symbol(rng) if seed % 2 else None))
    phi, phi_inv = random_diffeo(rng)
    failed = assert_field_rows_are_points(
        lambda: pushforward_operator(op, phi, phi_inv), SLOT_PATHS[path],
        pts + [(-0.5, 0.5)], order)
    assert failed  # the last point leaves the domain of ln


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.integers(0, 4), st.sampled_from(sorted(SLOT_PATHS)),
       st.booleans(), unit_points)
def test_batched_gauge_fields_match_each_point(seed, order, path, pushed, pts):
    rng = rng_for(seed)
    op = _with_ln(random_operator(rng))
    phi, phi_inv = random_diffeo(rng)
    # a multiplier that vanishes on x = 0.25
    h = random_gauge(rng) * (expr.var("x") - 0.25)

    def build():
        return gauge_transform(pushforward_operator(op, phi, phi_inv) if pushed else op, h)

    failed = assert_field_rows_are_points(build, SLOT_PATHS[path],
                                          pts + [(0.25, 0.5), (-0.5, 0.5)], order)
    assert failed


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.integers(0, 4), st.sampled_from(sorted(SLOT_PATHS)),
       st.lists(st.sampled_from(range(64)), min_size=1, max_size=5))
# grid point 12 alone fails on a degenerate quadratic form, where its row
# once kept the frame's covector and symbol finite
@example(seed=609, order=3, path="full", picks=[12])
def test_batched_normalize_fields_match_each_point(seed, order, path, picks):
    rng = rng_for(seed)
    op = random_operator(rng, random_one_root_symbol(rng) if seed % 2 else None)
    # the mixed operator fails at these grid points: ln, a singular symbol,
    # a degenerate conformal frame, a multiplier that is not positive
    mixed = Operator3(**{k: parse(v) for k, v in MIXED.items()})
    grid = DomainGrid(-1.0, 1.0, -1.0, 1.0, 8, 8).points()
    pts = [grid[k] for k in picks]
    assert_field_rows_are_points(lambda: normalize(op), SLOT_PATHS[path], pts, order)
    assert assert_field_rows_are_points(lambda: normalize(mixed), SLOT_PATHS[path],
                                        pts + [(-0.5, -1.0), (-1.0, 0.5)], order)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.integers(0, 4), st.sampled_from(sorted(SLOT_PATHS)),
       st.sampled_from(["number", "field"]), unit_points)
def test_batched_scale_fields_match_each_point(seed, order, path, kind, pts):
    rng = rng_for(seed)
    op = random_operator(rng)
    phi, phi_inv = random_diffeo(rng)
    factor = -1.5 if kind == "number" else expr.ln(expr.var("x") + 0.2)
    failed = assert_field_rows_are_points(
        lambda: scale_operator(pushforward_operator(op, phi, phi_inv), factor),
        SLOT_PATHS[path], pts + [(-0.5, 0.5)], order)
    assert bool(failed) == (kind == "field")  # ln fails at the last point


def test_memo_keys_a_batch_by_its_coordinates():
    e = parse("exp(x) * sin(y) + x / (1 + y^2)")
    calls = []

    def compute(x, y, order):
        calls.append(order)
        return eval_jet(e, (x, y), order)

    memo = _PointMemo(compute)
    xs, ys = [0.1, 0.2, 0.3], [0.4, 0.5, 0.6]
    high = memo(xs, ys, 4)
    # the same coordinates in other sequences hit, and a lower order is the
    # truncation of the stored one
    assert memo(np.array(xs), tuple(ys), 2) is high and calls == [4]
    assert np.array_equal(jets.as_jet(high, 2).c, eval_jet(e, (xs, ys), 2).c)
    # another batch, a point of the batch, and a higher order miss
    memo(xs[:2], ys[:2], 2)
    memo(xs[0], ys[0], 2)
    memo(xs, ys, 5)
    assert calls == [4, 2, 2, 5]
    # the symbol slots of a batch serve the operator's at a lower order:
    # one principal-only and one full evaluation
    rng = rng_for(3)
    op = random_operator(rng)
    phi, phi_inv = random_diffeo(rng)
    moved = pushforward_operator(op, phi, phi_inv)
    counted = []
    trackers = equivalence._chain_rule_trackers

    def counting(phi_jets, depth):
        counted.append(phi_jets[0].batched)
        return trackers(phi_jets, depth)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivalence, "_chain_rule_trackers", counting)
        sym = moved.principal_symbol().at(xs, ys, 4)
        opp = moved.at(xs, ys, 3)
    assert counted == [True, True]
    for a, b in zip(sym.components, opp.components[:4]):
        assert np.array_equal(a.truncated(3).c, b.c)


def test_unmarked_callables_are_called_once_per_point():
    xs, ys = [0.0, 0.5, 1.0], [1.0, 0.5, 0.0]
    e = parse("x + y^2")
    seen = []

    def plain(x, y, order):
        seen.append(x)
        return eval_jet(e, (x, y), order)

    marked = expr.BatchField(plain)
    want = eval_jet(e, (xs, ys), 2)
    # a marked field gets the whole batch in one call
    assert np.array_equal(field_at(marked, xs, ys, 2).c, want.c) and seen == [xs]
    seen.clear()
    # an unmarked one (a user field, or a wrapper of a marked one) once per point
    wrapper = lambda x, y, order: marked(x, y, order)  # noqa: E731
    for f in (plain, wrapper):
        seen.clear()
        assert np.array_equal(field_at(f, xs, ys, 2).c, want.c) and seen == xs


def _stage_one_alone(op_field, grid, order):
    """Stage one point by point: the candidates at each grid point, and the
    point regular when they are computed there with finite values and
    gradients."""
    sym_field = Symbol3(*op_field.components[:4])
    pts = grid.points()
    values = np.full((len(pts), 4), np.nan)
    grads = np.full((len(pts), 4, 2), np.nan)
    seeds = []
    for k, (x, y) in enumerate(pts):
        try:
            cands, frame = _candidate_invariants(sym_field, x, y, order, with_frame=True)
        except POINT_ERRORS:
            seeds.append(None)
            continue
        values[k] = [c.value for c in cands]
        grads[k] = [[c.partial(1, 0), c.partial(0, 1)] for c in cands]
        seeds.append((cands, tuple(value_of(v) for v in frame.d1 + frame.d2)))
    regular = np.isfinite(values).all(axis=1) & np.isfinite(grads).all(axis=(1, 2))
    values[~regular] = grads[~regular] = np.nan
    return values, grads, [s if ok else None for s, ok in zip(seeds, regular)]


def _stage_one_operators(seed):
    """A conftest operator, its pushed and gauged partner, and the mixed
    operator (masked points), each with its grid."""
    rng = rng_for(seed)
    op = random_operator(rng, random_one_root_symbol(rng) if seed % 2 else None)
    phi, phi_inv = random_diffeo(rng)
    unit = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
    box = image_box(phi, unit)
    moved = gauge_transform(pushforward_operator(op, phi, phi_inv, unit), random_gauge(rng), box)
    mixed = Operator3(**{k: parse(v) for k, v in MIXED.items()})
    return [(op, unit), (moved, box), (mixed, DomainGrid(-1.0, 1.0, -1.0, 1.0, 8, 8))]


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 3]))
def test_batched_stage_one_matches_each_point(seed, order):
    for op, grid in _stage_one_operators(seed):
        stage = _stage_one(op, grid, order)
        values, grads, seeds = _stage_one_alone(op, grid, order)
        assert np.array_equal(stage.points, grid.points())
        assert np.array_equal(stage.values, values, equal_nan=True)
        assert np.array_equal(stage.grads, grads, equal_nan=True)
        assert len(stage.seeds) == len(seeds)
        for got, want in zip(stage.seeds, seeds):
            assert (got is None) == (want is None)
            if want is not None:
                assert all(a.order == b.order and np.array_equal(a.c, b.c)
                           for a, b in zip(got[0], want[0], strict=True))
                assert np.array_equal(got[1], want[1], equal_nan=True)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_scalar_fields_match_each_point(seed):
    """A scalar model's fields read at a batch of points are, point by
    point, bit for bit those a fresh model reads at the point alone, or the
    error the point raises there."""
    rng = rng_for(seed)
    op = random_operator(rng, random_one_root_symbol(rng) if seed % 2 else None)
    mixed = Operator3(**{k: parse(v) for k, v in MIXED.items()})
    unit = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
    # off the unit square the mixed operator masks points: ln in a lower
    # slot, a singular symbol
    pts = DomainGrid(-1.0, 1.0, -1.0, 1.0, 8, 8).points()
    for field, masks in ((op, False), (mixed, True)):
        batched, single = (build_natural_model(field, unit, "scalar") for _ in range(2))
        with np.errstate(all="ignore"):
            got = batched.fields_at([p[0] for p in pts], [p[1] for p in pts])
        failed = 0
        for p, row in zip(pts, got):
            try:
                want = single.fields_at(*p)
            except POINT_ERRORS as err:
                failed += 1
                assert type(row) is type(err) and str(row) == str(err)
                continue
            assert list(row) == list(want)
            assert (np.array(list(row.values())).tobytes()
                    == np.array(list(want.values())).tobytes())
        assert bool(failed) == masks


def test_stage_one_makes_one_candidate_call_per_grid(monkeypatch):
    calls = []
    candidates = equivalence._candidate_invariants

    def counted(sym_field, x, y, *args, **kwargs):
        calls.append(isinstance(x, list))
        return candidates(sym_field, x, y, *args, **kwargs)

    monkeypatch.setattr(equivalence, "_candidate_invariants", counted)
    for op, grid in _stage_one_operators(5):
        calls.clear()
        stage = _stage_one(op, grid, 1)
        assert calls == [True]
    assert any(s is None for s in stage.seeds)  # the mixed grid has masked points


def test_a_scalar_model_reads_its_kept_chart_from_stage_one(monkeypatch):
    """The scalar fields read the chart jets of the kept grid points as one
    batch, which stage one's rows seed: no candidate call after stage one."""
    calls = []
    candidates = equivalence._candidate_invariants

    def counted(sym_field, x, y, *args, **kwargs):
        calls.append(isinstance(x, list))
        return candidates(sym_field, x, y, *args, **kwargs)

    monkeypatch.setattr(equivalence, "_candidate_invariants", counted)
    for op, grid in _stage_one_operators(5)[:2]:
        calls.clear()
        build_natural_model(op, grid, "scalar")
        assert calls == [True]


def _check_inverse_alone(phi, phi_inv, window, tol=1e-10):
    """The mutual-inverse check, one sample point at a time."""
    fwd = [expr.coefficient_field(c) for c in phi]
    bwd = [expr.coefficient_field(c) for c in phi_inv]
    scale = max(abs(window.x0), abs(window.x1), abs(window.y0), abs(window.y1), 1.0)
    for x in np.linspace(window.x0, window.x1, 5):
        for y in np.linspace(window.y0, window.y1, 5):
            px, py = bwd[0](x, y, 0).value, bwd[1](x, y, 0).value
            rx, ry = fwd[0](px, py, 0).value - x, fwd[1](px, py, 0).value - y
            if max(abs(rx), abs(ry)) > tol * scale:
                raise InverseMismatchError(
                    f"maps are not mutually inverse at ({x:.3g}, {y:.3g}): "
                    f"residual {max(abs(rx), abs(ry)):.3g}")


def _raised(call):
    try:
        call()
    except POINT_ERRORS as err:
        return type(err), str(err)
    return None


@pytest.mark.parametrize("case, error", [
    ("inverse", None), ("mismatch", "not mutually inverse"), ("ln", "log of"),
    ("mismatch before ln", "not mutually inverse"), ("ln before mismatch", "log of")])
def test_mutual_inverse_check_raises_at_the_first_failing_sample(case, error):
    x, y = expr.var("x"), expr.var("y")
    phi, phi_inv = random_diffeo(rng_for(11))
    window = DomainGrid(-1.0, 1.0, -1.0, 1.0, 8, 8)
    # the samples run over x = -1 first; ln(x + 0.5) fails there, ln(0.2 - x)
    # only from x = 0.5 on
    bend = {"inverse": 0.0, "mismatch": 0.01 * x * y, "ln": 0.0 * expr.ln(x + 0.5),
            "mismatch before ln": 0.01 * y + 0.0 * expr.ln(0.2 - x),
            "ln before mismatch": 0.01 * (x + 1) * y + 0.0 * expr.ln(x + 0.5)}[case]
    phi_inv = (phi_inv[0] + bend, phi_inv[1])
    want = _raised(lambda: _check_inverse_alone(phi, phi_inv, window))
    assert (want is None) == (error is None) and (error is None or error in want[1])
    assert _raised(lambda: pushforward_operator(Operator3(*[1.0] * 10), phi, phi_inv,
                                                window)) == want


@pytest.mark.parametrize("h, want", [
    ("exp(0.2*x*y)", None),
    ("x - 0.142857142857", "multiplier vanishes near (0.143"),
    ("x + 0.5", "multiplier changes sign"),
    ("0.0*ln(x - 0.5) + 1", "log of non-positive value"),
    # the samples run over x = -1 first
    ("x + 1 + 0.0*ln(0.2 - x)", "multiplier vanishes near (-1"),
    ("x - 0.142857142857 + 0.0*ln(x + 0.5)", "log of non-positive value"),
])
def test_gauge_window_check_raises_at_the_first_failing_sample(h, want):
    window = DomainGrid(-1.0, 1.0, -1.0, 1.0, 8, 8)
    floor = 1e-9
    hf = expr.coefficient_field(h)
    alone = None
    signs = set()
    for (x, y) in window.points():
        try:
            v = hf(x, y, 0).value
        except POINT_ERRORS as err:
            alone = (type(err), str(err))
            break
        if abs(v) < floor:
            alone = (ZeroCrossingError, f"multiplier vanishes near ({x:.3g}, {y:.3g})")
            break
        signs.add(v > 0)
    if alone is None and len(signs) > 1:
        alone = (ZeroCrossingError, "multiplier changes sign on the window")
    assert (alone is None) == (want is None) and (want is None or want in alone[1])
    assert _raised(lambda: gauge_transform(Operator3(*[1.0] * 10), h, window)) == alone
