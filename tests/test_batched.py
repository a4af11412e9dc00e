"""Batched jets and the grid-batched invariant pipeline against per-point runs.

A batched jet holds one row of coefficients per point, and every batched
operation must reproduce, row by row, the same operation on the row alone.
The comparisons are exact (``np.array_equal``, bit for bit): each row runs
the same floating-point operations in the same order as a single point.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_one_root_symbol, random_operator, rng_for
from invar3 import jets
from invar3.equivalence import (DomainGrid, EquivConfig, build_natural_model,
                                line_bundle_connection)
from invar3.errors import BatchRowError, DomainEvalError, SingularSymbolError
from invar3.expr import parse
from invar3.invariants import OperatorInvariants, operator_invariants
from invar3.jets import Jet2, compose, ncoef
from invar3.linalg import solve_jet_system
from invar3.quantize import Operator3
from invar3.symbol import value_of

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
    lambda k: st.tuples(batches(k), batches(k), batches(k))))
def test_compose_acts_row_by_row(triple):
    f, p1, p2 = triple
    got = compose(f, p1, p2)
    assert same_rows(got, [compose(a, b, c) for a, b, c in zip(*map(rows_of, triple))])
    # a single outer jet composed with a batch of inner jets
    f0 = rows_of(f)[0]
    assert same_rows(compose(f0, p1, p2),
                     [compose(f0, b, c) for b, c in zip(rows_of(p1), rows_of(p2))])


def test_pointwise_checks_name_the_failing_rows():
    u = Jet2(2, np.array([[1.0, 0.1, 0, 0, 0, 0], [0.0, 1, 0, 0, 0, 0],
                          [-2.0, 0, 0, 0, 0, 0]]))
    with pytest.raises(BatchRowError) as err:
        1.0 / u
    assert err.value.rows.tolist() == [1]
    with pytest.raises(BatchRowError) as err:
        jets.ln(u)
    assert err.value.rows.tolist() == [1, 2]
    # one point raises exactly as it always has
    with pytest.raises(DomainEvalError, match="zero constant term"):
        1.0 / rows_of(u)[1]


@st.composite
def jet_system_batches(draw):
    n = draw(st.integers(1, 8))
    order = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M0 = rng.uniform(-1.0, 1.0, (ROWS, n, n)) + np.eye(n) * rng.uniform(2.0, 4.0, (ROWS, 1, n))
    Mc = rng.uniform(-1.0, 1.0, (ROWS, n, n, ncoef(order)))
    Mc[..., 0] = M0
    M = [[Jet2(order, Mc[:, r, c]) for c in range(n)] for r in range(n)]
    b = [Jet2(order, rng.uniform(-2, 2, (ROWS, ncoef(order)))) for _ in range(n)]
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


def test_jet_solve_names_singular_points():
    one = Jet2(1, np.ones((3, 3)))
    lower = Jet2(1, np.array([[2.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]]))
    with pytest.raises(BatchRowError) as err:
        solve_jet_system([[one, one], [one, lower]], [one, one])
    assert err.value.rows.tolist() == [1]
    with pytest.raises(SingularSymbolError):
        solve_jet_system([[one.row(1), one.row(1)], [one.row(1), lower.row(1)]],
                         [one.row(1), one.row(1)])


def _jets(inv: OperatorInvariants) -> list:
    out = [*inv.sigma3, *inv.sigma2, *inv.sigma1, inv.sigma0]
    if inv.curvature_k is not None:
        out += [inv.curvature_k, inv.connection.t1, inv.connection.t2]
    return out


def _per_point(op, pts, mode):
    out = []
    for p in pts:
        try:
            out.append(operator_invariants(op, *p, mode=mode))
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


def test_bundle_model_reuses_the_connection_form_of_its_fields():
    op = random_operator(rng_for(31))
    grid = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
    model = build_natural_model(op, grid, mode="bundle", config=EquivConfig())
    for (x, y) in model.points[model.chart.mask][::7]:
        theta, _ = line_bundle_connection(op, (x, y), extra_order=1)
        curv = theta.t2.dx() - theta.t1.dy()
        want = (value_of(theta.t1), value_of(theta.t2), value_of(curv))
        assert model.connection_at(x, y) == want
