"""Fast paths of the jet pipeline against the plain per-point computations.

Each fast path must reproduce what it replaces: the lean jet product the
plain truncated convolution (bit for bit), the single-factorization jet
solve the textbook one (``det``/``lu_factor``/SVD ``cond``/one ``lu_solve``
per coefficient), the stage-one candidates at a higher order the
candidates at order one, and the per-point memos a fresh evaluation.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from conftest import (random_diffeo, random_gauge, random_one_root_symbol,
                      random_operator, random_three_root_symbol, rng_for)
from invar3 import jets
from invar3.equivalence import (_candidate_invariants, gauge_transform,
                                pushforward_operator)
from invar3.errors import ConditioningWarning, SingularSymbolError
from invar3.jets import Jet2, compose, ncoef, pack_index
from invar3.linalg import solve_jet_system
from invar3.quantize import RAW_SLOTS
from invar3.symbol import Symbol3

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def coeff_arrays(order):
    return st.lists(finite, min_size=ncoef(order), max_size=ncoef(order)).map(np.array)


@st.composite
def jet_pairs(draw, rows=False):
    """Two jets of orders 0-5 at one point; with ``rows``, either or both
    may instead hold a batch of 1-4 points (one count for both)."""
    n = draw(st.integers(1, 4))

    def jet():
        k = draw(st.integers(0, 5))
        c = draw(st.lists(coeff_arrays(k), min_size=n, max_size=n).map(np.array))
        return Jet2(k, c if rows and draw(st.booleans()) else c[0])
    return jet(), jet()


def reference_product(a: Jet2, b: Jet2) -> np.ndarray:
    """The truncated convolution, summed term by term in lexicographic order
    of the left factor's exponents (the order the packed tables use); row by
    row where either jet holds a batch (a one-point jet meets every row)."""
    if a.c.ndim + b.c.ndim > 2:
        n = max(len(j.c) for j in (a, b) if j.c.ndim == 2)
        rows = [[Jet2(j.order, c) for c in (j.c if j.c.ndim == 2 else [j.c] * n)]
                for j in (a, b)]
        return np.array([reference_product(x, y) for x, y in zip(*rows)])
    k = min(a.order, b.order)
    out = [0.0] * ncoef(k)
    for p in range(k + 1):
        for q in range(k - p + 1):
            for r in range(k - p - q + 1):
                for s in range(k - p - q - r + 1):
                    out[pack_index(p + r, q + s)] += (a.c[pack_index(p, q)]
                                                      * b.c[pack_index(r, s)])
    return np.array(out)


@given(jet_pairs(rows=True))
def test_product_is_the_plain_convolution(pair):
    a, b = pair
    prod = a * b
    assert prod.order == min(a.order, b.order)
    assert np.array_equal(prod.c, reference_product(a, b))


@given(jet_pairs())
def test_sum_and_difference_truncate_to_the_lower_order(pair):
    a, b = pair
    n = ncoef(min(a.order, b.order))
    assert np.array_equal((a + b).c, a.c[:n] + b.c[:n])
    assert np.array_equal((a - b).c, a.c[:n] - b.c[:n])
    assert np.array_equal((b - a).c, b.c[:n] - a.c[:n])


def reference_series(u: Jet2, coeffs) -> np.ndarray:
    du = Jet2(u.order, u.c.copy())
    du.c[0] = 0.0
    acc = np.zeros(ncoef(u.order))
    acc[0] = coeffs[u.order]
    for k in range(u.order - 1, -1, -1):
        acc = reference_product(Jet2(u.order, acc), du)
        acc[0] += coeffs[k]
    return acc


@given(st.integers(0, 5).flatmap(lambda k: coeff_arrays(k).map(lambda c: Jet2(k, c))))
def test_series_and_compose_use_the_plain_product(u):
    u.c[0] = 0.5 + abs(u.c[0])  # positive constant term for ln
    coeffs = [math.log(u.value)] + [(-1.0) ** (k + 1) / (k * u.value ** k)
                                  for k in range(1, u.order + 1)]
    assert np.array_equal(jets.ln(u).c, reference_series(u, coeffs))
    v = Jet2(u.order, np.cos(np.arange(ncoef(u.order), dtype=float)))
    f = Jet2(u.order, np.sin(np.arange(ncoef(u.order), dtype=float) + 1.0))
    # Horner over x-powers of rows that are Horner over y-powers
    k = u.order
    du, dv = u.c.copy(), v.c.copy()
    du[0] = dv[0] = 0.0

    def row(i):
        acc = np.zeros(ncoef(k))
        acc[0] = f.c[pack_index(i, k - i)]
        for j in range(k - i - 1, -1, -1):
            acc = reference_product(Jet2(k, acc), Jet2(k, dv))
            acc[0] += f.c[pack_index(i, j)]
        return acc
    acc = row(k)
    for i in range(k - 1, -1, -1):
        acc = reference_product(Jet2(k, acc), Jet2(k, du)) + row(i)
    assert np.array_equal(compose(f, u, v).c, acc)


def reference_solve(M, b, order):
    """The jet solve as first written: numpy det, scipy lu_factor, SVD cond,
    one lu_solve per Taylor coefficient."""
    n = len(b)
    nc = ncoef(order)
    Mc = np.zeros((n, n, nc))
    for r in range(n):
        for c in range(n):
            Mc[r, c] = M[r][c].c[:nc]
    bc = np.array([e.c[:nc] for e in b])
    M0 = Mc[:, :, 0]
    det = float(np.linalg.det(M0))
    lu = lu_factor(M0)
    cond = float(np.linalg.cond(M0))
    pairs = [(t - j, j) for t in range(order + 1) for j in range(t + 1)]
    index = {ij: k for k, ij in enumerate(pairs)}
    X = np.zeros((n, nc))
    for (i, j) in pairs:
        acc = bc[:, index[(i, j)]].copy()
        for p in range(i + 1):
            for q in range(j + 1):
                if p or q:
                    acc -= Mc[:, :, index[(p, q)]] @ X[:, index[(i - p, j - q)]]
        X[:, index[(i, j)]] = lu_solve(lu, acc)
    return X, det, cond


@st.composite
def jet_systems(draw):
    n = draw(st.integers(1, 8))
    order = draw(st.integers(0, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    # a diagonally dominated constant term keeps the system well posed
    M0 = rng.uniform(-1.0, 1.0, (n, n)) + np.diag(rng.uniform(2.0, 4.0, n) * rng.choice([-1, 1], n))
    M = [[Jet2(order, np.concatenate(([M0[r, c]], rng.uniform(-1, 1, ncoef(order) - 1))))
          for c in range(n)] for r in range(n)]
    b = [Jet2(order, rng.uniform(-2, 2, ncoef(order))) for _ in range(n)]
    return M, b, order


@settings(max_examples=150, deadline=None)
@given(jet_systems())
def test_jet_solve_matches_the_textbook_solve(system):
    M, b, order = system
    x, report = solve_jet_system(M, b)
    X, det, cond = reference_solve(M, b, order)
    got = np.array([xi.c for xi in x])
    assert all(xi.order == order for xi in x)
    np.testing.assert_allclose(got, X, rtol=1e-12, atol=1e-12 * np.max(np.abs(X)))
    assert report.det == pytest.approx(det, rel=1e-12)
    assert report.cond == pytest.approx(cond, rel=1e-12)


def test_jet_solve_singular_and_ill_conditioned():
    one = Jet2.constant(1.0, 2)
    with pytest.raises(SingularSymbolError, match="planted"):
        solve_jet_system([[one, one], [one, one]], [one, one], singular_message="planted")
    with pytest.raises(SingularSymbolError):
        solve_jet_system([[0.0, 0.0], [0.0, 0.0]], [one, one])
    nan = Jet2.constant(float("nan"), 2)
    with pytest.raises(SingularSymbolError):
        solve_jet_system([[nan, one], [one, one]], [one, one])
    tiny = Jet2.constant(1e-13, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x, report = solve_jet_system([[one, 0.0], [0.0, tiny]], [one, one])
    assert any(issubclass(w.category, ConditioningWarning) for w in caught)
    assert report.cond == pytest.approx(1e13)
    assert report.det == pytest.approx(1e-13)
    assert x[1].value == pytest.approx(1e13)


def _symbols(seed):
    rng = rng_for(seed)
    return random_three_root_symbol(rng) if seed % 2 else random_one_root_symbol(rng)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_order_three_candidates_truncate_to_order_one(seed, x, y):
    sym = _symbols(seed)
    try:
        low, frame_low = _candidate_invariants(sym, x, y, 1, with_frame=True)
    except Exception as err:  # the point is not regular: order 3 must fail too
        with pytest.raises(type(err)):
            _candidate_invariants(sym, x, y, 3)
        return
    high, frame_high = _candidate_invariants(sym, x, y, 3, with_frame=True)
    for lo, hi in zip(low, high):
        assert hi.order == 3
        assert np.array_equal(hi.truncated(1).c, lo.c)
    for a, b in zip(frame_low.d1 + frame_low.d2, frame_high.d1 + frame_high.d2):
        assert a.value == b.value
    pair = _candidate_invariants(sym, x, y, 1, which=(1, 3))
    assert np.array_equal(pair[0].c, low[1].c) and np.array_equal(pair[1].c, low[3].c)


def _moved_operator(seed, gauge):
    rng = rng_for(seed)
    op = random_operator(rng)
    phi, phinv = random_diffeo(rng)
    moved = pushforward_operator(op, phi, phinv)
    return gauge_transform(moved, random_gauge(rng)) if gauge else moved


@pytest.mark.parametrize("gauge", [False, True])
def test_memo_serves_lower_orders_and_the_principal_part_exactly(gauge):
    pts = [(0.3, 0.4), (0.55, 0.7), (0.8, 0.25)]
    warm = _moved_operator(11, gauge)
    sym = Symbol3(*warm.components[:4])
    for (x, y) in pts:
        sym.at(x, y, 4)        # principal part only, at a high order
        warm.at(x, y, 3)       # all ten slots
    for (x, y) in pts:
        for order in (0, 1, 2, 3):
            # a fresh operator whose full memo is filled first, so that its
            # principal slots are read from the full computation
            full_first = _moved_operator(11, gauge)
            full_first.b1(x, y, order)
            ref = full_first.at(x, y, order)
            got = warm.at(x, y, order)
            for name in RAW_SLOTS:
                ja, jb = getattr(got, name), getattr(ref, name)
                assert ja.order == jb.order == order
                assert np.array_equal(ja.c, jb.c), (name, order)
            # the principal part computed alone
            top = Symbol3(*_moved_operator(11, gauge).components[:4]).at(x, y, order)
            for ja, jb in zip(top.components, ref.principal_symbol().components):
                assert np.array_equal(ja.c, jb.c)


def test_operators_sharing_their_symbol_share_charts_exactly():
    from invar3.equivalence import EquivConfig, DomainGrid, equivalent_scalar
    from invar3.expr import coefficient_field
    from invar3.quantize import Operator3

    grid = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
    cfg = EquivConfig(max_matched_points=16, min_matched_points=8, compare_resolution=10)
    op = random_operator(rng_for(4005))
    comps = list(op.components)
    comps[5] = comps[5] + 0.05          # a lower-order change: same symbol fields
    bumped = Operator3(*comps)
    shared = equivalent_scalar(op, bumped, grid, grid, tol=1e-6, config=cfg)
    # the same symbol behind opaque callables: nothing is shared
    opaque = Operator3(*(lambda x, y, order, f=coefficient_field(c): f(x, y, order)
                         for c in comps[:4]), *comps[4:])
    apart = equivalent_scalar(op, opaque, grid, grid, tol=1e-6, config=cfg)
    assert shared.equivalent == apart.equivalent == "no"
    assert shared.max_discrepancy == apart.max_discrepancy
    assert shared.field_diagnostics == apart.field_diagnostics
    assert shared.matched_points == apart.matched_points
