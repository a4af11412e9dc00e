"""Group actions, natural models, pairwise equivalence, normalization."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (X, Y, image_box, random_diffeo, random_gauge,
                      random_operator, random_regular_symbol,
                      random_three_root_symbol, rng_for)
from invar3.connection import OneForm
from invar3.equivalence import (DomainGrid, EquivConfig, build_natural_model,
                                equation_equivalent, equivalent_bundle,
                                equivalent_scalar, gauge_transform,
                                line_bundle_connection, normalize,
                                pushforward_operator, pushforward_symbol,
                                scale_operator)
from invar3.errors import (DomainEvalError, GeneralPositionError, InverseMismatchError,
                           NonPositiveScaleError, ZeroCrossingError, masked)
from invar3.expr import coefficient_field, cos as ecos
from invar3.expr import exp as eexp
from invar3.expr import sin as esin
from invar3.invariants import cubic_in_basis
from invar3.jets import Jet2, compose
from invar3.quantize import Operator3
from invar3.symbol import Symbol3

GRID = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
GRID_WIDE = DomainGrid(-0.15, 1.3, -0.15, 1.3, 8, 8)

FAST = EquivConfig(max_matched_points=24, compare_resolution=12)


def val(v):
    return v.value if isinstance(v, Jet2) else float(v)


def image_of(phi, pt):
    return (coefficient_field(phi[0])(pt[0], pt[1], 0).value,
            coefficient_field(phi[1])(pt[0], pt[1], 0).value)


def one_root_positive_multiplier_operator(extra=0.0):
    """Operator family over a one-real-root symbol whose normalization
    multiplier is positive across the unit window (checked in tests)."""
    h = 0.3 * X + 0.8 * Y - 0.25 * X * Y + 0.1 * X * X
    a, b = esin(h), ecos(h)
    return Operator3(a1=a, a2=b / 3.0, a3=a / 3.0, a4=b,
                     b1=0.4 + 0.1 * X, b2=0.2 * Y, b3=0.8 + 0.1 * Y,
                     c1=0.3 * X, c2=0.1 + 0.2 * Y, a0=0.5 + 0.2 * X + extra)


# -- domain grid ------------------------------------------------------------------

def test_domain_grid_validation():
    with pytest.raises(ValueError):
        DomainGrid(0, 1, 0, 1, 4, 8)
    with pytest.raises(ValueError):
        DomainGrid(1, 0, 0, 1, 8, 8)
    g = DomainGrid(0, 1, 0, 2, 8, 9)
    assert len(g.points()) == 72
    assert g.contains(0.5, 1.0)
    assert not g.contains(1.4, 1.0)
    assert g.contains(1.05, 1.0, pad=0.1)


# -- pushforward -------------------------------------------------------------------

def test_pushforward_identity(rng):
    op = random_operator(rng)
    ident = (X + 0.0 * Y, Y + 0.0 * X)
    moved = pushforward_operator(op, ident, ident, GRID)
    pt = (0.4, 0.7)
    a, b = op.at(*pt, 1), moved.at(*pt, 1)
    for name in ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "c1", "c2", "a0"):
        assert val(getattr(a, name)) == pytest.approx(val(getattr(b, name)),
                                                      rel=1e-12, abs=1e-12)


def test_pushforward_linear_scaling():
    # A = dx^3 under (2x, y): leading coefficient scales by 2^3
    op = Operator3(a1=1.0 + 0.0 * X, a2=0.0, a3=0.0, a4=0.0, b1=0.0, b2=0.0,
                   b3=0.0, c1=0.0, c2=0.0, a0=0.0)
    phi = (2.0 * X, Y + 0.0 * X)
    phinv = (0.5 * X, Y + 0.0 * X)
    moved = pushforward_operator(op, phi, phinv, GRID)
    assert val(moved.at(0.8, 0.4, 0).a1) == pytest.approx(8.0, rel=1e-12)


def test_pushforward_shear_first_order():
    # A = dx under (x + y^2, y): dx is related to itself
    op = Operator3(a1=0.0, a2=0.0, a3=0.0, a4=0.0, b1=0.0, b2=0.0, b3=0.0,
                   c1=1.0 + 0.0 * X, c2=0.0, a0=0.0)
    phi = (X + Y * Y, Y + 0.0 * X)
    phinv = (X - Y * Y, Y + 0.0 * X)
    moved = pushforward_operator(op, phi, phinv, GRID)
    pt = (0.5, 0.6)
    assert val(moved.at(*pt, 0).c1) == pytest.approx(1.0, abs=1e-12)
    assert val(moved.at(*pt, 0).c2) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.floats(0.2, 0.8), st.floats(0.2, 0.8))
def test_pushforward_symbol_follows_the_tensor_law(seed, order, x, y):
    """The symbol transport (the principal part of the operator transport)
    against the tensor law written out: the cubic in the basis of the
    Jacobian rows, composed with the inverse map, to 1e-12 relative."""
    rng = rng_for(seed)
    sym = random_regular_symbol(rng)
    phi, phinv = random_diffeo(rng)
    got = pushforward_symbol(sym, phi, phinv, GRID).at(x, y, order)
    inv1, inv2 = (coefficient_field(c)(x, y, order) for c in phinv)
    px, py = inv1.value, inv2.value
    f1, f2 = (coefficient_field(c)(px, py, order + 1) for c in phi)
    law = cubic_in_basis(sym.at(px, py, order).components,
                         (f1.dx(), f1.dy()), (f2.dx(), f2.dy()))
    for g, w in zip(got.components, law):
        want = compose(w, inv1, inv2)
        assert g.order == want.order == order
        scale = max(1.0, float(np.max(np.abs(want.c))))
        assert np.max(np.abs(g.c - want.c)) <= 1e-12 * scale


def test_pushforward_inverse_mismatch():
    op = random_operator(rng_for(7))
    phi = (X + Y * Y, Y + 0.0 * X)
    wrong = (X - 0.9 * Y * Y, Y + 0.0 * X)
    with pytest.raises(InverseMismatchError):
        pushforward_operator(op, phi, wrong, GRID)


# -- gauge -------------------------------------------------------------------------

def test_gauge_identity_multiplier(rng):
    op = random_operator(rng)
    moved = gauge_transform(op, 1.0 + 0.0 * X, GRID)
    pt = (0.3, 0.8)
    a, b = op.at(*pt, 1), moved.at(*pt, 1)
    for name in ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "c1", "c2", "a0"):
        assert val(getattr(a, name)) == pytest.approx(val(getattr(b, name)),
                                                      rel=1e-12, abs=1e-12)


def test_gauge_exponential_example():
    # A = dx, h = e^x: e^x d_x(e^{-x} f) = f' - f
    op = Operator3(a1=0.0, a2=0.0, a3=0.0, a4=0.0, b1=0.0, b2=0.0, b3=0.0,
                   c1=1.0 + 0.0 * X, c2=0.0, a0=0.0)
    moved = gauge_transform(op, eexp(X), GRID)
    pt = (0.4, 0.4)
    mv = moved.at(*pt, 0)
    assert val(mv.c1) == pytest.approx(1.0, abs=1e-12)
    assert val(mv.a0) == pytest.approx(-1.0, abs=1e-12)


def test_gauge_preserves_principal_symbol(rng):
    op = random_operator(rng)
    moved = gauge_transform(op, random_gauge(rng), GRID)
    pt = (0.6, 0.3)
    a, b = op.at(*pt, 1), moved.at(*pt, 1)
    for name in ("a1", "a2", "a3", "a4"):
        assert val(getattr(a, name)) == pytest.approx(val(getattr(b, name)),
                                                      rel=1e-11, abs=1e-11)


def test_gauge_zero_crossing():
    op = random_operator(rng_for(3))
    with pytest.raises(ZeroCrossingError):
        gauge_transform(op, X - 0.5, GRID)


# -- line-bundle connection ---------------------------------------------------------

def test_line_bundle_connection_recovers_planted_form(rng):
    from conftest import quantized_operator_field
    sym = random_three_root_symbol(rng)
    theta0 = OneForm(0.4, -0.7)
    opf = quantized_operator_field(sym, theta=theta0)
    theta, lam = line_bundle_connection(opf, (0.3, 0.8))
    assert val(theta.t1) == pytest.approx(0.4, abs=1e-9)
    assert val(theta.t2) == pytest.approx(-0.7, abs=1e-9)
    assert val(lam) == pytest.approx(0.0, abs=1e-9)


def test_line_bundle_connection_recovers_planted_multiplier(rng):
    from conftest import quantized_operator_field
    sym = random_three_root_symbol(rng)
    opf = quantized_operator_field(sym, mult=0.37)
    theta, lam = line_bundle_connection(opf, (0.3, 0.8))
    assert val(theta.t1) == pytest.approx(0.0, abs=1e-9)
    assert val(theta.t2) == pytest.approx(0.0, abs=1e-9)
    assert val(lam) == pytest.approx(0.37, abs=1e-9)


def test_line_bundle_connection_bare_quantization(rng):
    from conftest import quantized_operator_field
    sym = random_three_root_symbol(rng)
    opf = quantized_operator_field(sym)
    theta, lam = line_bundle_connection(opf, (0.5, 0.5))
    assert max(abs(val(theta.t1)), abs(val(theta.t2)), abs(val(lam))) <= 1e-9


# -- natural models ------------------------------------------------------------------

def test_natural_model_deterministic(rng):
    op = random_operator(rng)
    m1 = build_natural_model(op, GRID, "scalar")
    m2 = build_natural_model(op, GRID, "scalar")
    assert np.array_equal(m1.chart.values, m2.chart.values, equal_nan=True)
    assert np.array_equal(m1.field_values, m2.field_values, equal_nan=True)
    assert m1.chart.selection == m2.chart.selection


def test_natural_model_constant_coefficients_not_in_general_position():
    op = Operator3(a1=0.3 + 0.0 * X, a2=0.5 + 0.0 * X, a3=-0.2 + 0.0 * X,
                   a4=1.0 + 0.0 * X, b1=0.1, b2=0.2, b3=0.3, c1=0.4, c2=0.5,
                   a0=0.6)
    with pytest.raises(GeneralPositionError):
        build_natural_model(op, GRID, "scalar")


def test_equivalent_scalar_accept_and_symmetry(rng):
    local = rng_for(501)
    op = random_operator(local)
    phi, phinv = random_diffeo(local)
    moved = pushforward_operator(op, phi, phinv, GRID)
    box = image_box(phi, GRID)
    v1 = equivalent_scalar(op, moved, GRID, box, tol=1e-6, config=FAST)
    assert v1.equivalent == "yes"
    assert v1.max_discrepancy <= 1e-6
    v2 = equivalent_scalar(moved, op, box, GRID, tol=1e-6, config=FAST)
    assert v2.equivalent == "yes"


def test_equivalent_scalar_rejects_zeroth_order_shift(rng):
    local = rng_for(502)
    op = random_operator(local)
    shifted = Operator3(*op.components[:9], op.a0 + 0.1)
    v = equivalent_scalar(op, shifted, GRID, GRID, tol=1e-6, config=FAST)
    assert v.equivalent == "no"
    assert v.field_diagnostics["J_00"] > 1e-3


def test_equivalent_scalar_image_mismatch(rng):
    local = rng_for(503)
    sym = random_three_root_symbol(local)
    op = random_operator(local, sym)
    # same lower-order data over a symbol with shifted invariant ranges
    big = Symbol3(0.0, eexp(2.0 + 0.5 * X) / 3.0, eexp(-2.0 + 0.5 * Y) / 3.0, 0.0)
    other = Operator3(big.a1, big.a2, big.a3, big.a4, *op.components[4:])
    v = equivalent_scalar(op, other, GRID, GRID, tol=1e-6, config=FAST)
    assert v.equivalent in ("no", "inconclusive")
    if v.equivalent == "no" and not v.field_diagnostics:
        assert any("image mismatch" in n for n in v.notes)


def test_equivalent_bundle_accept_gauge_pair(rng):
    local = rng_for(504)
    op = random_operator(local)
    phi, phinv = random_diffeo(local)
    h = random_gauge(local)
    box = image_box(phi, GRID)
    moved = gauge_transform(pushforward_operator(op, phi, phinv, GRID), h, box)
    v = equivalent_bundle(op, moved, GRID, box, tol=1e-6, config=FAST)
    assert v.equivalent == "yes"
    assert v.max_discrepancy <= 1e-6
    assert v.obstruction is not None and v.obstruction["closed"]


def test_equivalent_bundle_rejects_curvature_change(rng):
    local = rng_for(505)
    op = random_operator(local)
    # changing c1 alters the canonical connection and the sigma1 slot
    bumped = Operator3(*op.components[:7], op.c1 + 0.3 * X * Y, *op.components[8:])
    v = equivalent_bundle(op, bumped, GRID, GRID, tol=1e-6, config=FAST)
    assert v.equivalent == "no"


def test_equivalent_bundle_identical_operators(rng):
    local = rng_for(506)
    op = random_operator(local)
    v = equivalent_bundle(op, op, GRID, GRID, tol=1e-6, config=FAST)
    assert v.equivalent == "yes"
    # matched points coincide to Newton precision; the curvature-density
    # residual inherits that position error through its gradient
    assert v.obstruction["residual"] <= 1e-6


def test_verdict_carries_config_and_selection(rng):
    local = rng_for(507)
    op = random_operator(local)
    v = equivalent_scalar(op, op, GRID, GRID, tol=1e-6, config=FAST)
    assert v.selection is not None
    assert v.config["tolerance"] == 1e-6
    assert "jacobian_floor" in v.config


# -- normalization -------------------------------------------------------------------

def test_normalization_multiplier_positive_on_family():
    op = one_root_positive_multiplier_operator()
    a0 = normalize(op)
    for pt in [(0.2, 0.2), (0.5, 0.5), (0.8, 0.4), (0.3, 0.7)]:
        before = op.at(*pt, 0)
        after = a0.at(*pt, 0)
        # all ten coefficients are scaled by the same positive factor
        ratios = [val(getattr(after, n)) / val(getattr(before, n))
                  for n in ("a1", "a2", "a3", "a4", "b1", "b3", "a0")
                  if abs(val(getattr(before, n))) > 1e-8]
        assert min(ratios) > 0
        assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)


def test_normalization_rejects_negative_multiplier():
    # three-real-root symbols have a negative-definite companion metric,
    # so the multiplier is negative and normalization must refuse
    op = random_operator(rng_for(9))
    a0 = normalize(op)
    with pytest.raises(NonPositiveScaleError):
        a0.at(0.5, 0.5, 0)


def test_normalization_constant_rescaling():
    op = one_root_positive_multiplier_operator()
    a0 = normalize(op)
    b0 = normalize(scale_operator(op, 2.0))
    bneg = normalize(scale_operator(op, -1.0))
    for pt in [(0.3, 0.4), (0.6, 0.6)]:
        x0, x1 = a0.at(*pt, 0), b0.at(*pt, 0)
        xn = bneg.at(*pt, 0)
        for n in ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "c1", "c2", "a0"):
            assert val(getattr(x1, n)) == pytest.approx(val(getattr(x0, n)),
                                                        rel=1e-10, abs=1e-10)
            assert val(getattr(xn, n)) == pytest.approx(-val(getattr(x0, n)),
                                                        rel=1e-10, abs=1e-10)


def test_normalization_function_rescaling():
    op = one_root_positive_multiplier_operator()
    f = eexp(0.3 * X - 0.2 * Y)  # positive multiplier field
    a0 = normalize(op)
    b0 = normalize(scale_operator(op, f))
    for pt in [(0.25, 0.5), (0.7, 0.3)]:
        x0, x1 = a0.at(*pt, 0), b0.at(*pt, 0)
        for n in ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "c1", "c2", "a0"):
            assert val(getattr(x1, n)) == pytest.approx(val(getattr(x0, n)),
                                                        rel=1e-8, abs=1e-8)


def test_normalization_idempotent_up_to_tolerance():
    op = one_root_positive_multiplier_operator()
    a0 = normalize(op)
    a00 = normalize(a0)
    for pt in [(0.4, 0.45)]:
        x0, x1 = a0.at(*pt, 0), a00.at(*pt, 0)
        for n in ("a1", "a4", "b1", "a0"):
            # normalize(normalize(A)) = normalize(A) requires lambda(A0) = 1
            assert val(getattr(x1, n)) == pytest.approx(val(getattr(x0, n)),
                                                        rel=1e-8, abs=1e-8)


def test_equation_equivalence_conformal_class():
    op = one_root_positive_multiplier_operator()
    f = 1.0 + 0.3 * esin(X + Y)
    scaled = scale_operator(op, f)
    v = equation_equivalent(op, scaled, GRID, GRID, tol=1e-6, config=FAST)
    assert v.equivalent == "yes"
    assert any("+normalization" in n for n in v.notes)


def test_equation_equivalence_negative_multiple():
    op = one_root_positive_multiplier_operator()
    v = equation_equivalent(op, scale_operator(op, -1.0), GRID, GRID,
                            tol=1e-6, config=FAST)
    assert v.equivalent == "yes"
    assert any("-normalization" in n for n in v.notes)


def test_equation_equivalence_rejects_perturbation():
    op = one_root_positive_multiplier_operator()
    other = one_root_positive_multiplier_operator(extra=0.12)
    v = equation_equivalent(op, other, GRID, GRID, tol=1e-6, config=FAST)
    assert v.equivalent == "no"


def test_multi_rectangle_charts(rng):
    local = rng_for(600)
    op = random_operator(local)
    grids = [DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8),
             DomainGrid(0.5, 1.5, 0.2, 1.2, 8, 8)]
    v = equivalent_scalar(op, op, grids, grids, tol=1e-6, config=FAST)
    assert v.equivalent == "yes"
    shifted = Operator3(*op.components[:9], op.a0 + 0.1)
    v2 = equivalent_scalar(op, shifted, grids, grids, tol=1e-6, config=FAST)
    assert v2.equivalent == "no"
    with pytest.raises(ValueError):
        equivalent_scalar(op, op, grids, grids[:1], tol=1e-6, config=FAST)


# -- masking and the array forms of pair selection and cell search ---------------------

def test_overflowing_symbol_gives_inconclusive_verdict():
    op = Operator3(a1=0.0, a2=eexp(800 * X) / 3, a3=eexp(0.5 * Y - 0.2 * X) / 3, a4=0.0,
                   b1=0.5, b2=0.3 * Y, b3=1.0, c1=0.4 * X, c2=0.2, a0=0.3)
    # the overflow masks its points; numpy warns of it nowhere on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdict = equivalent_scalar(op, op, GRID, GRID, config=FAST)
    assert verdict.equivalent == "inconclusive"
    assert "general position" in verdict.notes[0]


def test_point_memo_empties_itself_when_full():
    from invar3.equivalence import _PointMemo
    calls = []

    def compute(x, y, order):
        calls.append((x, y, order))
        return len(calls)

    memo = _PointMemo(compute, limit=2)
    assert memo(0.0, 0.0, 2) == 1
    assert memo(0.0, 0.0, 1) == 1  # a lower order is served from the memo
    assert memo(1.0, 0.0, 1) == 2
    assert memo(2.0, 0.0, 1) == 3  # full: the memo empties before storing
    assert memo(2.0, 0.0, 1) == 3
    assert memo(0.0, 0.0, 1) == 4
    assert calls == [(0.0, 0.0, 2), (1.0, 0.0, 1), (2.0, 0.0, 1), (0.0, 0.0, 1)]


def _clears_floor_reference(grads, pair, floor):
    i, j = pair
    det = grads[i, 0] * grads[j, 1] - grads[i, 1] * grads[j, 0]
    scale = (np.hypot(*grads[i]) * np.hypot(*grads[j])) + 1e-300
    return bool(abs(det) >= floor * scale)


def _pair_quality_reference(records, pair, floor):
    """Pair quality over per-point records: (values, gradients), or None
    where the point is not regular."""
    usable = [rec for rec in records if rec is not None]
    ok = sum(_clears_floor_reference(rec[1], pair, floor) for rec in usable)
    return (ok / max(len(usable), 1)), len(usable), ok


def _bracketing_cells_reference(model, target):
    """The cell search one cell at a time."""
    grid = model.grid
    vals = model.chart.values.reshape(grid.nx, grid.ny, 2)
    mask = model.chart.mask.reshape(grid.nx, grid.ny)
    pts = model.points.reshape(grid.nx, grid.ny, 2)
    scored = []
    for ix in range(grid.nx - 1):
        for iy in range(grid.ny - 1):
            if not (mask[ix, iy] and mask[ix + 1, iy] and mask[ix, iy + 1]
                    and mask[ix + 1, iy + 1]):
                continue
            corners = vals[ix:ix + 2, iy:iy + 2].reshape(4, 2)
            lo = corners.min(axis=0)
            hi = corners.max(axis=0)
            pad = 0.35 * (hi - lo) + 1e-12
            if np.all(target >= lo - pad) and np.all(target <= hi + pad):
                x0, y0 = pts[ix, iy, 0], pts[ix, iy, 1]
                x1, y1 = pts[ix + 1, iy + 1, 0], pts[ix + 1, iy + 1, 1]
                mx, my = 0.6 * (x1 - x0), 0.6 * (y1 - y0)
                center = (0.5 * (x0 + x1), 0.5 * (y0 + y1))
                bounds = (x0 - mx, x1 + mx, y0 - my, y1 + my)
                diag = float(np.hypot(*(hi - lo))) + 1e-12
                score = float(np.hypot(*(target - corners.mean(axis=0)))) / diag + diag * 1e-6
                scored.append((score, center, bounds))
    scored.sort(key=lambda s: s[0])
    return [(center, bounds) for (_, center, bounds) in scored[:12]]


def _random_values(rng, shape, coarse):
    """Random coordinates; coarse ones repeat, so scores and boxes tie."""
    if coarse:
        return rng.integers(-3, 4, shape) * 0.5
    return rng.normal(0.0, 1.0, shape)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_pair_quality_matches_per_record_reference(seed, coarse):
    from invar3.equivalence import _PAIRS, _StageOne, _clears_floor, _pair_quality
    rng = rng_for(seed)
    n = 64
    values = _random_values(rng, (n, 4), coarse)
    grads = _random_values(rng, (n, 4, 2), coarse)
    # near-dependent gradients sit at the floor
    near = rng.random(n) < 0.3
    grads[near, 1] = grads[near, 0] * 1.5 + rng.normal(0.0, 1e-7, (int(near.sum()), 2))
    regular = rng.random(n) < 0.8
    values[~regular] = np.nan
    grads[~regular] = np.nan
    stage = _StageOne(np.zeros((n, 2)), values, grads, [None] * n)
    records = [(values[k], grads[k]) if regular[k] else None for k in range(n)]
    for floor in (1e-6, 1e-3, 0.5):
        for pair in _PAIRS:
            want = _pair_quality_reference(records, pair, floor)
            assert _pair_quality(stage, pair, floor) == want
            clears = [bool(regular[k]) and _clears_floor_reference(grads[k], pair, floor)
                      for k in range(n)]
            assert _clears_floor(grads, pair, floor).tolist() == clears


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["chart", "coarse", "rough"]),
       st.integers(8, 11), st.integers(8, 11))
def test_bracketing_cells_match_per_cell_reference(seed, kind, nx, ny):
    from invar3.equivalence import NaturalChart, NaturalModel, _bracketing_cells
    rng = rng_for(seed)
    grid = DomainGrid(0.0, 1.0, -0.5, 0.7, nx, ny)
    n = nx * ny
    coarse = kind == "coarse"
    if kind == "chart":
        # a smooth map brackets a target in a few cells only
        pts = np.array(grid.points())
        values = pts @ rng.normal(0.0, 1.0, (2, 2)) + 0.3 * np.sin(3.0 * pts[:, ::-1])
    else:
        values = _random_values(rng, (n, 2), coarse)
    mask = rng.random(n) < 0.9
    values[~mask] = np.nan
    chart = NaturalChart(selection=(0, 1), values=values, jacobians=np.zeros((n, 2, 2)),
                         mask=mask)
    model = NaturalModel(mode="scalar", grid=grid, chart=chart, field_names=[],
                         field_values=np.zeros((n, 0)), points=np.array(grid.points()),
                         coords_jac=None, fields_at=None)
    targets = _random_values(rng, (6, 2), coarse)
    if kind == "chart":
        targets = values[mask][rng.integers(0, mask.sum(), 6)] + rng.normal(0.0, 0.05, (6, 2))
    for target in targets:
        got = _bracketing_cells(model, target)
        want = _bracketing_cells_reference(model, target)
        assert repr(got) == repr(want)


# -- lockstep chart inversion ------------------------------------------------------------

def _drive_alone(model, search):
    """The reference driver: each request of a search answered alone, by the
    model's one-point reader."""
    reply = None
    while True:
        try:
            name, x, y = search.send(reply)
        except StopIteration as stop:
            return stop.value
        [reply] = masked(getattr(model, name), [(x, y)])


def _pair_models(seed: int, mode: str, partner: str):
    """Natural models of a conftest operator and of a partner: its pushed
    (and, in bundle mode, gauged) image, or the operator with a shifted
    zeroth-order term.  Everything is built afresh, so that two calls share
    no memo."""
    rng = rng_for(seed)
    op = random_operator(rng)
    phi, phinv = random_diffeo(rng)
    grid_b = image_box(phi, GRID)
    if partner == "moved":
        other = pushforward_operator(op, phi, phinv, GRID)
        if mode == "bundle":
            other = gauge_transform(other, random_gauge(rng), grid_b)
    else:
        other, grid_b = Operator3(*op.components[:9], op.a0 + 0.1), GRID
    owner = build_natural_model(op, GRID, mode, config=FAST)
    return owner, build_natural_model(other, grid_b, mode, owner.chart.selection, FAST)


def _target_searches(owner, partner, n=8):
    """A gather's searches: one per owner sample, as :func:`_compare_models`
    makes them."""
    from invar3.equivalence import _target_search
    vals = owner.values_masked
    pts = owner.points[owner.chart.mask]
    jacs = owner.chart.jacobians[owner.chart.mask]
    rows = owner.field_values[owner.chart.mask]
    searches = []
    for k in np.linspace(0, len(vals) - 1, n).astype(int):
        ja = jacs[k]
        searches.append(_target_search(
            partner, vals[k], np.sign(ja[0, 0] * ja[1, 1] - ja[0, 1] * ja[1, 0]),
            owner.signature_at(*pts[k]), dict(zip(owner.field_names, rows[k])), 1e-6, FAST))
    return searches


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.sampled_from(["scalar", "bundle"]))
def test_lockstep_newton_matches_the_reference_driver(seed, mode):
    """Newton from random seeds towards random targets, run in lockstep
    and each request alone: the same solution or None, exactly."""
    from invar3.equivalence import _invert_chart, _newton_search
    runs = []
    for lockstep in (True, False):
        _, partner = _pair_models(seed % 50, mode, "moved")
        draw = rng_for(seed)
        vals = partner.values_masked
        pts = partner.points[partner.chart.mask]
        g = partner.grid
        searches = []
        for _ in range(8):
            # near a sample, from near its point or from anywhere on the window
            k = draw.integers(len(vals))
            target = vals[k] + draw.normal(0.0, 0.05, 2) * vals.std(axis=0)
            start = tuple(pts[k] + draw.normal(0.0, 0.05, 2)) if draw.random() < 0.5 else (
                g.x0 + (g.x1 - g.x0) * draw.random(), g.y0 + (g.y1 - g.y0) * draw.random())
            bounds = None if draw.random() < 0.5 else (start[0] - 0.2, start[0] + 0.2,
                                                       start[1] - 0.2, start[1] + 0.2)
            searches.append(_newton_search(partner, target, start, bounds, FAST,
                                           int(draw.choice([15, 40]))))
        runs.append(_invert_chart(partner, searches) if lockstep
                    else [_drive_alone(partner, s) for s in searches])
    assert runs[0] == runs[1]
    assert any(sol is not None for sol in runs[0])


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10 ** 6), st.sampled_from(["scalar", "bundle"]),
       st.sampled_from(["moved", "shifted"]))
def test_lockstep_gather_matches_the_reference_driver(seed, mode, partner):
    """A gather's target searches, in lockstep and each request alone: the
    same best branch (worst discrepancy, per-field discrepancies, partner
    point) or None for every target, exactly."""
    from invar3.equivalence import _invert_chart
    runs = []
    for lockstep in (True, False):
        owner, other = _pair_models(seed % 50, mode, partner)
        searches = _target_searches(owner, other)
        runs.append(_invert_chart(other, searches) if lockstep
                    else [_drive_alone(other, s) for s in searches])
    assert runs[0] == runs[1]
    assert any(best is not None for best in runs[0])


def _with_ln_symbol(op: Operator3) -> Operator3:
    """The operator with a symbol that leaves the domain of ln where x <= -0.2."""
    from invar3.expr import ln
    comps = list(op.components)
    comps[1] = comps[1] + 0.01 * ln(X + 0.2)
    return Operator3(*comps)


@pytest.mark.parametrize("mode", ["scalar", "bundle"])
def test_lockstep_newton_gives_none_where_the_chart_raises(mode):
    """Seeds where the chart raises (left of x = -0.2), mixed into one
    lockstep with seeds where it does not: None there on both drivers."""
    from invar3.equivalence import _invert_chart, _newton_search
    from invar3.errors import POINT_ERRORS
    runs = []
    for lockstep in (True, False):
        model = build_natural_model(_with_ln_symbol(random_operator(rng_for(508))), GRID,
                                    mode, config=FAST)
        targets = model.values_masked[::9]
        starts = [(-0.5, 0.2), (0.3, 0.6), (-0.3, 0.8), (0.7, 0.1), (-1.0, 0.5)]
        searches = [_newton_search(model, t, s, None, FAST, 40)
                    for t, s in zip(targets, starts)]
        runs.append(_invert_chart(model, searches) if lockstep
                    else [_drive_alone(model, s) for s in searches])
    assert runs[0] == runs[1]
    for (x, y), sol in zip(starts, runs[0]):
        if x < -0.2:
            with pytest.raises(POINT_ERRORS):
                model.coords_jac(x, y)
            assert sol is None
    assert runs[0][1] is not None


def test_chart_memo_computes_a_failed_row_alone_once(monkeypatch):
    """One batch for the distinct missing points, then each failed row
    alone, once; every row equals its one-point value, the failed one
    gets its one-point error, and later one-point reads hit."""
    from invar3 import equivalence
    from invar3.equivalence import _candidate_invariants, _chart_memo
    calls = []

    def counted(sym_field, x, y, *args, **kwargs):
        calls.append(x)
        return _candidate_invariants(sym_field, x, y, *args, **kwargs)

    monkeypatch.setattr(equivalence, "_candidate_invariants", counted)
    op = _with_ln_symbol(random_operator(rng_for(509)))
    memo = _chart_memo(op, (0, 1))
    xs, ys = [0.5, -0.5, 0.3, 0.5], [0.5, 0.5, 0.2, 0.5]
    got = memo.serve(xs, ys, 1)
    assert calls == [[0.5, -0.5, 0.3], -0.5]
    assert isinstance(got[1], DomainEvalError) and got[0] is got[3]
    fresh = _chart_memo(op, (0, 1))
    for (x, y), row in zip(zip(xs, ys), got):
        if not isinstance(row, Exception):
            alone = fresh(x, y, 1)
            assert all(a.order == b.order and np.array_equal(a.c, b.c)
                       for a, b in zip(row[:2], alone[:2]))
            assert row[2] == alone[2]
    calls.clear()
    assert memo(0.3, 0.2, 1) is got[2] and calls == []


def test_point_memo_serve_batches_only_what_it_must():
    from invar3.equivalence import _PointMemo
    batches, alone = [], []

    def compute(x, y, order):
        """-x on either rank; a batch is NaN on the rows of 2.0 and 5.0, and
        5.0 raises alone."""
        if isinstance(x, list):
            batches.append(x)
            return np.array([np.nan if v in (2.0, 5.0) else -v for v in x])
        alone.append(x)
        if x == 5.0:
            raise DomainEvalError("log of a non-positive value")
        return -x

    memo = _PointMemo(compute)
    # one batch of the distinct misses, and the failed row alone
    assert memo.serve([1.0, 2.0, 3.0, 1.0], [0.0] * 4, 1) == [-1.0, -2.0, -3.0, -1.0]
    assert batches == [[1.0, 2.0, 3.0]] and alone == [2.0]
    # hits and a single miss make no batch
    assert memo.serve([1.0, 3.0, 4.0], [0.0] * 3, 1) == [-1.0, -3.0, -4.0]
    assert batches == [[1.0, 2.0, 3.0]] and alone == [2.0, 4.0]
    # a point that raises alone gets its error, which is not stored
    got = memo.serve([5.0, 6.0], [0.0] * 2, 1)
    assert isinstance(got[0], DomainEvalError) and got[1] == -6.0 and alone[-1] == 5.0
    assert isinstance(memo.serve([5.0, 6.0], [0.0] * 2, 1)[0], DomainEvalError)
    assert alone[-1] == 5.0 and len(batches) == 2
    assert memo.serve([], [], 1) == [] and len(batches) == 2


def test_lockstep_gather_makes_fewer_chart_calls(monkeypatch):
    from invar3 import equivalence
    from invar3.equivalence import _candidate_invariants, _invert_chart
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _candidate_invariants(*args, **kwargs)

    monkeypatch.setattr(equivalence, "_candidate_invariants", counted)
    counts = []
    for lockstep in (True, False):
        owner, partner = _pair_models(510, "bundle", "moved")
        searches = _target_searches(owner, partner)
        calls.clear()
        if lockstep:
            _invert_chart(partner, searches)
        else:
            [_drive_alone(partner, s) for s in searches]
        counts.append(len(calls))
    assert 0 < counts[0] < counts[1]


def test_traced_verdict_counts_the_newton_layers():
    """perfbench's tracer around one bundle verdict: both chart-inversion
    layers count calls, no layer is missing, and the verdict is the one
    made untraced."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def verdict():
        local = rng_for(504)
        op = random_operator(local)
        phi, phinv = random_diffeo(local)
        h = random_gauge(local)
        box = image_box(phi, GRID)
        moved = gauge_transform(pushforward_operator(op, phi, phinv, GRID), h, box)
        return equivalent_bundle(op, moved, GRID, box, tol=1e-6, config=FAST)

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        traced = verdict()
    finally:
        tracer.uninstall()
    assert repr(traced) == repr(verdict())
    assert tracer.missing == []
    metrics = tracer.metrics(overhead_frac=0.0)
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["equivalence.invert_chart.calls"]["value"] > 0
    assert metrics["equivalence.newton.calls"]["value"] > 0
