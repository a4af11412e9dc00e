"""Connection solves: defining properties, closed forms, torsion, curvature.

The closed-form comparisons anchor the package's index and sign
conventions.  For the three-real-root normal form sigma = (a dx + b dy)
. dx . dy the solved parallel connection must be

    G^1_11 = (ln b/a^2)_x / 3,  G^1_12 = (ln b/a^2)_y / 3,
    G^2_21 = (ln a/b^2)_x / 3,  G^2_22 = (ln a/b^2)_y / 3,

and for the one-real-root form (a dx + b dy)(dx^2 + dy^2), with
s = a^2 + b^2, U = (a_x b - a b_x)/s, V = (a b_y - a_y b)/s:

    G^1_11 = G^2_21 = -(ln s)_x / 6,   G^1_12 = G^2_22 = -(ln s)_y / 6,
    G^1_21 = -U,  G^2_11 = +U,  G^1_22 = +V,  G^2_12 = -V.

The signs of the G^1_21 / G^2_11 pair are fixed by substitution into the
defining system (the frequently quoted opposite signs fail it; see the
regression test below).  The torsion 1-form convention is the trace over
the second slot, theta = (T^2, -T^1): with it the conformal solve
satisfies omega = -3 theta identically, and on the one-real-root family
theta equals V dx + U dy - d(ln s)/6 verbatim.
"""

import math

import numpy as np
import pytest

from conftest import X, Y, random_regular_symbol, random_three_root_symbol
from invar3.connection import (AffineConnection, GroupType, OneForm,
                               chern_connection, conformal_system,
                               covariant_derivative_sym3,
                               covariant_derivative_torsion, curvature,
                               exterior_derivative, group_type_test,
                               parallel_system, torsion, torsion_form,
                               wagner_connection)
from invar3.errors import JetOrderError, SingularSymbolError
from invar3.expr import cos as ecos
from invar3.expr import diff, eval_jet
from invar3.expr import exp as eexp
from invar3.expr import sin as esin
from invar3.jets import Jet2
from invar3.linalg import solve_jet_system
from invar3.symbol import Symbol3, discriminant


def jets_of(sym, pt, order):
    return sym.at(pt[0], pt[1], order)


def three_root_symbol(a_expr, b_expr):
    return Symbol3(0.0, a_expr / 3.0, b_expr / 3.0, 0.0)


def one_root_symbol(a_expr, b_expr):
    return Symbol3(a_expr, b_expr / 3.0, a_expr / 3.0, b_expr)


def gval(gamma, k, i, j):
    v = gamma.g(k, i, j)
    return v.value if isinstance(v, Jet2) else v


# -- covariant derivative -------------------------------------------------------

def test_covariant_derivative_flat_constant():
    sp = Symbol3(*(Jet2.constant(c, 1) for c in (0.3, 0.5, -0.2, 1.0)))
    zero = AffineConnection.zero()
    res = covariant_derivative_sym3(zero, sp)
    assert max(abs(r.value if isinstance(r, Jet2) else r) for r in res) == 0.0


def test_covariant_derivative_bare_derivative():
    # sigma = (x, 0, 0, 0): only the x-derivative of the first slot survives
    sym = Symbol3(X, 0.0 * X, 0.0 * X, 0.0 * X)
    sp = sym.at(0.7, -0.2, 1)
    res = covariant_derivative_sym3(AffineConnection.zero(), sp)
    vals = [r.value if isinstance(r, Jet2) else r for r in res]
    assert vals[0] == pytest.approx(1.0)
    assert max(abs(v) for v in vals[1:]) == 0.0


def test_parallel_connection_is_the_master_inverse(rng):
    for _ in range(20):
        sym = random_regular_symbol(rng)
        pt = rng.uniform(0.1, 0.9, size=2)
        sp = jets_of(sym, pt, 2)
        gamma = wagner_connection(sp)
        res = covariant_derivative_sym3(gamma, sp)
        scale = max(c.norm() for c in sp.components)
        assert max(r.norm() for r in res) <= 1e-10 * max(scale, 1.0)


# -- closed forms, three-real-root family -----------------------------------------

def test_parallel_closed_form_three_root():
    a = eexp(Y)
    b = 1.0 + 0.0 * X
    sym = three_root_symbol(a, b)
    sp = jets_of(sym, (0.3, 0.7), 2)
    gamma = wagner_connection(sp)
    assert gval(gamma, 1, 1, 2) == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert gval(gamma, 2, 2, 2) == pytest.approx(1.0 / 3.0, abs=1e-12)
    for (k, i, j) in [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 1)]:
        assert gval(gamma, k, i, j) == pytest.approx(0.0, abs=1e-12)


def test_parallel_closed_form_three_root_symbolic(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        alpha = 0.4 * X + local.uniform(-0.5, 0.5) * Y + 0.3 * X * Y
        beta = local.uniform(-0.5, 0.5) * X + 0.5 * Y * Y
        a, b = eexp(alpha), eexp(beta)
        sym = three_root_symbol(a, b)
        pt = tuple(local.uniform(0.1, 0.9, size=2))
        gamma = wagner_connection(jets_of(sym, pt, 2))
        lnb_a2 = beta - 2.0 * alpha  # ln(b/a^2)
        lna_b2 = alpha - 2.0 * beta
        exp_g111 = eval_jet(diff(lnb_a2, "x"), pt, 0).value / 3.0
        exp_g112 = eval_jet(diff(lnb_a2, "y"), pt, 0).value / 3.0
        exp_g221 = eval_jet(diff(lna_b2, "x"), pt, 0).value / 3.0
        exp_g222 = eval_jet(diff(lna_b2, "y"), pt, 0).value / 3.0
        assert gval(gamma, 1, 1, 1) == pytest.approx(exp_g111, abs=1e-10)
        assert gval(gamma, 1, 1, 2) == pytest.approx(exp_g112, abs=1e-10)
        assert gval(gamma, 2, 2, 1) == pytest.approx(exp_g221, abs=1e-10)
        assert gval(gamma, 2, 2, 2) == pytest.approx(exp_g222, abs=1e-10)
        for (k, i, j) in [(1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2)]:
            assert gval(gamma, k, i, j) == pytest.approx(0.0, abs=1e-10)


# -- closed forms, one-real-root family --------------------------------------------

def one_root_expected(pt, h=None):
    """Closed-form entries for (a dx + b dy)(dx^2+dy^2), a=sin g, b=cos g."""
    if h is None:
        h = X  # a = sin x, b = cos x
    a, b = esin(h), ecos(h)
    s = a * a + b * b
    ax, ay = diff(a, "x"), diff(a, "y")
    bx, by = diff(b, "x"), diff(b, "y")
    U = (ax * b - a * bx) / s
    V = (a * by - ay * b) / s
    lnsx = diff(s, "x") / s
    lnsy = diff(s, "y") / s
    ev = lambda e: eval_jet(e, pt, 0).value
    return {
        (1, 1, 1): -ev(lnsx) / 6, (2, 2, 1): -ev(lnsx) / 6,
        (1, 1, 2): -ev(lnsy) / 6, (2, 2, 2): -ev(lnsy) / 6,
        (1, 2, 1): -ev(U), (2, 1, 1): ev(U),
        (1, 2, 2): ev(V), (2, 1, 2): -ev(V),
    }


def test_parallel_closed_form_one_root():
    sym = one_root_symbol(esin(X), ecos(X))
    pt = (0.4, 0.2)
    gamma = wagner_connection(jets_of(sym, pt, 2))
    want = one_root_expected(pt)
    for (k, i, j), v in want.items():
        assert gval(gamma, k, i, j) == pytest.approx(v, abs=1e-10)
    # concretely: G^1_21 = -1, G^2_11 = +1 for a = sin x, b = cos x
    assert gval(gamma, 1, 2, 1) == pytest.approx(-1.0, abs=1e-12)
    assert gval(gamma, 2, 1, 1) == pytest.approx(1.0, abs=1e-12)


def test_one_root_opposite_sign_fails_defining_system():
    """Regression pin: the often-quoted opposite signs for the G^1_21 /
    G^2_11 pair do not make the symbol parallel; flipping exactly those two
    entries of the solved connection breaks the defining equations."""
    sym = one_root_symbol(esin(X), ecos(X))
    pt = (0.4, 0.2)
    sp = jets_of(sym, pt, 2)
    gamma = wagner_connection(sp)
    flipped = AffineConnection.from_entries(
        gamma.g(1, 1, 1), gamma.g(1, 1, 2), -1.0 * gamma.g(1, 2, 1), gamma.g(1, 2, 2),
        -1.0 * gamma.g(2, 1, 1), gamma.g(2, 1, 2), gamma.g(2, 2, 1), gamma.g(2, 2, 2))
    res = covariant_derivative_sym3(flipped, sp)
    assert max(r.norm() for r in res) > 0.5


def test_parallel_determinant_law(rng):
    for _ in range(20):
        sym = random_regular_symbol(rng)
        pt = rng.uniform(0.1, 0.9, size=2)
        sp = jets_of(sym, pt, 1)
        M, rhs = parallel_system(sp)
        _, report = solve_jet_system(M, rhs)
        delta = discriminant(sp).value
        assert report.det == pytest.approx(81.0 * delta ** 2, rel=1e-9)


def test_parallel_singular_symbol_raises():
    sp = Symbol3(*(Jet2.constant(c, 1) for c in (1.0, 0.0, 0.0, 0.0)))
    with pytest.raises(SingularSymbolError):
        wagner_connection(sp)


# -- conformal (torsion-free) connection ---------------------------------------------

def test_conformal_closed_form_three_root():
    # sigma = (dx + e^h dy).dx.dy: nonzero entries G^1_11 = h_x, G^2_22 = -h_y
    h = X * Y
    sym = three_root_symbol(1.0 + 0.0 * X, eexp(h))
    pt = (0.5, -0.3)
    gamma, omega = chern_connection(jets_of(sym, pt, 2))
    hx, hy = pt[1], pt[0]
    assert gamma.symmetric
    assert gval(gamma, 1, 1, 1) == pytest.approx(hx, abs=1e-12)
    assert gval(gamma, 2, 2, 2) == pytest.approx(-hy, abs=1e-12)
    for (k, i, j) in [(1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2)]:
        assert gval(gamma, k, i, j) == pytest.approx(0.0, abs=1e-12)
    assert omega.t1.value == pytest.approx(2 * hx, abs=1e-12)
    assert omega.t2.value == pytest.approx(-hy, abs=1e-12)


def test_conformal_closed_form_one_root():
    # sigma = (sin h dx + cos h dy)(dx^2 + dy^2): six nonzero entries
    h = 0.7 * X + 0.3 * Y + 0.2 * X * Y
    sym = one_root_symbol(esin(h), ecos(h))
    pt = (0.25, -0.45)
    hj = eval_jet(h, pt, 1)
    hx, hy = hj.partial(1, 0), hj.partial(0, 1)
    gamma, omega = chern_connection(jets_of(sym, pt, 2))
    want = {(1, 1, 1): hy, (1, 1, 2): -hx, (1, 2, 2): -hy,
            (2, 1, 1): hx, (2, 1, 2): hy, (2, 2, 2): -hx}
    for (k, i, j), v in want.items():
        assert gval(gamma, k, i, j) == pytest.approx(v, abs=1e-10)
    assert omega.t1.value == pytest.approx(3 * hy, abs=1e-10)
    assert omega.t2.value == pytest.approx(-3 * hx, abs=1e-10)


def test_conformal_defining_property(rng):
    for _ in range(20):
        sym = random_regular_symbol(rng)
        pt = rng.uniform(0.1, 0.9, size=2)
        sp = jets_of(sym, pt, 2)
        gamma, omega = chern_connection(sp)
        res = covariant_derivative_sym3(gamma, sp)
        comps = list(sp.components)
        scale = max(c.norm() for c in comps)
        # residual of nabla sigma = omega (x) sigma
        want = [omega.t1 * c for c in comps] + [omega.t2 * c for c in comps]
        worst = max((r - w).norm() for r, w in zip(res, want))
        assert worst <= 1e-10 * max(scale, 1.0)


def test_conformal_determinant_magnitude(rng):
    for _ in range(10):
        sym = random_regular_symbol(rng)
        pt = rng.uniform(0.1, 0.9, size=2)
        sp = jets_of(sym, pt, 1)
        M, rhs = conformal_system(sp)
        _, report = solve_jet_system(M, rhs)
        delta = discriminant(sp).value
        assert abs(report.det) == pytest.approx(9.0 * delta ** 2, rel=1e-9)


# -- torsion and its trace -------------------------------------------------------

def test_torsion_of_symmetric_connection_vanishes(rng):
    sym = random_three_root_symbol(rng)
    gamma, _ = chern_connection(jets_of(sym, (0.4, 0.6), 2))
    t = torsion(gamma)
    assert t.norm() <= 1e-12


def test_torsion_convention_three_root():
    a = eexp(Y)
    sym = three_root_symbol(a, 1.0 + 0.0 * X)
    gamma = wagner_connection(jets_of(sym, (0.1, 0.5), 2))
    t = torsion(gamma)
    # T^k = G^k_21 - G^k_12; here only G^1_12 = -2/3 is nonzero
    assert t.t1.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert t.t2.value == pytest.approx(0.0, abs=1e-12)
    th = torsion_form(gamma)
    assert th.t1.value == pytest.approx(0.0, abs=1e-12)
    assert th.t2.value == pytest.approx(-2.0 / 3.0, abs=1e-12)


def test_torsion_form_convention_anchor(rng):
    """Frozen package convention: theta = (T^2, -T^1).

    On the one-real-root normal form this reproduces
    V dx + U dy - d(ln s)/6 exactly; on the three-real-root normal form it
    produces the negative of ((ln b^2/a)_x/3, (ln a^2/b)_y/3); and the
    conformal factor satisfies omega = -3 theta on random symbols.
    """
    # one-real-root family, verbatim match
    sym_u = one_root_symbol(esin(X), ecos(X))
    th = torsion_form(wagner_connection(jets_of(sym_u, (0.4, 0.2), 2)))
    assert th.t1.value == pytest.approx(0.0, abs=1e-12)
    assert th.t2.value == pytest.approx(1.0, abs=1e-12)  # = U for a=sin x, b=cos x

    # general one-real-root: theta = V dx + U dy - d(ln s)/6
    h = 0.6 * X + 0.4 * Y + 0.25 * X * Y
    sym = one_root_symbol(esin(h), ecos(h))
    pt = (0.3, 0.65)
    th2 = torsion_form(wagner_connection(jets_of(sym, pt, 2)))
    want = one_root_expected(pt, h)
    # theta_1 = V - (ln s)_x/6 = G^1_22 + G^1_11; theta_2 = U - (ln s)_y/6
    assert th2.t1.value == pytest.approx(want[(1, 2, 2)] + want[(1, 1, 1)], abs=1e-10)
    assert th2.t2.value == pytest.approx(-want[(1, 2, 1)] + want[(1, 1, 2)], abs=1e-10)

    # three-real-root family: the opposite of the often-quoted sign
    a, b = eexp(0.3 * X + 0.7 * Y), eexp(0.2 * X * Y)
    sym_h = three_root_symbol(a, b)
    pt = (0.45, 0.25)
    th3 = torsion_form(wagner_connection(jets_of(sym_h, pt, 2)))
    lnb2a = 2.0 * (0.2 * X * Y) - (0.3 * X + 0.7 * Y)
    lna2b = 2.0 * (0.3 * X + 0.7 * Y) - 0.2 * X * Y
    t1_quoted = eval_jet(diff(lnb2a, "x"), pt, 0).value / 3.0
    t2_quoted = eval_jet(diff(lna2b, "y"), pt, 0).value / 3.0
    assert th3.t1.value == pytest.approx(-t1_quoted, abs=1e-10)
    assert th3.t2.value == pytest.approx(-t2_quoted, abs=1e-10)


def test_omega_is_minus_three_theta(rng):
    for _ in range(25):
        sym = random_regular_symbol(rng)
        pt = rng.uniform(0.1, 0.9, size=2)
        sp = jets_of(sym, pt, 2)
        _, omega = chern_connection(sp)
        theta = torsion_form(wagner_connection(sp))
        resid = (omega + theta.scale(3.0)).norm()
        assert resid <= 1e-10 * max(1.0, omega.norm())


# -- curvature ---------------------------------------------------------------------

def test_curvature_of_constant_connection_is_zero():
    entries = [Jet2.constant(v, 1) for v in (0.1, -0.2, 0.3, 0.0, 0.7, -0.1, 0.2, 0.4)]
    gamma = AffineConnection.from_entries(*entries)
    R = curvature(gamma)
    # derivatives vanish; quadratic terms survive in general, so use zero entries
    zero = AffineConnection.from_entries(*[Jet2.constant(0.0, 1)] * 8)
    Rz = curvature(zero)
    assert max(Rz[k][j].norm() for k in range(2) for j in range(2)) == 0.0
    assert all(np.isfinite(R[k][j].r.c).all() for k in range(2) for j in range(2))


def test_parallel_connection_is_flat(rng):
    for _ in range(15):
        sym = random_regular_symbol(rng)
        pt = rng.uniform(0.1, 0.9, size=2)
        sp = jets_of(sym, pt, 3)
        gamma = wagner_connection(sp)
        R = curvature(gamma)
        scale = max(1.0, gamma.norm() ** 2)
        assert max(R[k][j].norm() for k in range(2) for j in range(2)) <= 1e-8 * scale


def test_conformal_curvature_examples():
    # three-root: tangent curvature = ln(a/b)_xy * Id; domega = 3x that
    h = eexp(X * Y)  # b = e^{xy}, a = 1: ln(a/b)_xy = -(xy)_xy = -1
    sym = three_root_symbol(1.0 + 0.0 * X, h)
    sp = jets_of(sym, (0.7, 0.2), 3)
    gamma, omega = chern_connection(sp)
    R = curvature(gamma)
    assert R[0][0].r.value == pytest.approx(-1.0, abs=1e-10)
    assert R[1][1].r.value == pytest.approx(-1.0, abs=1e-10)
    assert R[0][1].r.norm() <= 1e-10 and R[1][0].r.norm() <= 1e-10
    dom = exterior_derivative(omega)
    assert dom.r.value == pytest.approx(3.0 * R[0][0].r.value, abs=1e-10)

    # one-real-root: tangent curvature = -(h_xx + h_yy) * Id
    g = 0.5 * X * X + 0.3 * Y * Y + 0.2 * X * Y
    sym_u = one_root_symbol(esin(g), ecos(g))
    sp = jets_of(sym_u, (0.3, 0.4), 3)
    gamma_u, omega_u = chern_connection(sp)
    Ru = curvature(gamma_u)
    lap = 1.0 + 0.6  # g_xx + g_yy
    assert Ru[0][0].r.value == pytest.approx(-lap, abs=1e-9)
    assert Ru[1][1].r.value == pytest.approx(-lap, abs=1e-9)
    dom_u = exterior_derivative(omega_u)
    assert dom_u.r.value == pytest.approx(-3.0 * lap, abs=1e-9)


def test_conformal_flatness_for_transported_constant_symbols(rng):
    """Constant-coefficient symbols transported by a diffeomorphism keep a
    flat conformal connection."""
    from conftest import random_diffeo
    from invar3.equivalence import DomainGrid, pushforward_symbol
    win = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
    for seed in range(5):
        local = np.random.default_rng(seed + 10)
        c = local.uniform(-1, 1, size=4)
        base = Symbol3(*c)
        if abs(discriminant(base)) < 5e-2:
            continue
        phi, phinv = random_diffeo(local)
        moved = pushforward_symbol(Symbol3(c[0], c[1], c[2], c[3]),
                                   phi, phinv, win)
        pt = tuple(local.uniform(0.2, 0.8, size=2))
        gamma, _ = chern_connection(moved.at(pt[0], pt[1], 3))
        R = curvature(gamma)
        scale = max(1.0, gamma.norm() ** 2)
        assert max(R[k][j].norm() for k in range(2) for j in range(2)) <= 1e-8 * scale


def test_exterior_derivative_examples():
    # closed: d(y dx + x dy) = 0
    f1 = eval_jet(Y, (0.3, 0.4), 1)
    f2 = eval_jet(X, (0.3, 0.4), 1)
    assert exterior_derivative(OneForm(f1, f2)).r.norm() <= 1e-15
    # d(-y dx) = dx ^ dy
    g1 = eval_jet(-1.0 * Y, (0.3, 0.4), 1)
    g2 = eval_jet(0.0 * X, (0.3, 0.4), 1)
    assert exterior_derivative(OneForm(g1, g2)).r.value == pytest.approx(1.0)
    with pytest.raises(JetOrderError):
        exterior_derivative(OneForm(Jet2.constant(1.0, 0), Jet2.constant(0.0, 0)))


def test_conformal_curvature_equals_domega_identity(rng):
    for _ in range(10):
        sym = random_regular_symbol(rng)
        pt = rng.uniform(0.1, 0.9, size=2)
        sp = jets_of(sym, pt, 3)
        gamma, omega = chern_connection(sp)
        R = curvature(gamma)
        dom = exterior_derivative(omega)
        # tangent curvature is scalar with value domega/3
        third = dom.r * (1.0 / 3.0)
        assert (R[0][0].r - third).norm() <= 1e-9 * max(1.0, dom.r.norm())
        assert (R[1][1].r - third).norm() <= 1e-9 * max(1.0, dom.r.norm())
        assert R[0][1].r.norm() <= 1e-9 * max(1.0, dom.r.norm())


# -- naturality under diffeomorphisms ---------------------------------------------

def test_connection_naturality(rng):
    from conftest import random_diffeo
    from invar3.equivalence import DomainGrid, pushforward_symbol
    win = DomainGrid(0.0, 1.0, 0.0, 1.0, 8, 8)
    for seed in range(5):
        local = np.random.default_rng(seed + 3)
        sym = random_three_root_symbol(local)
        phi, phinv = random_diffeo(local)
        moved = pushforward_symbol(sym, phi, phinv, win)
        pt = tuple(local.uniform(0.25, 0.75, size=2))
        from invar3.expr import coefficient_field
        img = (coefficient_field(phi[0])(pt[0], pt[1], 0).value,
               coefficient_field(phi[1])(pt[0], pt[1], 0).value)
        gamma = wagner_connection(sym.at(pt[0], pt[1], 2))
        gamma_m = wagner_connection(moved.at(img[0], img[1], 2))
        # transformation law: G'^c_ab(y) = J^c_k [ d_b K^k_a + G^k_ij K^i_a K^j_b ]
        fj = [coefficient_field(phi[m])(pt[0], pt[1], 1) for m in range(2)]
        J = np.array([[fj[0].partial(1, 0), fj[0].partial(0, 1)],
                      [fj[1].partial(1, 0), fj[1].partial(0, 1)]])
        bj = [coefficient_field(phinv[m])(img[0], img[1], 1) for m in range(2)]
        K = np.array([[bj[0].partial(1, 0), bj[0].partial(0, 1)],
                      [bj[1].partial(1, 0), bj[1].partial(0, 1)]])
        # second derivatives of the inverse at the image point
        bj2 = [coefficient_field(phinv[m])(img[0], img[1], 2) for m in range(2)]

        def dK(k, a_i, b_i):
            # d/dy_b of K^k_a where K^k_a = d phinv_k / d y_a
            orders = [0, 0]
            orders[a_i] += 1
            orders[b_i] += 1
            return bj2[k].partial(orders[0], orders[1])

        worst = 0.0
        for c in range(2):
            for a_i in range(2):
                for b_i in range(2):
                    val = 0.0
                    for kk in range(2):
                        term = dK(kk, a_i, b_i)
                        for ii in range(2):
                            for jj in range(2):
                                term += (gval(gamma, kk + 1, ii + 1, jj + 1)
                                         * K[ii, a_i] * K[jj, b_i])
                        val += J[c, kk] * term
                    got = gval(gamma_m, c + 1, a_i + 1, b_i + 1)
                    worst = max(worst, abs(got - val))
        assert worst <= 1e-8 * max(1.0, gamma.norm())


# -- group-type classification -----------------------------------------------------

def lattice(n=4):
    return [(0.15 + 0.7 * i / (n - 1), 0.15 + 0.7 * j / (n - 1))
            for i in range(n) for j in range(n)]


def test_group_type_constant():
    sym = Symbol3(0.3 + 0.0 * X, 0.5 + 0.0 * X, -0.2 + 0.0 * X, 1.0 + 0.0 * X)
    assert group_type_test(sym, lattice()) is GroupType.CONSTANT


def test_group_type_exponential_family():
    c = (0.7, 0.4, -0.3, 0.9)
    sym = Symbol3(c[0] * eexp(3.0 * Y), c[1] * eexp(2.0 * Y),
                  c[2] * eexp(Y), c[3] + 0.0 * X)
    assert group_type_test(sym, lattice()) is GroupType.SOLVABLE
    # the covariant derivative of the torsion genuinely vanishes
    sp = sym.at(0.3, 0.6, 2)
    gamma = wagner_connection(sp)
    t = torsion(gamma)
    assert t.norm() > 1e-3
    dt = covariant_derivative_torsion(gamma, t)
    assert max(v.norm() for v in dt) <= 1e-8


def test_group_type_generic(rng):
    sym = Symbol3(0.7 * eexp(3.0 * Y) + 0.2 * X * X, 0.4 * eexp(2.0 * Y),
                  -0.3 * eexp(Y) + 0.1 * esin(X), 0.9 + 0.0 * X)
    assert group_type_test(sym, lattice()) is GroupType.GENERIC


def test_group_type_singular_raises():
    sym = Symbol3(1.0 + 0.0 * X, 0.0 * X, 0.0 * X, 0.0 * X)
    with pytest.raises(SingularSymbolError):
        group_type_test(sym, lattice())


def test_conditioning_warning_near_singular_symbol():
    import warnings
    from invar3.errors import ConditioningWarning
    # discriminant ~ 1e-7: solvable but badly conditioned
    sym = Symbol3(1.0 + 0.0 * X, 1e-2 + 0.0 * X, 1e-4 + 0.0 * X, (1e-6 + 1e-13) + 0.0 * X)
    sp = sym.at(0.5, 0.5, 1)
    d = discriminant(sp).value
    assert 0 < abs(d) < 1e-9
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            wagner_connection(sp)
        except SingularSymbolError:
            pytest.skip("fell below the singularity floor on this arithmetic")
    assert any(issubclass(w.category, ConditioningWarning) for w in caught)


def test_a_failed_solve_names_its_check():
    with pytest.raises(SingularSymbolError, match=r"^m: LU factorization is not finite$"):
        solve_jet_system([[math.inf, 0.0], [0.0, 1.0]], [1.0, 1.0], singular_message="m")
    with pytest.raises(SingularSymbolError, match=r"^m: condition number \S+ above 1e15$"):
        solve_jet_system([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0], singular_message="m")
    # the connections name themselves and the check, not the discriminant; an
    # exactly singular matrix says so, with its largest singular value
    sym = Symbol3(1.0 + 0.0 * X, 0.0 * X, 0.0 * X, 0.0 * X)
    for solve, name, largest in ((wagner_connection, "parallel", "3"),
                                 (chern_connection, "conformal", "3.16")):
        with pytest.raises(SingularSymbolError,
                           match=rf"^{name} connection: condition number inf above 1e15 "
                                 rf"\(smallest singular value 0, largest {largest}\)$"):
            solve(sym.at(0.5, 0.5, 1))
