"""Invariant coframes and the scalar differential invariants they produce.

Two coframes are built pointwise from a symbol field:

* the torsion coframe: the first covector is the torsion form of the
  parallel connection, orthogonalized against the contravariant companion
  metric of the cubic (the weight--1/3 rescaled Hessian, which is the
  exact inverse of the covariant natural metric and the pairing under
  which covector contractions are chart-equivariant);
* the conformal coframe: built from the Chern connection's curvature
  2-form Omega = d(omega), the 1-form theta solved from
  ``nabla Omega = Omega (x) theta`` and the quadratic form
  G = Sym(nabla theta), orthogonalizing theta against G^{-1}.

In both cases the partner covector is the rotation of the index-raised
first covector, scaled so the two have equal pairing magnitude and
oriented so the coframe is positively oriented.  In the indefinite case
the partner's pairing has the opposite sign (no real equal-length
orthogonal partner exists then); the stored orientation and diagnostics
record the situation.

Decomposing the symbol in the dual frame yields the four basic scalar
invariants; Tresse derivatives differentiate invariant pipelines along
the frame by jet propagation, never by finite differences.

The conformal frame and the operator invariants run on batched jets as
well (one row per point, see :mod:`invar3.jets`); their regularity checks
then hold row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable

import numpy as np

from . import jets
from .connection import (AffineConnection, OneForm, TwoForm, chern_connection,
                         covariant_derivative_oneform,
                         covariant_derivative_twoform, exterior_derivative,
                         torsion_form, wagner_connection)
from .errors import BatchRowError, Invar3Error, RegularityError, raise_where
from .jets import Jet2
from .quantize import Operator3, split
from .symbol import Sym2Form, Symbol3, max_of, scaled_hessian, value_of

__all__ = [
    "Coframe", "InvariantVector", "OperatorInvariants",
    "symbol_coframe", "basic_invariants", "tresse_derivative",
    "conformal_coframe", "conformal_invariants", "operator_invariants",
    "decompose_cubic", "decompose_quadratic", "decompose_vector",
    "cubic_in_basis",
]


@dataclass(frozen=True)
class Coframe:
    """An oriented orthogonal coframe with its dual frame.

    ``theta`` and ``theta_prime`` are the covectors; ``d1``/``d2`` the dual
    vectors (``<theta, d1> = 1`` etc., exact linear algebra).  ``metric``
    is the contravariant pairing used for the orthogonalization,
    ``pair_sign`` the sign of metric(theta, theta), ``metric_det_sign``
    +1 for a definite pairing and -1 for an indefinite one.
    ``diagnostics`` carries the regularity quantities that were checked.
    """

    theta: OneForm
    theta_prime: OneForm
    d1: tuple
    d2: tuple
    metric: Sym2Form
    pair_sign: float
    metric_det_sign: float
    diagnostics: dict = field(default_factory=dict)

    def area_density(self):
        """Coefficient of dx^dy in theta ^ theta_prime (positive value)."""
        return self.theta.t1 * self.theta_prime.t2 - self.theta.t2 * self.theta_prime.t1


@dataclass(frozen=True)
class InvariantVector:
    """Basic invariants (I1, I2, I3, I4); for conformal classes also the
    projective normalization (pivot index and ratios against the pivot)."""

    i1: Any
    i2: Any
    i3: Any
    i4: Any
    pivot: int | None = None
    ratios: tuple | None = None

    @property
    def components(self) -> tuple:
        return (self.i1, self.i2, self.i3, self.i4)

    def values(self) -> tuple:
        return tuple(value_of(c) for c in self.components)


@dataclass(frozen=True)
class OperatorInvariants:
    """Coframe components of the total symbol (4 + 3 + 2 + 1 values) and,
    in bundle mode, the curvature invariant K and the canonical line-bundle
    connection form it derives from."""

    sigma3: tuple
    sigma2: tuple
    sigma1: tuple
    sigma0: Any
    curvature_k: Any = None
    connection: OneForm | None = None

    def row(self, i: int) -> "OperatorInvariants":
        """The invariants at point ``i`` of a batch."""
        return OperatorInvariants(*(_row_of(getattr(self, f.name), i) for f in fields(self)))

    def flat(self) -> dict:
        out = {}
        for n, v in zip(("J3_1", "J3_2", "J3_3", "J3_4"), self.sigma3):
            out[n] = value_of(v)
        for n, v in zip(("J2_1", "J2_2", "J2_3"), self.sigma2):
            out[n] = value_of(v)
        for n, v in zip(("J1_1", "J1_2"), self.sigma1):
            out[n] = value_of(v)
        out["J0"] = value_of(self.sigma0)
        if self.curvature_k is not None:
            out["K"] = value_of(self.curvature_k)
        return out


def _row_of(v, i: int):
    if isinstance(v, Jet2):
        return v.row(i)
    if isinstance(v, tuple):
        return tuple(_row_of(w, i) for w in v)
    if isinstance(v, OneForm):
        return OneForm(_row_of(v.t1, i), _row_of(v.t2, i))
    return v


# -- tensor decompositions in a frame ------------------------------------------

def cubic_in_basis(components: tuple, u: tuple, v: tuple,
                   which: tuple = (0, 1, 2, 3)) -> tuple:
    """Stored coefficients of the cubic after substituting
    p_x = u1 q1 + v1 q2, p_y = u2 q1 + v2 q2.

    ``which`` picks the coefficients to compute (all four by default).
    """
    return tuple(_CUBIC_TERMS[k](components, u, v) for k in which)


def _cubic_pure(components: tuple, u: tuple, _v: tuple):
    s0, s1, s2, s3 = components
    u1, u2 = u
    return s0 * u1 * u1 * u1 + 3 * s1 * u1 * u1 * u2 + 3 * s2 * u1 * u2 * u2 + s3 * u2 * u2 * u2


def _cubic_mixed(components: tuple, u: tuple, v: tuple):
    s0, s1, s2, s3 = components
    u1, u2 = u
    v1, v2 = v
    return (s0 * u1 * u1 * v1 + s1 * (u1 * u1 * v2 + 2 * u1 * u2 * v1)
            + s2 * (u2 * u2 * v1 + 2 * u1 * u2 * v2) + s3 * u2 * u2 * v2)


# coefficients of q1^3, q1^2 q2, q1 q2^2, q2^3 (the binomial 3s stored apart)
_CUBIC_TERMS = (
    _cubic_pure,
    _cubic_mixed,
    lambda s, u, v: _cubic_mixed(s, v, u),
    lambda s, u, v: _cubic_pure(s, v, u),
)


def decompose_cubic(sigma: Symbol3, frame: Coframe, which: tuple = (0, 1, 2, 3)) -> tuple:
    """Components of the cubic in the symmetric cube of the dual frame
    (those listed in ``which``, all four by default)."""
    u = (frame.theta.t1, frame.theta.t2)
    v = (frame.theta_prime.t1, frame.theta_prime.t2)
    return cubic_in_basis(sigma.components, u, v, which)


def decompose_quadratic(sigma2: tuple, frame: Coframe) -> tuple:
    """Components of a stored (a11, a12, a22) quadratic in the dual frame."""
    t0, t1, t2 = sigma2
    u1, u2 = frame.theta.t1, frame.theta.t2
    v1, v2 = frame.theta_prime.t1, frame.theta_prime.t2
    j11 = t0 * u1 * u1 + 2 * t1 * u1 * u2 + t2 * u2 * u2
    j12 = t0 * u1 * v1 + t1 * (u1 * v2 + u2 * v1) + t2 * u2 * v2
    j22 = t0 * v1 * v1 + 2 * t1 * v1 * v2 + t2 * v2 * v2
    return (j11, j12, j22)


def decompose_vector(sigma1: tuple, frame: Coframe) -> tuple:
    """Components of a vector (c1 d_x + c2 d_y) in the dual frame."""
    c1, c2 = sigma1
    return (frame.theta.t1 * c1 + frame.theta.t2 * c2,
            frame.theta_prime.t1 * c1 + frame.theta_prime.t2 * c2)


# -- coframe construction ---------------------------------------------------------

def _build_coframe(theta: OneForm, metric: Sym2Form, *, rel_tol: float,
                   scale: float, null_name: str, zero_name: str,
                   diagnostics: dict) -> Coframe:
    """Orthogonal oriented partner and dual frame for a covector.

    ``metric`` must be contravariant (it pairs covectors).  Raises
    :class:`RegularityError` when the covector vanishes or is null.
    """
    t1v, t2v = value_of(theta.t1), value_of(theta.t2)
    theta_scale = max_of((abs(t1v), abs(t2v)))
    raise_where(theta_scale <= rel_tol * max_of((scale, 1.0)),
                lambda: RegularityError("coframe construction failed", [zero_name]))
    pairing = metric.pair(theta.components, theta.components)
    pairing_value = value_of(pairing)
    pair_scale = metric.norm() * theta_scale ** 2
    diagnostics["pairing"] = pairing_value
    raise_where(abs(pairing_value) <= rel_tol * max_of((pair_scale, 1e-300)),
                lambda: RegularityError("coframe construction failed", [null_name]))
    det = metric.det()
    det_sign = _sign(value_of(det))
    inv_root = 1.0 / jets.sqrt(jets.jabs(det))
    raised = metric.raised(theta.components)
    sign = _sign(pairing_value)
    theta_prime = OneForm(raised[1] * (-sign) * inv_root, raised[0] * sign * inv_root)
    area = theta.t1 * theta_prime.t2 - theta.t2 * theta_prime.t1
    inv_area = 1.0 / area
    d1 = (theta_prime.t2 * inv_area, -theta_prime.t1 * inv_area)
    d2 = (-theta.t2 * inv_area, theta.t1 * inv_area)
    return Coframe(theta=theta, theta_prime=theta_prime, d1=d1, d2=d2,
                   metric=metric, pair_sign=sign, metric_det_sign=det_sign,
                   diagnostics=diagnostics)


def _sign(v):
    """+1.0 where the value is positive, else -1.0 (per row on a batch)."""
    if isinstance(v, np.ndarray):
        return np.where(v > 0, 1.0, -1.0)
    return 1.0 if v > 0 else -1.0


def symbol_coframe_point(sp: Symbol3, *, rel_tol: float = 1e-9) -> Coframe:
    """Torsion coframe from an already-evaluated pointwise symbol (jets of
    order >= 1)."""
    gamma = wagner_connection(sp)
    theta = torsion_form(gamma)
    metric = scaled_hessian(sp, -1.0 / 3.0)
    diagnostics: dict = {}
    return _build_coframe(theta, metric, rel_tol=rel_tol, scale=gamma.norm(),
                          null_name="torsion covector is metric-null",
                          zero_name="torsion covector vanishes",
                          diagnostics=diagnostics)


def symbol_coframe(symbol_field: Symbol3, x: float, y: float, *,
                   extra_order: int = 0, rel_tol: float = 1e-9) -> Coframe:
    """Torsion coframe of the symbol at a point.

    Needs the symbol to be regular and its torsion covector non-null
    against the companion metric.  ``extra_order`` asks for that many jet
    orders on the coframe entries (consuming correspondingly deeper jets
    of the coefficients).
    """
    return symbol_coframe_point(symbol_field.at(x, y, extra_order + 1), rel_tol=rel_tol)


def basic_invariants(symbol_field: Symbol3, x: float, y: float, *,
                     extra_order: int = 0, frame: Coframe | None = None) -> InvariantVector:
    """The four scalar invariants: components of the symbol in its own
    torsion coframe.  ``frame`` overrides the coframe (used by tests)."""
    sp = symbol_field.at(x, y, extra_order + 1)
    if frame is None:
        frame = symbol_coframe_point(sp)
    return InvariantVector(*decompose_cubic(sp, frame))


def tresse_derivative(pipeline: Callable[[float, float, int], Any],
                      frame_field: Callable[[float, float], Coframe],
                      x: float, y: float) -> tuple[float, float]:
    """Directional derivatives of an invariant pipeline along the frame.

    ``pipeline(x, y, order)`` must return the invariant as a jet of the
    requested order; one extra jet order is consumed, not a finite
    difference.  ``frame_field(x, y)`` supplies the coframe at the point.
    """
    value = pipeline(x, y, 1)
    if not isinstance(value, Jet2) or value.order < 1:
        raise RegularityError("Tresse derivative needs an order-1 jet from the pipeline",
                              ["pipeline jet order"])
    gx, gy = value.partial(1, 0), value.partial(0, 1)
    frame = frame_field(x, y)
    d1 = (value_of(frame.d1[0]), value_of(frame.d1[1]))
    d2 = (value_of(frame.d2[0]), value_of(frame.d2[1]))
    return (d1[0] * gx + d1[1] * gy, d2[0] * gx + d2[1] * gy)


# -- conformal coframe -------------------------------------------------------------

@dataclass(frozen=True)
class ConformalFrameData:
    """Conformal coframe plus the intermediate connection data."""

    coframe: Coframe
    gamma: AffineConnection
    omega: OneForm
    curvature_form: TwoForm
    theta: OneForm
    quadratic: Sym2Form


def conformal_frame_data(symbol_field: Symbol3, x: float, y: float, *,
                         extra_order: int = 0, rel_tol: float = 1e-9) -> ConformalFrameData:
    """Full conformal-frame pipeline at a point (or at a sequence of points,
    on batched jets).

    Consumes (4 + extra_order)-jets of the symbol coefficients.  Raises
    :class:`RegularityError` itemizing which condition failed: singular
    symbol, vanishing curvature form, degenerate quadratic form, or a
    null covector.
    """
    m = 4 + extra_order
    sp = symbol_field.at(x, y, m)
    gamma, omega = chern_connection(sp)
    big_omega = exterior_derivative(omega)
    rho = big_omega.r
    scale4 = max_of((sp.norm(), 1.0))
    raise_where(abs(value_of(rho)) <= rel_tol * scale4,
                lambda: RegularityError("conformal frame failed", ["curvature form vanishes"]))
    nabla_omega = covariant_derivative_twoform(gamma, big_omega)
    theta = OneForm(nabla_omega[0] / rho, nabla_omega[1] / rho)
    H = covariant_derivative_oneform(gamma, theta)
    quad = Sym2Form(H[0][0], H[0][1] + H[1][0], H[1][1], variance="co")
    qdet = value_of(quad.det())
    qscale = max_of((quad.norm() ** 2, 1e-300))
    raise_where(abs(qdet) <= rel_tol * qscale,
                lambda: RegularityError("conformal frame failed", ["quadratic form is degenerate"]))
    pairing_metric = quad.inverse()
    diagnostics: dict = {"curvature_density": value_of(rho), "quad_det": qdet}
    coframe = _build_coframe(theta, pairing_metric, rel_tol=rel_tol,
                             scale=max_of((theta.norm(), 1.0)),
                             null_name="covector is null for the quadratic form",
                             zero_name="covector vanishes",
                             diagnostics=diagnostics)
    return ConformalFrameData(coframe=coframe, gamma=gamma, omega=omega,
                              curvature_form=big_omega, theta=theta, quadratic=quad)


def conformal_coframe(symbol_field: Symbol3, x: float, y: float, *,
                      extra_order: int = 0, rel_tol: float = 1e-9) -> Coframe:
    """The conformal-class coframe at a point (see module docstring)."""
    return conformal_frame_data(symbol_field, x, y, extra_order=extra_order,
                                rel_tol=rel_tol).coframe


def conformal_invariants(symbol_field: Symbol3, x: float, y: float, *,
                         rel_tol: float = 1e-9, pivot_floor: float = 1e-6) -> InvariantVector:
    """Projective invariants of the symbol's conformal class at a point.

    The symbol is decomposed in the conformal coframe; the result is
    normalized by the component of largest magnitude (recorded as the
    pivot).
    """
    data = conformal_frame_data(symbol_field, x, y, rel_tol=rel_tol)
    sp = symbol_field.at(x, y, 4)
    comps = decompose_cubic(sp, data.coframe)
    vals = [value_of(c) for c in comps]
    pivot = max(range(4), key=lambda i: abs(vals[i]))
    if abs(vals[pivot]) <= pivot_floor * max(1e-300, max(abs(v) for v in vals) or 1.0):
        raise RegularityError("projective normalization failed", ["all components vanish"])
    ratios = tuple(v / vals[pivot] for v in vals)
    return InvariantVector(*comps, pivot=pivot, ratios=ratios)


# -- operator invariants ------------------------------------------------------------

_POINT_ERRORS = (Invar3Error, ZeroDivisionError, FloatingPointError)


def operator_invariants(op_field: Operator3, x, y, *,
                        mode: str = "scalar", rel_tol: float = 1e-9):
    """Coframe components of the operator's total symbol at a point.

    ``mode="scalar"`` splits against the Chern connection of the principal
    symbol; ``mode="bundle"`` first solves the canonical line-bundle
    connection and splits with its form, adding the curvature invariant K
    (bundle curvature density over the coframe area element).

    ``x`` and ``y`` may also be equal-length sequences of points.  The
    pipeline then runs once, on batched jets of all the points, and the
    result is a list holding, per point, its :class:`OperatorInvariants`
    or the error that masks it: the error the point raises on its own.
    """
    if isinstance(x, (int, float)):
        return _operator_invariants(op_field, x, y, mode, rel_tol)
    return _per_point(lambda px, py: _operator_invariants(op_field, px, py, mode, rel_tol),
                      list(x), list(y))


def _per_point(compute: Callable, xs: list, ys: list) -> list:
    """``compute`` run once on a batch of points, split into one result or
    error per point.

    A point that fails a check leaves the batch, which is computed again
    without it.  Those points, and points whose batched invariants are not
    all finite, are computed alone, so that every point gets exactly its
    one-point result or error.
    """
    out: list = [None] * len(xs)
    live = list(range(len(xs)))
    alone = []
    while live:
        try:
            batch = compute([xs[k] for k in live], [ys[k] for k in live])
        except BatchRowError as err:
            failed = {live[i] for i in err.rows.tolist()}
            alone.extend(failed)
            live = [k for k in live if k not in failed]
            continue
        except _POINT_ERRORS:
            # a failure that names no rows: fall back to single points
            alone.extend(live)
            break
        for i, k in enumerate(live):
            res = batch.row(i)
            if np.isfinite(list(res.flat().values())).all():
                out[k] = res
            else:
                alone.append(k)
        break
    for k in sorted(alone):
        try:
            out[k] = compute(xs[k], ys[k])
        except _POINT_ERRORS as err:
            out[k] = err
    return out


def _operator_invariants(op_field: Operator3, x, y, mode: str,
                         rel_tol: float) -> OperatorInvariants:
    from .equivalence import line_bundle_connection  # cycle-free at call time

    sym_field = Symbol3(*(c for c in op_field.components[:4]))
    data = conformal_frame_data(sym_field, x, y, rel_tol=rel_tol)
    frame = data.coframe
    # the frame's Chern connection, truncated, serves every later split:
    # truncated jet solves are prefixes of the deeper one
    chern = data.gamma
    theta_xi = None
    if mode == "scalar":
        opp = op_field.at(x, y, 2)
        ts = split(opp, "chern", gamma=chern.truncated(1))
        k_inv = None
    elif mode == "bundle":
        theta_xi, _lam = line_bundle_connection(op_field, (x, y), extra_order=2, chern=chern)
        opp = op_field.at(x, y, 2)
        ts = split(opp, "chern", theta=theta_xi, gamma=chern.truncated(1))
        k_density = exterior_derivative(theta_xi).r
        k_inv = k_density / frame.area_density()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return OperatorInvariants(
        sigma3=decompose_cubic(ts.sigma3, frame),
        sigma2=decompose_quadratic(ts.sigma2, frame),
        sigma1=decompose_vector(ts.sigma1, frame),
        sigma0=ts.sigma0,
        curvature_k=k_inv,
        connection=theta_xi,
    )
