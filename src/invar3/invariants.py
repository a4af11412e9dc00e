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

The coframes and the invariants run on batched jets as well (one row per
point, see :mod:`invar3.jets`); a regularity check that fails there turns
its rows to NaN instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from typing import Any, Callable

import numpy as np

from . import jets
from .connection import (AffineConnection, OneForm, TwoForm, chern_connection,
                         covariant_derivative_oneform,
                         covariant_derivative_twoform, exterior_derivative,
                         torsion_form, wagner_connection)
from .errors import DomainEvalError, RegularityError, masked, raise_where
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
    :class:`RegularityError` when the covector vanishes or is null (NaN
    rows on a batch).
    """
    t1v, t2v = value_of(theta.t1), value_of(theta.t2)
    theta_scale = max_of((abs(t1v), abs(t2v)))
    theta = OneForm(*raise_where(
        theta_scale <= rel_tol * max_of((scale, 1.0)),
        lambda: RegularityError("coframe construction failed", [zero_name]), theta.components))
    pairing = metric.pair(theta.components, theta.components)
    pairing_value = value_of(pairing)
    pair_scale = metric.norm() * theta_scale ** 2
    diagnostics["pairing"] = pairing_value
    theta = OneForm(*raise_where(
        abs(pairing_value) <= rel_tol * max_of((pair_scale, 1e-300)),
        lambda: RegularityError("coframe construction failed", [null_name]), theta.components))
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
    """Conformal coframe plus the intermediate connection data, and the
    symbol jets it was built from (of order 4 + ``extra_order``)."""

    coframe: Coframe
    symbol: Symbol3
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
    null covector.  On batched jets a failed check turns its points' rows
    to NaN instead, in every field of the result.
    """
    m = 4 + extra_order
    sp = symbol_field.at(x, y, m)
    gamma, omega = chern_connection(sp)
    big_omega = exterior_derivative(omega)
    rho = big_omega.r
    scale4 = max_of((sp.norm(), 1.0))
    rho = raise_where(abs(value_of(rho)) <= rel_tol * scale4,
                      lambda: RegularityError("conformal frame failed",
                                              ["curvature form vanishes"]), rho)
    nabla_omega = covariant_derivative_twoform(gamma, big_omega)
    theta = OneForm(nabla_omega[0] / rho, nabla_omega[1] / rho)
    H = covariant_derivative_oneform(gamma, theta)
    quad = Sym2Form(H[0][0], H[0][1] + H[1][0], H[1][1], variance="co")
    qdet = value_of(quad.det())
    qscale = max_of((quad.norm() ** 2, 1e-300))
    quad = Sym2Form(*raise_where(abs(qdet) <= rel_tol * qscale,
                                 lambda: RegularityError("conformal frame failed",
                                                         ["quadratic form is degenerate"]),
                                 quad.components), variance="co")
    pairing_metric = quad.inverse()
    diagnostics: dict = {"curvature_density": value_of(rho), "quad_det": qdet}
    coframe = _build_coframe(theta, pairing_metric, rel_tol=rel_tol,
                             scale=max_of((theta.norm(), 1.0)),
                             null_name="covector is null for the quadratic form",
                             zero_name="covector vanishes",
                             diagnostics=diagnostics)
    data = ConformalFrameData(coframe=coframe, symbol=sp, gamma=gamma, omega=omega,
                              curvature_form=big_omega, theta=theta, quadratic=quad)
    # every failed check leaves a coframe value NaN on its row; there the
    # whole pipeline is NaN, not only what the check fed
    entries = (*coframe.theta.components, *coframe.theta_prime.components, *coframe.d1, *coframe.d2)
    failed = ~np.isfinite([value_of(c) for c in entries]).all(axis=0)
    if np.ndim(failed) and failed.any():
        data = _times(data, np.where(failed, np.nan, 1.0))
    return data


def _times(value, fill: np.ndarray):
    """``value`` with every jet, array and float in it, through dataclasses,
    dicts and tuples, multiplied by the per-row ``fill``; labels stay."""
    if isinstance(value, (Jet2, np.ndarray, float)):
        return value * fill
    if isinstance(value, tuple):
        return tuple(_times(v, fill) for v in value)
    if isinstance(value, dict):
        return {k: _times(v, fill) for k, v in value.items()}
    if is_dataclass(value):
        return replace(value, **{f.name: _times(getattr(value, f.name), fill)
                                 for f in fields(value)})
    return value


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
    pivot).  At sequences of points the pipeline runs on batched jets, and
    the pivot and ratios hold one entry per point (NaN ratios where a check
    fails).
    """
    data = conformal_frame_data(symbol_field, x, y, rel_tol=rel_tol)
    comps = decompose_cubic(data.symbol, data.coframe)
    vals = np.array([value_of(c) for c in comps])  # (4,) at a point, (4, N) on a batch
    mags = np.abs(vals)
    top = mags.max(axis=0)
    vals = raise_where(top <= pivot_floor * np.maximum(1e-300, np.where(top == 0.0, 1.0, top)),
                       lambda: RegularityError("projective normalization failed",
                                               ["all components vanish"]), vals)
    pivot = mags.argmax(axis=0)  # the first largest, as max() picks it
    ratios = vals / np.take_along_axis(vals, pivot[None], axis=0)
    return InvariantVector(*comps, pivot=_unboxed(pivot),
                           ratios=tuple(_unboxed(r) for r in ratios))


def _unboxed(v):
    """A Python number for a numpy scalar (one point); arrays unchanged."""
    return v.item() if np.ndim(v) == 0 else v


# -- operator invariants ------------------------------------------------------------

def operator_invariants(op_field: Operator3, x, y, *,
                        mode: str = "scalar", rel_tol: float = 1e-9):
    """Coframe components of the operator's total symbol at a point.

    ``mode="scalar"`` splits against the Chern connection of the principal
    symbol; ``mode="bundle"`` first solves the canonical line-bundle
    connection and splits with its form, adding the curvature invariant K
    (bundle curvature density over the coframe area element).

    ``x`` and ``y`` may also be equal-length sequences of points.  The
    pipeline then runs once, on batched jets of all the points, where a
    failed check turns its points' rows to NaN and the pass goes on.  The
    result is a list holding, per point, its :class:`OperatorInvariants`
    or the error that masks it: the error the point raises on its own, or
    one naming the invariants that come out non-finite there.
    """
    if isinstance(x, (int, float)):
        return _operator_invariants(op_field, x, y, mode, rel_tol)
    return _per_point(lambda px, py: _operator_invariants(op_field, px, py, mode, rel_tol), x, y)


@np.errstate(all="ignore")
def _per_point(compute: Callable, xs, ys) -> list:
    """``compute`` run once on a batch of points, split into one result or
    error per point.

    ``compute(x, y)`` works on either rank: at a point it returns a result
    (numbers in dicts, lists and tuples, or an object with a ``flat()``
    dict of them, such as :class:`OperatorInvariants`) or raises the error
    that masks the point; at sequences of points it returns the same
    structure with arrays or batched jets in place of the numbers.  Rows
    that are not all finite, jets included (every point that failed a
    check among them), are computed alone, so each point gets exactly its
    one-point result or error; a one-point result that is still not finite
    is masked, naming its non-finite values.  A batch never raises for one
    point, so an error it raises propagates.  A single point is computed
    alone, which costs less than a batch of one.  No points give an empty list.
    """
    xs, ys = list(xs), list(ys)
    alone, out = list(range(len(xs))), [None] * len(xs)
    if len(xs) > 1:
        batch = compute(xs, ys)
        alone = np.flatnonzero(_non_finite_rows(batch, len(xs))).tolist()
        out = _rows(batch, len(xs))
    for k, res in zip(alone, masked(compute, [(xs[k], ys[k]) for k in alone])):
        bad = [] if isinstance(res, Exception) else _non_finite(res)
        out[k] = DomainEvalError(f"non-finite {', '.join(bad)}") if bad else res
    return out


def _rows(batch, n: int) -> list:
    """The ``n`` per-point results held in a batch result."""
    if isinstance(batch, np.ndarray):
        return batch.tolist()
    if isinstance(batch, dict):
        return [dict(zip(batch, row)) for row in _rows(list(batch.values()), n)]
    if is_dataclass(batch):
        return [type(batch)(*row) for row in _rows([getattr(batch, f.name)
                                                   for f in fields(batch)], n)]
    if isinstance(batch, (list, tuple)):
        columns = [_rows(v, n) for v in batch]
        return [type(batch)(col[i] for col in columns) for i in range(n)]
    if hasattr(batch, "row"):  # a batched jet
        return [batch.row(i) for i in range(n)]
    return [batch] * n


def _non_finite_rows(batch, n: int) -> np.ndarray:
    """Where :func:`_non_finite` finds a value in the rows that
    :func:`_rows` splits the batch result into: one ``np.isfinite`` per
    float array or batched jet."""
    if callable(getattr(batch, "flat", None)):
        batch = batch.flat()
    if isinstance(batch, dict):
        batch = list(batch.values())
    if isinstance(batch, (list, tuple)):
        return reduce(np.logical_or, [_non_finite_rows(v, n) for v in batch], np.zeros(n, bool))
    if isinstance(batch, Jet2):
        batch = batch.c
    if isinstance(batch, np.ndarray):  # labels (an object array) are never flagged
        return (~np.isfinite(batch.reshape(n, -1)).all(axis=1) if batch.dtype.kind == "f"
                else np.zeros(n, bool))
    if isinstance(batch, float):
        return np.full(n, not math.isfinite(batch))
    if hasattr(batch, "row"):  # an opaque batch
        return np.array([bool(_non_finite(batch.row(i))) for i in range(n)], dtype=bool)
    return np.zeros(n, bool)


def _non_finite(result, name: str = "") -> list:
    """Sorted names of the non-finite numbers in a one-point result."""
    if callable(getattr(result, "flat", None)):
        result = result.flat()
    if isinstance(result, dict):
        named = [(f"{name}.{k}" if name else k, v) for k, v in result.items()]
    elif isinstance(result, (list, tuple)):
        named = [(f"{name}[{k}]", v) for k, v in enumerate(result)]
    elif isinstance(result, Jet2):
        return [] if result.is_finite() else [name]
    else:  # a number, or a label such as a symbol kind
        return [name] if isinstance(result, float) and not math.isfinite(result) else []
    return sorted(bad for key, v in named for bad in _non_finite(v, key))


def _operator_invariants(op_field: Operator3, x, y, mode: str,
                         rel_tol: float = 1e-9) -> OperatorInvariants:
    from .equivalence import _line_bundle_solve  # cycle-free at call time

    sym_field = Symbol3(*(c for c in op_field.components[:4]))
    data = conformal_frame_data(sym_field, x, y, rel_tol=rel_tol)
    frame = data.coframe
    # the frame's Chern connection, truncated, serves every later split:
    # truncated jet solves are prefixes of the deeper one
    chern = data.gamma
    theta_xi = k_inv = None
    if mode == "scalar":
        opp = op_field.at(x, y, 2)
    elif mode == "bundle":
        # the line-bundle solve reads the coefficients one order deeper
        # than the split, which takes their truncation
        opp3 = op_field.at(x, y, 3)
        theta_xi, _lam = _line_bundle_solve(opp3, chern)
        opp = opp3.map(lambda c: c.truncated(2))
        k_density = exterior_derivative(theta_xi).r
        k_inv = k_density / frame.area_density()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ts = split(opp, "chern", theta=theta_xi, gamma=chern.truncated(1))
    return OperatorInvariants(
        sigma3=decompose_cubic(ts.sigma3, frame),
        sigma2=decompose_quadratic(ts.sigma2, frame),
        sigma1=decompose_vector(ts.sigma1, frame),
        sigma0=ts.sigma0,
        curvature_k=k_inv,
        connection=theta_xi,
    )
