"""Equivalence of operators via natural coordinates, plus the group actions.

The pairwise tests follow one mechanism: two functionally independent
scalar invariants serve as coordinates; every remaining invariant field,
re-expressed in those coordinates, must agree between the two operators.
Field agreement is decided at exactly matched coordinate values (a Newton
inversion of each chart, seeded from the sampled scatter), so the reported
discrepancy reflects pipeline precision rather than interpolation error;
the triangulated scatter is still used for image regions, overlap
fractions and seeding.

The module also houses the group actions used to construct test pairs:
pushforward along a diffeomorphism given with its exact inverse, and
conjugation by a nonvanishing function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .connection import AffineConnection, OneForm, exterior_derivative
from .errors import (GeneralPositionError, InverseMismatchError,
                     NonPositiveScaleError, RegularityError, ZeroCrossingError,
                     failure_record, nan_rows, raise_where, record_failures)
from .expr import BatchField, Expr, coefficient_field, field_at
from .invariants import (_per_point, _rows, conformal_frame_data, decompose_cubic,
                         symbol_coframe_point)
from .jets import Jet2, as_jet, compose, real_power, stack
from .jets import asinh as jet_asinh
from .linalg import solve_jet_system
# quantize_sum is re-exported: callers have long imported it from here
from .quantize import RAW_SLOTS, Operator3, quantize_sum, subsymbol  # noqa: F401
from .symbol import Symbol3, max_of, value_of

__all__ = [
    "DomainGrid", "NaturalChart", "NaturalModel", "Verdict", "EquivConfig",
    "pushforward_operator", "pushforward_symbol", "gauge_transform",
    "scale_operator", "line_bundle_connection", "build_natural_model",
    "equivalent_scalar", "equivalent_bundle", "normalize",
    "equation_equivalent", "MONOMIALS",
]

MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3)]

_SCALAR_FIELDS = [f"J_{a}{b}" for (a, b) in MONOMIALS]
_BUNDLE_FIELDS = ["J3_1", "J3_2", "J3_3", "J3_4", "J2_1", "J2_2", "J2_3",
                  "J1_1", "J1_2", "J0", "K"]


@dataclass(frozen=True)
class DomainGrid:
    """Rectangular sampling window; the chart is simply connected by
    construction."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int = 8
    ny: int = 8

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid resolution must be at least 8 x 8")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("degenerate rectangle")

    def points(self) -> list[tuple[float, float]]:
        xs = np.linspace(self.x0, self.x1, self.nx)
        ys = np.linspace(self.y0, self.y1, self.ny)
        return [(float(x), float(y)) for x in xs for y in ys]

    def contains(self, x: float, y: float, pad: float = 0.0) -> bool:
        px = pad * (self.x1 - self.x0)
        py = pad * (self.y1 - self.y0)
        return (self.x0 - px <= x <= self.x1 + px) and (self.y0 - py <= y <= self.y1 + py)


@dataclass
class EquivConfig:
    """Knobs of the natural-model comparison, echoed into every verdict."""

    jacobian_floor: float = 1e-6
    min_overlap: float = 0.5
    min_regular_fraction: float = 0.5
    min_matched_points: int = 12
    max_matched_points: int = 36
    compare_resolution: int = 16
    newton_tol: float = 1e-12
    newton_max_iter: int = 40
    domain_pad: float = 0.2
    closedness_tol: float = 1e-3
    coordinate_cap: float = 30.0
    robust_quantile: float = 0.1
    signature_tol: float = 1e-4

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class NaturalChart:
    """Selected invariant pair with its sampled values and Jacobians."""

    selection: tuple[int, int]
    values: np.ndarray        # (npts, 2), nan where masked
    jacobians: np.ndarray     # (npts, 2, 2)
    mask: np.ndarray          # True where the point is usable


@dataclass
class NaturalModel:
    """An operator's invariant fields in natural coordinates."""

    mode: str
    grid: DomainGrid
    chart: NaturalChart
    field_names: list[str]
    field_values: np.ndarray  # (npts, nfields)
    points: np.ndarray        # (npts, 2) sample points in the chart domain
    # readers of a point; at equal-length coordinate sequences they give a
    # list holding per point the value or the error the point raises
    coords_jac: Callable      # (x, y) -> ((I1, I2), 2x2 Jacobian)
    fields_at: Callable       # (x, y) -> dict of field values (+ chart coords)
    connection_at: Callable | None = None  # (x, y) -> bundle connection form values
    signature_at: Callable | None = None   # (x, y) -> branch-matching invariants
    _tree: Any = None
    _tri: Any = None

    @property
    def values_masked(self) -> np.ndarray:
        return self.chart.values[self.chart.mask]

    def tree(self):
        if self._tree is None:
            self._tree = cKDTree(self.values_masked)
        return self._tree

    def triangulation(self):
        if self._tri is None:
            self._tri = Delaunay(self.values_masked)
        return self._tri

    def contains_coord(self, pts: np.ndarray) -> np.ndarray:
        return self.triangulation().find_simplex(pts) >= 0



@dataclass
class Verdict:
    """Outcome of a pairwise equivalence test."""

    equivalent: str                    # "yes" | "no" | "inconclusive"
    max_discrepancy: float
    overlap_fraction: float
    field_diagnostics: dict
    matched_points: int
    selection: tuple[int, int] | None
    config: dict
    obstruction: dict | None = None
    notes: list[str] = field(default_factory=list)


# -- per-point memo -------------------------------------------------------------------

class _PointMemo:
    """Bounded memo of per-point jet data, keyed by the point (x, y), or by
    the coordinates of a batch of points.

    Each key keeps the last result computed there, NaN on the rows of a
    batch that failed, with their recorded errors (see
    :func:`~invar3.errors.failure_record`), which a hit records again.  A
    request at a lower order is served from a result without failed rows:
    the caller truncates the jets it uses.  Truncated Taylor arithmetic
    makes the low coefficients of a higher-order result bit-identical to a
    lower-order computation, so a hit never changes a result; a row can
    fail at the higher order alone, though (its regularity thresholds scale
    with norms over more coefficients).  A batch is one key: another batch,
    or one of its points, misses.  The memo holds at most ``limit`` keys
    and empties itself when full.
    """

    __slots__ = ("_compute", "_store", "_limit")

    def __init__(self, compute: Callable, limit: int = 4096):
        self._compute = compute
        self._store: dict = {}
        self._limit = limit

    def __call__(self, x, y, order: int):
        hit = self._store.get(_memo_key(x, y))
        if hit is None or hit[0] < order or (hit[0] > order and hit[2]):
            with failure_record() as failures:
                value = self._compute(x, y, order)
            if failures:
                value = nan_rows(value, np.isin(np.arange(len(x)), list(failures)))
            hit = self.put(x, y, order, value, failures)
        record_failures(hit[2])
        return hit[1]

    def peek(self, x, y, order: int):
        """The stored result if it has ``order`` or more and no failed rows, else None."""
        hit = self._store.get(_memo_key(x, y))
        return hit[1] if hit is not None and hit[0] >= order and not hit[2] else None

    def put(self, x, y, order: int, value, failures: dict | None = None) -> tuple:
        if len(self._store) >= self._limit:
            self._store.clear()
        entry = self._store[_memo_key(x, y)] = (order, value, failures or {})
        return entry

    def serve(self, xs, ys, order: int) -> list:
        """Per point, the value at ``order``, or the error the point raises
        alone.

        Hits are served from the memo.  The distinct missing points are
        computed together by :func:`invariants._per_point`, which gives
        each failed point the error its row recorded, and each value is
        stored under its own point, so that a later read of the point hits.
        """
        found = {}
        for p in zip(xs, ys):
            if p not in found:
                found[p] = self.peek(*p, order)
        misses = [p for p, v in found.items() if v is None]
        values = _per_point(lambda x, y: self._compute(x, y, order),
                            [p[0] for p in misses], [p[1] for p in misses])
        for p, v in zip(misses, values):
            if not isinstance(v, Exception):
                self.put(*p, order, v)
            found[p] = v
        return [found[p] for p in zip(xs, ys)]


def _reader(memo: _PointMemo, order: int, part: Callable) -> Callable:
    """A model's reader of ``part`` of a memo's values: at a point it gives
    the part, or raises what the point raises; at equal-length coordinate
    sequences, a list holding per point the part or that error (see
    :meth:`_PointMemo.serve`)."""
    def read(x, y):
        if isinstance(x, (int, float, np.number)):
            return part(memo(x, y, order))
        return [v if isinstance(v, Exception) else part(v) for v in memo.serve(x, y, order)]
    return read


def _memo_key(x, y) -> tuple:
    """The point, or a batch's coordinates as tuples."""
    return (x, y) if isinstance(x, (int, float, np.number)) else (tuple(x), tuple(y))


def _memoized_field(component):
    """A coefficient field that reads expressions through a memo of points
    and batches.

    Expression jets are exact truncated Taylor arithmetic, so a lower order
    is a truncation of a higher one.  Numbers and callables (which keep
    their own memos, if any) are returned as they are.
    """
    if not isinstance(component, (str, Expr)):
        return component
    memo = _PointMemo(coefficient_field(component))
    return BatchField(lambda x, y, order: as_jet(memo(x, y, order), order))


# -- group actions -------------------------------------------------------------------

def _check_mutual_inverse(phi, phi_inv, window: DomainGrid, tol: float = 1e-10):
    fwd = [coefficient_field(c) for c in phi]
    bwd = [coefficient_field(c) for c in phi_inv]
    pts = [(x, y) for x in np.linspace(window.x0, window.x1, 5)
           for y in np.linspace(window.y0, window.y1, 5)]
    scale = max(abs(window.x0), abs(window.x1), abs(window.y0), abs(window.y1), 1.0)

    def residual(x, y):
        px = field_at(bwd[0], x, y, 0).value
        py = field_at(bwd[1], x, y, 0).value
        return {"residual": np.maximum(abs(field_at(fwd[0], px, py, 0).value - x),
                                       abs(field_at(fwd[1], px, py, 0).value - y))}

    # the first sample, in order, that fails alone or does not map back
    for (x, y), res in zip(pts, _per_point(residual, *zip(*pts))):
        if isinstance(res, Exception):
            raise res
        if res["residual"] > tol * scale:
            raise InverseMismatchError(f"maps are not mutually inverse at ({x:.3g}, {y:.3g}): "
                                       f"residual {res['residual']:.3g}")


def _chain_rule_trackers(phi_jets: tuple[Jet2, Jet2], depth: int) -> dict:
    """Expansion coefficients of iterated derivatives through a map.

    Returns ``{alpha: {beta: jet}}`` such that
    d^alpha (g o phi) = sum_beta coeff[beta] * (d^beta g) o phi,
    for all |alpha| <= depth.  Coefficient jets live at the base point of
    ``phi_jets`` and lose one order per differentiation step.
    """
    j11 = phi_jets[0].dx()
    j12 = phi_jets[0].dy()
    j21 = phi_jets[1].dx()
    j22 = phi_jets[1].dy()

    def derive(tracker: dict, axis: int) -> dict:
        out: dict = {}

        def acc(beta, v):
            out[beta] = out[beta] + v if beta in out else v

        ja, jb = (j11, j21) if axis == 0 else (j12, j22)
        for beta, c in tracker.items():
            if isinstance(c, Jet2):
                acc(beta, c.dx() if axis == 0 else c.dy())
            shift_a = (beta[0] + 1, beta[1])
            shift_b = (beta[0], beta[1] + 1)
            acc(shift_a, c * ja)
            acc(shift_b, c * jb)
        return out

    trackers = {(0, 0): {(0, 0): 1.0}}
    for t in range(1, depth + 1):
        for j in range(t + 1):
            i = t - j
            if i > 0:
                trackers[(i, j)] = derive(trackers[(i - 1, j)], 0)
            else:
                trackers[(i, j)] = derive(trackers[(i, j - 1)], 1)
    return trackers


def pushforward_operator(op: Operator3, phi, phi_inv,
                         window: DomainGrid | None = None) -> Operator3:
    """Transport an operator field along a diffeomorphism.

    ``phi`` and ``phi_inv`` are pairs of expressions (or field callables)
    that must be mutually inverse; when ``window`` is given the inverse
    relation is verified on a sample of it.  Coefficients of the result
    are transformed exactly on jets by the two-variable chain rule and
    re-expressed at the image point through the inverse map.
    """
    if window is not None:
        _check_mutual_inverse(phi, phi_inv, window)
    # the principal-only and the full computation at a point evaluate the
    # same maps and coefficients, often at different orders
    fwd = [coefficient_field(_memoized_field(c)) for c in phi]
    bwd = [coefficient_field(_memoized_field(c)) for c in phi_inv]
    op_fields = {name: coefficient_field(_memoized_field(c))
                 for name, c in zip(RAW_SLOTS, op.components)}

    def raw_at(x, y, order: int, principal: bool) -> dict:
        inv1 = field_at(bwd[0], x, y, order)
        inv2 = field_at(bwd[1], x, y, order)
        px, py = inv1.value, inv2.value
        # chain-rule coefficients lose three orders through the depth-3
        # trackers; the operator coefficients are never differentiated
        phi_jets = (field_at(fwd[0], px, py, order + 3), field_at(fwd[1], px, py, order + 3))
        trackers = _chain_rule_trackers(phi_jets, 3)
        # third-order raw coefficients come from third-order slots only
        names = _PRINCIPAL_SLOTS if principal else RAW_SLOTS
        coeff_jets = {name: field_at(op_fields[name], px, py, order) for name in names}
        raw_p: dict = {}
        for name in names:
            alpha, weight = RAW_SLOTS[name]
            a_jet = coeff_jets[name] * weight
            for beta, c in trackers[alpha].items():
                if principal and beta[0] + beta[1] < 3:
                    continue
                term = a_jet * c
                raw_p[beta] = raw_p.get(beta, 0.0) + term
        raw_y = {}
        for beta, v in raw_p.items():
            j = v if isinstance(v, Jet2) else Jet2.constant(v, order)
            raw_y[beta] = compose(j.truncated(min(j.order, order)), inv1, inv2)
        return raw_y

    return _raw_slot_operator(raw_at)


_PRINCIPAL_SLOTS = ("a1", "a2", "a3", "a4")


def _raw_slot_operator(raw_at: Callable) -> Operator3:
    """Operator whose stored coefficients are read off memos of raw
    d^alpha coefficient jets, truncated to the requested order.

    ``raw_at(x, y, order, principal)`` gives the raw coefficients of all ten
    slots, or with ``principal`` only those of the principal symbol, which
    is all that the symbol pipelines (stage one, every Newton iterate) ask
    for; at coordinate sequences it gives them batched.  A principal slot is
    read from the full memo when that already holds the point (or the
    batch) at a high enough order.
    """
    full = _PointMemo(lambda x, y, order: raw_at(x, y, order, False))
    top = _PointMemo(lambda x, y, order: raw_at(x, y, order, True))

    def component(name: str):
        alpha, weight = RAW_SLOTS[name]
        scale = 1.0 / weight

        def principal(x, y, order):
            raw = full.peek(x, y, order)
            if raw is None:
                raw = top(x, y, order)
            return as_jet(raw[alpha], order) * scale

        def lower(x, y, order):
            return as_jet(full(x, y, order)[alpha], order) * scale
        return BatchField(principal if name in _PRINCIPAL_SLOTS else lower)

    return Operator3(**{name: component(name) for name in RAW_SLOTS})


def pushforward_symbol(sym: Symbol3, phi, phi_inv,
                       window: DomainGrid | None = None) -> Symbol3:
    """Transport a cubic symbol field along a diffeomorphism (tensor law):
    the principal part of :func:`pushforward_operator`."""
    op = Operator3(*sym.components, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return pushforward_operator(op, phi, phi_inv, window).principal_symbol()


def gauge_transform(op: Operator3, h, window: DomainGrid | None = None,
                    floor: float = 1e-9) -> Operator3:
    """Conjugate the operator by a nonvanishing multiplier: h o A o h^{-1}.

    The principal symbol is untouched; lower-order coefficients pick up
    Leibniz corrections computed exactly on jets.
    """
    hf = coefficient_field(_memoized_field(h))
    if window is not None:
        signs = set()
        pts = DomainGrid(window.x0, window.x1, window.y0, window.y1, 8, 8).points()
        # the first sample, in order, that fails alone or nearly vanishes
        for (x, y), v in zip(pts, _per_point(
                lambda x, y: {"multiplier": field_at(hf, x, y, 0).value}, *zip(*pts))):
            if isinstance(v, Exception):
                raise v
            v = v["multiplier"]
            if abs(v) < floor:
                raise ZeroCrossingError(f"multiplier vanishes near ({x:.3g}, {y:.3g})")
            signs.add(v > 0)
        if len(signs) > 1:
            raise ZeroCrossingError("multiplier changes sign on the window")
    op_fields = {name: coefficient_field(c) for name, c in zip(RAW_SLOTS, op.components)}

    def raw_at(x, y, order: int, principal: bool) -> dict:
        hj = field_at(hf, x, y, order + 3)
        v = hj.value
        hj = raise_where((v == 0.0) | (abs(v) < floor), lambda px, py: ZeroCrossingError(
            f"multiplier vanishes at ({px:.3g}, {py:.3g})"), hj, x, y)
        hinv = 1.0 / hj
        # raw partial jets of 1/h up to total order 3
        dparts = {(0, 0): hinv}
        for t in range(1, 4):
            for j in range(t + 1):
                i = t - j
                src = dparts[(i - 1, j)] if i > 0 else dparts[(i, j - 1)]
                dparts[(i, j)] = src.dx() if i > 0 else src.dy()
        names = _PRINCIPAL_SLOTS if principal else RAW_SLOTS
        coeff_jets = {name: field_at(op_fields[name], x, y, order) for name in names}
        out: dict = {}
        # a third-order slot gets only its own coefficient times h / h
        for name in names:
            alpha, weight = RAW_SLOTS[name]
            ha_jet = hj * (coeff_jets[name] * weight)
            a1, a2 = alpha
            for b1 in range(a1 + 1):
                for b2 in range(a2 + 1):
                    if principal and (b1, b2) != alpha:
                        continue
                    cmb = math.comb(a1, b1) * math.comb(a2, b2)
                    term = ha_jet * dparts[(a1 - b1, a2 - b2)] * cmb
                    slot = (b1, b2)
                    out[slot] = out.get(slot, 0.0) + term
        return out

    return _raw_slot_operator(raw_at)


def scale_operator(op: Operator3, factor) -> Operator3:
    """Multiply all ten coefficients by a number or a scalar field."""
    ff = coefficient_field(factor)

    def component(c):
        cf = coefficient_field(c)
        return BatchField(lambda x, y, order: field_at(cf, x, y, order) * field_at(ff, x, y, order))

    return op.map(component)


# -- the canonical line-bundle connection ----------------------------------------

def line_bundle_connection(op_field: Operator3, p: tuple[float, float], *,
                           extra_order: int = 0,
                           chern: AffineConnection | None = None) -> tuple[OneForm, Any]:
    """Connection form and multiplier pinned by the operator's subsymbol.

    Solves the 3x3 linear system expressing that the order-2 part of the
    operator minus its quantized principal symbol is proportional to the
    weight--1/3 rescaled Hessian of the cubic.  Returns (theta, lambda)
    as jets carrying ``extra_order`` derivatives.  ``chern`` is the Chern
    connection of the principal symbol at ``p`` when the caller already
    has it, with jets of order at least ``max(1, extra_order)``.  The
    coordinates of ``p`` may be sequences of points: the jets are then
    batched, one row per point, and NaN on the rows of points where the
    solve or its residual check fails.
    """
    return _line_bundle_solve(op_field.at(p[0], p[1], max(2, extra_order + 1)), chern)


def _line_bundle_solve(opp: Operator3, chern: AffineConnection | None) -> tuple[OneForm, Any]:
    """:func:`line_bundle_connection` on the operator's coefficient jets
    (of order m >= 2), giving jets of order m - 1."""
    from .symbol import scaled_hessian

    sigma3 = opp.principal_symbol()
    sub0 = subsymbol(opp, None, None if chern is None else chern.truncated(opp.a1.order - 1))
    g = scaled_hessian(sigma3, -1.0 / 3.0)
    a1, a2, a3, a4 = sigma3.components
    M = [
        [3 * a1, 3 * a2, g.g11],
        [6 * a2, 6 * a3, g.g12],
        [3 * a3, 3 * a4, g.g22],
    ]
    rhs = [sub0[0], 2 * sub0[1], sub0[2]]
    x, report = solve_jet_system(M, rhs, singular_message="line-bundle connection")
    res, scale = report.residual, max_of((1.0, opp.norm()))  # res: |M x - b| at the point
    t1, t2, lam = raise_where(res > 1e-10 * scale * max_of((1.0, report.cond)),
                              lambda r: RegularityError("line-bundle connection residual too large",
                                                        [f"residual {r:.3g}"]), tuple(x), res)
    return OneForm(t1, t2), lam


# -- normalization ------------------------------------------------------------------

def normalize(op_field: Operator3) -> Operator3:
    """Rescale the operator by lambda^(-3/2), where lambda is the squared
    length of the conformal coframe covector in the companion metric.

    The multiplier is a conformal invariant of weight 2/3, so
    ``normalize(f * A)`` equals ``sign(f) * normalize(A)`` for any
    nonvanishing smooth f.  Raises :class:`NonPositiveScaleError` where
    lambda is not positive.
    """
    from .symbol import scaled_hessian

    sym_field = Symbol3(*op_field.components[:4])
    op_fields = [coefficient_field(c) for c in op_field.components]

    def factor_at(x, y, order: int) -> Jet2:
        data = conformal_frame_data(sym_field, x, y, extra_order=max(order - 1, 0))
        g = scaled_hessian(data.symbol.map(lambda c: c.truncated(order + 1)), -1.0 / 3.0)
        lam = g.pair(data.theta.components, data.theta.components)
        lam_value = value_of(lam)
        lam = raise_where(lam_value <= 0.0, lambda v, px, py: NonPositiveScaleError(
            f"normalization multiplier {v:.3g} is not positive at "
            f"({px:.3g}, {py:.3g})"), lam, lam_value, x, y)
        lam_jet = lam if isinstance(lam, Jet2) else Jet2.constant(lam, order)
        return real_power(lam_jet.truncated(min(lam_jet.order, order)), -1.5)

    factor = _PointMemo(factor_at)

    def component(idx: int):
        return BatchField(lambda x, y, order: field_at(op_fields[idx], x, y, order)
                          * as_jet(factor(x, y, order), order))

    return Operator3(*(component(i) for i in range(10)))


# -- natural models -------------------------------------------------------------------

def _candidate_invariants(sym_field: Symbol3, x: float, y: float, extra: int,
                          with_frame: bool = False, which: tuple = (0, 1, 2, 3)):
    """Natural-coordinate candidates: the basic scalar invariants compressed
    through asinh.  A fixed smooth reparameterization of an invariant is
    again an invariant with the same independence locus, and the
    compression keeps Newton chart inversion workable where the raw
    invariants traverse orders of magnitude.  ``which`` picks the
    candidates to compute (a selected chart needs only its pair)."""
    sp = sym_field.at(x, y, extra + 1)
    frame = symbol_coframe_point(sp)
    cands = tuple(jet_asinh(c) for c in decompose_cubic(sp, frame, which))
    if with_frame:
        return cands, frame
    return cands


_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


# jet order of the candidates each mode reads: the scalar fields contract
# third derivatives of the chart monomials, the bundle fields none
_CANDIDATE_ORDER = {"scalar": 3, "bundle": 1}


class _StageOne(NamedTuple):
    """The candidate invariants over a grid (see :func:`_stage_one`)."""

    points: np.ndarray        # (N, 2)
    values: np.ndarray        # (N, 4), nan where the point is not regular
    grads: np.ndarray         # (N, 4, 2), nan where the point is not regular
    seeds: list               # per point (candidate jets, frame duals), or None


@np.errstate(all="ignore")
def _stage_one(op_field: Operator3, grid: DomainGrid, order: int = 1) -> _StageOne:
    """Candidate invariant values and gradients at every grid point.

    The candidates are computed in one batched pass over the grid, at the
    jet order the model will read (``order``); a point that fails a check
    there is a NaN row, as a batch never raises for one point.  A point is
    regular when its values and gradients are finite.
    Model assembly reads its chart data from the arrays, and seeds its
    chart memo from the rows of the jets.
    """
    sym_field = Symbol3(*op_field.components[:4])
    pts = grid.points()

    def candidates(x, y):
        cands, frame = _candidate_invariants(sym_field, x, y, order, with_frame=True)
        return cands, _duals(frame)

    seeds = _rows(candidates([p[0] for p in pts], [p[1] for p in pts]), len(pts))
    values = np.array([[c.value for c in cands] for cands, _ in seeds])
    grads = np.array([[[c.partial(1, 0), c.partial(0, 1)] for c in cands] for cands, _ in seeds])
    regular = np.isfinite(values).all(axis=1) & np.isfinite(grads).all(axis=(1, 2))
    values[~regular] = grads[~regular] = np.nan
    return _StageOne(np.array(pts), values, grads,
                     [seed if ok else None for seed, ok in zip(seeds, regular)])


def _clears_floor(grads: np.ndarray, pair, floor: float) -> np.ndarray:
    """Where the Jacobian of the candidate pair clears the relative floor,
    for gradients shaped (N, 4, 2); false where they are nan."""
    gi, gj = grads[:, pair[0]], grads[:, pair[1]]
    det = gi[:, 0] * gj[:, 1] - gi[:, 1] * gj[:, 0]
    scale = (np.hypot(gi[:, 0], gi[:, 1]) * np.hypot(gj[:, 0], gj[:, 1])) + 1e-300
    return np.abs(det) >= floor * scale


def _pair_quality(stage: _StageOne, pair, floor: float):
    """Fraction of regular points where the pair's Jacobian clears the
    floor, the number of regular points, and of those that clear it."""
    regular = ~np.isnan(stage.values[:, 0])
    usable = int(regular.sum())
    ok = int(_clears_floor(stage.grads[regular], pair, floor).sum())
    return (ok / max(usable, 1)), usable, ok


def _select_pair(stages: list, cfg: EquivConfig) -> tuple[int, int]:
    """First candidate pair in lexicographic order that is in general
    position for every supplied stage-one scan."""
    for pair in _PAIRS:
        good = True
        for stage in stages:
            frac, total, ok = _pair_quality(stage, pair, cfg.jacobian_floor)
            if (total < cfg.min_regular_fraction * len(stage.points)
                    or frac < cfg.min_regular_fraction):
                good = False
                break
        if good:
            return pair
    raise GeneralPositionError(
        "no candidate invariant pair is functionally independent on enough of the grid")


def build_natural_model(op_field: Operator3, grid: DomainGrid, mode: str = "scalar",
                        selection: tuple[int, int] | None = None,
                        config: EquivConfig | None = None) -> NaturalModel:
    """Sample the operator's invariant fields over the grid and organize
    them by the selected pair of natural coordinates."""
    cfg = config or EquivConfig()
    if mode not in ("scalar", "bundle"):
        raise ValueError(f"unknown mode {mode!r}")
    stage = _stage_one(op_field, grid, _CANDIDATE_ORDER[mode])
    if selection is None:
        selection = _select_pair([stage], cfg)
    return _assemble_model(op_field, grid, mode, selection, cfg, stage)


def _duals(frame) -> tuple:
    """Values of the torsion frame's dual vectors."""
    return tuple(value_of(v) for v in frame.d1 + frame.d2)


def _chart_data(point: tuple) -> tuple:
    """Values and Jacobian of the selected candidate pair, and the branch
    signature, from a chart point (see :func:`_chart_memo`)."""
    ci, cj, (d11, d12, d21, d22) = point
    vals = (ci.value, cj.value)
    J = ((ci.partial(1, 0), ci.partial(0, 1)),
         (cj.partial(1, 0), cj.partial(0, 1)))
    # frame derivatives of the selected invariants: order-two scalar
    # invariants of the principal symbol, used as a branch signature
    sig = (d11 * J[0][0] + d12 * J[0][1],
           d21 * J[0][0] + d22 * J[0][1],
           d11 * J[1][0] + d12 * J[1][1],
           d21 * J[1][0] + d22 * J[1][1])
    return (vals, J, sig)


def _chart_memo(op_field: Operator3, selection: tuple[int, int]) -> _PointMemo:
    """Chart points at grid points, Newton iterates and matched points: the
    selected candidate pair as jets and the values of the torsion frame's
    dual vectors, at order 1 for the chart map and order 3 for the scalar
    fields.  They depend on the principal symbol alone, so operators that
    share their symbol fields can share the memo."""
    sym_field = Symbol3(*op_field.components[:4])

    def compute(x, y, order: int):
        (ci, cj), frame = _candidate_invariants(sym_field, x, y, order, with_frame=True,
                                                which=selection)
        return ci, cj, _duals(frame)

    return _PointMemo(compute, limit=8192)


def _assemble_model(op_field, grid, mode, selection, cfg, stage: _StageOne,
                    charts: _PointMemo | None = None) -> NaturalModel:
    i_sel, j_sel = selection
    if charts is None:
        charts = _chart_memo(op_field, selection)
    pts = stage.points.tolist()
    # the grid points are seeded from the stage-one jets
    for (x, y), seed in zip(pts, stage.seeds):
        if seed is not None:
            cands, duals = seed
            charts.put(x, y, cands[0].order, (cands[i_sel], cands[j_sel], duals))

    # the readers take a point or coordinate sequences (see _reader)
    coords_jac = _reader(charts, 1, lambda point: _chart_data(point)[:2])
    signature_at = _reader(charts, 1, lambda point: _chart_data(point)[2])

    # kept: regular points inside the coordinate cap where the selected
    # pair's Jacobian clears the floor (nan compares false)
    sel = [i_sel, j_sel]
    kept = np.flatnonzero(
        (np.abs(stage.values[:, sel]).max(axis=1) <= cfg.coordinate_cap)
        & _clears_floor(stage.grads, selection, cfg.jacobian_floor))
    xs, ys = [pts[k][0] for k in kept], [pts[k][1] for k in kept]

    if mode == "scalar":
        field_names = list(_SCALAR_FIELDS)
        # the kept points' chart, read as one batch: stage one's (regular) rows
        seeds = [stage.seeds[k] for k in kept]
        if len(seeds) > 1:
            charts.put(xs, ys, seeds[0][0][0].order, (
                stack([s[0][i_sel] for s in seeds]), stack([s[0][j_sel] for s in seeds]),
                tuple(np.array(d) for d in zip(*(s[1] for s in seeds)))))

        def scalar_fields(x, y, _order):
            I1, I2 = (as_jet(v, 3) for v in charts(x, y, 3)[:2])
            opp = op_field.at(x, y, 0)
            # the operator applied to each chart monomial I1^a I2^b
            powers1 = [I1 ** a for a in range(4)]
            powers2 = [I2 ** b for b in range(4)]
            raw = [(alpha, value_of(getattr(opp, name)) * weight)
                   for name, (alpha, weight) in RAW_SLOTS.items()]
            out = {}
            for (a, b) in MONOMIALS:
                mono = powers1[a] * powers2[b]
                total = 0.0
                for alpha, coeff in raw:
                    total += coeff * mono.partial(*alpha)
                out[f"J_{a}{b}"] = total
            return out

        fields_at = _reader(_PointMemo(scalar_fields), 0, lambda fields: fields)
        connection_at = None
    else:
        from .invariants import _operator_invariants

        field_names = list(_BUNDLE_FIELDS)
        # per point: the fields, and the connection form's two components
        # with the density of its exterior derivative; the obstruction
        # report reads the latter at the matched points, whose fields were
        # compared before
        records = _PointMemo(lambda x, y, _order: _bundle_record(
            _operator_invariants(op_field, x, y, "bundle")))
        fields_at = _reader(records, 0, lambda record: record[0])
        connection_at = _reader(records, 0, lambda record: record[1])

    found = fields_at(xs, ys)

    npts = len(pts)
    fvals = np.full((npts, len(field_names)), np.nan)
    for k, f in zip(kept, found):
        if not isinstance(f, Exception):
            fvals[k] = [f[n] for n in field_names]
    mask = np.isfinite(fvals).all(axis=1)
    fvals[~mask] = np.nan
    values = np.where(mask[:, None], stage.values[:, sel], np.nan)
    jacobians = np.where(mask[:, None, None], stage.grads[:, sel], np.nan)

    if mask.sum() < max(4, cfg.min_regular_fraction * npts):
        raise GeneralPositionError(
            f"only {int(mask.sum())}/{npts} grid points are regular for pair {selection}")

    chart = NaturalChart(selection=selection, values=values, jacobians=jacobians, mask=mask)
    return NaturalModel(mode=mode, grid=grid, chart=chart, field_names=field_names,
                        field_values=fvals, points=stage.points,
                        coords_jac=coords_jac, fields_at=fields_at,
                        connection_at=connection_at, signature_at=signature_at)


def _bundle_record(inv) -> tuple:
    """What a bundle model keeps of a point: the invariant fields, and the
    connection form's components with its exterior derivative's density."""
    theta = inv.connection
    curv = exterior_derivative(theta).r
    return (inv.flat(), (value_of(theta.t1), value_of(theta.t2), value_of(curv)))


# -- chart inversion and comparison ---------------------------------------------------

def _bracketing_cells(model: NaturalModel, target: np.ndarray):
    """Sample cells whose corner values bracket the target, with bounds.

    Every fold branch of the chart lies in some sample cell whose value box
    (with margin) contains the target; Newton clamped to such a cell finds
    the branch living there without sliding into another basin.
    """
    grid = model.grid
    vals = model.chart.values.reshape(grid.nx, grid.ny, 2)
    mask = model.chart.mask.reshape(grid.nx, grid.ny)
    pts = model.points.reshape(grid.nx, grid.ny, 2)
    # cells in row-major order of their lower-left corner, corners in the
    # order (ix, iy), (ix, iy + 1), (ix + 1, iy), (ix + 1, iy + 1)
    corners = np.stack([vals[:-1, :-1], vals[:-1, 1:], vals[1:, :-1], vals[1:, 1:]],
                       axis=2).reshape(-1, 4, 2)
    usable = (mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]).reshape(-1)
    lo = corners.min(axis=1)
    hi = corners.max(axis=1)
    pad = 0.35 * (hi - lo) + 1e-12
    cells = np.flatnonzero(usable & np.all(target >= lo - pad, axis=1)
                           & np.all(target <= hi + pad, axis=1))
    # taut boxes first: cells swallowed by a blowup bracket everything and
    # should not crowd out genuine candidates
    diag = np.hypot(*(hi[cells] - lo[cells]).T) + 1e-12
    score = np.hypot(*(target - corners[cells].mean(axis=1)).T) / diag + diag * 1e-6
    best = cells[np.argsort(score, kind="stable")[:12]]
    x0, y0 = pts[:-1, :-1].reshape(-1, 2)[best].T
    x1, y1 = pts[1:, 1:].reshape(-1, 2)[best].T
    mx, my = 0.6 * (x1 - x0), 0.6 * (y1 - y0)
    centers = zip(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    return list(zip(centers, zip(x0 - mx, x1 + mx, y0 - my, y1 + my)))


def _newton_search(model: NaturalModel, target: np.ndarray, seed, bounds,
                   cfg: EquivConfig, max_iter: int):
    """Damped, clamped Newton for one seed, as a coroutine (see
    :func:`_invert_chart`): each chart read is a yielded request
    ``("coords_jac", x, y)``.  Returns the solution or None."""
    coord_scale = max(1.0, float(np.max(np.abs(model.values_masked))))
    span = max(model.grid.x1 - model.grid.x0, model.grid.y1 - model.grid.y0)

    def inside(x, y):
        if bounds is None:
            return model.grid.contains(x, y, pad=cfg.domain_pad)
        return bounds[0] <= x <= bounds[1] and bounds[2] <= y <= bounds[3]

    x, y = seed
    reply = yield ("coords_jac", x, y)
    if isinstance(reply, Exception):
        return None
    (v1, v2), J = reply
    r1, r2 = v1 - target[0], v2 - target[1]
    err = math.hypot(r1, r2)
    for _ in range(max_iter):
        if err <= cfg.newton_tol * coord_scale:
            return (x, y)
        det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
        if abs(det) < 1e-300:
            return None
        dx = (J[1][1] * r1 - J[0][1] * r2) / det
        dy = (-J[1][0] * r1 + J[0][0] * r2) / det
        step_len = math.hypot(dx, dy)
        if step_len > 0.5 * span:
            shrink = 0.5 * span / step_len
            dx *= shrink
            dy *= shrink
        lam = 1.0
        improved = False
        for _ in range(8):
            xn, yn = x - lam * dx, y - lam * dy
            if inside(xn, yn):
                reply = yield ("coords_jac", xn, yn)
                if isinstance(reply, Exception):
                    nerr = math.inf
                else:
                    (v1, v2), Jn = reply
                    n1, n2 = v1 - target[0], v2 - target[1]
                    nerr = math.hypot(n1, n2)
                if nerr < err:
                    x, y, r1, r2, J, err = xn, yn, n1, n2, Jn, nerr
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            return None
    return (x, y) if err <= cfg.newton_tol * coord_scale else None


def _rel(a: float, b: float) -> float:
    """Pointwise relative discrepancy with a unit floor; a global field
    scale would let near-pole magnitudes mask genuine differences."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _sig_mismatch(sa, sb) -> float:
    """Largest difference of two branch signatures, relative to their scale."""
    scale = max(1.0, max(abs(v) for v in sa), max(abs(v) for v in sb))
    return max(abs(a - b) for a, b in zip(sa, sb)) / scale


def _target_search(partner: NaturalModel, target: np.ndarray, own_sign, sig_own,
                   f_own: dict, tol: float, cfg: EquivConfig, n_seeds: int = 3):
    """The partner's best-matching chart preimage of one target, as a
    coroutine (see :func:`_invert_chart`).  Returns ``(worst, diffs,
    x_other)`` for the best branch, or None.

    Natural coordinates are only local coordinates, so a target value may
    have several preimages on the window (fold branches).  Branches are
    searched from every bracketing sample cell (Newton clamped to the cell)
    and from the nearest samples in coordinate space (Newton clamped to the
    padded window), in that order; a branch found before is not compared
    again, and the search stops at a branch that already matches.
    """
    span = max(partner.grid.x1 - partner.grid.x0, partner.grid.y1 - partner.grid.y0)
    seeds = [(center, bounds, 15) for center, bounds in _bracketing_cells(partner, target)]
    samples = partner.points[partner.chart.mask]
    _, idxs = partner.tree().query(target, k=min(n_seeds, len(samples)))
    seeds += [(tuple(samples[i]), None, cfg.newton_max_iter) for i in np.atleast_1d(idxs)]
    found: list[tuple[float, float]] = []
    best = None
    for seed, bounds, max_iter in seeds:
        sol = yield from _newton_search(partner, target, seed, bounds, cfg, max_iter)
        if sol is None or any(math.hypot(sol[0] - fx, sol[1] - fy) < 1e-7 * span
                              for (fx, fy) in found):
            continue
        found.append(sol)
        # compare only against branches the partner actually models: a
        # preimage far outside its window is extrapolation
        if not partner.grid.contains(*sol, pad=0.05):
            continue
        # the hidden chart map preserves orientation, so the matching branch
        # must carry the owner's Jacobian sign; fold branches across a fold
        # line have the opposite one
        reply = yield ("coords_jac", *sol)
        if isinstance(reply, Exception):
            continue
        jb = reply[1]
        if np.sign(jb[0][0] * jb[1][1] - jb[0][1] * jb[1][0]) != own_sign:
            continue
        # a structural counterpart must reproduce the extended signature
        # (frame derivatives of the chart invariants, themselves invariants
        # of the principal symbol); fold impostors and perturbed-symbol
        # partners fail here
        sig = yield ("signature_at", *sol)
        if isinstance(sig, Exception) or _sig_mismatch(sig_own, sig) > cfg.signature_tol:
            continue
        f_other = yield ("fields_at", *sol)
        if isinstance(f_other, Exception):
            continue
        diffs = {n: _rel(f_own[n], f_other[n]) for n in f_own}
        worst = max(diffs.values())
        if best is None or worst < best[0]:
            best = (worst, diffs, sol)
        if best[0] <= 0.3 * tol:
            break  # this branch already matches; skip the rest
    return best


def _newton_solve(model: NaturalModel, requests: list) -> list:
    """One lockstep step: the outcome of each request ``(reader, x, y)``,
    the value of ``model.<reader>`` at the point or the error the point
    raises there.  The requests to one reader (the Newton iterates of every
    live search, say) are answered in one batched call."""
    out = [None] * len(requests)
    by_reader: dict = {}
    for i, (name, _, _) in enumerate(requests):
        by_reader.setdefault(name, []).append(i)
    for name, idx in by_reader.items():
        xs = [requests[i][1] for i in idx]
        ys = [requests[i][2] for i in idx]
        for i, value in zip(idx, getattr(model, name)(xs, ys)):
            out[i] = value
    return out


def _invert_chart(model: NaturalModel, searches: list) -> list:
    """Run the chart searches of one gather in lockstep; returns what each
    search returns.

    A search is a coroutine that yields each read of the model it needs as
    a request ``(reader, x, y)`` and is sent the outcome: the value, or the
    error the point raises there (see :func:`_newton_solve`).  Each step
    answers the pending requests of all live searches together, so a
    search reads the same values, and runs the same seeds, as it would
    alone.
    """
    results = [None] * len(searches)
    replies = [None] * len(searches)
    live = list(range(len(searches)))
    while live:
        pending = []
        for k in live:
            try:
                pending.append((k, searches[k].send(replies[k])))
            except StopIteration as stop:
                results[k] = stop.value
        live = [k for k, _ in pending]
        if pending:
            for k, reply in zip(live, _newton_solve(model, [r for _, r in pending])):
                replies[k] = reply
    return results


def _compare_models(model_a: NaturalModel, model_b: NaturalModel, tol: float,
                    cfg: EquivConfig, with_obstruction: bool) -> Verdict:
    if model_a.field_names != model_b.field_names:
        raise ValueError("models carry different field sets")
    pa, pb = model_a.values_masked, model_b.values_masked
    # robust per-model coordinate boxes: a pole of an invariant inside the
    # window must not be allowed to dwarf the comparable region
    q = cfg.robust_quantile
    boxes = []
    for pts_i in (pa, pb):
        lo_q = np.quantile(pts_i, q, axis=0)
        hi_q = np.quantile(pts_i, 1.0 - q, axis=0)
        mid = 0.5 * (lo_q + hi_q)
        half = 0.5 * (hi_q - lo_q) * 1.6 + 1e-12
        boxes.append((mid - half, mid + half))
    lo = np.minimum(boxes[0][0], boxes[1][0])
    hi = np.maximum(boxes[0][1], boxes[1][1])
    n = cfg.compare_resolution
    gx = np.linspace(lo[0], hi[0], n)
    gy = np.linspace(lo[1], hi[1], n)
    gpts = np.array([(u, v) for u in gx for v in gy])
    in_a = model_a.contains_coord(gpts)
    in_b = model_b.contains_coord(gpts)
    union = int(np.sum(in_a | in_b))
    inter = int(np.sum(in_a & in_b))
    # intersection over the smaller image: windows of different sizes give
    # nested images for equivalent operators, which must not read as a
    # mismatch, while genuinely shifted invariant ranges still score ~0
    smaller = min(int(np.sum(in_a)), int(np.sum(in_b)))
    overlap = inter / smaller if smaller else 0.0
    notes: list[str] = []
    cfgd = cfg.as_dict()
    cfgd["tolerance"] = tol
    sel = model_a.chart.selection

    if union == 0:
        return Verdict("inconclusive", math.inf, 0.0, {}, 0, sel, cfgd,
                       notes=["no usable image region on either side"])
    if overlap < cfg.min_overlap:
        return Verdict("no", math.inf, overlap, {}, 0, sel, cfgd,
                       notes=["image mismatch: natural-coordinate ranges do not overlap enough"])

    # Matching targets are taken from each model's own sampled coordinate
    # values (the convex hull can overcover a curvilinear image, so free
    # grid targets may have no preimage); the owning chart needs no
    # inversion there.  The partner chart is inverted by damped Newton, at
    # all targets of a gather in lockstep; among the partner's fold branches
    # the best-matching one is scored, which tests mutual coverage of the
    # two multivalued graphs.
    field_names = model_a.field_names
    diag = {name: 0.0 for name in field_names}
    matched: list[tuple[np.ndarray, tuple, tuple]] = []
    considered = 0

    def gather(owner: NaturalModel, partner: NaturalModel, budget: int, flip: bool):
        nonlocal considered
        vals = owner.values_masked
        pts = owner.points[owner.chart.mask]
        rows = owner.field_values[owner.chart.mask]
        inside = partner.contains_coord(vals)
        # the convex hull overcovers a curvilinear image: also require the
        # target to sit close to the partner's own sampled values, so that
        # a counterpart plausibly exists in the partner's window
        ptree = partner.tree()
        pvals = partner.values_masked
        own_spacing, _ = ptree.query(pvals, k=min(2, len(pvals)))
        spacing = float(np.median(own_spacing[:, -1])) if len(pvals) > 1 else np.inf
        dist_t, _ = ptree.query(vals)
        inside &= dist_t <= 3.0 * spacing + 1e-12
        idxs = np.nonzero(inside)[0]
        if len(idxs) > budget:
            stride = int(np.ceil(len(idxs) / budget))
            idxs = idxs[::stride]
        jacs = owner.chart.jacobians[owner.chart.mask]
        own = [tuple(p) for p in pts[idxs].tolist()]
        sigs = owner.signature_at([p[0] for p in own], [p[1] for p in own])
        targets, searches = [], []
        for k, x_own, sig_own in zip(idxs, own, sigs):
            if isinstance(sig_own, Exception):
                continue
            considered += 1
            ja = jacs[k]
            own_sign = np.sign(ja[0, 0] * ja[1, 1] - ja[0, 1] * ja[1, 0])
            targets.append((vals[k], x_own))
            searches.append(_target_search(partner, vals[k], own_sign, sig_own,
                                           dict(zip(field_names, rows[k])), tol, cfg))
        for (t, x_own), best in zip(targets, _invert_chart(partner, searches)):
            if best is None:
                continue
            _, diffs, x_other = best
            for n in field_names:
                diag[n] = max(diag[n], diffs[n])
            matched.append((t, x_other, x_own) if flip else (t, x_own, x_other))

    half = max(cfg.max_matched_points // 2, 1)
    gather(model_a, model_b, half, flip=False)
    gather(model_b, model_a, half, flip=True)
    if len(matched) < cfg.min_matched_points:
        if considered >= cfg.min_matched_points and len(matched) < max(3, considered // 4):
            # the images overlap but the extended invariant signatures of one
            # model are (almost) nowhere realized by the other: inequivalent
            return Verdict("no", math.inf, overlap, diag, len(matched), sel, cfgd,
                           notes=["invariant signature mismatch: the models share "
                                  "coordinates but not the derived invariants"])
        return Verdict("inconclusive", math.inf, overlap, {}, len(matched), sel, cfgd,
                       notes=[f"only {len(matched)} matched comparison points"])

    max_disc = max(diag.values()) if diag else math.inf
    fields_ok = max_disc <= tol

    obstruction = None
    obstruction_ok = True
    if with_obstruction and fields_ok:
        obstruction = _obstruction_report(model_a, model_b, matched, cfg)
        obstruction_ok = obstruction["closed"]
        if not obstruction_ok:
            notes.append("internal inconsistency: fields match but the connection-form "
                         "difference is not closed")

    verdict = "yes" if (fields_ok and obstruction_ok) else "no"
    return Verdict(verdict, max_disc, overlap, diag, len(matched), sel, cfgd,
                   obstruction=obstruction, notes=notes)


def _obstruction_report(model_a: NaturalModel, model_b: NaturalModel,
                        matched: list, cfg: EquivConfig) -> dict:
    """Closedness of the connection-form difference in natural coordinates.

    The exterior derivative of the difference is evaluated pointwise and
    jet-exactly at the matched points: in natural coordinates it equals the
    difference of the two bundle curvature densities divided by the chart
    Jacobian determinants.  A loop-integral guard (triangle circulations of
    the difference over the matched scatter) is reported redundantly;
    it carries quadrature error of the order of the triangle size, so its
    threshold is loose and it only catches gross non-exactness.
    """
    coords = []
    diffs = []
    curvature_residual = 0.0
    readings = []
    for model, k in ((model_a, 1), (model_b, 2)):
        xs, ys = [m[k][0] for m in matched], [m[k][1] for m in matched]
        readings.append([_connection_in_chart(*read) for read in
                         zip(model.connection_at(xs, ys), model.coords_jac(xs, ys))])
    for (t, _, _), ua, ub in zip(matched, *readings):
        if ua is None or ub is None:
            continue
        coords.append(t)
        diffs.append((ua[0] - ub[0], ua[1] - ub[1]))
        curvature_residual = max(
            curvature_residual,
            abs(ua[2] - ub[2]) / max(1.0, abs(ua[2]), abs(ub[2])))
    report = {
        "closed": bool(coords and curvature_residual <= cfg.closedness_tol),
        "residual": curvature_residual,
        "points": len(coords),
        "loop_residual": 0.0,
        "theta_scale": 0.0,
    }
    if not coords:
        report["closed"] = True
        report["note"] = "no usable connection samples"
        return report
    coords_arr = np.array(coords)
    diffs_arr = np.array(diffs)
    uscale = float(np.max(np.abs(diffs_arr)))
    report["theta_scale"] = uscale
    if len(coords) >= 6:
        try:
            tri = Delaunay(coords_arr)
        except Exception:
            return report
        worst = 0.0
        edge_scale = 1e-300
        for simplex in tri.simplices:
            p = coords_arr[simplex]
            u = diffs_arr[simplex]
            circ = 0.0
            per = 0.0
            for e in range(3):
                a, b = e, (e + 1) % 3
                seg = p[b] - p[a]
                per += float(np.hypot(*seg))
                circ += 0.5 * float((u[a] + u[b]) @ seg)
            worst = max(worst, abs(circ))
            edge_scale = max(edge_scale, per * max(uscale, 1.0))
        loop_residual = worst / edge_scale
        report["loop_residual"] = loop_residual
        if loop_residual > 0.5:
            report["closed"] = False
    return report


def _connection_in_chart(connection, chart) -> tuple[float, float, float] | None:
    """Connection-form components in the dI basis plus the exterior
    derivative's density in natural coordinates, from a point's reads of
    the connection and the chart; None where either failed."""
    if isinstance(connection, Exception) or isinstance(chart, Exception):
        return None
    (t1, t2, curv), (_, J) = connection, chart
    det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    if abs(det) < 1e-300:
        return None
    # solve J^T u = theta for the components of theta in the dI basis;
    # a 2-form density divides by the Jacobian determinant
    u1 = (J[1][1] * t1 - J[1][0] * t2) / det
    u2 = (-J[0][1] * t1 + J[0][0] * t2) / det
    return (u1, u2, curv / det)


# -- public pairwise tests --------------------------------------------------------------

def _as_grid_list(grid) -> list[DomainGrid]:
    return list(grid) if isinstance(grid, (list, tuple)) else [grid]


# an overflow masks its point with a reason; numpy's floating-point warnings
# would only repeat it
@np.errstate(all="ignore")
def _pairwise(op_a: Operator3, op_b: Operator3, grid_a, grid_b, tol: float,
              cfg: EquivConfig, mode: str) -> Verdict:
    # stage one and the charts depend on the principal symbol alone, so two
    # operators with the same symbol fields (one a lower-order change of the
    # other, say) share them
    same_symbol = op_a.principal_symbol() == op_b.principal_symbol()
    # stage one, model assembly and the comparison revisit grid points and
    # matched points at several orders
    op_a, op_b = op_a.map(_memoized_field), op_b.map(_memoized_field)
    order = _CANDIDATE_ORDER[mode]
    grids_a = _as_grid_list(grid_a)
    grids_b = _as_grid_list(grid_b)
    if len(grids_a) != len(grids_b):
        raise ValueError("both operators need the same number of chart rectangles")
    try:
        stages = []
        for ga, gb in zip(grids_a, grids_b):
            st_a = _stage_one(op_a, ga, order)
            st_b = st_a if same_symbol and gb == ga else _stage_one(op_b, gb, order)
            stages.extend([st_a, st_b])
        selection = _select_pair(stages, cfg)
        verdicts = []
        for k, (ga, gb) in enumerate(zip(grids_a, grids_b)):
            charts_a = _chart_memo(op_a, selection)
            charts_b = charts_a if same_symbol else _chart_memo(op_b, selection)
            ma = _assemble_model(op_a, ga, mode, selection, cfg, stages[2 * k], charts_a)
            mb = _assemble_model(op_b, gb, mode, selection, cfg, stages[2 * k + 1], charts_b)
            verdicts.append(_compare_models(ma, mb, tol, cfg,
                                            with_obstruction=(mode == "bundle")))
    except GeneralPositionError as err:
        return Verdict("inconclusive", math.inf, 0.0, {}, 0, None,
                       cfg.as_dict() | {"tolerance": tol},
                       notes=[f"general position failure: {err}"])
    if len(verdicts) == 1:
        return verdicts[0]
    return _combine_verdicts(verdicts)


def _combine_verdicts(verdicts: list[Verdict]) -> Verdict:
    worst = max(v.max_discrepancy for v in verdicts)
    overlap = min(v.overlap_fraction for v in verdicts)
    kinds = [v.equivalent for v in verdicts]
    kind = "yes"
    if "inconclusive" in kinds:
        kind = "inconclusive"
    if "no" in kinds:
        kind = "no"
    diag = {}
    for v in verdicts:
        for k2, d in v.field_diagnostics.items():
            diag[k2] = max(diag.get(k2, 0.0), d)
    notes = [n for v in verdicts for n in v.notes]
    return Verdict(kind, worst, overlap, diag,
                   min(v.matched_points for v in verdicts),
                   verdicts[0].selection, verdicts[0].config,
                   obstruction=verdicts[0].obstruction, notes=notes)


def equivalent_scalar(op_a: Operator3, op_b: Operator3, grid_a, grid_b,
                      tol: float = 1e-6, config: EquivConfig | None = None) -> Verdict:
    """Are two scalar operators related by a chart diffeomorphism?"""
    return _pairwise(op_a, op_b, grid_a, grid_b, tol, config or EquivConfig(), "scalar")


def equivalent_bundle(op_a: Operator3, op_b: Operator3, grid_a, grid_b,
                      tol: float = 1e-6, config: EquivConfig | None = None) -> Verdict:
    """Are two operators related by a diffeomorphism plus a gauge?

    Step one compares the natural models of the total symbols and the
    bundle curvature invariant; step two, on success, checks that the
    difference of the canonical connection forms (in natural coordinates)
    is closed -- on a simply connected chart that difference is then exact
    and realized by an explicit gauge.
    """
    return _pairwise(op_a, op_b, grid_a, grid_b, tol, config or EquivConfig(), "bundle")


def equation_equivalent(op_a: Operator3, op_b: Operator3, grid_a, grid_b,
                        tol: float = 1e-6, config: EquivConfig | None = None) -> Verdict:
    """Equivalence of the conformal classes (the underlying equations).

    Both operators are normalized first; the classes are equivalent exactly
    when the normalizations are equivalent up to overall sign.
    """
    a0 = normalize(op_a)
    b0 = normalize(op_b)
    v_plus = equivalent_bundle(a0, b0, grid_a, grid_b, tol, config)
    if v_plus.equivalent == "yes":
        v_plus.notes.append("matched against +normalization")
        return v_plus
    v_minus = equivalent_bundle(a0, scale_operator(b0, -1.0), grid_a, grid_b, tol, config)
    if v_minus.equivalent == "yes":
        v_minus.notes.append("matched against -normalization")
        return v_minus
    # prefer the more informative failure
    if v_plus.equivalent == "no" and v_minus.equivalent == "no":
        best = v_plus if v_plus.max_discrepancy <= v_minus.max_discrepancy else v_minus
        best.notes.append("neither sign of the normalization matches")
        return best
    return v_plus if v_plus.equivalent != "inconclusive" else v_minus
