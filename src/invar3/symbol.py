"""Cubic symbols on a 2D chart and their algebraic invariants.

A symbol is stored through four coefficients (a1, a2, a3, a4) of

    sigma = a1 dx^3 + 3 a2 dx^2.dy + 3 a3 dx.dy^2 + a4 dy^3

(symmetric products of coordinate vector fields; the binomial factors 3 are
part of the convention).  Components may be numbers or jets for pointwise
work, or expressions/callables for fields.  All algebra here is polymorphic
over those kinds, and over batched jets (one row per point), for which the
values, norms and checks below hold one entry per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Any

import numpy as np

from . import jets
from .errors import DomainEvalError, SingularSymbolError, raise_where
from .expr import field_at
from .jets import Jet2

__all__ = [
    "Symbol3", "Sym2Form", "SymbolKind", "Classification",
    "discriminant", "classify", "hessian", "hessian2",
    "wagner_metric", "scaled_hessian",
    "value_of", "norm_of", "max_of",
]


def value_of(v):
    """Constant term of a jet, or the number itself."""
    return v.value if isinstance(v, Jet2) else float(v)


def norm_of(v):
    """Max-norm of a jet's coefficients, or |number|."""
    return v.norm() if isinstance(v, Jet2) else abs(float(v))


def max_of(values):
    """The largest of the values; row by row where some hold one value per
    row of a batch."""
    values = tuple(values)
    try:
        return max(values)
    except ValueError:  # comparing per-row arrays has no single truth value
        return reduce(np.maximum, values)


@dataclass(frozen=True)
class Symbol3:
    """Coefficients of a symmetric cubic 3-vector."""

    a1: Any
    a2: Any
    a3: Any
    a4: Any

    @property
    def components(self) -> tuple:
        return (self.a1, self.a2, self.a3, self.a4)

    def at(self, x, y, order: int) -> "Symbol3":
        """Evaluate field-form components to jets at a point, or to batched
        jets at a sequence of points."""
        return Symbol3(*(field_at(c, x, y, order) for c in self.components))

    def map(self, fn) -> "Symbol3":
        return Symbol3(*(fn(c) for c in self.components))

    def scale(self, factor) -> "Symbol3":
        return self.map(lambda c: c * factor)

    def norm(self):
        return max_of(norm_of(c) for c in self.components)

    def __add__(self, other: "Symbol3") -> "Symbol3":
        return Symbol3(*(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Symbol3") -> "Symbol3":
        return Symbol3(*(a - b for a, b in zip(self.components, other.components)))


@dataclass(frozen=True)
class Sym2Form:
    """Symmetric bilinear form, stored as the polynomial coefficients
    (g11, g12, g22) of  g11 u1^2 + g12 u1 u2 + g22 u2^2.

    ``variance`` is "contra" when the form eats covector components and
    "co" when it eats vector components.  The 2x2 matrix realization is
    [[g11, g12/2], [g12/2, g22]].
    """

    g11: Any
    g12: Any
    g22: Any
    variance: str = "contra"

    @property
    def components(self) -> tuple:
        return (self.g11, self.g12, self.g22)

    def pair(self, u, v):
        """Evaluate the bilinear form on component pairs u = (u1,u2), v = (v1,v2)."""
        u1, u2 = u
        v1, v2 = v
        half = self.g12 * 0.5
        return (self.g11 * u1 * v1 + half * (u1 * v2 + u2 * v1) + self.g22 * u2 * v2)

    def det(self):
        """Determinant of the matrix realization."""
        return self.g11 * self.g22 - self.g12 * self.g12 * 0.25

    def raised(self, vec):
        """Matrix-vector product of the matrix realization with (v1, v2)."""
        v1, v2 = vec
        half = self.g12 * 0.5
        return (self.g11 * v1 + half * v2, half * v1 + self.g22 * v2)

    def scale(self, factor) -> "Sym2Form":
        return Sym2Form(self.g11 * factor, self.g12 * factor, self.g22 * factor,
                        self.variance)

    def inverse(self) -> "Sym2Form":
        """Inverse metric; flips the variance tag."""
        d = self.det()
        flipped = "co" if self.variance == "contra" else "contra"
        return Sym2Form(self.g22 / d, -self.g12 / d, self.g11 / d, flipped)

    def norm(self):
        return max_of(norm_of(c) for c in self.components)


class SymbolKind(Enum):
    HYPERBOLIC = "hyperbolic"
    ULTRAHYPERBOLIC = "ultrahyperbolic"
    SINGULAR = "singular"


@dataclass(frozen=True)
class Classification:
    kind: SymbolKind
    delta: float
    threshold: float


def discriminant(sigma: Symbol3):
    """Degree-4 discriminant-type polynomial of the cubic.

    Positive exactly when the cubic has three distinct real roots, negative
    when it has one real and two complex roots.
    """
    a1, a2, a3, a4 = sigma.components
    return (6 * a1 * a2 * a3 * a4
            - 4 * (a1 * a3 * a3 * a3 + a4 * a2 * a2 * a2)
            + 3 * a2 * a2 * a3 * a3
            - a1 * a1 * a4 * a4)


def classify(sigma: Symbol3, threshold: float = 1e-9) -> Classification:
    """Sign classification of the symbol, scale-invariantly.

    The discriminant is compared after normalization by the fourth power of
    the largest coefficient magnitude, so ``classify(c * sigma)`` agrees
    with ``classify(sigma)`` for any c != 0.

    A batched symbol is classified row by row: ``kind`` then holds one
    :class:`SymbolKind` per row and ``delta`` one value per row, NaN where
    the fourth power of the scale over- or underflows (a point alone raises
    a :class:`DomainEvalError` there).
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    delta = value_of(discriminant(sigma))
    scale = max_of(abs(value_of(c)) for c in sigma.components)
    with np.errstate(all="ignore"):
        scale4 = np.float_power(scale, 4)  # rounds as a float's ** 4
        normalized = np.where(scale > 0, delta / scale4, 0.0)
    bad = (scale > 0) & ((scale4 == 0.0) | np.isinf(scale4))
    delta = raise_where(bad, lambda s: DomainEvalError(
        f"symbol coefficient scale {s:.6g}: its fourth power "
        f"{'overflows' if s > 1 else 'underflows'}"), delta, scale)
    kind = _KINDS[np.where(normalized > threshold, 0, np.where(normalized < -threshold, 1, 2))]
    return Classification(kind=kind, delta=delta, threshold=threshold)


_KINDS = np.array([SymbolKind.HYPERBOLIC, SymbolKind.ULTRAHYPERBOLIC, SymbolKind.SINGULAR],
                  dtype=object)


def hessian(sigma: Symbol3) -> Sym2Form:
    """Hessian quadratic of the cubic, with the combinatorial factor 36 dropped.

    With this normalization the iterated Hessian equals the discriminant on
    the nose (see :func:`hessian2`).
    """
    a1, a2, a3, a4 = sigma.components
    return Sym2Form(a1 * a3 - a2 * a2,
                    a1 * a4 - a3 * a2,
                    a2 * a4 - a3 * a3,
                    variance="contra")


def hessian2(sigma: Symbol3):
    """Iterated Hessian 4*g11*g22 - g12^2 of :func:`hessian`; equals the
    discriminant identically."""
    return _iterated_hessian(hessian(sigma))


def _iterated_hessian(h: Sym2Form):
    return 4 * h.g11 * h.g22 - h.g12 * h.g12


def wagner_metric(sigma: Symbol3, *, threshold: float = 1e-12) -> Sym2Form:
    """Covariant natural metric of a regular cubic.

    Coordinate formula: (4 / delta^(2/3)) ((a2 a4 - a3^2) dx^2
    + (a2 a3 - a1 a4) dx.dy + (a1 a3 - a2^2) dy^2), with delta^(2/3)
    computed as the square of the real cube root so the expression stays
    real for negative discriminants.  Agrees with cbrt(hessian2) times the
    inverse Hessian.  Definite for positive discriminant, indefinite for
    negative.
    """
    a1, a2, a3, a4 = sigma.components
    delta = discriminant(sigma)
    delta = _require_regular(delta, sigma.norm(), threshold, delta)
    croot = jets.cbrt(delta)
    factor = 4 / (croot * croot)
    return Sym2Form(factor * (a2 * a4 - a3 * a3),
                    factor * (a2 * a3 - a1 * a4),
                    factor * (a1 * a3 - a2 * a2),
                    variance="co")


def scaled_hessian(sigma: Symbol3, k: float, *, threshold: float = 1e-12) -> Sym2Form:
    """Discriminant-power rescaling of the Hessian: hessian2^k * hessian.

    ``k = -1/3`` yields the contravariant companion of
    :func:`wagner_metric` (its exact inverse), the weight for which the
    pairing of covectors is equivariant under chart changes.  Real-cube-root
    semantics apply whenever 3k is an integer, so negative discriminants
    need no complex detour.
    """
    h = hessian(sigma)
    h2 = _iterated_hessian(h)
    h = Sym2Form(*_require_regular(h2, sigma.norm(), threshold, h.components),
                 variance=h.variance)
    if k == 0:
        return h
    w = jets.real_power(h2, k)
    return Sym2Form(h.g11 * w, h.g12 * w, h.g22 * w, variance="contra")


def _require_regular(delta, scale, threshold: float, guarded):
    """``guarded``, checked for a coefficient ``scale`` whose fourth power
    is finite and a discriminant ``delta`` away from zero."""
    d = abs(value_of(delta))
    scale = max_of((scale, 1e-300))
    with np.errstate(over="ignore"):
        floor = threshold * np.float_power(scale, 4)  # rounds as a float's ** 4
    guarded = raise_where(np.isinf(floor), lambda s: DomainEvalError(
        f"symbol coefficient scale {s:.6g}: its fourth power overflows"), guarded, scale)
    return raise_where(d <= floor, lambda d, f: SingularSymbolError(
        f"symbol is singular: |discriminant| = {d:.3g} <= {f:.3g}"), guarded, d, floor)
