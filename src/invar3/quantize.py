"""Quantization of symbols into operators and the inverse splitting.

The symmetric derivation attached to a connection (and, in the bundle
variant, a connection 1-form theta) acts on polynomials in the fibre
variables (w1, w2) whose coefficients are linear combinations of formal
derivatives f_{ij} of a test function:

    D = w1 (d_x + theta1) + w2 (d_y + theta2)
        - sum_{j,k} Gamma^1_{jk} w_j w_k d_{w1}
        - sum_{j,k} Gamma^2_{jk} w_j w_k d_{w2}.

Quantizing an order-k symbol applies D k times to the formal function,
pairs the resulting degree-k polynomial with the stored symbol
coefficients and divides by k!.  With the stored binomial conventions all
of that collapses to: read the w1^(k-m) w2^m coefficients directly against
the m-th stored component.  The principal part of the result always equals
the input symbol.

Operator coefficients follow the package-wide stored convention

    A = a1 dx^3 + 3 a2 dx^2 dy + 3 a3 dx dy^2 + a4 dy^3
      + b1 dx^2 + 2 b2 dx dy + b3 dy^2 + c1 dx + c2 dy + a0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .connection import AffineConnection, OneForm, chern_connection, wagner_connection
from .errors import JetOrderError
from .expr import coefficient_field, field_at
from .jets import Jet2
from .symbol import Symbol3, max_of, norm_of

__all__ = [
    "Operator3", "TotalSymbol", "FormalOperator",
    "sym_derivation", "quantize", "quantize_sum", "split", "subsymbol",
    "apply_operator", "RAW_SLOTS",
]

# stored-slot name -> (multi-index, binomial weight): raw d^alpha coefficient
# of the operator is weight * stored value.
RAW_SLOTS = {
    "a1": ((3, 0), 1.0), "a2": ((2, 1), 3.0), "a3": ((1, 2), 3.0), "a4": ((0, 3), 1.0),
    "b1": ((2, 0), 1.0), "b2": ((1, 1), 2.0), "b3": ((0, 2), 1.0),
    "c1": ((1, 0), 1.0), "c2": ((0, 1), 1.0), "a0": ((0, 0), 1.0),
}

_SLOT_NAMES = tuple(RAW_SLOTS)


@dataclass(frozen=True)
class Operator3:
    """Ten coefficients of a third-order scalar operator (stored convention)."""

    a1: Any
    a2: Any
    a3: Any
    a4: Any
    b1: Any
    b2: Any
    b3: Any
    c1: Any
    c2: Any
    a0: Any

    @property
    def components(self) -> tuple:
        return tuple(getattr(self, n) for n in _SLOT_NAMES)

    def at(self, x, y, order: int) -> "Operator3":
        """Jets of the coefficients at a point, or batched jets at a
        sequence of points."""
        return Operator3(*(field_at(c, x, y, order) for c in self.components))

    def map(self, fn) -> "Operator3":
        return Operator3(*(fn(c) for c in self.components))

    def principal_symbol(self) -> Symbol3:
        return Symbol3(self.a1, self.a2, self.a3, self.a4)

    def raw(self) -> dict:
        """Raw d^alpha coefficients keyed by multi-index (i, j)."""
        out = {}
        for name, (alpha, weight) in RAW_SLOTS.items():
            out[alpha] = getattr(self, name) * weight
        return out

    @classmethod
    def from_raw(cls, raw: dict) -> "Operator3":
        vals = {}
        for name, (alpha, weight) in RAW_SLOTS.items():
            vals[name] = raw.get(alpha, 0.0) * (1.0 / weight)
        return cls(**vals)

    def norm(self):
        return max_of(norm_of(c) for c in self.components)


@dataclass(frozen=True)
class TotalSymbol:
    """Connection-dependent decomposition (sigma3, sigma2, sigma1, sigma0).

    sigma2 is stored as (a11, a12, a22) with the form
    a11 dx^2 + 2 a12 dx.dy + a22 dy^2; sigma1 as (c1, c2); sigma0 a scalar.
    """

    sigma3: Symbol3
    sigma2: tuple
    sigma1: tuple
    sigma0: Any


class FormalOperator:
    """Raw coefficients of an expanded operator, keyed by multi-index."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = coeffs

    def coefficient(self, i: int, j: int):
        return self.coeffs.get((i, j), 0.0)

    def as_operator3(self) -> Operator3:
        for alpha in self.coeffs:
            if alpha[0] + alpha[1] > 3:
                raise ValueError(f"multi-index {alpha} out of range for a 3rd-order operator")
        return Operator3.from_raw(self.coeffs)


# -- the symmetric derivation -----------------------------------------------------

def sym_derivation(gamma: AffineConnection, theta: OneForm | None = None):
    """Return the one-step applier of the symmetric derivation.

    The applier maps {(p, q): {(i, j): coeff}} -- a polynomial in
    (w1, w2) with formal-derivative coefficients -- to its image.  Plain
    numbers are accepted as coefficients; their horizontal derivatives
    vanish.
    """
    g = gamma.g

    def apply(poly: dict) -> dict:
        out: dict = {}

        def acc(w, f, value):
            if isinstance(value, (int, float)) and value == 0.0:
                return
            slot = out.setdefault(w, {})
            slot[f] = slot.get(f, 0.0) + value

        for (p, q), lin in poly.items():
            for (i, j), c in lin.items():
                # w1 (d_x + theta1)
                acc((p + 1, q), (i + 1, j), c)
                if isinstance(c, Jet2):
                    acc((p + 1, q), (i, j), c.dx())
                if theta is not None:
                    acc((p + 1, q), (i, j), c * theta.t1)
                # w2 (d_y + theta2)
                acc((p, q + 1), (i, j + 1), c)
                if isinstance(c, Jet2):
                    acc((p, q + 1), (i, j), c.dy())
                if theta is not None:
                    acc((p, q + 1), (i, j), c * theta.t2)
                # -Gamma^l_{jk} w_j w_k d_{w_l}, ordered pairs (j, k)
                if p:
                    for (wj, wk) in ((1, 1), (1, 2), (2, 1), (2, 2)):
                        tgt = (p - 1 + (wj == 1) + (wk == 1), q + (wj == 2) + (wk == 2))
                        acc(tgt, (i, j), (-p) * g(1, wj, wk) * c)
                if q:
                    for (wj, wk) in ((1, 1), (1, 2), (2, 1), (2, 2)):
                        tgt = (p + (wj == 1) + (wk == 1), q - 1 + (wj == 2) + (wk == 2))
                        acc(tgt, (i, j), (-q) * g(2, wj, wk) * c)
        return out

    return apply


def _symbol_components(sigma) -> tuple[int, tuple]:
    """Order and stored components of a symbol of order <= 3."""
    if isinstance(sigma, Symbol3):
        return 3, sigma.components
    if isinstance(sigma, (tuple, list)):
        if len(sigma) == 3:
            return 2, tuple(sigma)
        if len(sigma) == 2:
            return 1, tuple(sigma)
        raise ValueError(f"cannot interpret length-{len(sigma)} tuple as a symbol")
    return 0, (sigma,)


def quantize(sigma, gamma: AffineConnection, theta: OneForm | None = None) -> FormalOperator:
    """Operator with principal part ``sigma``, built against the connection.

    ``sigma`` is a :class:`Symbol3` (order 3), an (a11, a12, a22) triple
    (order 2), a (c1, c2) pair (order 1) or a scalar (order 0).  For an
    order-k symbol the Christoffel entries must carry jets of order at
    least k - 2 (they get differentiated k - 2 times in the expansion).
    """
    k, comps = _symbol_components(sigma)
    return _pair_with_symbol(_derivation_powers(gamma, theta, k)[k], k, comps)


def _derivation_powers(gamma: AffineConnection, theta, k: int) -> list:
    """D^0 .. D^k of the symmetric derivation applied to the formal function,
    once the jets are deep enough for an order-k quantization."""
    gamma_order = gamma.min_order()
    if k >= 3 and gamma_order is not None and gamma_order < k - 2:
        raise JetOrderError(
            f"order-{k} quantization needs Christoffel jets of order >= {k - 2}")
    if theta is not None and k >= 2:
        theta_orders = [c.order for c in theta.components if isinstance(c, Jet2)]
        if theta_orders and min(theta_orders) < k - 1:
            raise JetOrderError(
                f"order-{k} bundle quantization needs connection-form jets of order >= {k - 1}")
    D = sym_derivation(gamma, theta)
    polys = [{(0, 0): {(0, 0): 1.0}}]
    for _ in range(k):
        polys.append(D(polys[-1]))
    return polys


def _pair_with_symbol(poly: dict, k: int, comps: tuple) -> FormalOperator:
    """Read the w1^(k-m) w2^m coefficients of D^k against the stored
    components of an order-k symbol."""
    out: dict = {}
    for m in range(k + 1):
        lin = poly.get((k - m, m), {})
        s = comps[m]
        for f, c in lin.items():
            out[f] = out.get(f, 0.0) + s * c
    return FormalOperator(out)


# -- splitting ------------------------------------------------------------------

def _connection_for(sigma3: Symbol3, connection_choice: str):
    if connection_choice == "chern":
        gamma, _ = chern_connection(sigma3)
        return gamma
    if connection_choice == "wagner":
        return wagner_connection(sigma3)
    raise ValueError(f"unknown connection choice {connection_choice!r}")


def split(op: Operator3, connection_choice: str = "chern",
          theta: OneForm | None = None,
          gamma: AffineConnection | None = None) -> TotalSymbol:
    """Peel an operator into its total symbol against the chosen connection.

    Coefficients must be jets of order >= 2.  The order-3 slot is the
    principal symbol exactly; lower slots depend on the connection (and on
    ``theta`` in the bundle variant).  ``gamma`` overrides the connection
    solve when the caller already has it.
    """
    for c in op.components:
        if not isinstance(c, Jet2) or c.order < 2:
            raise JetOrderError("splitting needs coefficient jets of order >= 2")
    sigma3 = op.principal_symbol()
    if gamma is None:
        gamma = _connection_for(sigma3, connection_choice)
    raw = dict(op.raw())
    # one chain D, D^2, D^3 of the derivation quantizes all three parts
    powers = _derivation_powers(gamma, theta, 3)

    def subtract(k: int, comps: tuple):
        for alpha, c in _pair_with_symbol(powers[k], k, comps).coeffs.items():
            raw[alpha] = raw.get(alpha, 0.0) - c

    subtract(3, sigma3.components)
    sigma2 = (raw.get((2, 0), 0.0), raw.get((1, 1), 0.0) * 0.5, raw.get((0, 2), 0.0))
    subtract(2, sigma2)
    sigma1 = (raw.get((1, 0), 0.0), raw.get((0, 1), 0.0))
    subtract(1, sigma1)
    sigma0 = raw.get((0, 0), 0.0)
    return TotalSymbol(sigma3=sigma3, sigma2=sigma2, sigma1=sigma1, sigma0=sigma0)


def subsymbol(op: Operator3, theta: OneForm | None = None,
              gamma: AffineConnection | None = None) -> tuple:
    """Order-2 leading part of the operator minus its quantized principal
    symbol (Chern connection), as a stored (a11, a12, a22) triple.
    ``gamma`` overrides the Chern solve when the caller already has it."""
    for c in op.components:
        if not isinstance(c, Jet2) or c.order < 2:
            raise JetOrderError("subsymbol needs coefficient jets of order >= 2")
    sigma3 = op.principal_symbol()
    if gamma is None:
        gamma, _ = chern_connection(sigma3)
    raw = dict(op.raw())
    for alpha, c in quantize(sigma3, gamma, theta).coeffs.items():
        raw[alpha] = raw.get(alpha, 0.0) - c
    return (raw.get((2, 0), 0.0), raw.get((1, 1), 0.0) * 0.5, raw.get((0, 2), 0.0))


def apply_operator(op: Operator3, f, p: tuple[float, float], *, order: int = 3):
    """Apply the operator to a scalar field at a point.

    ``f`` is a field callable (x, y, order) -> Jet2 (or an Expr/number,
    normalized via the usual coefficient-field lifting); the operator
    coefficients are evaluated (or truncated) to values at ``p``.
    """
    fj = coefficient_field(f)(p[0], p[1], order)
    if fj.order < 3:
        raise JetOrderError("applying a third-order operator needs a 3-jet of the field")
    total = 0.0
    for name, (alpha, weight) in RAW_SLOTS.items():
        c = getattr(op, name)
        if isinstance(c, Jet2):
            v = c.value
        elif isinstance(c, (int, float)):
            v = float(c)
        else:
            v = coefficient_field(c)(p[0], p[1], 0).value
        total += v * weight * fj.partial(*alpha)
    return total


def quantize_sum(total: TotalSymbol, gamma: AffineConnection,
                 theta: OneForm | None = None) -> Operator3:
    """Assemble an operator from a total symbol against a connection (the
    inverse of :func:`split`)."""
    # one chain D, D^2, D^3 of the derivation quantizes all four parts
    powers = _derivation_powers(gamma, theta, 3)
    raw: dict = {}
    for part in (total.sigma3, total.sigma2, total.sigma1, total.sigma0):
        k, comps = _symbol_components(part)
        for alpha, c in _pair_with_symbol(powers[k], k, comps).coeffs.items():
            raw[alpha] = raw.get(alpha, 0.0) + c
    return Operator3.from_raw(raw)
