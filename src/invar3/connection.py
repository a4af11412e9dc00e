"""Affine connections attached to regular cubic symbols.

Index convention, fixed once for the whole package: in a Christoffel value
``Gamma^k_{i j}`` the upper index k labels the output component, i labels
the differentiated field and j labels the differentiation direction, i.e.

    nabla_{d_j} d_i = Gamma^k_{i j} d_k.

Under this convention the covariant derivative of the stored cubic reads

    (nabla_l sigma)_{ijk} = d_l a_{ijk} + Gamma^i_{m l} a_{mjk}
                          + Gamma^j_{m l} a_{imk} + Gamma^k_{m l} a_{ijm}.

Two canonical connections are solved for pointwise:

* the parallel (Wagner) connection, the unique affine connection with
  ``nabla sigma = 0`` (torsion allowed, flat);
* the Chern connection, the unique torsion-free connection with
  ``nabla sigma = omega (x) sigma`` for a 1-form omega.

The torsion 1-form is the trace of the torsion tensor over its second
argument: ``theta = (T^2, -T^1)`` where ``T^k = Gamma^k_{2 1} - Gamma^k_{1 2}``
are the components of T(d_1, d_2).  With this sign the solved conformal
factor satisfies ``omega = -3 theta`` identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from .errors import JetOrderError, SingularSymbolError
from .jets import Jet2
from .linalg import solve_jet_system
from .symbol import Symbol3, discriminant, max_of, norm_of, value_of

__all__ = [
    "AffineConnection", "OneForm", "TwoForm", "TorsionTensor", "GroupType",
    "covariant_derivative_sym3", "wagner_connection", "chern_connection",
    "torsion", "torsion_form", "curvature", "exterior_derivative",
    "covariant_derivative_torsion", "covariant_derivative_oneform",
    "covariant_derivative_twoform", "group_type_test",
    "parallel_system", "conformal_system",
]


@dataclass(frozen=True)
class AffineConnection:
    """Eight Christoffel values, no symmetry assumed.

    ``gamma[k][i][j]`` holds Gamma^{k+1}_{(i+1)(j+1)} (zero-based storage of
    one-based indices); j is the differentiation direction.
    """

    gamma: tuple
    symmetric: bool = False

    def g(self, k: int, i: int, j: int):
        """Christoffel value with one-based indices."""
        return self.gamma[k - 1][i - 1][j - 1]

    def entries(self) -> list:
        return [self.gamma[k][i][j] for k in range(2) for i in range(2) for j in range(2)]

    def norm(self):
        return max_of(norm_of(e) for e in self.entries())

    def truncated(self, order: int) -> "AffineConnection":
        """The connection with its jet entries truncated to ``order``."""
        return AffineConnection(
            tuple(tuple(tuple(e.truncated(order) if isinstance(e, Jet2) else e for e in row)
                        for row in block) for block in self.gamma),
            self.symmetric)

    def min_order(self) -> int | None:
        """Smallest jet order among jet-valued entries; None if all are plain
        numbers (constant connections pose no order constraints)."""
        orders = [e.order for e in self.entries() if isinstance(e, Jet2)]
        return min(orders) if orders else None

    @classmethod
    def from_entries(cls, g111, g112, g121, g122, g211, g212, g221, g222,
                     symmetric: bool = False) -> "AffineConnection":
        """Build from the eight values Gamma^k_{ij} in lexicographic (k,i,j) order."""
        return cls(((((g111), (g112)), ((g121), (g122))),
                    (((g211), (g212)), ((g221), (g222)))), symmetric)

    @classmethod
    def zero(cls) -> "AffineConnection":
        return cls.from_entries(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, symmetric=True)


@dataclass(frozen=True)
class OneForm:
    """Differential 1-form components (coefficients of dx and dy)."""

    t1: Any
    t2: Any

    @property
    def components(self) -> tuple:
        return (self.t1, self.t2)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.t1 + other.t1, self.t2 + other.t2)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.t1 - other.t1, self.t2 - other.t2)

    def scale(self, factor) -> "OneForm":
        return OneForm(self.t1 * factor, self.t2 * factor)

    def norm(self):
        return max_of((norm_of(self.t1), norm_of(self.t2)))


@dataclass(frozen=True)
class TwoForm:
    """Differential 2-form: the single coefficient of dx ^ dy."""

    r: Any

    def norm(self) -> float:
        return norm_of(self.r)


@dataclass(frozen=True)
class TorsionTensor:
    """Components (T^1, T^2) of T(d_1, d_2) in the coordinate frame."""

    t1: Any
    t2: Any

    @property
    def components(self) -> tuple:
        return (self.t1, self.t2)

    def norm(self):
        return max_of((norm_of(self.t1), norm_of(self.t2)))


class GroupType(Enum):
    CONSTANT = "constant-type"
    SOLVABLE = "solvable-type"
    GENERIC = "generic"


# -- covariant derivative of the cubic ----------------------------------------

def _sigma_rows(gamma: AffineConnection, sigma: Symbol3, direction: int) -> list:
    """The four components of (nabla_l sigma) for l = direction (1 or 2)."""
    s0, s1, s2, s3 = sigma.components
    if isinstance(s0, Jet2):
        d = [(c.dx() if direction == 1 else c.dy()) for c in sigma.components]
    else:
        raise JetOrderError("covariant derivative needs jet components of order >= 1")
    l = direction
    g = gamma.g
    return [
        d[0] + 3 * (g(1, 1, l) * s0 + g(1, 2, l) * s1),
        d[1] + 2 * (g(1, 1, l) * s1 + g(1, 2, l) * s2) + g(2, 1, l) * s0 + g(2, 2, l) * s1,
        d[2] + g(1, 1, l) * s2 + g(1, 2, l) * s3 + 2 * (g(2, 1, l) * s1 + g(2, 2, l) * s2),
        d[3] + 3 * (g(2, 1, l) * s2 + g(2, 2, l) * s3),
    ]


def covariant_derivative_sym3(gamma: AffineConnection, sigma: Symbol3) -> list:
    """The 8 components of nabla sigma: directions x then y, components
    (111), (112), (122), (222) within each direction."""
    return _sigma_rows(gamma, sigma, 1) + _sigma_rows(gamma, sigma, 2)


# -- the two canonical solves ---------------------------------------------------

def parallel_system(sigma: Symbol3):
    """Matrix and right-hand side of the parallel-transport system.

    Unknown order: (G^1_11, G^1_21, G^2_11, G^2_21, G^1_12, G^1_22,
    G^2_12, G^2_22) -- the x-direction block then the y-direction block.
    The determinant of the assembled matrix is 81 * discriminant^2.
    """
    s0, s1, s2, s3 = sigma.components
    zero = 0.0
    block = [
        [3 * s0, 3 * s1, zero, zero],
        [2 * s1, 2 * s2, s0, s1],
        [s2, s3, 2 * s1, 2 * s2],
        [zero, zero, 3 * s2, 3 * s3],
    ]
    M = [[zero] * 8 for _ in range(8)]
    for r in range(4):
        for c in range(4):
            M[r][c] = block[r][c]
            M[4 + r][4 + c] = block[r][c]
    dx = [c.dx() for c in sigma.components]
    dy = [c.dy() for c in sigma.components]
    rhs = [-v for v in dx] + [-v for v in dy]
    return M, rhs


def wagner_connection(sigma: Symbol3) -> AffineConnection:
    """The unique affine connection making the regular cubic parallel.

    Components must be jets of order >= 1; the Christoffels come back as
    jets one order lower.  Raises for a singular symbol; warns when the
    8x8 solve is ill-conditioned.
    """
    _check_point_orders(sigma, 1)
    M, rhs = parallel_system(sigma)
    try:
        x, _ = solve_jet_system(M, rhs)
    except SingularSymbolError as err:
        raise SingularSymbolError("parallel connection: " + _sing(sigma)) from err
    g111, g121, g211, g221, g112, g122, g212, g222 = x
    return AffineConnection.from_entries(g111, g112, g121, g122,
                                         g211, g212, g221, g222, symmetric=False)


def conformal_system(sigma: Symbol3):
    """Matrix and right-hand side for the torsion-free conformal solve.

    Unknown order: (G^1_11, G^1_12, G^1_22, G^2_11, G^2_12, G^2_22, w1, w2)
    with G^k_{12} = G^k_{21}.  Rows: x-direction components (111), (112),
    (122), (222), then the y-direction ones.
    """
    s = sigma.components
    zero = 0.0
    # per-component collections of (weight on G^k_{i l}) with k, i one-based:
    # component (111): 3 G^1_{1l} s0 + 3 G^1_{2l} s1, etc.
    patterns = [
        [((1, 1), 3 * s[0]), ((1, 2), 3 * s[1])],
        [((1, 1), 2 * s[1]), ((1, 2), 2 * s[2]), ((2, 1), s[0]), ((2, 2), s[1])],
        [((1, 1), s[2]), ((1, 2), s[3]), ((2, 1), 2 * s[1]), ((2, 2), 2 * s[2])],
        [((2, 1), 3 * s[2]), ((2, 2), 3 * s[3])],
    ]
    sym_col = {(1, 1, 1): 0, (1, 1, 2): 1, (1, 2, 1): 1, (1, 2, 2): 2,
               (2, 1, 1): 3, (2, 1, 2): 4, (2, 2, 1): 4, (2, 2, 2): 5}
    rows, rhs = [], []
    for l in (1, 2):
        d = [(c.dx() if l == 1 else c.dy()) for c in sigma.components]
        for comp in range(4):
            row = [zero] * 8
            for (k, i), weight in patterns[comp]:
                col = sym_col[(k, i, l)]
                row[col] = row[col] + weight
            row[5 + l] = -s[comp]  # the -w_l sigma_comp column
            rows.append(row)
            rhs.append(-d[comp])
    return rows, rhs


def chern_connection(sigma: Symbol3) -> tuple[AffineConnection, OneForm]:
    """The unique torsion-free connection preserving the symbol's conformal
    class, together with the conformal factor 1-form omega."""
    _check_point_orders(sigma, 1)
    M, rhs = conformal_system(sigma)
    try:
        x, _ = solve_jet_system(M, rhs)
    except SingularSymbolError as err:
        raise SingularSymbolError("conformal connection: " + _sing(sigma)) from err
    g111, g112, g122, g211, g212, g222, w1, w2 = x
    gamma = AffineConnection.from_entries(g111, g112, g112, g122,
                                          g211, g212, g212, g222, symmetric=True)
    return gamma, OneForm(w1, w2)


def _sing(sigma: Symbol3) -> str:
    # built only when a solve fails: the discriminant costs a few dozen
    # jet products
    return f"discriminant {value_of(discriminant(sigma)):.3g} at this point"


def _check_point_orders(sigma: Symbol3, minimum: int) -> None:
    for c in sigma.components:
        if not isinstance(c, Jet2) or c.order < minimum:
            raise JetOrderError(f"symbol components must be jets of order >= {minimum}")


# -- torsion, curvature, derived forms -----------------------------------------

def torsion(gamma: AffineConnection) -> TorsionTensor:
    """T(d_1, d_2) = nabla_{d_1} d_2 - nabla_{d_2} d_1."""
    g = gamma.g
    return TorsionTensor(g(1, 2, 1) - g(1, 1, 2), g(2, 2, 1) - g(2, 1, 2))


def torsion_form(gamma: AffineConnection) -> OneForm:
    """Trace of the torsion tensor over its second argument.

    The sign is the package-wide convention: with it, the conformal factor
    of :func:`chern_connection` equals -3 times this form.
    """
    t = torsion(gamma)
    return OneForm(t.t2, -t.t1)


def curvature(gamma: AffineConnection) -> list:
    """Coordinate curvature components R^k_j of R(d_1, d_2) as TwoForms.

    ``result[k-1][j-1]`` is the dx^dy coefficient of the endomorphism slot
    (k, j).  Christoffel entries must carry jets of order >= 1.
    """
    g = gamma.g
    for e in gamma.entries():
        if not isinstance(e, Jet2) or e.order < 1:
            raise JetOrderError("curvature needs Christoffel jets of order >= 1")
    out = []
    for k in (1, 2):
        row = []
        for j in (1, 2):
            val = g(k, j, 2).dx() - g(k, j, 1).dy()
            for m in (1, 2):
                val = val + g(m, j, 2) * g(k, m, 1) - g(m, j, 1) * g(k, m, 2)
            row.append(TwoForm(val))
        out.append(row)
    return out


def exterior_derivative(alpha: OneForm) -> TwoForm:
    """d(alpha) = (d_x alpha_2 - d_y alpha_1) dx ^ dy."""
    for c in alpha.components:
        if not isinstance(c, Jet2) or c.order < 1:
            raise JetOrderError("exterior derivative needs component jets of order >= 1")
    return TwoForm(alpha.t2.dx() - alpha.t1.dy())


def covariant_derivative_torsion(gamma: AffineConnection, t: TorsionTensor) -> list:
    """Components (nabla_l T)^k of the covariant derivative of the torsion
    tensor, returned as [[k=1,l=1], [k=1,l=2], [k=2,l=1], [k=2,l=2]]."""
    g = gamma.g
    out = []
    for k in (1, 2):
        tk = t.components[k - 1]
        if not isinstance(tk, Jet2) or tk.order < 1:
            raise JetOrderError("torsion components must be jets of order >= 1")
        for l in (1, 2):
            d = tk.dx() if l == 1 else tk.dy()
            val = (d + g(k, 1, l) * t.t1 + g(k, 2, l) * t.t2
                   - (g(1, 1, l) + g(2, 2, l)) * tk)
            out.append(val)
    return out


def covariant_derivative_oneform(gamma: AffineConnection, alpha: OneForm) -> list:
    """Components H[i][l] = (nabla_l alpha)_i of the covariant derivative."""
    g = gamma.g
    H = []
    for i in (1, 2):
        ai = alpha.components[i - 1]
        if not isinstance(ai, Jet2) or ai.order < 1:
            raise JetOrderError("1-form components must be jets of order >= 1")
        row = []
        for l in (1, 2):
            d = ai.dx() if l == 1 else ai.dy()
            row.append(d - g(1, i, l) * alpha.t1 - g(2, i, l) * alpha.t2)
        H.append(row)
    return H


def covariant_derivative_twoform(gamma: AffineConnection, omega: TwoForm) -> list:
    """Components [(nabla_1 Omega)_12, (nabla_2 Omega)_12] of the covariant
    derivative of a 2-form with density r."""
    r = omega.r
    if not isinstance(r, Jet2) or r.order < 1:
        raise JetOrderError("2-form density must be a jet of order >= 1")
    g = gamma.g
    out = []
    for l in (1, 2):
        d = r.dx() if l == 1 else r.dy()
        out.append(d - (g(1, 1, l) + g(2, 2, l)) * r)
    return out


# -- group-type classification ---------------------------------------------------

def group_type_test(symbol_field: Symbol3, points, *, tol: float = 1e-8) -> GroupType:
    """Classify a symbol field by its torsion behaviour at the sample points.

    Constant-type when the torsion of the parallel connection vanishes
    everywhere; solvable-type when it is nonzero somewhere but covariantly
    constant everywhere; generic otherwise.  Raises for a singular symbol
    at any sample.
    """
    torsion_seen = False
    derivative_seen = False
    for (x, y) in points:
        sp = symbol_field.at(x, y, 2)
        gamma = wagner_connection(sp)
        t = torsion(gamma)
        scale = max(1.0, gamma.norm())
        if t.norm() > tol * scale:
            torsion_seen = True
            dt = covariant_derivative_torsion(gamma, t)
            dscale = max(1.0, gamma.norm() * max(1.0, t.norm()))
            if max(norm_of(v) for v in dt) > tol * dscale:
                derivative_seen = True
    if not torsion_seen:
        return GroupType.CONSTANT
    if not derivative_seen:
        return GroupType.SOLVABLE
    return GroupType.GENERIC
