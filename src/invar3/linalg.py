"""Dense linear solves over the truncated-jet ring.

A system ``M x = b`` whose entries are jets at a common point is solved
order by order.  The constant-term matrix is LU-factorized once (LAPACK
``getrf``, partial pivoting), and everything else comes from that one
factorization: the determinant is the product of the U diagonal, signed
by the row interchanges, and every Taylor coefficient of the solution
follows from one triangular solve (``getrs``) against a convolution of
the already known coefficients.  The 2-norm condition number, which
callers use to scale residual checks, comes from the singular values of
the constant-term matrix.  This is exact truncated-series arithmetic, not
an approximation.

The LAPACK routines are called directly rather than through
``scipy.linalg.lu_factor``/``lu_solve``: on systems of a few unknowns the
wrappers' argument checks cost more than the factorization itself.  Each
coefficient is solved as its own right-hand side, which keeps every
solution coefficient bit-identical to a one-column ``lu_solve``.

Entries may be batched jets (one row per point).  Each point of a batch is
then solved on its own with the same LAPACK calls, and points whose
system is singular make the solve raise
:class:`~invar3.errors.BatchRowError` naming them.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgesdd, dgetrf, dgetrs

from .errors import BatchRowError, ConditioningWarning, SingularSymbolError
from .jets import Jet2, ncoef

__all__ = ["solve_jet_system", "JetSolveReport"]


class JetSolveReport:
    """Diagnostics of a jet-ring solve: determinant, condition number,
    residual (arrays with one entry per point for a batch)."""

    __slots__ = ("det", "cond", "residual")

    def __init__(self, det: float, cond: float, residual: float):
        self.det = det
        self.cond = cond
        self.residual = residual


def _common_order(entries) -> int:
    orders = [e.order for e in entries if isinstance(e, Jet2)]
    return min(orders) if orders else 0


def _coefficients(entries, nc: int) -> np.ndarray | None:
    """Rows of the first ``nc`` Taylor coefficients; numbers are constants.
    None when some entry holds a batch."""
    out = np.zeros((len(entries), nc))
    for k, e in enumerate(entries):
        if isinstance(e, Jet2):
            c = e.c
            if c.ndim == 2:
                return None
            out[k] = c[:nc]
        else:
            out[k, 0] = e
    return out


def _batch_coefficients(entries, nc: int) -> np.ndarray:
    """:func:`_coefficients` of a batch, the entries' axis second."""
    batch = next(len(e.c) for e in entries if isinstance(e, Jet2) and e.c.ndim == 2)
    out = np.zeros((batch, len(entries), nc))
    for k, e in enumerate(entries):
        if isinstance(e, Jet2):
            out[:, k] = e.c[..., :nc]
        else:
            out[:, k, 0] = e
    return out


@lru_cache(maxsize=None)
def _recurrence(order: int) -> tuple:
    """Per packed coefficient (i, j) of the solution, in graded order, the
    pairs (flat index of M's (p, q) coefficient, flat index of x's
    (i - p, j - q) coefficient) of the convolution that is subtracted,
    for (p, q) != (0, 0) in lexicographic order."""
    pairs = [(t - j, j) for t in range(order + 1) for j in range(t + 1)]
    index = {ij: k for k, ij in enumerate(pairs)}
    steps = []
    for (i, j) in pairs:
        terms = tuple((index[(p, q)], index[(i - p, j - q)])
                      for p in range(i + 1) for q in range(j + 1) if p or q)
        steps.append((index[(i, j)], terms))
    return tuple(steps)


def solve_jet_system(M, b, *, cond_warn: float = 1e12,
                     singular_message: str = "system matrix is singular"):
    """Solve M x = b with jet (or float) entries.

    Returns ``(x, report)`` where ``x`` is a list of jets at the common
    truncation order of the inputs.  Emits :class:`ConditioningWarning`
    when the constant-term matrix has condition number above
    ``cond_warn``; raises :class:`SingularSymbolError` when it is
    numerically singular (:class:`BatchRowError` naming the singular
    points of a batch).
    """
    n = len(b)
    entries = [e for row in M for e in row]
    order = min(_common_order(entries), _common_order(b))
    nc = ncoef(order)
    Mc = _coefficients(entries, nc)
    bc = None if Mc is None else _coefficients(b, nc)
    if bc is not None:
        X, det, cond, residual = _solve_point(Mc.reshape(n, n, nc), bc, order,
                                              cond_warn, singular_message)
        x = [Jet2._new(order, row) for row in X]
        return x, JetSolveReport(det=det, cond=cond, residual=residual)
    # a batch: each point solved on its own
    system = _batch_coefficients(entries + list(b), nc)
    batch = len(system)
    Mc = system[:, :n * n].reshape(batch, n, n, nc)
    bc = system[:, n * n:]
    X = np.empty((batch, n, nc))
    det, cond, residual = np.empty(batch), np.empty(batch), np.empty(batch)
    singular = []
    for r in range(batch):
        try:
            X[r], det[r], cond[r], residual[r] = _solve_point(
                Mc[r], bc[r], order, cond_warn, singular_message)
        except SingularSymbolError:
            singular.append(r)
    if singular:
        raise BatchRowError(singular)
    x = [Jet2._new(order, X[:, i]) for i in range(n)]
    return x, JetSolveReport(det=det, cond=cond, residual=residual)


def _solve_point(Mc: np.ndarray, bc: np.ndarray, order: int, cond_warn: float,
                 singular_message: str) -> tuple:
    """The solve at one point: coefficient arrays ``Mc`` (n, n, ncoef) and
    ``bc`` (n, ncoef) in, ``(X, det, cond, residual)`` out."""
    n, nc = bc.shape
    M0 = Mc[:, :, 0]
    lu, piv, info = dgetrf(M0)
    if info < 0 or not np.isfinite(lu).all():
        raise SingularSymbolError(singular_message)
    interchanges = np.count_nonzero(piv != np.arange(n))
    det = float(lu.diagonal().prod()) * (-1.0 if interchanges % 2 else 1.0)
    s = dgesdd(M0, compute_uv=0)[1]
    s_max, s_min = float(s[0]), float(s[-1])
    cond = s_max / s_min if s_min > 0.0 else math.inf
    if not math.isfinite(cond) or cond > 1e15:
        raise SingularSymbolError(singular_message)
    if cond > cond_warn:
        warnings.warn(f"condition number {cond:.3g} exceeds {cond_warn:.1g}",
                      ConditioningWarning, stacklevel=3)

    X = np.zeros((n, nc))
    for k, terms in _recurrence(order):
        acc = bc[:, k].copy()
        for kpq, ksrc in terms:
            acc -= Mc[:, :, kpq] @ X[:, ksrc]
        X[:, k] = dgetrs(lu, piv, acc)[0]

    residual = float(np.abs(M0 @ X[:, 0] - bc[:, 0]).max())
    scale = max(1.0, float(np.abs(bc).max()), float(np.abs(Mc).max()))
    if residual > 1e-8 * scale:
        warnings.warn(f"solve residual {residual:.3g} above 1e-8 of scale {scale:.3g}",
                      ConditioningWarning, stacklevel=3)
    return X, det, cond, residual
