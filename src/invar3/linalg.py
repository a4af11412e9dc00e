"""Dense linear solves over the truncated-jet ring.

``M x = b`` with jet entries is solved order by order from one LU
factorization of the constant-term matrix (LAPACK ``getrf``): the
determinant is the signed product of U's diagonal, each Taylor coefficient
of x one triangular solve (``getrs``) against a convolution of the known
ones; the condition number comes from the singular values.  Entries may be
numbers, one-point jets or batched jets (a row per point), and one pass of
the recurrence serves all rows: the convolution (a degree's terms at once),
the determinants, numpy's SVD and the checks are stacked.  A term's M x is
summed from zero one column at a time, as numpy's non-BLAS matmul does on a
point's strided coefficients.  LAPACK stays one matrix and one column per
call: a many-column ``getrs`` changes last bits (6183 of 8000 columns at
n = 3, 7375 of 8000 at n = 8), so does ``numpy.linalg.solve``, and a
stacked ``scipy.linalg.solve`` has a fixed cost per call that loses on
small batches.  So each row is bit-identical to its system solved alone.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import ConditioningWarning, SingularSymbolError, raise_where
from .jets import Jet2, _make, ncoef, pack_index

__all__ = ["solve_jet_system", "JetSolveReport"]


class JetSolveReport(NamedTuple):
    """A jet-ring solve's diagnostics (arrays, one entry per point, for a batch)."""

    det: float
    cond: float
    residual: float


def _coefficients(entries, nc: int) -> np.ndarray:
    """Every entry's first ``nc`` coefficients at every point: (points, entries, nc)."""
    batch = max((len(e.c) for e in entries if isinstance(e, Jet2) and e.c.ndim == 2), default=1)
    out = np.zeros((batch, len(entries), nc))
    for k, e in enumerate(entries):
        if isinstance(e, Jet2):
            out[:, k] = e.c[..., :nc]
        else:
            out[:, k, 0] = e
    return out


def _singular_values(M0: np.ndarray) -> np.ndarray:
    """Singular values of finite matrices; NaN where one does not converge."""
    try:
        return np.linalg.svd(M0, compute_uv=False)
    except np.linalg.LinAlgError:  # numpy fails the whole stack: split it
        return (np.concatenate([_singular_values(m[None]) for m in M0]) if len(M0) > 1
                else np.full(M0.shape[:2], np.nan))


def solve_jet_system(M, b, *, cond_warn: float = 1e12,
                     singular_message: str = "system matrix is singular"):
    """Solve M x = b with jet (or float) entries.

    Returns ``(x, report)``, ``x`` a list of jets at the inputs' common
    order.  Warns (:class:`ConditioningWarning`, once per check, with the
    worst point) when the constant-term matrix's condition number exceeds
    ``cond_warn`` or the residual is large.  Raises (on a batch, records
    with NaN rows) a :class:`SingularSymbolError` where it is numerically
    singular, naming the failed check after ``singular_message``: a
    factorization that is not finite, or a condition number above 1e15
    (with the largest singular value when the smallest is 0).
    """
    n = len(b)
    entries = [e for row in M for e in row] + list(b)
    orders = [[e.order for e in part if isinstance(e, Jet2)] for part in (entries[:n * n], b)]
    order = min(min(o, default=0) for o in orders)
    system = _coefficients(entries, ncoef(order))
    batch, _, nc = system.shape
    Mc, bc = system[:, :n * n].reshape(batch, n, n, nc), system[:, n * n:]
    point = all(not isinstance(e, Jet2) or e.c.ndim == 1 for e in entries)

    factors = [dgetrf(m) for m in Mc[..., 0]]
    lu = np.array([f[0] for f in factors]).reshape(batch, n, n)
    finite = np.isfinite(lu).all(axis=(1, 2))
    swaps = np.array([f[1] for f in factors]).reshape(batch, n) != np.arange(n)
    det = lu.diagonal(axis1=1, axis2=2).prod(axis=1) * np.where(swaps.sum(1) % 2, -1.0, 1.0)
    s = np.full((batch, n), np.nan)
    s[finite] = _singular_values(Mc[finite, :, :, 0])
    with np.errstate(all="ignore"):
        cond = np.where(s[:, -1] > 0.0, s[:, 0] / s[:, -1], np.inf)
    ok = finite & (cond <= 1e15)

    def singular(fin, c, large, small):
        zero = f" (smallest singular value 0, largest {large:.3g})" if small == 0 else ""
        return SingularSymbolError(f"{singular_message}: " + (
            f"condition number {c:.3g} above 1e15{zero}" if fin else "LU factorization is not finite"))
    named = (finite, cond, s[:, 0], s[:, -1])
    raise_where(~ok[0] if point else ~ok, singular, (), *(v[0] if point else v for v in named))
    if (ok & (cond > cond_warn)).any():
        warnings.warn(f"condition number {cond[ok].max():.3g} exceeds {cond_warn:.1g}",
                      ConditioningWarning, stacklevel=2)

    X, res = _taylor(Mc, bc, [f[:2] for f in factors], order)
    X[~ok] = res[~ok] = det[~ok] = cond[~ok] = np.nan
    scale = np.fmax(np.fmax(1.0, np.abs(bc).max(axis=(1, 2))), np.abs(Mc).max(axis=(1, 2, 3)))
    loose = np.where(res > 1e-8 * scale, res / scale, 0.0)
    if loose.any():
        w = loose.argmax()
        warnings.warn(f"solve residual {res[w]:.3g} above 1e-8 of scale {scale[w]:.3g}",
                      ConditioningWarning, stacklevel=2)
    if point:  # one-point jets and a report of floats
        X, det, cond, res = X[0], float(det[0]), float(cond[0]), float(res[0])
    x = [_make(order, X[..., i, :]) for i in range(n)]
    return x, JetSolveReport(det=det, cond=cond, residual=res)


@lru_cache(maxsize=None)
def _recurrence(order: int) -> tuple:
    """Per degree t of x's Taylor coefficients: their slice; per term of their
    convolutions, m-major, the flat indices of M's (p, q) and x's (i - p, j - q)
    coefficient; per m the slices (of coefficients, of terms) pairing each
    coefficient with its m-th term, (p, q) != (0, 0) in lexicographic order.
    (i, j) has (i + 1)(j + 1) - 1 terms: those with an m-th are a middle run."""
    steps = []
    for t in range(order + 1):
        terms = [[(pack_index(p, q), pack_index(t - c - p, c - q))
                  for p in range(t - c + 1) for q in range(c + 1) if p or q]
                 for c in range(t + 1)]
        flat, chain = [], []
        for m in range(max(map(len, terms))):
            run = [c for c, ts in enumerate(terms) if len(ts) > m]
            chain.append((slice(run[0], run[-1] + 1), slice(len(flat), len(flat) + len(run))))
            flat += [terms[c][m] for c in run]
        steps.append((slice(pack_index(t, 0), pack_index(0, t) + 1),
                      *np.array(flat, int).reshape(-1, 2).T, chain))
    return tuple(steps)


@np.errstate(all="ignore")  # a failed row computes to inf or NaN
def _taylor(Mc: np.ndarray, bc: np.ndarray, lus: list, order: int) -> tuple:
    """The Taylor coefficients X (rows, n, ncoef) of every row's solution,
    in one pass of the recurrence over all rows, and each row's residual."""
    rows, n, nc = bc.shape
    # slabs of (M's column index, coefficients, equations, rows)
    MT, bT = np.ascontiguousarray(Mc.transpose(2, 3, 1, 0)), bc.transpose(2, 1, 0)
    XT = np.empty((n, nc, rows))
    for ks, kpq, ksrc, chain in _recurrence(order):
        # each term's M x summed from zero one column at a time (numpy's
        # non-BLAS matmul order), the terms subtracted from b in turn, one
        # getrs per row and coefficient: a one-point solve's arithmetic
        acc = bT[ks].copy()
        if chain:  # degrees above 0
            products, conv = MT[:, kpq], np.zeros((len(kpq), n, rows))
            products *= XT[:, ksrc, None]
            for column in products:
                conv += column
            for coefficients, terms in chain:
                acc[coefficients] -= conv[terms]
        acc = np.ascontiguousarray(acc.transpose(0, 2, 1))
        for columns in acc:
            for (f, p), c in zip(lus, columns):
                dgetrs(f, p, c, 0, 1)  # overwrite_b: solved in place
        XT[:, ks] = acc.transpose(2, 0, 1)
    X = np.ascontiguousarray(XT.transpose(2, 0, 1))
    # per matrix the strides of one point's M0 @ X0, so numpy takes the same loop
    return X, np.abs((Mc[..., 0] @ X[..., :1])[..., 0] - bc[..., 0]).max(axis=1)
