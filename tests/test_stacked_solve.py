"""The stacked jet-ring solve against a per-row reference, bit for bit.

``solve_jet_system`` runs one pass of the Taylor recurrence over all rows of
a batch.  ``reference_row`` below is the one-point solve it replaced: LAPACK
``getrf``/``getrs`` on one matrix, the convolution as one matmul per term,
and the condition, residual and scale checks of one point.  The stacked solve
must give the same X, det, cond and residual at every row (failed rows NaN),
including rows that are exactly singular, non-finite or ill-conditioned.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgesdd, dgetrf, dgetrs

from invar3.errors import ConditioningWarning, SingularSymbolError
from invar3.jets import Jet2, ncoef
from invar3.linalg import solve_jet_system


def reference_row(Mc, bc, order):
    """One point: coefficient arrays ``Mc`` (n, n, ncoef) and ``bc`` (n, ncoef)
    in, ``(X, det, cond, residual)`` out; raises on a singular point."""
    n, nc = bc.shape
    M0 = Mc[:, :, 0]
    lu, piv, info = dgetrf(M0)
    if info < 0 or not np.isfinite(lu).all():
        raise SingularSymbolError("LU factorization is not finite")
    interchanges = np.count_nonzero(piv != np.arange(n))
    det = float(lu.diagonal().prod()) * (-1.0 if interchanges % 2 else 1.0)
    s = dgesdd(M0, compute_uv=0)[1]
    s_max, s_min = float(s[0]), float(s[-1])
    cond = s_max / s_min if s_min > 0.0 else math.inf
    if not math.isfinite(cond) or cond > 1e15:
        raise SingularSymbolError(f"condition number {cond:.3g} above 1e15")
    pairs = [(t - j, j) for t in range(order + 1) for j in range(t + 1)]
    index = {ij: k for k, ij in enumerate(pairs)}
    X = np.zeros((n, nc))
    for (i, j) in pairs:
        acc = bc[:, index[(i, j)]].copy()
        for p in range(i + 1):
            for q in range(j + 1):
                if p or q:
                    acc -= Mc[:, :, index[(p, q)]] @ X[:, index[(i - p, j - q)]]
        X[:, index[(i, j)]] = dgetrs(lu, piv, acc)[0]
    residual = float(np.abs(M0 @ X[:, 0] - bc[:, 0]).max())
    return X, det, cond, residual


def reference(Mc, bc, order):
    """Every row alone: X, (det, cond, residual) and which rows failed (NaN)."""
    rows, n, _, nc = Mc.shape
    X, report = np.full((rows, n, nc), np.nan), np.full((3, rows), np.nan)
    failed = np.zeros(rows, bool)
    for r in range(rows):
        try:
            X[r], *values = reference_row(Mc[r], bc[r], order)
        except SingularSymbolError:
            failed[r] = True
            continue
        report[:, r] = values
    return X, report, failed


PLANTS = (None, "singular", "nan M", "nan M0", "inf b", "ill")


def planted_system(n, order, rows, seed, point, plants):
    """Entries of a system with ``rows`` rows and per-row coefficient arrays
    (rows, n, n, ncoef), (rows, n, ncoef) that describe exactly those entries.

    A point system mixes numbers and one-point jets (one row); a batch mixes
    numbers, one-point jets (the same at every row) and batched jets; there
    the entries a plant touches are batched: those of the matrix in
    equations 0, 1 and n-1, and b[0]."""
    rng = np.random.default_rng(seed)
    nc = ncoef(order)
    Mc = rng.uniform(-1.0, 1.0, (rows, n, n, nc))
    Mc[..., 0] += np.eye(n) * rng.uniform(2.0, 4.0, (rows, 1, n)) * rng.choice([-1, 1], n)
    bc = rng.uniform(-2.0, 2.0, (rows, n, nc))
    for r, plant in enumerate(plants):
        if plant == "singular":
            Mc[r, 0, :, 0] = Mc[r, 1, :, 0]
        elif plant == "nan M":
            Mc[r, 0, rng.integers(n), rng.integers(nc)] = np.nan
        elif plant == "nan M0":
            Mc[r, 0, rng.integers(n), 0] = np.nan
        elif plant == "inf b":
            bc[r, 0, rng.integers(nc)] = -np.inf
        elif plant == "ill":
            Mc[r, n - 1, :, 0] *= 10.0 ** -rng.uniform(12.5, 14.5)

    def entry(c, kind, up):
        # kind 0 a number, 1 a one-point jet, 2 a batched jet; ``up`` orders
        # above the system's, whose extra coefficients the solve truncates
        if kind == 0:
            return float(c[0, 0])
        c = np.concatenate((c, rng.uniform(-1.0, 1.0, (rows, ncoef(order + up) - nc))), axis=1)
        return Jet2(order + up, c[0] if kind == 1 else c)

    def kind(touched):
        return 2 if touched and not point else int(rng.integers(0, 2 if point else 3))
    planted = any(plants)
    M = [[entry(Mc[:, i, j], kind(planted and i in (0, 1, n - 1)), int(rng.integers(0, 2)))
          for j in range(n)] for i in range(n)]
    b = [entry(bc[:, i], kind(planted and i == 0), int(rng.integers(0, 2))) for i in range(n)]
    # one jet at the system's order in M and in b fixes the common order
    M[n - 1][n - 1] = entry(Mc[:, n - 1, n - 1], 1 if point else 2, 0)
    b[n - 1] = entry(bc[:, n - 1], 1 if point else 2, 0)

    def coefficients(e):
        if isinstance(e, Jet2):
            return np.broadcast_to(e.c[..., :nc], (rows, nc))
        return np.broadcast_to(np.r_[e, np.zeros(nc - 1)], (rows, nc))
    # packed (rows, entries, ncoef) as the solve packs them: numpy's matmul
    # picks BLAS or its own loop by the strides, and so the residual's bits
    system = np.stack([coefficients(e) for row in M + [b] for e in row], axis=1)
    return M, b, system[:, :n * n].reshape(rows, n, n, nc), system[:, n * n:]


def assert_matches_reference(n, order, rows, seed, point, plants):
    M, b, Mc, bc = planted_system(n, order, rows, seed, point, plants)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", ConditioningWarning)
        X, report, failed = reference(Mc, bc, order)
        if point and failed[0]:
            with pytest.raises(SingularSymbolError):
                solve_jet_system(M, b)
            return
        x, got = solve_jet_system(M, b)
    assert all(xi.order == order for xi in x)
    assert np.array_equal(np.stack([xi.c for xi in x], axis=-2), X[0] if point else X,
                          equal_nan=True)
    for name, want in zip(("det", "cond", "residual"), report):
        value = getattr(got, name)
        assert (type(value) is float) if point else (value.shape == (rows,))
        assert np.array_equal(value, want[0] if point else want, equal_nan=True), name


@st.composite
def stacked_cases(draw):
    point = draw(st.booleans())
    rows = 1 if point else draw(st.integers(1, 40))
    return (draw(st.sampled_from([2, 3, 8])), draw(st.integers(0, 3)), rows,
            draw(st.integers(0, 2 ** 32 - 1)), point,
            draw(st.lists(st.sampled_from(PLANTS), min_size=rows, max_size=rows)))


@settings(max_examples=200, deadline=None)
@given(stacked_cases())
def test_stacked_solve_matches_each_row_alone(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("n", [3, 8])
def test_a_256_row_stacked_solve_matches_each_row_alone(n):
    plants = [PLANTS[r % len(PLANTS)] if r % 7 == 0 else None for r in range(256)]
    assert_matches_reference(n, 3, 256, 12 + n, False, plants)


def test_a_batch_warns_once_for_its_worst_row():
    """Three ill-conditioned rows give one ConditioningWarning, with the
    worst condition number, at the caller's line."""
    rng = np.random.default_rng(5)
    rows, n = 12, 3
    Mc = rng.uniform(-1.0, 1.0, (rows, n, n, ncoef(2)))
    Mc[..., 0] += 4.0 * np.eye(n)
    bc = rng.uniform(-1.0, 1.0, (rows, n, ncoef(2)))
    for r, scale in ((2, 1e-13), (5, 1e-14), (9, 1e-13)):
        # an equation scaled down: a large condition number, a small residual
        Mc[r, 0] *= scale
        bc[r, 0] *= scale
    M = [[Jet2(2, Mc[:, i, j]) for j in range(n)] for i in range(n)]
    b = [Jet2(2, bc[:, i]) for i in range(n)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = solve_jet_system(M, b)
    [warning] = caught
    assert warning.category is ConditioningWarning
    assert warning.filename == __file__
    assert np.count_nonzero(report.cond > 1e12) == 3
    assert str(warning.message) == f"condition number {report.cond.max():.3g} exceeds 1e+12"


def test_a_row_whose_svd_does_not_converge_masks_only_that_row(monkeypatch):
    """numpy's SVD fails a whole stack for one matrix; only that row fails."""
    rng = np.random.default_rng(9)
    Mc = rng.uniform(-1.0, 1.0, (6, 3, 3, ncoef(1)))
    Mc[..., 0] += 4.0 * np.eye(3)
    Mc[4, 0, 0, 0] = 7.0  # the matrix whose SVD "does not converge"
    M = [[Jet2(1, Mc[:, i, j]) for j in range(3)] for i in range(3)]
    b = [Jet2(1, rng.uniform(-1.0, 1.0, (6, ncoef(1)))) for _ in range(3)]
    x, want = solve_jet_system(M, b)
    svd = np.linalg.svd

    def failing_svd(a, **kwargs):
        if (a[:, 0, 0] == 7.0).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    y, got = solve_jet_system(M, b)
    kept = np.arange(6) != 4
    for name in ("det", "cond", "residual"):
        assert np.isnan(getattr(got, name)[4])
        assert np.array_equal(getattr(got, name)[kept], getattr(want, name)[kept])
    for xi, yi in zip(x, y):
        assert np.isnan(yi.c[4]).all() and np.array_equal(yi.c[kept], xi.c[kept])
