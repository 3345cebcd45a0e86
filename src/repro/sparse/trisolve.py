"""Sparse triangular solves.

Forward/backward substitution against the CSR triangles, used by the SSOR
and incomplete-Cholesky preconditioners.  Substitution is inherently
sequential across rows (row ``i`` needs all earlier unknowns), so unlike
the rest of the substrate this kernel has an explicit row loop; the
per-row work is still vectorized gathers.  This sequentiality is not an
implementation accident -- it is exactly why the machine model assigns
triangular solves depth ``Θ(n)`` and why the paper-era literature preferred
Jacobi-like preconditioners on highly parallel machines (discussed in
EXPERIMENTS.md under E9).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.counters import add_matvec

__all__ = ["solve_lower", "solve_upper"]


def _validate(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    if a.nrows != a.ncols:
        raise ValueError("triangular solve requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.nrows,):
        raise ValueError(f"b must have shape ({a.nrows},), got {b.shape}")
    return b


def solve_lower(a: CSRMatrix, b: np.ndarray, *, unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``L x = b`` where ``L`` is the lower triangle stored in ``a``.

    Entries above the diagonal must be absent (build via
    :meth:`CSRMatrix.lower_triangle`).  With ``unit_diagonal`` the stored
    diagonal (if any) is ignored and taken as 1.
    """
    b = _validate(a, b)
    x = b.copy()
    indptr, indices, data = a.indptr, a.indices, a.data
    tracer = add_matvec(a.nnz, a.nrows)  # a substitution costs ~ one matvec
    for i in range(a.nrows):
        start, end = indptr[i], indptr[i + 1]
        cols = indices[start:end]
        vals = data[start:end]
        if cols.size and cols[-1] > i:
            raise ValueError(f"row {i} has entries above the diagonal")
        if cols.size and cols[-1] == i:
            off_cols, off_vals, diag = cols[:-1], vals[:-1], vals[-1]
        else:
            off_cols, off_vals, diag = cols, vals, None
        if off_cols.size:
            x[i] -= off_vals @ x[off_cols]
        if not unit_diagonal:
            if diag is None or diag == 0.0:
                raise ZeroDivisionError(f"zero diagonal at row {i}")
            x[i] /= diag
    if tracer is not None:
        tracer.end("matvec")
    return x


def solve_upper(a: CSRMatrix, b: np.ndarray, *, unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``U x = b`` where ``U`` is the upper triangle stored in ``a``."""
    b = _validate(a, b)
    x = b.copy()
    indptr, indices, data = a.indptr, a.indices, a.data
    tracer = add_matvec(a.nnz, a.nrows)
    for i in range(a.nrows - 1, -1, -1):
        start, end = indptr[i], indptr[i + 1]
        cols = indices[start:end]
        vals = data[start:end]
        if cols.size and cols[0] < i:
            raise ValueError(f"row {i} has entries below the diagonal")
        if cols.size and cols[0] == i:
            off_cols, off_vals, diag = cols[1:], vals[1:], vals[0]
        else:
            off_cols, off_vals, diag = cols, vals, None
        if off_cols.size:
            x[i] -= off_vals @ x[off_cols]
        if not unit_diagonal:
            if diag is None or diag == 0.0:
                raise ZeroDivisionError(f"zero diagonal at row {i}")
            x[i] /= diag
    if tracer is not None:
        tracer.end("matvec")
    return x
