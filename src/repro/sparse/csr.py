"""Compressed Sparse Row matrices.

This is the compute format for every solver in the repository.  The
products run scipy's compiled CSR kernels (``csr_matvec`` /
``csr_matvecs``): one pass over the matrix per call, written straight
into the result buffer, so a solver's ``out=`` product allocates
nothing.  Each product books itself on the ambient operation counter so
the work-accounting experiments see every matvec.

The class deliberately implements only what the reproduction needs --
matvec, transpose, diagonal extraction, scaling, row-degree statistics,
dense conversion and triangular splits (for SSOR / IC(0)) -- rather than a
full scipy clone.  Everything is validated on construction, so downstream
code can assume canonical form (sorted column indices, no duplicates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.util.counters import add_matmat, add_matvec
from repro.util.validation import check_out_array

__all__ = ["CSRMatrix", "as_csr", "from_dense", "identity", "diag_matrix"]


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR sparse matrix.

    Attributes
    ----------
    nrows, ncols:
        Matrix dimensions.
    indptr:
        Row pointer, shape ``(nrows+1,)``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column indices, sorted within each row, no duplicates.
    data:
        Nonzero values aligned with ``indices``.
    """

    nrows: int
    ncols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        if indptr.shape != (self.nrows + 1,):
            raise ValueError(
                f"indptr must have shape ({self.nrows + 1},), got {indptr.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size != data.size:
            raise ValueError("indices and data must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= self.ncols):
            raise ValueError("column index out of range")
        # Canonical form: strictly increasing column indices inside each row.
        if indices.size > 1:
            inside_row = np.ones(indices.size - 1, dtype=bool)
            boundaries = indptr[1:-1]  # first element of rows 1..nrows-1
            boundaries = boundaries[(boundaries > 0) & (boundaries < indices.size)]
            inside_row[boundaries - 1] = False
            if np.any((np.diff(indices) <= 0) & inside_row):
                raise ValueError(
                    "column indices must be strictly increasing within rows"
                )

    # ------------------------------------------------------------------
    # Core products
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.indices.size)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``A @ x`` in one compiled pass over the matrix.

        Books one matvec on the ambient operation counter.  ``out`` may be
        supplied to avoid allocating the result; it must be a float64
        array of shape ``(nrows,)`` not aliasing ``x``.  Each row sums
        left to right, so the result matches scipy's ``A @ x`` bit for
        bit.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
        if out is not None:
            if out is x:
                raise ValueError("out must not alias x")
            check_out_array(out, (self.nrows,))
        tracer = add_matvec(self.nnz, self.nrows)
        y = np.empty(self.nrows, dtype=np.float64) if out is None else out
        y.fill(0.0)  # the kernel accumulates: y += A x
        # Imported at the first product, not at module load, so a matrix
        # built before the first solve does not stack its construction
        # temporaries on scipy.sparse's memory (a solve loads it anyway).
        from scipy.sparse import _sparsetools

        _sparsetools.csr_matvec(
            self.nrows, self.ncols, self.indptr, self.indices, self.data, x, y
        )
        if tracer is not None:
            tracer.end("matvec")
        return y

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``A @ X`` for an ``(ncols, m)`` column block.

        One traversal of the matrix serves all ``m`` columns.  Books ``m``
        matvecs' flops but only one pass of matrix traffic (see
        :func:`repro.util.counters.add_matmat`) -- the data-locality win
        the batched solvers are built on.  ``out`` must be a float64
        ``(nrows, m)`` array not aliasing ``x``.  A one-column block runs
        the single-vector kernel, which gives the same bits faster.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.ncols:
            raise ValueError(
                f"x must have shape ({self.ncols}, m), got {x.shape}"
            )
        m = x.shape[1]
        if out is not None:
            if out is x:
                raise ValueError("out must not alias x")
            check_out_array(out, (self.nrows, m))
        tracer = add_matmat(self.nnz, self.nrows, m)
        y = np.empty((self.nrows, m), dtype=np.float64) if out is None else out
        y.fill(0.0)
        from scipy.sparse import _sparsetools  # see matvec

        if m == 1:
            _sparsetools.csr_matvec(
                self.nrows, self.ncols, self.indptr, self.indices, self.data,
                x[:, 0], y[:, 0],
            )
        else:
            _sparsetools.csr_matvecs(
                self.nrows, self.ncols, m, self.indptr, self.indices, self.data, x, y
            )
        if tracer is not None:
            tracer.end("matvec")
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Compute ``Aᵀ @ y`` without materializing the transpose."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.nrows,):
            raise ValueError(f"y must have shape ({self.nrows},), got {y.shape}")
        tracer = add_matvec(self.nnz, self.ncols)
        x = np.zeros(self.ncols, dtype=np.float64)
        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        np.add.at(x, self.indices, self.data * y[row_of])
        if tracer is not None:
            tracer.end("matvec")
        return x

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (zeros where no entry is stored)."""
        n = min(self.nrows, self.ncols)
        d = np.zeros(n, dtype=np.float64)
        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        mask = (row_of == self.indices) & (row_of < n)
        d[row_of[mask]] = self.data[mask]
        return d

    def row_degrees(self) -> np.ndarray:
        """Number of nonzeros in each row (the paper's per-row ``d``)."""
        return np.diff(self.indptr)

    def max_row_degree(self) -> int:
        """``d`` = max nonzeros per row; drives the SpMV depth log(d)."""
        degrees = self.row_degrees()
        return int(degrees.max()) if degrees.size else 0

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Check symmetry by comparing against the explicit transpose."""
        if self.nrows != self.ncols:
            return False
        t = self.transpose()
        return (
            np.array_equal(self.indptr, t.indptr)
            and np.array_equal(self.indices, t.indices)
            and bool(np.allclose(self.data, t.data, atol=tol, rtol=tol))
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRMatrix":
        """Explicit transpose (CSR of Aᵀ), via a COO round-trip."""
        from repro.sparse.coo import coo_arrays_to_csr_parts

        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        indptr, indices, data = coo_arrays_to_csr_parts(
            self.indices.copy(), row_of, self.data.copy(), self.ncols, self.nrows
        )
        return CSRMatrix(self.ncols, self.nrows, indptr, indices, data)

    def scaled(self, factor: float) -> "CSRMatrix":
        """Return ``factor * A`` (same sparsity pattern)."""
        return CSRMatrix(
            self.nrows, self.ncols, self.indptr, self.indices, self.data * factor
        )

    def symmetric_diagonal_scale(self, d: np.ndarray) -> "CSRMatrix":
        """Return ``diag(d) · A · diag(d)`` -- used by split Jacobi."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.nrows,) or self.nrows != self.ncols:
            raise ValueError("symmetric scaling requires a square matrix")
        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        data = self.data * d[row_of] * d[self.indices]
        return CSRMatrix(self.nrows, self.ncols, self.indptr, self.indices, data)

    def add_scaled_identity(self, shift: float) -> "CSRMatrix":
        """Return ``A + shift·I`` (inserts diagonal entries if missing)."""
        if self.nrows != self.ncols:
            raise ValueError("shift requires a square matrix")
        from repro.sparse.coo import COOBuilder

        b = COOBuilder(self.nrows, self.ncols)
        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        b.add_batch(row_of, self.indices, self.data)
        diag_idx = np.arange(self.nrows)
        b.add_batch(diag_idx, diag_idx, np.full(self.nrows, float(shift)))
        return b.to_csr()

    def lower_triangle(self, *, strict: bool = False) -> "CSRMatrix":
        """Return the (strictly) lower triangular part, diagonal included
        unless ``strict``."""
        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        keep = self.indices < row_of if strict else self.indices <= row_of
        return self._filter(keep)

    def upper_triangle(self, *, strict: bool = False) -> "CSRMatrix":
        """Return the (strictly) upper triangular part."""
        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        keep = self.indices > row_of if strict else self.indices >= row_of
        return self._filter(keep)

    def drop_small(self, tol: float) -> "CSRMatrix":
        """Drop entries with ``|value| <= tol`` (pattern compaction)."""
        return self._filter(np.abs(self.data) > tol)

    def _filter(self, keep: np.ndarray) -> "CSRMatrix":
        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        counts = np.bincount(row_of[keep], minlength=self.nrows)
        indptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(
            self.nrows, self.ncols, indptr, self.indices[keep], self.data[keep]
        )

    def todense(self) -> np.ndarray:
        """Materialize as a dense array (small matrices / tests only)."""
        out = np.zeros((self.nrows, self.ncols), dtype=np.float64)
        row_of = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        out[row_of, self.indices] = self.data
        return out

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` for cross-checks."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )


def from_dense(a: np.ndarray, *, tol: float = 0.0) -> CSRMatrix:
    """Build a :class:`CSRMatrix` from a dense array, dropping ``|aij|<=tol``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    mask = np.abs(a) > tol
    rows, cols = np.nonzero(mask)
    counts = np.bincount(rows, minlength=a.shape[0])
    indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(a.shape[0], a.shape[1], indptr, cols, a[rows, cols])


def as_csr(a: Any) -> CSRMatrix:
    """The :class:`CSRMatrix` of an assembled real matrix.

    A CSR matrix comes back as it is, an ELL matrix as its cached
    :meth:`~repro.sparse.ell.ELLMatrix.to_csr`, a real 2-D array
    through :func:`from_dense` and a scipy sparse matrix through its
    canonical CSR arrays.  Complex input raises ``ValueError``: CSR
    holds float64, and a cast would drop the imaginary part.
    """
    if isinstance(a, CSRMatrix):
        return a
    from repro.sparse.ell import ELLMatrix

    if isinstance(a, ELLMatrix):
        return a.to_csr()
    if np.iscomplexobj(a):
        raise ValueError(
            f"a complex {type(a).__name__} has no real CSR form; this path "
            "needs a real matrix"
        )
    if isinstance(a, np.ndarray):
        return from_dense(a)
    import scipy.sparse as sp

    if not sp.issparse(a):
        raise TypeError(f"{type(a).__name__} is not an assembled matrix")
    c = a.tocsr(copy=True)
    c.sum_duplicates()  # sorts the column indices of each row too
    return CSRMatrix(c.shape[0], c.shape[1], c.indptr, c.indices, c.data)


def identity(n: int) -> CSRMatrix:
    """The n-by-n identity matrix in CSR form."""
    idx = np.arange(n, dtype=np.int64)
    return CSRMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))


def diag_matrix(d: np.ndarray) -> CSRMatrix:
    """A diagonal matrix in CSR form."""
    d = np.asarray(d, dtype=np.float64).ravel()
    n = d.size
    idx = np.arange(n, dtype=np.int64)
    return CSRMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, d.copy())
