"""ELLPACK sparse format.

ELL stores a fixed number of entries per row (padded with zeros), which is
the layout SIMD/vector machines of the paper's era -- and GPUs today --
prefer for stencil matrices.  We include it both for completeness of the
substrate and because its matvec has a *uniform* per-row reduction depth
``ceil(log2 width)``, exactly matching the machine-model cost the paper
assigns to a degree-``d`` sparse matvec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.counters import add_matmat, add_matvec
from repro.util.validation import check_out_array

__all__ = ["ELLMatrix", "csr_to_ell"]


def _gather_buffer(work, name: str, shape: tuple[int, ...]) -> np.ndarray | None:
    """Resolve a ``work=`` argument to a gather buffer (or ``None``).

    ``work`` may be a :class:`repro.backend.Workspace` (duck-typed via
    its ``get`` method, so this module needs no backend import) or a
    preallocated float64 array of the right shape.
    """
    if work is None:
        return None
    getter = getattr(work, "get", None)
    if callable(getter):
        return getter(name, shape)
    return check_out_array(work, shape, name="work")


@dataclass(frozen=True)
class ELLMatrix:
    """ELLPACK matrix: dense ``(nrows, width)`` index and value planes.

    Padding entries carry column index equal to their own row (a valid
    index) and value 0.0, so the vectorized gather needs no masking.
    """

    nrows: int
    ncols: int
    col_plane: np.ndarray
    val_plane: np.ndarray

    def __post_init__(self) -> None:
        cols = np.ascontiguousarray(self.col_plane, dtype=np.int64)
        vals = np.ascontiguousarray(self.val_plane, dtype=np.float64)
        object.__setattr__(self, "col_plane", cols)
        object.__setattr__(self, "val_plane", vals)
        if cols.ndim != 2 or cols.shape[0] != self.nrows:
            raise ValueError(f"col_plane must be (nrows, width), got {cols.shape}")
        if cols.shape != vals.shape:
            raise ValueError("col_plane and val_plane shapes must match")
        if cols.size and (cols.min() < 0 or cols.max() >= self.ncols):
            raise ValueError("column index out of range")

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self.nrows, self.ncols)

    @property
    def width(self) -> int:
        """Entries stored per row (including padding)."""
        return int(self.col_plane.shape[1])

    @property
    def nnz(self) -> int:
        """Number of non-padding (nonzero-valued) stored entries."""
        return int(np.count_nonzero(self.val_plane))

    def matvec(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        work=None,
    ) -> np.ndarray:
        """``A @ x`` as a dense gather followed by a row-wise contraction.

        ``out`` (a float64 ``(nrows,)`` array, not aliasing ``x``)
        receives the result without allocating; ``work`` (a
        :class:`repro.backend.Workspace` or an ``(nrows, width)`` float64
        array) additionally reuses the gather plane, making the whole
        product allocation-free.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
        if out is not None:
            if out is x:
                raise ValueError("out must not alias x")
            check_out_array(out, (self.nrows,))
        tracer = add_matvec(self.nnz, self.nrows)
        if self.width == 0:
            y = out if out is not None else np.empty(self.nrows)
            y[:] = 0.0
        else:
            gather = _gather_buffer(work, "ell_gather", (self.nrows, self.width))
            if gather is not None:
                np.take(x, self.col_plane, out=gather, mode="clip")
            else:
                gather = x[self.col_plane]
            y = np.einsum("rw,rw->r", self.val_plane, gather, out=out)
        if tracer is not None:
            tracer.end("matvec")
        return y

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None, work=None) -> np.ndarray:
        """Compute ``A @ X`` for an ``(ncols, m)`` column block.

        The dense index plane makes this a single rectangular gather
        ``X[col_plane]`` (shape ``(nrows, width, m)``) contracted against
        the value plane in one einsum -- no ragged segment reduction.
        Books ``m`` matvecs' flops but one pass of matrix traffic, like
        :meth:`CSRMatrix.matmat`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.ncols:
            raise ValueError(f"x must have shape ({self.ncols}, m), got {x.shape}")
        m = x.shape[1]
        if out is not None:
            if out is x:
                raise ValueError("out must not alias x")
            check_out_array(out, (self.nrows, m))
        tracer = add_matmat(self.nnz, self.nrows, m)
        if self.width == 0 or m == 0:
            y = out if out is not None else np.empty((self.nrows, m))
            y[:] = 0.0
        else:
            gather = _gather_buffer(
                work, "ell_gather_block", (self.nrows, self.width, m)
            )
            if gather is not None:
                np.take(x, self.col_plane, axis=0, out=gather, mode="clip")
            else:
                gather = x[self.col_plane]
            y = np.einsum("rw,rwm->rm", self.val_plane, gather, out=out)
        if tracer is not None:
            tracer.end("matvec")
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def max_row_degree(self) -> int:
        """Maximum number of genuine nonzeros in any row."""
        if self.width == 0:
            return 0
        return int((self.val_plane != 0.0).sum(axis=1).max())

    def to_csr(self) -> CSRMatrix:
        """Convert back to CSR (dropping the padding zeros)."""
        from repro.sparse.coo import COOBuilder

        b = COOBuilder(self.nrows, self.ncols)
        mask = self.val_plane != 0.0
        rows = np.repeat(np.arange(self.nrows), self.width).reshape(
            self.nrows, self.width
        )
        b.add_batch(rows[mask], self.col_plane[mask], self.val_plane[mask])
        return b.to_csr()


def csr_to_ell(a: CSRMatrix) -> ELLMatrix:
    """Convert CSR to ELL, padding each row to the maximum degree."""
    width = a.max_row_degree()
    cols = np.repeat(
        np.arange(a.nrows, dtype=np.int64)[:, None] % max(a.ncols, 1), width, axis=1
    ).reshape(a.nrows, width)
    vals = np.zeros((a.nrows, width), dtype=np.float64)
    degrees = a.row_degrees()
    if width:
        # Position of each stored entry inside its row (0..degree-1).
        within = np.arange(a.nnz) - np.repeat(a.indptr[:-1], degrees)
        row_of = np.repeat(np.arange(a.nrows), degrees)
        cols[row_of, within] = a.indices
        vals[row_of, within] = a.data
    return ELLMatrix(a.nrows, a.ncols, cols, vals)
