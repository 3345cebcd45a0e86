"""ELLPACK sparse format.

ELL stores a fixed number of entries per row (padded with zeros), which is
the layout SIMD/vector machines of the paper's era -- and GPUs today --
prefer for stencil matrices.  It is an input format here: every solve
runs an ELL matrix on its CSR form (:meth:`ELLMatrix.to_csr`, built
once per instance), so the compiled CSR product is the one sparse
product on the solve path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["ELLMatrix", "csr_to_ell"]


@dataclass(frozen=True)
class ELLMatrix:
    """ELLPACK matrix: dense ``(nrows, width)`` index and value planes.

    Padding entries carry column index equal to their own row (a valid
    index) and value 0.0.
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

    def max_row_degree(self) -> int:
        """Maximum number of genuine nonzeros in any row."""
        if self.width == 0:
            return 0
        return int((self.val_plane != 0.0).sum(axis=1).max())

    def to_csr(self) -> CSRMatrix:
        """The matrix in CSR (padding zeros dropped), built on the first
        call and cached on the instance: the planes never change."""
        cached = self.__dict__.get("_csr")
        if cached is None:
            from repro.sparse.coo import COOBuilder

            b = COOBuilder(self.nrows, self.ncols)
            mask = self.val_plane != 0.0
            rows = np.repeat(np.arange(self.nrows), self.width).reshape(
                self.nrows, self.width
            )
            b.add_batch(rows[mask], self.col_plane[mask], self.val_plane[mask])
            cached = b.to_csr()
            object.__setattr__(self, "_csr", cached)
        return cached


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
