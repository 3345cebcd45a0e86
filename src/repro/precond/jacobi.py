"""Jacobi (diagonal) preconditioning.

``M = diag(A)``; the split factor is ``E = D^{1/2}``, which is diagonal,
so the preconditioned operator ``D^{-1/2} A D^{-1/2}`` keeps the sparsity
pattern and row degree of ``A``.  On the paper's machine this is the
preconditioner of choice: its application is elementwise (depth 1), adding
nothing to the dependence cycle -- which is why E9 uses it as the primary
demonstration that preconditioned VR-CG retains the depth advantage.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.counters import add_axpy

__all__ = ["JacobiPrecond"]


class JacobiPrecond:
    """Diagonal preconditioner built from a CSR (or dense) SPD matrix."""

    def __init__(self, a: CSRMatrix | np.ndarray) -> None:
        diag = a.diagonal() if hasattr(a, "diagonal") else np.diag(a)
        diag = np.asarray(diag, dtype=np.float64)
        if diag.size == 0:
            raise ValueError("matrix has an empty diagonal")
        if np.any(diag <= 0.0):
            raise ValueError(
                "Jacobi preconditioning requires a strictly positive diagonal"
            )
        self._d = diag.copy()
        self._sqrt_d = np.sqrt(diag)

    @property
    def diagonal(self) -> np.ndarray:
        """The stored diagonal of A (a copy)."""
        return self._d.copy()

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``M⁻¹ r = r / diag(A)`` (elementwise; depth 1)."""
        tracer = add_axpy(self._d.size, flops_per_entry=1)
        z = np.asarray(r, dtype=np.float64) / self._d
        if tracer is not None:
            tracer.end("axpy")
        return z

    def solve_factor(self, v: np.ndarray) -> np.ndarray:
        """``E⁻¹ v = v / sqrt(diag(A))``."""
        tracer = add_axpy(self._d.size, flops_per_entry=1)
        z = np.asarray(v, dtype=np.float64) / self._sqrt_d
        if tracer is not None:
            tracer.end("axpy")
        return z

    def solve_factor_t(self, v: np.ndarray) -> np.ndarray:
        """``E⁻ᵀ v = v / sqrt(diag(A))`` (E is symmetric)."""
        return self.solve_factor(v)

    def scaled_matrix(self, a: CSRMatrix) -> CSRMatrix:
        """The explicit preconditioned matrix ``D^{-1/2} A D^{-1/2}``.

        For Jacobi the split operator can be materialized with the same
        sparsity; handy for feeding the machine model, which wants a
        concrete matrix.
        """
        return a.symmetric_diagonal_scale(1.0 / self._sqrt_d)
