"""Symmetric SOR preconditioning.

The SSOR preconditioner for SPD ``A = L + D + Lᵀ`` (``L`` strictly lower)
with relaxation parameter ``ω ∈ (0, 2)`` is

.. code-block:: text

    M = 1/(ω(2-ω)) · (D + ωL) · D⁻¹ · (D + ωL)ᵀ

which factors as ``M = E Eᵀ`` with

.. code-block:: text

    E = 1/sqrt(ω(2-ω)) · (D + ωL) · D^{-1/2}

so ``E⁻¹`` is one scaled forward substitution and ``E⁻ᵀ`` one backward
substitution.  Substitutions are depth-``Θ(n)`` on the machine model --
SSOR trades much better spectra for a serial bottleneck, a tension the
preconditioning experiment (E9) reports rather than hides.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.trisolve import solve_lower, solve_upper
from repro.util.counters import add_axpy

__all__ = ["SSORPrecond"]


class SSORPrecond:
    """SSOR split preconditioner over a symmetric CSR matrix."""

    def __init__(self, a: CSRMatrix, *, omega: float = 1.0) -> None:
        if not 0.0 < omega < 2.0:
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        if a.nrows != a.ncols:
            raise ValueError("SSOR requires a square matrix")
        diag = a.diagonal()
        if np.any(diag <= 0.0):
            raise ValueError("SSOR requires a strictly positive diagonal")
        self._omega = float(omega)
        self._scale = 1.0 / math.sqrt(omega * (2.0 - omega))
        self._sqrt_d = np.sqrt(diag)
        # Lower factor (D + omega*L) stored as CSR; upper is its transpose.
        from repro.sparse.coo import COOBuilder

        strict_lower = a.lower_triangle(strict=True)
        b = COOBuilder(a.nrows, a.ncols)
        if strict_lower.nnz:
            row_of = np.repeat(
                np.arange(strict_lower.nrows), np.diff(strict_lower.indptr)
            )
            b.add_batch(row_of, strict_lower.indices, omega * strict_lower.data)
        idx = np.arange(a.nrows, dtype=np.int64)
        b.add_batch(idx, idx, diag)
        self._lower = b.to_csr()
        self._upper = self._lower.transpose()

    @property
    def omega(self) -> float:
        """The relaxation parameter."""
        return self._omega

    def solve_factor(self, v: np.ndarray) -> np.ndarray:
        """``E⁻¹ v = sqrt(ω(2-ω)) · D^{1/2} · (D + ωL)⁻¹ v``."""
        y = solve_lower(self._lower, np.asarray(v, dtype=np.float64))
        tracer = add_axpy(y.size, flops_per_entry=2)
        z = (y * self._sqrt_d) / self._scale
        if tracer is not None:
            tracer.end("axpy")
        return z

    def solve_factor_t(self, v: np.ndarray) -> np.ndarray:
        """``E⁻ᵀ v = sqrt(ω(2-ω)) · (D + ωLᵀ)⁻¹ · D^{1/2} v``."""
        tracer = add_axpy(v.size, flops_per_entry=2)
        y = (np.asarray(v, dtype=np.float64) * self._sqrt_d) / self._scale
        if tracer is not None:
            tracer.end("axpy")
        return solve_upper(self._upper, y)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``M⁻¹ r = E⁻ᵀ E⁻¹ r``."""
        return self.solve_factor_t(self.solve_factor(r))
