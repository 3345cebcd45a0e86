"""Low-rank-plus-sparse operators: ``A = S + w·UUᵀ`` applied factored.

The classic case for staying matrix-free even when a sparse part *is*
assembled: a rank-``r`` correction ``UUᵀ`` (regularizers, covariance
updates, coupling terms) would densify the matrix entirely if formed, but
applies in ``O(nr)`` as two skinny products.  The operator keeps the
sparse part's instrumented matvec and books the low-rank flops itself, so
counter-based telemetry stays truthful through the composition.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.sparse.linop import operator_dtype
from repro.util.counters import add_matvec

__all__ = ["LowRankPlusSparse"]


class LowRankPlusSparse:
    """``A = S + weight·UUᵀ`` for sparse SPD ``S`` and an ``(n, r)`` factor.

    SPD whenever ``S`` is SPD and ``weight >= 0`` (``UUᵀ`` is PSD).  The
    sparse part may be any :class:`~repro.sparse.linop.LinearOperator`;
    its own matvec booking is preserved, with the ``2nr`` low-rank flops
    booked on top.
    """

    def __init__(self, sparse: Any, factor: np.ndarray, *, weight: float = 1.0) -> None:
        u = np.asarray(factor, dtype=np.float64)
        if u.ndim != 2:
            raise ValueError(f"factor must be an (n, r) array, got shape {u.shape}")
        shape = getattr(sparse, "shape", None)
        if shape is None or len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(
                f"sparse part must be a square operator, got shape {shape!r}"
            )
        if shape[0] != u.shape[0]:
            raise ValueError(
                f"factor rows ({u.shape[0]}) must match the sparse part "
                f"({shape[0]})"
            )
        if weight < 0:
            raise ValueError(f"weight must be >= 0 (PSD correction), got {weight}")
        if operator_dtype(sparse).kind == "c":
            raise ValueError("LowRankPlusSparse is real-only (float64)")
        self._s = sparse
        self._u = u
        self._weight = float(weight)
        self._n = int(shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, n)``."""
        return (self._n, self._n)

    @property
    def rank(self) -> int:
        """The correction rank ``r``."""
        return self._u.shape[1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``Sx + w·U(Uᵀx)`` -- never forms the dense ``UUᵀ``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(self._s.matvec(x), dtype=np.float64)
        if self._weight:
            # Two skinny GEMVs; the sparse part booked its own application.
            tracer = add_matvec(2 * self._n * self._u.shape[1], self._n)
            y = y + self._weight * (self._u @ (self._u.T @ x))
            if tracer is not None:
                tracer.end("matvec")
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def max_row_degree(self) -> int:
        """Dense coupling: the low-rank term touches every entry."""
        return self._n

    def fingerprint(self) -> tuple | None:
        """Compose the sparse part's fingerprint with a digest of ``U``."""
        from repro.backend.cache import matrix_fingerprint

        inner = matrix_fingerprint(self._s)
        if inner is None:
            return None
        import hashlib

        digest = hashlib.blake2b(
            np.ascontiguousarray(self._u).tobytes(), digest_size=16
        ).hexdigest()
        return ("lowrank", self.shape, self._weight, inner, digest)
