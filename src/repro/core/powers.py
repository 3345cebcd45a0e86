"""Krylov power-vector blocks and their update recurrences.

The paper's Section 5 observes (claim C5) that the high powers ``Aⁱrⁿ`` and
``Aⁱpⁿ`` appearing in the moment definitions never require explicit matrix
powers: they satisfy the same two-term recurrences as ``r`` and ``p``
themselves::

    Aⁱ rⁿ⁺¹ = Aⁱ rⁿ − λn Aⁱ⁺¹ pⁿ
    Aⁱ pⁿ⁺¹ = Aⁱ rⁿ⁺¹ + αn+1 Aⁱ pⁿ

so only the *top* power of the new direction needs a genuine product with
A -- one matrix--vector product per iteration, the same as classical CG.

:class:`PowerBlock` stores ``Rᵢ = Aⁱ rⁿ`` for ``i = 0..k+1`` and
``Pᵢ = Aⁱ pⁿ`` for ``i = 0..k+2`` as two contiguous ``(rows, n)`` arrays
(row-major so each power vector is a contiguous row -- the cache idiom from
the HPC guides) and updates them in place with no per-iteration allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.sparse.linop import LinearOperator, matvec_into
from repro.util.counters import add_axpy
from repro.util.kernels import dot
from repro.util.validation import require_nonnegative_int

__all__ = ["PowerBlock"]


@dataclass
class PowerBlock:
    """The stored Krylov powers of the current residual and direction.

    Attributes
    ----------
    k:
        Look-ahead parameter.
    r_powers:
        Array of shape ``(k+2, n)``: row ``i`` is ``Aⁱ rⁿ``.
    p_powers:
        Array of shape ``(k+3, n)``: row ``i`` is ``Aⁱ pⁿ``.
    """

    k: int
    r_powers: np.ndarray
    p_powers: np.ndarray

    def __post_init__(self) -> None:
        self.k = require_nonnegative_int(self.k, "k")
        if self.r_powers.ndim != 2 or self.r_powers.shape[0] != self.k + 2:
            raise ValueError(
                f"r_powers must have k+2={self.k + 2} rows, got {self.r_powers.shape}"
            )
        if self.p_powers.shape != (self.k + 3, self.r_powers.shape[1]):
            raise ValueError(
                f"p_powers must have shape ({self.k + 3}, {self.r_powers.shape[1]}),"
                f" got {self.p_powers.shape}"
            )

    @classmethod
    def startup(cls, op: LinearOperator, r0: np.ndarray, k: int) -> "PowerBlock":
        """Build the block at iteration 0 (``p⁰ = r⁰``).

        Costs ``k+2`` matrix--vector products: ``A¹..A^{k+1} r⁰`` plus the
        top direction power ``A^{k+2} p⁰``.  Together with the one matvec
        that formed ``r⁰`` this is the paper's start-up transient (E8
        measures it).
        """
        k = require_nonnegative_int(k, "k")
        n = r0.shape[0]
        r_powers = np.empty((k + 2, n), dtype=r0.dtype)
        r_powers[0] = r0
        for i in range(1, k + 2):
            r_powers[i] = op.matvec(r_powers[i - 1])
        p_powers = np.empty((k + 3, n), dtype=r0.dtype)
        p_powers[: k + 2] = r_powers
        p_powers[k + 2] = op.matvec(p_powers[k + 1])
        return cls(k=k, r_powers=r_powers, p_powers=p_powers)

    @classmethod
    def rebuild(
        cls, op: LinearOperator, r: np.ndarray, p: np.ndarray, k: int
    ) -> "PowerBlock":
        """Rebuild the block from fresh ``r`` and the *current* direction ``p``.

        This is the residual-replacement path: unlike :meth:`startup` it
        preserves the conjugate direction history (``p`` is kept, not reset
        to ``r``), so replacement does not restart the Krylov space.  Costs
        ``2k + 3`` matvecs.
        """
        k = require_nonnegative_int(k, "k")
        n = r.shape[0]
        r_powers = np.empty((k + 2, n), dtype=r.dtype)
        r_powers[0] = r
        for i in range(1, k + 2):
            r_powers[i] = op.matvec(r_powers[i - 1])
        p_powers = np.empty((k + 3, n), dtype=r.dtype)
        p_powers[0] = p
        for i in range(1, k + 3):
            p_powers[i] = op.matvec(p_powers[i - 1])
        return cls(k=k, r_powers=r_powers, p_powers=p_powers)

    @property
    def n(self) -> int:
        """Problem size."""
        return self.r_powers.shape[1]

    @property
    def r(self) -> np.ndarray:
        """The current residual ``rⁿ`` (power 0) -- a view, not a copy."""
        return self.r_powers[0]

    @property
    def p(self) -> np.ndarray:
        """The current direction ``pⁿ`` (power 0) -- a view, not a copy."""
        return self.p_powers[0]

    # ------------------------------------------------------------------
    # Per-iteration update
    # ------------------------------------------------------------------
    def advance_r(self, lam: float, work=None) -> None:
        """In-place ``Rᵢ ← Rᵢ − λn Pᵢ₊₁`` for all stored ``i``.

        One fused vectorized statement over the whole block: numpy
        broadcasts the scalar and the aligned row slices, so this is
        ``k+2`` axpys with no Python-level per-row loop.  ``work`` (a
        :class:`repro.backend.Workspace`) supplies the ``(k+2, n)``
        scratch block that makes the broadcast product allocation-free.
        """
        tracer = add_axpy(self.n * (self.k + 2))
        tail = self.p_powers[1 : self.k + 3]
        if work is not None:
            scratch = work.get("power_scratch", tail.shape, tail.dtype)
            np.multiply(tail, lam, out=scratch)
            self.r_powers -= scratch
        else:
            self.r_powers -= lam * tail
        if tracer is not None:
            tracer.end("axpy")

    def advance_p(self, op: LinearOperator, alpha_next: float, work=None) -> None:
        """In-place ``Pᵢ ← Rᵢ + αn+1 Pᵢ`` plus the single top matvec.

        Must be called *after* :meth:`advance_r` (it consumes the already
        advanced ``Rᵢ = Aⁱrⁿ⁺¹``).  The top row ``P_{k+2}`` cannot be
        recurred (it would need ``A^{k+2} rⁿ⁺¹``) and is regenerated as
        ``A · P_{k+1}`` -- claim C5's one matvec per iteration, written
        straight into the (contiguous) top row.  ``work`` is unused: it
        survives only because the benchmark harness passes one
        (``perfbench/layers.py``); a later benchmark change may drop it.
        """
        tracer = add_axpy(self.n * (self.k + 2))
        self.p_powers[: self.k + 2] *= alpha_next
        self.p_powers[: self.k + 2] += self.r_powers
        if tracer is not None:
            tracer.end("axpy")
        matvec_into(op, self.p_powers[self.k + 1], self.p_powers[self.k + 2])

    # ------------------------------------------------------------------
    # The two direct inner products (claim C6)
    # ------------------------------------------------------------------
    def direct_mu_top(self) -> float:
        """``μ₂ₖ₊₁ = (rⁿ, A^{2k+1} rⁿ) = (Aᵏrⁿ, Aᵏ⁺¹rⁿ)`` -- direct dot #1."""
        return dot(self.r_powers[self.k], self.r_powers[self.k + 1], label="direct_dot")

    def direct_sigma_top(self) -> float:
        """``σ₂ₖ₊₂ = (pⁿ, A^{2k+2} pⁿ) = ‖Aᵏ⁺¹pⁿ‖²`` -- direct dot #2."""
        return dot(self.p_powers[self.k + 1], self.p_powers[self.k + 1], label="direct_dot")

    # ------------------------------------------------------------------
    # Verification helpers (tests / stability instrumentation)
    # ------------------------------------------------------------------
    def residual_drift(self, op: LinearOperator) -> float:
        """Max relative error of stored powers against fresh recomputation.

        Used by the stability experiment to localize where finite-precision
        error enters: the power recurrences are one source, the moment
        recurrences the other.
        """
        worst = 0.0
        for stored, base in ((self.r_powers, self.r), (self.p_powers, self.p)):
            fresh = base.copy()
            for i in range(1, stored.shape[0]):
                fresh = op.matvec(fresh)
                denom = float(np.linalg.norm(fresh)) or 1.0
                err = float(np.linalg.norm(stored[i] - fresh)) / denom
                worst = max(worst, err)
        return worst
