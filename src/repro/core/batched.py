"""Batched multi-RHS CG: ``m`` systems per sweep, fused reductions.

Solving ``A X = B`` for an ``(n, m)`` right-hand-side block with a loop of
single-RHS solves pays ``m`` separate reduction launches per inner-product
site per iteration -- exactly the data dependency the paper is about,
multiplied by ``m``.  The batched solver here carries ``(n, m)`` residual
and direction *blocks* instead, so each inner-product site computes all
``m`` column products in ONE fused reduction (:func:`repro.util.kernels.
block_dot`: one allreduce of ``m`` words, not ``m`` allreduces of one) and
each matrix application streams the matrix ONCE for all columns
(:func:`repro.sparse.block_matvec`).  Per sweep, batched classical CG
launches exactly the classical two reductions -- independent of ``m``
(pinned by the ``repro.counting()`` reduction count in the tests).

Columns converge at different iteration counts; a converged column is
**deflated** -- compacted out of the active blocks -- so it stops paying
matvec and reduction bandwidth while the stragglers finish.  The active-set
trajectory is emitted as telemetry (:class:`~repro.telemetry.events.
ActiveSetEvent`) alongside per-column iteration/convergence events.

The solver returns a :class:`~repro.core.results.BatchedResult`; column
``j`` matches a standalone solve on ``B[:, j]`` up to rounding (pinned by
the property tests).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import BatchedResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import LinearOperator, as_operator, block_matvec
from repro.util.counters import add_axpy, add_scalar_flops
from repro.util.kernels import block_dot, block_norms
from repro.util.validation import as_2d_float_array, check_square_operator

__all__ = ["batched_cg"]

class _Batch:
    """Shared per-column bookkeeping: thresholds, histories, deflation.

    The solver keeps its *active* working blocks compacted to the
    still-running columns; this object maps active positions back to
    original column indices and owns everything indexed by original
    column (solution block, histories, stop reasons).
    """

    def __init__(
        self,
        op: LinearOperator,
        b_block: np.ndarray,
        x0: np.ndarray | None,
        stop: StoppingCriterion,
        telemetry: Any,
        label: str,
    ) -> None:
        self.op = op
        self.b_block = b_block
        self.n, self.m = b_block.shape
        self.stop = stop
        self.telemetry = telemetry
        self.label = label
        if x0 is None:
            self.x = np.zeros((self.n, self.m))
        else:
            x0 = as_2d_float_array(x0, "x0")
            if x0.shape != b_block.shape:
                raise ValueError(
                    f"x0 shape {x0.shape} does not match B shape {b_block.shape}"
                )
            self.x = x0.copy()
        self.b_norms = block_norms(b_block, label="batched_b_norm")
        self.thresholds = np.array(
            [stop.threshold(float(bn)) for bn in self.b_norms]
        )
        self.active = np.arange(self.m)  # active position -> original column
        # The solver updates x_active (contiguous, compacted alongside the
        # working blocks) so the steady-state sweep never pays a fancy-index
        # scatter into the full block; columns land in self.x on retirement.
        self.x_active = self.x.copy()
        self.th_active = self.thresholds.copy()
        # Residual histories are reconstructed in finish() from per-sweep
        # (iteration, active, norms) samples -- no per-column Python loop
        # inside the sweep.
        self._samples: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._last_res = np.zeros(self.m)
        self.iterations = np.zeros(self.m, dtype=np.int64)
        self.reasons: list[StopReason] = [StopReason.MAX_ITER] * self.m
        self.converged = np.zeros(self.m, dtype=bool)

    @property
    def width(self) -> int:
        return int(self.active.shape[0])

    def record(self, res_norms: np.ndarray, iteration: int) -> None:
        """Log one residual-norm sample per active column (vectorized;
        ``res_norms`` must be a fresh array, it is kept by reference)."""
        self._samples.append((iteration, self.active, res_norms))
        self._last_res[self.active] = res_norms
        if iteration > 0:
            self.iterations[self.active] = iteration
            tele = self.telemetry
            if tele is not None and tele.streams:
                for pos, col in enumerate(self.active):
                    tele.column_iteration(int(col), iteration, float(res_norms[pos]))

    def retire(
        self, positions: np.ndarray, reason: StopReason, iteration: int
    ) -> None:
        """Mark active positions finished (does not compact -- see
        :meth:`compact`)."""
        for pos in positions:
            col = int(self.active[pos])
            self.reasons[col] = reason
            self.converged[col] = reason is StopReason.CONVERGED
            if self.telemetry is not None:
                self.telemetry.column_converged(
                    col, iteration, float(self._last_res[col]), reason=reason.value
                )

    def compact(self, keep: np.ndarray, *blocks: np.ndarray) -> tuple[np.ndarray, ...]:
        """Deflate: restrict the active set (and the given column-blocks)
        to ``keep`` positions, writing retired columns of the working
        solution back into the full block.  Blocks are indexed on their
        last axis, so ``(n, m)`` blocks and ``(m,)`` scalar vectors pass
        through alike."""
        mask = np.ones(self.active.shape[0], dtype=bool)
        mask[keep] = False
        if mask.any():
            self.x[:, self.active[mask]] = self.x_active[:, mask]
        self.active = self.active[keep]
        self.th_active = self.th_active[keep]
        self.x_active = self.x_active[:, keep]
        return tuple(block[..., keep] for block in blocks)

    def finish(self, method_label: str) -> BatchedResult:
        """Assemble the result; exit verification per column."""
        if self.active.size:
            self.x[:, self.active] = self.x_active
        self.histories = self._assemble_histories()
        true_res = block_norms(
            self.b_block - block_matvec(self.op, self.x), label="batched_exit_check"
        )
        for col in range(self.m):
            self.reasons[col] = verified_exit(
                self.reasons[col], float(true_res[col]), float(self.thresholds[col])
            )
            self.converged[col] = self.reasons[col] is StopReason.CONVERGED
        result = BatchedResult(
            x=self.x,
            column_converged=self.converged,
            column_iterations=self.iterations,
            stop_reasons=list(self.reasons),
            residual_norms=self.histories,
            true_residual_norms=true_res,
            label=method_label,
        )
        if self.telemetry is not None:
            self.telemetry.solve_end(result)
        return result

    def _assemble_histories(self) -> list[list[float]]:
        """Replay the per-sweep samples into per-column history lists.

        Column ``j`` was active for every sweep up to ``iterations[j]``,
        so its history is the dense prefix of its column in the sample
        matrix -- length ``iterations[j] + 1`` (initial residual plus one
        entry per iteration), matching the single-RHS solvers.
        """
        if not self._samples:
            return [[] for _ in range(self.m)]
        max_it = max(iteration for iteration, _, _ in self._samples)
        grid = np.full((max_it + 1, self.m), np.nan)
        for iteration, active, res_norms in self._samples:
            grid[iteration, active] = res_norms
        return [
            grid[: int(self.iterations[col]) + 1, col].tolist()
            for col in range(self.m)
        ]


def batched_cg(
    a: Any,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: "Telemetry | None" = None,
) -> BatchedResult:
    """Solve ``A X = B`` for all columns of ``B`` by block-batched CG.

    Each column runs its own independent classical CG trajectory (no
    block-Krylov coupling -- column ``j`` reproduces a standalone
    :func:`~repro.core.standard.conjugate_gradient` on ``B[:, j]`` up to
    rounding), but the ``m`` trajectories share every matrix traversal
    and every reduction launch:

    * ``AP`` is one :func:`~repro.sparse.block_matvec` (one streaming
      pass over ``A`` for all active columns);
    * ``(pⱼ, Apⱼ)`` for all ``j`` is one fused ``m``-wide
      :func:`~repro.util.kernels.block_dot`;
    * ``(rⱼ, rⱼ)`` likewise -- so each sweep costs exactly the classical
      CG's TWO reduction launches, independent of ``m``.

    Converged columns are deflated out of the active blocks and stop
    paying.  ``B`` may be 1-D (promoted to a single column).

    Parameters mirror :func:`~repro.core.standard.conjugate_gradient`;
    ``x0``, when given, must be an ``(n, m)`` block.

    Returns
    -------
    BatchedResult
    """
    op = as_operator(a)
    b_block = as_2d_float_array(b, "B")
    check_square_operator(op, b_block.shape[0])
    stop = stop or StoppingCriterion()
    from repro.backend import Workspace

    ws = Workspace()

    batch = _Batch(op, b_block, x0, stop, telemetry, "batched-cg")
    n, m = batch.n, batch.m
    if telemetry is not None:
        telemetry.solve_start("batched-cg", "batched-cg", n, m=m)

    # Active working blocks (compacted to still-running columns).
    r = b_block - block_matvec(op, batch.x)
    p = r.copy()
    rr = block_dot(r, r, label="batched_rr")
    res = np.sqrt(np.maximum(rr, 0.0))
    batch.record(res, 0)

    # Columns converged on arrival (b = 0, or x0 already the answer)
    # deflate before the first sweep.
    done0 = np.flatnonzero(res <= batch.thresholds)
    if done0.size:
        batch.retire(done0, StopReason.CONVERGED, 0)
        keep = np.flatnonzero(res > batch.thresholds)
        r, p, rr = batch.compact(keep, r, p, rr)

    # Sweep-reused buffers (reallocated only when deflation narrows the
    # active block) -- the steady-state loop allocates nothing but the
    # length-m scalar vectors.
    ap = np.empty_like(p)
    work = np.empty_like(p)

    budget = stop.budget(n)
    iteration = 0
    while batch.width and iteration < budget:
        iteration += 1
        block_matvec(op, p, out=ap, work=ws)
        pap = block_dot(p, ap, label="batched_pap")  # fused reduction #1

        bad = np.flatnonzero(pap <= 0.0)
        if bad.size:
            batch.retire(bad, StopReason.BREAKDOWN, iteration - 1)
            keep = np.flatnonzero(pap > 0.0)
            r, p, ap, rr, pap = batch.compact(keep, r, p, ap, rr, pap)
            if not batch.width:
                break
            work = np.empty_like(p)

        lam = rr / pap
        add_scalar_flops(lam.size)
        tracer = add_axpy(r.size, flops_per_entry=4)
        np.multiply(p, lam, out=work)
        batch.x_active += work
        np.multiply(ap, lam, out=work)
        r -= work
        if tracer is not None:
            tracer.end("axpy")

        rr_new = block_dot(r, r, label="batched_rr")  # fused reduction #2
        res = np.sqrt(np.maximum(rr_new, 0.0))
        batch.record(res, iteration)
        if telemetry is not None:
            telemetry.iteration(iteration, float(res.max()))
            telemetry.active_set(iteration, batch.width)

        done = np.flatnonzero(res <= batch.th_active)
        if done.size:
            batch.retire(done, StopReason.CONVERGED, iteration)
            keep = np.flatnonzero(res > batch.th_active)
            r, p, rr, rr_new = batch.compact(keep, r, p, rr, rr_new)
            if not batch.width:
                break
            ap = np.empty_like(p)
            work = np.empty_like(p)

        alpha = rr_new / rr
        add_scalar_flops(alpha.size)
        tracer = add_axpy(p.size)
        p *= alpha
        p += r
        if tracer is not None:
            tracer.end("axpy")
        rr = rr_new

    return batch.finish("batched-cg")
