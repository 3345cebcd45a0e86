"""Batched multi-RHS solvers: ``m`` systems per sweep, fused reductions.

Solving ``A X = B`` for an ``(n, m)`` right-hand-side block with a loop of
single-RHS solves pays ``m`` separate reduction launches per inner-product
site per iteration -- exactly the data dependency the paper is about,
multiplied by ``m``.  The batched solvers here carry ``(n, m)`` residual
and direction *blocks* instead, so each inner-product site computes all
``m`` column products in ONE fused reduction (:func:`repro.util.kernels.
block_dot`: one allreduce of ``m`` words, not ``m`` allreduces of one) and
each matrix application streams the matrix ONCE for all columns
(:func:`repro.sparse.block_matvec`).  Per sweep, batched classical CG
launches exactly the classical two reductions -- independent of ``m``
(asserted against :class:`~repro.distributed.comm.SimComm` in the tests).

Columns converge at different iteration counts; a converged column is
**deflated** -- compacted out of the active blocks -- so it stops paying
matvec and reduction bandwidth while the stragglers finish.  The active-set
trajectory is emitted as telemetry (:class:`~repro.telemetry.events.
ActiveSetEvent`) alongside per-column iteration/convergence events.

Both solvers return a :class:`~repro.core.results.BatchedResult`; column
``j`` matches a standalone solve on ``B[:, j]`` up to rounding (pinned by
the property tests).

:func:`batched_vr_cg` extends the same treatment to the Van Rosendale
moment-recurrence iteration: the Krylov power block becomes a
``(rows, n, m)`` tensor, the moment window a ``(width, m)`` array, the
scalar recurrences broadcast over columns, and the two per-iteration
direct inner products (claim C6) become two fused ``m``-wide reductions.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import BatchedResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import LinearOperator, as_operator, block_matvec
from repro.util.counters import add_axpy, add_scalar_flops
from repro.util.kernels import block_dot, block_norms
from repro.util.validation import (
    as_2d_float_array,
    check_square_operator,
    require_nonnegative_int,
)

__all__ = ["batched_cg", "batched_vr_cg"]

# Mirrors repro.core.vr_cg._DIVERGENCE_FACTOR: recurred residual growth
# beyond this factor over max(‖r⁰‖, ‖b‖) is finite-precision divergence.
_DIVERGENCE_FACTOR = 1e8


class _Batch:
    """Shared per-column bookkeeping: thresholds, histories, deflation.

    The solvers keep their *active* working blocks compacted to the
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
        # The solvers update x_active (contiguous, compacted alongside the
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
            if tele is not None:
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
        LAST axis so both ``(n, m)`` blocks and ``(rows, n, m)`` power
        tensors pass through unchanged in structure."""
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
    workspace: Any = None,
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

    ws = workspace if workspace is not None else Workspace()

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
        np.multiply(p, lam, out=work)
        batch.x_active += work
        np.multiply(ap, lam, out=work)
        r -= work
        add_axpy(r.size, flops_per_entry=4)

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
        p *= alpha
        p += r
        add_axpy(p.size)
        rr = rr_new

    return batch.finish("batched-cg")


# ----------------------------------------------------------------------
# Batched Van Rosendale CG
# ----------------------------------------------------------------------
def _block_power_startup(
    op: LinearOperator, r0: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block analogue of :meth:`PowerBlock.startup`: power tensors
    ``r_powers[i] = Aⁱ r⁰`` (shape ``(k+2, n, m)``) and ``p_powers``
    (shape ``(k+3, n, m)``) with ``p⁰ = r⁰``."""
    k2, n, m = k + 2, r0.shape[0], r0.shape[1]
    r_powers = np.empty((k2, n, m))
    r_powers[0] = r0
    for i in range(1, k2):
        r_powers[i] = block_matvec(op, r_powers[i - 1])
    p_powers = np.empty((k2 + 1, n, m))
    p_powers[:k2] = r_powers
    p_powers[k2] = block_matvec(op, p_powers[k2 - 1])
    return r_powers, p_powers


def _block_power_rebuild(
    op: LinearOperator, r: np.ndarray, p: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block analogue of :meth:`PowerBlock.rebuild` (replacement path:
    fresh residual, RETAINED direction)."""
    n, m = r.shape
    r_powers = np.empty((k + 2, n, m))
    r_powers[0] = r
    for i in range(1, k + 2):
        r_powers[i] = block_matvec(op, r_powers[i - 1])
    p_powers = np.empty((k + 3, n, m))
    p_powers[0] = p
    for i in range(1, k + 3):
        p_powers[i] = block_matvec(op, p_powers[i - 1])
    return r_powers, p_powers


def _block_moment(
    left: np.ndarray, right: np.ndarray, i: int, *, label: str
) -> np.ndarray:
    """``(xⱼ, Aⁱ yⱼ)`` for every column ``j`` by symmetric splitting --
    one fused ``m``-wide reduction (cf. :func:`~repro.core.moments.
    direct_moment`)."""
    lo = i // 2
    return block_dot(left[lo], right[i - lo], label=label)


def _block_windows(
    k: int, r_powers: np.ndarray, p_powers: np.ndarray, *, label: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill whole per-column moment windows by direct fused products:
    ``mu (2k+1, m)``, ``nu (2k+2, m)``, ``sigma (2k+3, m)``."""
    mu = np.stack(
        [_block_moment(r_powers, r_powers, i, label=label) for i in range(2 * k + 1)]
    )
    nu = np.stack(
        [_block_moment(r_powers, p_powers, i, label=label) for i in range(2 * k + 2)]
    )
    sigma = np.stack(
        [_block_moment(p_powers, p_powers, i, label=label) for i in range(2 * k + 3)]
    )
    return mu, nu, sigma


def batched_vr_cg(
    a: Any,
    b: np.ndarray,
    *,
    k: int = 2,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    replace_every: int | None = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
) -> BatchedResult:
    """Solve ``A X = B`` by block-batched Van Rosendale restructured CG.

    The single-RHS solver's state -- :class:`~repro.core.powers.PowerBlock`
    and :class:`~repro.core.moments.MomentWindow` -- vectorizes over
    columns: powers become ``(rows, n, m)`` tensors updated by broadcast
    axpys and ONE block matvec per sweep, windows become ``(width, m)``
    arrays advanced by the same scalar recurrences broadcast columnwise,
    and the two per-iteration direct inner products of claim C6 become
    two fused ``m``-wide :func:`~repro.util.kernels.block_dot` launches.
    The reduction count per sweep is therefore the single-RHS solver's,
    independent of ``m``.

    Residual replacement is periodic only (``replace_every``); the
    adaptive drift detector of the single-RHS solver is not offered here
    (it would add a third fused reduction per sweep).  Converged columns
    deflate exactly as in :func:`batched_cg`.

    Returns
    -------
    BatchedResult
        ``residual_norms`` hold the per-column *recurred* ``√μ₀`` values.
    """
    op = as_operator(a)
    b_block = as_2d_float_array(b, "B")
    check_square_operator(op, b_block.shape[0])
    k = require_nonnegative_int(k, "k")
    stop = stop or StoppingCriterion()
    if replace_every is not None and replace_every < 1:
        raise ValueError(f"replace_every must be >= 1, got {replace_every}")

    from repro.backend import Workspace

    ws = workspace if workspace is not None else Workspace()
    label = f"batched-vr-cg(k={k})"
    batch = _Batch(op, b_block, x0, stop, telemetry, label)
    n, m = batch.n, batch.m
    if telemetry is not None:
        telemetry.solve_start(
            "batched-vr", label, n, m=m, k=k, replace_every=replace_every
        )

    r0 = b_block - block_matvec(op, batch.x)
    r_powers, p_powers = _block_power_startup(op, r0, k)
    mu, nu, sigma = _block_windows(k, r_powers, p_powers, label="batched_startup_dot")

    res = np.sqrt(np.maximum(mu[0], 0.0))
    batch.record(res, 0)
    res0 = np.maximum(res, batch.b_norms)  # per-column divergence baseline

    done0 = np.flatnonzero(res <= batch.thresholds)
    if done0.size:
        batch.retire(done0, StopReason.CONVERGED, 0)
        keep = np.flatnonzero(res > batch.thresholds)
        r_powers, p_powers, mu, nu, sigma, res0 = batch.compact(
            keep, r_powers, p_powers, mu, nu, sigma, res0
        )

    budget = stop.budget(n)
    iteration = 0
    since_replacement = 0
    while batch.width and iteration < budget:
        mu0 = mu[0]
        sigma1 = sigma[1]

        # Recurred quadratic forms must stay positive for SPD systems; a
        # sign flip is a per-column finite-precision breakdown.
        bad = np.flatnonzero((sigma1 <= 0.0) | (mu0 <= 0.0))
        if bad.size:
            batch.retire(bad, StopReason.BREAKDOWN, iteration)
            keep = np.flatnonzero((sigma1 > 0.0) & (mu0 > 0.0))
            r_powers, p_powers, mu, nu, sigma, res0 = batch.compact(
                keep, r_powers, p_powers, mu, nu, sigma, res0
            )
            if not batch.width:
                break
            mu0, sigma1 = mu[0], sigma[1]

        iteration += 1
        since_replacement += 1
        lam = mu0 / sigma1
        add_scalar_flops(lam.size)

        # x update uses the plain direction block (power 0).
        batch.x_active += p_powers[0] * lam
        add_axpy(p_powers[0].size)

        # Advance residual powers: R_i <- R_i - lam * P_{i+1} (broadcast
        # over the column axis; one fused statement for the whole tensor,
        # staged through a workspace block instead of a fresh temporary).
        scratch = ws.get("batched_power_scratch", r_powers.shape)
        np.multiply(p_powers[1 : k + 3], lam, out=scratch)
        r_powers -= scratch
        add_axpy(r_powers.size)

        # mu recurrence (columnwise), then the alpha ratio.
        width_mu = 2 * k + 1
        mu_new = mu - 2.0 * lam * nu[1 : width_mu + 1] + lam * lam * sigma[2 : width_mu + 2]
        add_scalar_flops(5 * mu_new.size)
        mu0_new = mu_new[0]
        res = np.sqrt(np.maximum(mu0_new, 0.0))
        batch.record(res, iteration)
        if telemetry is not None:
            telemetry.iteration(iteration, float(res.max()))
            telemetry.active_set(iteration, batch.width)

        conv = res <= batch.th_active
        broke = (mu0_new <= 0.0) | ~np.isfinite(mu0_new)
        diverged = res > _DIVERGENCE_FACTOR * res0
        drop_break = np.flatnonzero(~conv & (broke | diverged))
        drop_conv = np.flatnonzero(conv)
        if drop_conv.size:
            batch.retire(drop_conv, StopReason.CONVERGED, iteration)
        if drop_break.size:
            batch.retire(drop_break, StopReason.BREAKDOWN, iteration)
        if drop_conv.size or drop_break.size:
            keep = np.flatnonzero(~conv & ~broke & ~diverged)
            (r_powers, p_powers, mu, nu, sigma, res0, mu_new, mu0, lam) = batch.compact(
                keep, r_powers, p_powers, mu, nu, sigma, res0, mu_new, mu0, lam
            )
            if not batch.width:
                break
            mu0_new = mu_new[0]

        alpha = mu0_new / mu0
        add_scalar_flops(alpha.size)

        # Direct fused product #1 (top mu) from the advanced r powers.
        mu_top = block_dot(r_powers[k], r_powers[k + 1], label="batched_direct_dot")

        # Advance direction powers (ONE block matvec), then fused #2.
        p_powers[: k + 2] *= alpha
        p_powers[: k + 2] += r_powers
        add_axpy(p_powers[: k + 2].size)
        block_matvec(op, p_powers[k + 1], out=p_powers[k + 2], work=ws)
        sigma_top = block_dot(
            p_powers[k + 1], p_powers[k + 1], label="batched_direct_dot"
        )

        # Columnwise window advance (cf. MomentWindow.advanced).
        w = nu - lam * sigma[1:]
        add_scalar_flops(2 * w.size)
        mu_ext = np.empty((2 * k + 2, batch.width))
        mu_ext[: 2 * k + 1] = mu_new
        mu_ext[2 * k + 1] = mu_top
        nu = mu_ext + alpha * w
        add_scalar_flops(2 * nu.size)
        sigma_new = np.empty((2 * k + 3, batch.width))
        sigma_new[: 2 * k + 2] = mu_ext + 2.0 * alpha * w + alpha * alpha * sigma[: 2 * k + 2]
        sigma_new[2 * k + 2] = sigma_top
        add_scalar_flops(5 * (2 * k + 2) * batch.width)
        mu, sigma = mu_new, sigma_new

        if replace_every is not None and since_replacement >= replace_every:
            if telemetry is not None:
                telemetry.replacement(iteration, "periodic")
            r_true = b_block[:, batch.active] - block_matvec(op, batch.x_active)
            r_powers, p_powers = _block_power_rebuild(
                op, r_true, p_powers[0].copy(), k
            )
            mu, nu, sigma = _block_windows(
                k, r_powers, p_powers, label="batched_rebuild_dot"
            )
            since_replacement = 0

    return batch.finish(label)
