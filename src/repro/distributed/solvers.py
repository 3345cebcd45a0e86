"""Distributed solvers with communication accounting.

SPMD implementations of the solver family over the simulated
communicator, structured exactly as their mpi4py counterparts would be
(rank-local vector arithmetic, partial dot products + allreduce, halo
exchange inside the matvec).  What they measure that the sequential
solvers cannot: **synchronizations per iteration**.

* :func:`distributed_cg` -- two *blocking* allreduces per iteration (the
  paper's problem, executable).
* :func:`distributed_cgcg` -- Chronopoulos--Gear: the two reductions fuse
  into one blocking allreduce per iteration.
* :func:`distributed_pipelined_vr` -- the paper's algorithm: every moment
  reduction is *nonblocking* with k iterations to complete; the steady
  state performs **zero** blocking synchronizations per iteration (the
  accounting proves it -- a forced early wait would be booked).

Each opens a :class:`~repro.core.results.SolveRun` as the sequential
solvers do -- ``‖b‖`` comes from the caller's ``b``, not from a
reduction a comm fault can corrupt -- and hands every residual to its
verdict.
"""

from __future__ import annotations

import numpy as np

from repro.core.coefficients import mu_index, sigma_index
from repro.core.pipeline import _CoefficientPipeline
from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.distributed.comm import DroppedReductionError, PendingReduction, SimComm
from repro.distributed.data import BlockVector, DistributedCSR
from repro.sparse.csr import CSRMatrix
from repro.sparse.matrix_powers import RowPartition
from repro.util.counters import traced
from repro.util.validation import require_positive_int

__all__ = [
    "distributed_cg",
    "distributed_cgcg",
    "distributed_sstep",
    "distributed_pipelined_vr",
]


def _setup(
    run: SolveRun, nranks: int, reduction_latency: int = 1
) -> tuple[DistributedCSR, BlockVector, RowPartition, SimComm]:
    """Partition the run's system and make its communicator."""
    part = RowPartition.uniform(run.b.shape[0], nranks)
    comm = SimComm(
        nranks, reduction_latency=reduction_latency, telemetry=run.telemetry,
        faults=run.plan,
    )
    return (
        DistributedCSR(run.op_true, part), BlockVector.from_global(run.b, part),
        part, comm,
    )


def _finish(
    run: SolveRun,
    comm: SimComm,
    reason: StopReason,
    x: BlockVector,
    iterations: int,
    *,
    alphas: list[float] | None = None,
    lambdas: list[float] | None = None,
) -> tuple[CGResult, SimComm]:
    """Check the communicator drained, then close the run on ``x``."""
    comm.assert_drained()
    _annotate_comm_stats(run.telemetry, comm)
    result = run.finish(
        reason, x.to_global(), iterations, alphas=alphas, lambdas=lambdas,
        extras={"comm_stats": comm.stats},
    )
    return result, comm


def _annotate_comm_stats(telemetry, comm: SimComm) -> None:
    """Attach the run's synchronization accounting to the open solve span.

    Called immediately before ``telemetry.solve_end`` so the annotations
    land on the solve span while it is still the innermost open one.  The
    critical-path profiler reads ``synchronizations_on_critical_path``
    off the span instead of re-deriving it from events.
    """
    tracer = telemetry.tracer if telemetry is not None else None
    if tracer is not None:
        stats = comm.stats
        tracer.annotate(
            synchronizations_on_critical_path=(
                stats.synchronizations_on_critical_path()
            ),
            blocking_allreduces=stats.blocking_allreduces,
            hidden_allreduces=stats.hidden_allreduces,
            forced_waits=stats.forced_waits,
        )


def distributed_cg(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    nranks: int = 4,
    stop: StoppingCriterion | None = None,
    faults=None,
    telemetry: "Telemetry | None" = None,
) -> tuple[CGResult, SimComm]:
    """Classical CG, SPMD form: 2 blocking allreduces + 1 halo per iter.

    ``telemetry`` takes an optional :class:`repro.telemetry.Telemetry`
    hook; every collective and halo exchange is emitted as a
    :class:`~repro.telemetry.ReductionEvent` alongside the per-iteration
    events, and the returned result carries ``comm.stats`` in
    ``extras["comm_stats"]``.

    ``faults`` takes a :class:`repro.faults.FaultPlan` (or injector(s));
    comm-site injectors corrupt the blocking allreduce results.  Under a
    plan a convergence claim must hold on the true residual, so a
    corrupted run reports ``converged=False`` rather than lying.
    """
    run = SolveRun.open(
        "dist-cg", f"dist-cg(P={nranks})", a, b, stop=stop, faults=faults,
        telemetry=telemetry, nranks=nranks,
    )
    plan = run.plan
    dist_a, b_vec, part, comm = _setup(run, nranks)

    x = BlockVector.zeros(part)
    r = b_vec.copy()  # x0 = 0
    p = r.copy()
    rr = float(comm.allreduce(r.dot_partials(r)))
    lambdas: list[float] = []
    alphas: list[float] = []

    reason = StopReason.MAX_ITER
    iterations = 0
    if run.start(float(np.sqrt(max(rr, 0.0))), x):
        reason = StopReason.CONVERGED
    else:
        for _ in range(run.stop.budget(part.n)):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            ap = dist_a.matvec(p, comm)
            # The partials are a local_dot span, and the comm layer
            # records the allreduce as a sibling allreduce_wait span.
            pap = float(comm.allreduce(p.dot_partials(ap)))
            if pap <= 0 or not np.isfinite(pap):
                reason = StopReason.BREAKDOWN
                break
            lam = rr / pap
            lambdas.append(lam)
            x.axpy_inplace(lam, p)
            r.axpy_inplace(-lam, ap)
            iterations += 1
            comm.advance_iteration()
            rr_new = float(comm.allreduce(r.dot_partials(r)))
            verdict = run.verdict(
                iterations, float(np.sqrt(max(rr_new, 0.0))), x, lam=lam
            )
            if verdict is not None:
                reason = run.ending(verdict)
                break
            alpha = rr_new / rr
            alphas.append(alpha)
            p.scale_add(alpha, r)
            rr = rr_new

    return _finish(run, comm, reason, x, iterations, alphas=alphas, lambdas=lambdas)


def distributed_cgcg(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    nranks: int = 4,
    stop: StoppingCriterion | None = None,
    faults=None,
    telemetry: "Telemetry | None" = None,
) -> tuple[CGResult, SimComm]:
    """Chronopoulos--Gear, SPMD form: ONE blocking allreduce per iteration
    (both partial dots ride the same collective).

    ``faults`` takes a :class:`repro.faults.FaultPlan`; comm-site
    injectors corrupt the fused collective; a convergence claim must
    hold on the true residual.
    """
    run = SolveRun.open(
        "dist-cgcg", f"dist-cgcg(P={nranks})", a, b, stop=stop, faults=faults,
        telemetry=telemetry, nranks=nranks,
    )
    plan = run.plan
    dist_a, b_vec, part, comm = _setup(run, nranks)

    x = BlockVector.zeros(part)
    r = b_vec.copy()
    w = dist_a.matvec(r, comm)
    fused = comm.allreduce(
        np.stack([r.dot_partials(r), r.dot_partials(w)], axis=1)
    )
    rr, rar = float(fused[0]), float(fused[1])
    lambdas: list[float] = []
    alphas: list[float] = []

    p = BlockVector.zeros(part)
    s = BlockVector.zeros(part)
    lam = 0.0
    reason = StopReason.MAX_ITER
    iterations = 0
    if run.start(float(np.sqrt(max(rr, 0.0))), x):
        reason = StopReason.CONVERGED
    else:
        for it in range(run.stop.budget(part.n)):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            if it == 0:
                beta = 0.0
                if rar <= 0 or not np.isfinite(rar):
                    reason = StopReason.BREAKDOWN
                    break
                lam = rr / rar
            else:
                beta = rr / rr_prev
                denom = rar - (beta / lam) * rr
                if denom <= 0 or not np.isfinite(denom):
                    reason = StopReason.BREAKDOWN
                    break
                lam = rr / denom
                alphas.append(beta)
            lambdas.append(lam)
            p.scale_add(beta, r)
            s.scale_add(beta, w)
            x.axpy_inplace(lam, p)
            r.axpy_inplace(-lam, s)
            iterations += 1
            comm.advance_iteration()
            w = dist_a.matvec(r, comm)
            rr_prev = rr
            fused = comm.allreduce(
                np.stack([r.dot_partials(r), r.dot_partials(w)], axis=1)
            )
            rr, rar = float(fused[0]), float(fused[1])
            verdict = run.verdict(
                iterations, float(np.sqrt(max(rr, 0.0))), x, lam=lam,
                recurred_rr=rr,
            )
            if verdict is not None:
                reason = run.ending(verdict)
                break

    return _finish(run, comm, reason, x, iterations, alphas=alphas, lambdas=lambdas)


def distributed_sstep(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    s: int = 4,
    nranks: int = 4,
    stop: StoppingCriterion | None = None,
    faults=None,
    telemetry: "Telemetry | None" = None,
) -> tuple[CGResult, SimComm]:
    """s-step CG, SPMD form: TWO blocking allreduces per s CG steps.

    Phase 1 fuses ``W = PᵀAP`` and ``g = Pᵀr`` into one collective; after
    the block step, phase 2 fuses the conjugation cross-block
    ``(AP)ᵀK`` with the new residual norm into a second.  Amortized
    ``2/s`` synchronizations per CG step (the two phases are genuinely
    dependent -- the new basis needs the new residual).  The small solves
    are replicated on every rank, standard s-step practice.
    """
    s = require_positive_int(s, "s")
    run = SolveRun.open(
        "dist-sstep", f"dist-sstep(s={s},P={nranks})", a, b, stop=stop,
        faults=faults, telemetry=telemetry, s=s, nranks=nranks,
    )
    plan = run.plan
    dist_a, b_vec, part, comm = _setup(run, nranks)

    def krylov_block(r: BlockVector) -> tuple[list[BlockVector], list[BlockVector]]:
        k_blk = [r.copy()]
        ak_blk = []
        for i in range(s):
            ak_blk.append(dist_a.matvec(k_blk[i], comm))
            if i + 1 < s:
                k_blk.append(ak_blk[i].copy())
        return k_blk, ak_blk

    x = BlockVector.zeros(part)
    r = b_vec.copy()
    rr0 = float(comm.allreduce(r.dot_partials(r)))
    reason = StopReason.MAX_ITER
    cg_steps = 0

    if run.start(float(np.sqrt(max(rr0, 0.0))), x):
        reason = StopReason.CONVERGED
    else:
        p_blk, ap_blk = krylov_block(r)
        max_outer = (run.stop.budget(part.n) + s - 1) // s
        for _ in range(max_outer):
            if plan is not None:
                plan.begin_iteration(cg_steps + 1)
            # phase 1: fused [W | g]
            cols = [
                p_blk[i].dot_partials(ap_blk[j])
                for i in range(s)
                for j in range(s)
            ] + [p_blk[i].dot_partials(r) for i in range(s)]
            stacked = np.stack(cols, axis=1)
            fused = comm.allreduce(stacked)
            w_mat = fused[: s * s].reshape(s, s)
            g_vec = fused[s * s :]
            try:
                coeffs = np.linalg.solve(w_mat, g_vec)
            except np.linalg.LinAlgError:
                reason = StopReason.BREAKDOWN
                break
            if not np.all(np.isfinite(coeffs)):
                reason = StopReason.BREAKDOWN
                break
            for i in range(s):
                x.axpy_inplace(float(coeffs[i]), p_blk[i])
                r.axpy_inplace(-float(coeffs[i]), ap_blk[i])
            cg_steps += s
            comm.advance_iteration()

            # phase 2: new basis from the NEW residual, fused [cross | rr]
            k_blk, ak_blk = krylov_block(r)
            cols = [
                ap_blk[i].dot_partials(k_blk[j])
                for i in range(s)
                for j in range(s)
            ] + [r.dot_partials(r)]
            stacked = np.stack(cols, axis=1)
            fused = comm.allreduce(stacked)
            cross = fused[: s * s].reshape(s, s)
            rr = float(fused[-1])
            verdict = run.verdict(cg_steps, float(np.sqrt(max(rr, 0.0))), x)
            if verdict is not None:
                reason = run.ending(verdict)
                break
            try:
                b_mat = np.linalg.solve(w_mat, cross)
            except np.linalg.LinAlgError:
                reason = StopReason.BREAKDOWN
                break
            new_p = []
            new_ap = []
            for j in range(s):
                pj = k_blk[j].copy()
                apj = ak_blk[j].copy()
                for i in range(s):
                    pj.axpy_inplace(-float(b_mat[i, j]), p_blk[i])
                    apj.axpy_inplace(-float(b_mat[i, j]), ap_blk[i])
                new_p.append(pj)
                new_ap.append(apj)
            p_blk, ap_blk = new_p, new_ap

    return _finish(run, comm, reason, x, cg_steps)


@traced("local_dot")
def _window_partials(
    k: int, r_pows: list[BlockVector], p_pows: list[BlockVector]
) -> np.ndarray:
    """Per-rank partials of the stacked moment state ``[μ | ν | σ]``.

    Moment order i splits as ``(A^{i//2} u, A^{(i+1)//2} v)`` -- the same
    symmetric power splitting the sequential window uses -- and each
    entry's partial is a rank-local block dot; the whole payload is one
    ``local_dot`` span.
    """
    nranks = r_pows[0].partition.nblocks
    width = 6 * k + 6
    out = np.zeros((nranks, width))
    col = 0
    for i in range(2 * k + 1):  # mu
        out[:, col] = r_pows[i // 2].dot_partials(r_pows[i - i // 2])
        col += 1
    for i in range(2 * k + 2):  # nu
        out[:, col] = r_pows[i // 2].dot_partials(p_pows[i - i // 2])
        col += 1
    for i in range(2 * k + 3):  # sigma
        out[:, col] = p_pows[i // 2].dot_partials(p_pows[i - i // 2])
        col += 1
    return out


def distributed_pipelined_vr(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    k: int = 2,
    nranks: int = 4,
    stop: StoppingCriterion | None = None,
    use_matrix_powers_kernel: bool = False,
    faults=None,
    recovery=None,
    telemetry: "Telemetry | None" = None,
) -> tuple[CGResult, SimComm]:
    """Pipelined Van Rosendale CG, SPMD form.

    All moment reductions are issued as *nonblocking* collectives with a
    k-iteration completion window; the steady state consumes only ready
    handles, so ``stats.synchronizations_on_critical_path()`` counts only
    the startup transient -- the executable form of the paper's claim
    that inner-product latency leaves the iteration's critical path.

    With ``use_matrix_powers_kernel=True`` the startup power block is
    built by the communication-avoiding matrix powers kernel
    (:mod:`repro.sparse.matrix_powers`): ONE ghost fetch replaces the
    ``k+2`` startup halo exchanges, at the cost of the kernel's redundant
    surface flops -- the E12 trade applied inside the E13 solver.

    ``faults`` takes a :class:`repro.faults.FaultPlan`; comm-site
    injectors corrupt, delay, or *drop* the in-flight moment reductions.
    ``recovery`` takes a :class:`repro.faults.RecoveryPolicy` or preset
    name; whatever detectors it names, it arms only the comm-drop
    recompute here.  When a look-ahead reduction is dropped, a recovery-enabled
    solve falls back to the startup-transient path for that step -- the
    moment window is recomputed by a blocking front collective (booked
    honestly as a synchronization) and the pipeline refills -- which is
    precisely the predict-and-recompute discipline; without a policy the
    drop is a :class:`~repro.distributed.comm.DroppedReductionError`
    breakdown and the solve reports ``converged=False``.
    """
    k = require_positive_int(k, "k")
    run = SolveRun.open(
        "dist-pipelined-vr", f"dist-pipelined-vr(k={k},P={nranks})", a, b,
        stop=stop, faults=faults, recovery=recovery, telemetry=telemetry,
        k=k, nranks=nranks, use_matrix_powers_kernel=use_matrix_powers_kernel,
    )
    # No restart path here: under on_unrecoverable="raise" any breakdown
    # is final.  The run books the recompute repairs and owns the exit.
    run.max_restarts = 0
    plan, policy = run.plan, run.policy
    dist_a, b_vec, part, comm = _setup(run, nranks, reduction_latency=k)
    tracer = telemetry.tracer if telemetry is not None else None
    w = k  # state layout parameter

    x = BlockVector.zeros(part)
    if tracer is not None:
        tracer.begin("startup")
    if use_matrix_powers_kernel:
        # startup powers of r0 = p0 with a single k+2-hop ghost fetch;
        # the ghost-structure walk is pure setup, so memoize it in the
        # process-wide setup cache keyed by (matrix, partition, depth).
        from repro.backend import matrix_fingerprint, setup_cache
        from repro.sparse.matrix_powers import MatrixPowersKernel

        kernel = setup_cache().get_or_build(
            "matrix_powers",
            matrix_fingerprint(a),
            (tuple(int(v) for v in part.starts), k + 2),
            lambda: MatrixPowersKernel(a, part, k + 2),
        )
        comm.record_halo_exchange(kernel.stats().ghost_words)
        powers_global = kernel.compute(b_vec.to_global())
        r_pows = [
            BlockVector.from_global(powers_global[i], part) for i in range(k + 2)
        ]
        p_pows = [v.copy() for v in r_pows]
        p_pows.append(BlockVector.from_global(powers_global[k + 2], part))
    else:
        # startup: powers of r0 = p0 (k+2 halo-exchanged matvecs)
        r_pows = [b_vec.copy()]
        for i in range(k + 1):
            r_pows.append(dist_a.matvec(r_pows[-1], comm))
        p_pows = [v.copy() for v in r_pows]
        p_pows.append(dist_a.matvec(p_pows[-1], comm))
    if tracer is not None:
        tracer.end("startup")

    pipeline = _CoefficientPipeline(k, w)
    pending: dict[int, PendingReduction] = {}

    def launch(iteration: int) -> None:
        # Partials are rank-local work (local_dot); the comm layer books
        # the nonblocking collective's completion as an allreduce_wait
        # span at wait() time.
        pending[iteration] = comm.iallreduce(_window_partials(k, r_pows, p_pows))

    def front_partials() -> np.ndarray:
        return _window_partials(k, r_pows, p_pows)

    # iteration 0's front values: blocking (the startup serialization).
    # The first pipelined consume reads the launch from loop step 0, so
    # no separate launch is needed here.
    front = comm.allreduce(front_partials())
    mu0 = float(front[mu_index(w, 0)])
    sigma1 = float(front[sigma_index(w, 1)])
    lambdas: list[float] = []
    alphas: list[float] = []
    for t in range(1, k + 1):
        pipeline.open_target(t)

    reason = StopReason.MAX_ITER
    iterations = 0
    if run.start(float(np.sqrt(max(mu0, 0.0))), x):
        reason = StopReason.CONVERGED
    else:
        for step in range(run.stop.budget(part.n)):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            if mu0 <= 0 or sigma1 <= 0:
                reason = StopReason.BREAKDOWN
                break
            lam = mu0 / sigma1
            lambdas.append(lam)
            x.axpy_inplace(lam, p_pows[0])
            iterations += 1

            # vector pipeline (rank-local except the one matvec)
            for i in range(k + 2):
                r_pows[i].axpy_inplace(-lam, p_pows[i + 1])

            target = step + 1
            recomputed = False
            if target <= k:
                pipeline.matrices.pop(target, None)
                front = comm.allreduce(front_partials())
                mu0_next = float(front[mu_index(w, 0)])
            else:
                try:
                    state = pending.pop(target - k).wait()
                except DroppedReductionError:
                    if policy is None:
                        reason = StopReason.BREAKDOWN
                        break
                    # The look-ahead result never arrived: fall back to
                    # the startup-transient path for this step -- discard
                    # the coefficient matrix, recompute the moment window
                    # with a blocking front collective (the recovery cost
                    # is booked honestly as a synchronization), and let
                    # the pipeline refill behind it.
                    pipeline.matrices.pop(target, None)
                    front = comm.allreduce(front_partials())
                    mu0_next = float(front[mu_index(w, 0)])
                    run.book(iterations, "recompute", "comm_drop")
                    recomputed = True
                else:
                    mu0_next, _, sigma1_pipe = pipeline.consume(
                        target, lam, state, mu0
                    )
            verdict = run.verdict(
                iterations, float(np.sqrt(max(mu0_next, 0.0))), x, lam=lam,
                recurred_rr=mu0_next,
            )
            if verdict is not None:
                reason = run.ending(verdict)
                break
            alpha = mu0_next / mu0
            alphas.append(alpha)
            for i in range(k + 2):
                p_pows[i].scale_add(alpha, r_pows[i])
            p_pows[k + 2] = dist_a.matvec(p_pows[k + 1], comm)

            if target <= k or recomputed:
                front = comm.allreduce(front_partials())
                sigma1_next = float(front[sigma_index(w, 1)])
            else:
                sigma1_next = sigma1_pipe
            launch(target)
            pipeline.push_step(target, lam, alpha)
            pipeline.open_target(target + k)
            comm.advance_iteration()
            mu0, sigma1 = mu0_next, sigma1_next

    # Convergence (or breakdown) exits the loop with up to k look-ahead
    # reductions still in flight; their results are no longer needed, so
    # cancel rather than wait -- a wait here would book forced_waits and
    # falsely charge the steady state with synchronizations.  After this
    # the communicator is drained by construction.
    for handle in pending.values():
        handle.cancel()
    pending.clear()
    return _finish(run, comm, reason, x, iterations, alphas=alphas, lambdas=lambdas)
