"""Chronopoulos--Gear CG (1989): the field's rediscovery of ``k = 0``.

Six years after the paper, Chronopoulos and Gear published a CG variant
whose two inner products -- ``(r, r)`` and ``(r, Ar)`` -- are computed on
the *same* vector and can therefore share one combined reduction
(one synchronization point per iteration instead of two), with ``(p, Ap)``
obtained by a scalar recurrence::

    σn = (r, Ar)n − (βn²/λn−1) · (r, r)n−1 ... equivalently
    λn = rrn / (rArn − (βn/λn−1)·rrn)

Structurally this is exactly the Van Rosendale moment machinery at window
``k = 0``: one moment (``σ₁``) recurred, the rest direct.  It is included
as the historical baseline the equivalence and depth experiments compare
against -- its recurrence depth sits between classical CG (two serial
fan-ins) and the full look-ahead restructuring (none on the cycle).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import as_operator, matvec_into
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import as_1d_float_array, check_square_operator

__all__ = ["chronopoulos_gear_cg"]


def chronopoulos_gear_cg(
    a: Any,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    faults: Any = None,
    recovery: Any = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
) -> CGResult:
    """Solve the SPD system by Chronopoulos--Gear CG.

    Per iteration: one matvec (``w = Ar``), two *simultaneous* inner
    products ``(r,r)`` and ``(r,w)``, and recurrences for everything else.
    ``telemetry`` takes an optional :class:`repro.telemetry.Telemetry`
    hook (per-iteration events with the recurred ``(r, r)``).

    ``faults`` takes a :class:`repro.faults.FaultPlan` (matvec-site
    injectors corrupt the ``Ar`` outputs, dot-site injectors the fused
    pair).  ``recovery`` takes a :class:`repro.faults.RecoveryPolicy` or
    preset name: sampled residual replacement on the policy's cadence
    (the replacement recomputes ``r``, ``w = Ar`` and ``s = Ap``, keeping
    the direction) plus bounded full restarts when the ``σ`` recurrence
    denominator breaks down.

    ``workspace`` takes a :class:`repro.backend.Workspace` arena; the
    fused dots, axpys and the steady-state matvec all draw scratch from
    it.
    """
    op = as_operator(a)
    b = as_1d_float_array(b, "b")
    n = check_square_operator(op, b.shape[0])
    stop = stop or StoppingCriterion()
    from repro.backend import Workspace

    ws = workspace if workspace is not None else Workspace()

    from repro.faults import RecoveryPolicy, UnrecoverableDivergence, as_fault_plan

    policy = RecoveryPolicy.from_spec(recovery)
    plan = as_fault_plan(faults)

    x = np.zeros(n) if x0 is None else as_1d_float_array(x0, "x0").copy()
    if telemetry is not None:
        telemetry.solve_start("cg-cg", "chronopoulos-gear-cg", n)
        telemetry.iterate(x)
    op_true = op
    if plan is not None:
        plan.attach(telemetry)
        op = plan.wrap_operator(op)
    b_norm = norm(b)
    r = b - op.matvec(x)
    w = op.matvec(r)
    rr = dot(r, r, label="fused_dot")
    rar = dot(r, w, label="fused_dot")
    if plan is not None:
        rr = plan.corrupt_dot(rr, "rr")
        rar = plan.corrupt_dot(rar, "rar")
    res_norms = [float(np.sqrt(max(rr, 0.0)))]
    alphas: list[float] = []
    lambdas: list[float] = []
    recoveries: dict[str, int] = {"replace": 0, "restart": 0, "recompute": 0}
    restarts_used = 0
    check_every = None
    drift_tol = None
    if policy is not None:
        check_every = policy.verify_every or policy.replace_every or 5
        drift_tol = policy.drift_tol if policy.drift_tol is not None else policy.verify_rtol

    p = np.zeros(n)
    s = np.zeros(n)  # s = A p
    lam = 0.0
    beta = 0.0

    def _restart() -> None:
        """Fresh residual, direction history dropped (it==0 semantics)."""
        nonlocal r, w, rr, rar, since_check
        r = b - op.matvec(x)
        w = op.matvec(r)
        rr = dot(r, r, label="fused_dot")
        rar = dot(r, w, label="fused_dot")
        p[:] = 0.0
        s[:] = 0.0
        since_check = 0

    reason = StopReason.MAX_ITER
    iterations = 0
    since_check = 0
    fresh_start = True
    if stop.is_met(res_norms[0], b_norm):
        reason = StopReason.CONVERGED
    else:
        for _ in range(stop.budget(n)):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            if fresh_start:
                beta = 0.0
                if rar <= 0.0 or not np.isfinite(rar):
                    # Already on a fresh residual: restarting again would
                    # recompute the same broken quantities.
                    reason = StopReason.BREAKDOWN
                    break
                lam = rr / rar
                fresh_start = False
            else:
                beta = rr / rr_prev
                denom = rar - (beta / lam) * rr
                if denom <= 0.0 or not np.isfinite(denom):
                    if policy is not None and restarts_used < policy.max_restarts:
                        restarts_used += 1
                        recoveries["restart"] += 1
                        if telemetry is not None:
                            telemetry.recovery(iterations, "restart", "breakdown")
                        _restart()
                        fresh_start = True
                        continue
                    reason = StopReason.BREAKDOWN
                    break
                lam = rr / denom
                alphas.append(beta)
            lambdas.append(lam)

            axpy(beta, p, r, out=p, work=ws)  # p = r + beta p
            axpy(beta, s, w, out=s, work=ws)  # s = w + beta s = A p
            axpy(lam, p, x, out=x, work=ws)
            axpy(-lam, s, r, out=r, work=ws)
            iterations += 1
            since_check += 1

            if plan is None:
                matvec_into(op, r, w, work=ws)
            else:
                w = op.matvec(r)
            rr_prev = rr
            rr = dot(r, r, label="fused_dot")
            rar = dot(r, w, label="fused_dot")
            if plan is not None:
                rr = plan.corrupt_dot(rr, "rr")
                rar = plan.corrupt_dot(rar, "rar")
            res_norms.append(float(np.sqrt(max(rr, 0.0))))
            if telemetry is not None:
                telemetry.iteration(
                    iterations, res_norms[-1], lam=lam, recurred_rr=rr
                )
                telemetry.iterate(x)
            if stop.is_met(res_norms[-1], b_norm):
                # A corrupted rr can fake convergence; under injection
                # verify against the true residual before accepting.
                if plan is None or norm(
                    b - op_true.matvec(x)
                ) <= stop.threshold(b_norm):
                    reason = StopReason.CONVERGED
                    break
                if policy is not None and restarts_used < policy.max_restarts:
                    restarts_used += 1
                    recoveries["restart"] += 1
                    if telemetry is not None:
                        telemetry.recovery(
                            iterations, "restart", "false_convergence"
                        )
                    _restart()
                    fresh_start = True
                    continue
                reason = StopReason.BREAKDOWN
                break

            # Sampled replacement: the vector-recurred r vs. the truth.
            if check_every is not None and since_check >= check_every:
                since_check = 0
                r_true = b - op.matvec(x)
                rr_direct = dot(r_true, r_true, label="drift_check_dot")
                if telemetry is not None:
                    telemetry.drift(iterations, rr, rr_direct)
                floor = max(
                    stop.threshold(b_norm) ** 2, np.finfo(np.float64).tiny
                )
                if rr_direct > floor:
                    gap = abs(rr - rr_direct) / rr_direct
                    if gap > drift_tol:
                        # Replace r and refresh the derived vectors but
                        # KEEP the conjugate direction p (s follows it).
                        r = r_true
                        w = op.matvec(r)
                        s = op.matvec(p)
                        rr = rr_direct
                        rar = dot(r, w, label="fused_dot")
                        recoveries["replace"] += 1
                        if telemetry is not None:
                            telemetry.replacement(iterations, "drift")
                            telemetry.recovery(
                                iterations, "replace", "drift", gap
                            )

    true_res = norm(b - op_true.matvec(x))
    reason = verified_exit(reason, true_res, stop.threshold(b_norm))
    if (
        policy is not None
        and policy.on_unrecoverable == "raise"
        and reason is StopReason.BREAKDOWN
        and restarts_used >= policy.max_restarts
    ):
        raise UnrecoverableDivergence(
            f"chronopoulos-gear-cg broke down after {iterations} iterations "
            f"and {restarts_used} restarts (true residual {true_res:.3e})"
        )
    extras: dict[str, Any] = {}
    if plan is not None:
        extras["faults"] = plan.counts()
    if policy is not None:
        extras["recoveries"] = dict(recoveries)
    result = CGResult(
        x=x,
        converged=reason is StopReason.CONVERGED,
        stop_reason=reason,
        iterations=iterations,
        residual_norms=res_norms,
        alphas=alphas,
        lambdas=lambdas,
        true_residual_norm=true_res,
        label="chronopoulos-gear-cg",
        extras=extras,
    )
    if telemetry is not None:
        telemetry.solve_end(result)
    return result
