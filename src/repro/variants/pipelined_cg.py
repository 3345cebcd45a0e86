"""Ghysels--Vanroose pipelined CG (2014): the modern descendant.

The communication-hiding CG used in practice (PETSc's ``KSPPIPECG``): the
two inner products ``γ = (r, r)`` and ``δ = (w, r)`` are launched, and the
matvec ``q = Aw`` is performed *while they are in flight* -- a depth-1
overlap, i.e. the paper's idea specialized to hiding one reduction behind
one matvec rather than behind k whole iterations.  Extra vector
recurrences keep everything consistent at the cost of three more axpys
and one extra stored vector, and the same class of finite-precision drift
the Van Rosendale machinery shows (here mitigated in production by
residual replacement, exactly as in :mod:`repro.core.vr_cg`).

Recurrences (Ghysels & Vanroose, Alg. 4)::

    γ = (r,r);  δ = (w,r);  q = A w           [overlapped]
    β = γ/γold (0 first);  α = γ/(δ − β γ/αold)   (γ/δ first)
    z = q + β z;  s = w + β s;  p = r + β p
    x += α p;  r -= α s;  w -= α z
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import as_operator, matvec_into
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import as_1d_float_array, check_square_operator

__all__ = ["ghysels_vanroose_cg"]


def ghysels_vanroose_cg(
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
    """Solve the SPD system by pipelined (Ghysels--Vanroose) CG.

    ``telemetry`` takes an optional :class:`repro.telemetry.Telemetry`
    hook (per-iteration events with the recurred ``γ = (r, r)``).

    ``faults`` takes a :class:`repro.faults.FaultPlan` (matvec-site
    injectors corrupt the ``Aw`` outputs, dot-site injectors the γ/δ
    pair).  ``recovery`` takes a :class:`repro.faults.RecoveryPolicy` or
    preset name: sampled residual replacement on the policy's cadence
    (the replacement recomputes ``r``, ``w = Ar``, ``s = Ap``, ``z = As``
    -- the price of three extra recurred vectors -- keeping the
    direction) plus bounded full restarts on denominator breakdown.

    ``workspace`` takes a :class:`repro.backend.Workspace` arena; the
    six axpys and the steady-state matvec draw scratch from it.
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
        telemetry.solve_start("gv", "ghysels-vanroose-cg", n)
        telemetry.iterate(x)
    op_true = op
    if plan is not None:
        plan.attach(telemetry)
        op = plan.wrap_operator(op)
    b_norm = norm(b)
    r = b - op.matvec(x)
    w = op.matvec(r)

    p = np.zeros(n)
    s = np.zeros(n)
    z = np.zeros(n)

    gamma = dot(r, r, label="pipelined_dot")
    delta = dot(w, r, label="pipelined_dot")
    if plan is not None:
        gamma = plan.corrupt_dot(gamma, "gamma")
        delta = plan.corrupt_dot(delta, "delta")
    res_norms = [float(np.sqrt(max(gamma, 0.0)))]
    alphas: list[float] = []
    lambdas: list[float] = []
    recoveries: dict[str, int] = {"replace": 0, "restart": 0, "recompute": 0}
    restarts_used = 0
    check_every = None
    drift_tol = None
    if policy is not None:
        check_every = policy.verify_every or policy.replace_every or 5
        drift_tol = policy.drift_tol if policy.drift_tol is not None else policy.verify_rtol

    alpha = 0.0
    gamma_old = 0.0

    def _restart() -> None:
        """Fresh residual, recurrence vectors reset (it==0 semantics)."""
        nonlocal r, w, gamma, delta, since_check
        r = b - op.matvec(x)
        w = op.matvec(r)
        gamma = dot(r, r, label="pipelined_dot")
        delta = dot(w, r, label="pipelined_dot")
        p[:] = 0.0
        s[:] = 0.0
        z[:] = 0.0
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
            # q = A w runs concurrently with the two dots on the machine
            # model; sequentially we just execute it here.
            if plan is None:
                q = ws.get("q", n)
                matvec_into(op, w, q, work=ws)
            else:
                q = op.matvec(w)
            if fresh_start:
                beta = 0.0
                if delta <= 0.0 or not np.isfinite(delta):
                    reason = StopReason.BREAKDOWN
                    break
                alpha = gamma / delta
                fresh_start = False
            else:
                beta = gamma / gamma_old
                denom = delta - beta * gamma / alpha
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
                alpha = gamma / denom
                alphas.append(beta)
            lambdas.append(alpha)

            axpy(beta, z, q, out=z, work=ws)  # z = q + beta z
            axpy(beta, s, w, out=s, work=ws)  # s = w + beta s
            axpy(beta, p, r, out=p, work=ws)  # p = r + beta p
            axpy(alpha, p, x, out=x, work=ws)
            axpy(-alpha, s, r, out=r, work=ws)
            axpy(-alpha, z, w, out=w, work=ws)
            iterations += 1
            since_check += 1

            gamma_old = gamma
            gamma = dot(r, r, label="pipelined_dot")
            delta = dot(w, r, label="pipelined_dot")
            if plan is not None:
                gamma = plan.corrupt_dot(gamma, "gamma")
                delta = plan.corrupt_dot(delta, "delta")
            res_norms.append(float(np.sqrt(max(gamma, 0.0))))
            if telemetry is not None:
                telemetry.iteration(
                    iterations, res_norms[-1], lam=alpha, recurred_rr=gamma
                )
                telemetry.iterate(x)
            if stop.is_met(res_norms[-1], b_norm):
                # A corrupted gamma can fake convergence; under injection
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
                gamma_direct = dot(r_true, r_true, label="drift_check_dot")
                if telemetry is not None:
                    telemetry.drift(iterations, gamma, gamma_direct)
                floor = max(
                    stop.threshold(b_norm) ** 2, np.finfo(np.float64).tiny
                )
                if gamma_direct > floor:
                    gap = abs(gamma - gamma_direct) / gamma_direct
                    if gap > drift_tol:
                        # Replace r and rebuild the three recurred
                        # auxiliary vectors; KEEP the direction p.
                        r = r_true
                        w = op.matvec(r)
                        s = op.matvec(p)
                        z = op.matvec(s)
                        gamma = gamma_direct
                        delta = dot(w, r, label="pipelined_dot")
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
            f"ghysels-vanroose-cg broke down after {iterations} iterations "
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
        label="ghysels-vanroose-cg",
        extras=extras,
    )
    if telemetry is not None:
        telemetry.solve_end(result)
    return result
