"""Predict-and-recompute CG (Chen & Carson 2019): the modern scalar cousin.

Where the paper hides inner-product latency behind *k whole iterations*
of moment recurrences, predict-and-recompute CG hides it behind *scalar
prediction*: each iteration first **predicts** the next ``ν = (r, r)``
from already-known scalars (``ν' = ν − 2αδ + α²γ``, exact in exact
arithmetic), uses the prediction to form ``β`` immediately, and then
**recomputes** every scalar it predicted with one fused reduction over
the freshly updated vectors -- so the prediction error never compounds
across iterations the way the Van Rosendale moment window drifts.

Two members are implemented:

* :func:`pr_cg` -- the eager form: one matvec ``w = Ar`` per iteration
  and one fused 4-dot reduction (``ν, μ, δ, γ``); a single
  synchronization per iteration, like Chronopoulos--Gear, but with the
  recomputation making it markedly more stable.
* :func:`pr_pipe_cg` -- the pipelined form: the auxiliary products
  ``w = Ar`` and ``u = As`` are maintained by vector recurrence so the
  iteration's one matvec (``u = As``) has no data dependence on the
  fused reduction and can overlap it (Ghysels--Vanroose style).

Both share the classical-CG hot path: instrumented fused dots and
axpys, workspace-arena buffers, fault-plan wrapping with sampled
residual replacement and bounded restarts under a
:class:`repro.faults.RecoveryPolicy`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import as_operator, matvec_into
from repro.util.counters import add_scalar_flops
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import as_1d_float_array, check_square_operator

__all__ = ["pr_cg", "pr_pipe_cg"]

# Recurred residual growth beyond this factor over max(‖r⁰‖, ‖b‖) is
# treated as finite-precision divergence (breakdown), not slow progress.
_DIVERGENCE_FACTOR = 1e8


def _pr_solve(
    a: Any,
    b: np.ndarray,
    *,
    pipelined: bool,
    x0: np.ndarray | None,
    stop: StoppingCriterion | None,
    faults: Any,
    recovery: Any,
    telemetry: "Telemetry | None",
    workspace: Any,
) -> CGResult:
    """Shared driver for the eager and pipelined predict-and-recompute forms."""
    label = "pr-pipe-cg" if pipelined else "pr-cg"
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
        telemetry.solve_start(label, label, n)
        telemetry.iterate(x)
    op_true = op
    if plan is not None:
        plan.attach(telemetry)
        op = plan.wrap_operator(op)
    b_norm = norm(b)

    r = np.zeros(n)
    p = np.zeros(n)
    s = np.zeros(n)
    w = np.zeros(n)  # w = A r, maintained by recurrence only when pipelined
    u = np.zeros(n)  # u = A s, pipelined form only
    nu = mu = delta = gamma = 0.0

    def _dots() -> None:
        """The fused 4-dot reduction: ν=(r,r), μ=(p,s), δ=(r,s), γ=(s,s)."""
        nonlocal nu, mu, delta, gamma
        nu = dot(r, r, label="pr_fused_dot")
        mu = dot(p, s, label="pr_fused_dot")
        delta = dot(r, s, label="pr_fused_dot")
        gamma = dot(s, s, label="pr_fused_dot")
        if plan is not None:
            nu = plan.corrupt_dot(nu, "nu")
            mu = plan.corrupt_dot(mu, "mu")
            delta = plan.corrupt_dot(delta, "delta")
            gamma = plan.corrupt_dot(gamma, "gamma")

    def _restart() -> None:
        """Fresh residual, direction reset to steepest descent."""
        nonlocal since_check
        r[:] = b - op.matvec(x)
        p[:] = r
        s[:] = op.matvec(p)
        if pipelined:
            w[:] = s  # A r = A p at a restart
            u[:] = op.matvec(s)
        _dots()
        since_check = 0

    r[:] = b - op.matvec(x)
    p[:] = r
    s[:] = op.matvec(p)
    if pipelined:
        w[:] = s
        u[:] = op.matvec(s)
    _dots()

    res_norms = [float(np.sqrt(max(nu, 0.0)))]
    alphas: list[float] = []
    lambdas: list[float] = []
    recoveries: dict[str, int] = {"replace": 0, "restart": 0, "recompute": 0}
    restarts_used = 0
    check_every = None
    drift_tol = None
    if policy is not None:
        check_every = policy.verify_every or policy.replace_every or 5
        drift_tol = policy.drift_tol if policy.drift_tol is not None else policy.verify_rtol

    reason = StopReason.MAX_ITER
    iterations = 0
    since_check = 0
    if stop.is_met(res_norms[0], b_norm):
        reason = StopReason.CONVERGED
    else:
        for _ in range(stop.budget(n)):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            if mu <= 0.0 or nu <= 0.0 or not np.isfinite(mu) or not np.isfinite(nu):
                if policy is not None and restarts_used < policy.max_restarts:
                    restarts_used += 1
                    recoveries["restart"] += 1
                    if telemetry is not None:
                        telemetry.recovery(iterations, "restart", "breakdown")
                    _restart()
                    continue
                reason = StopReason.BREAKDOWN
                break
            alpha = nu / mu
            lambdas.append(alpha)

            # Predict ν' = (r − αs, r − αs) from known scalars, so β is
            # available *before* any reduction this iteration.
            nu_pred = nu - 2.0 * alpha * delta + alpha * alpha * gamma
            add_scalar_flops(6)
            beta = nu_pred / nu
            alphas.append(beta)

            axpy(alpha, p, x, out=x, work=ws)
            axpy(-alpha, s, r, out=r, work=ws)
            if pipelined:
                axpy(-alpha, u, w, out=w, work=ws)  # w = A r by recurrence
            iterations += 1
            since_check += 1

            if pipelined:
                # p, s from the recurred w -- then the iteration's one
                # matvec u = A s depends on no reduction and overlaps the
                # fused dots on the machine model.
                axpy(beta, p, r, out=p, work=ws)  # p = r + beta p
                axpy(beta, s, w, out=s, work=ws)  # s = w + beta s
                if plan is None:
                    matvec_into(op, s, u, work=ws)
                else:
                    u[:] = op.matvec(s)
            else:
                # Eager form: the matvec w = A r feeds s directly.
                if plan is None:
                    matvec_into(op, r, w, work=ws)
                else:
                    w[:] = op.matvec(r)
                axpy(beta, p, r, out=p, work=ws)  # p = r + beta p
                axpy(beta, s, w, out=s, work=ws)  # s = w + beta s = A p

            # Recompute: the fused reduction replaces every predicted
            # scalar with its directly computed value, so prediction
            # error cannot compound across iterations.
            _dots()
            res_norms.append(float(np.sqrt(max(nu, 0.0))))
            if telemetry is not None:
                telemetry.iteration(
                    iterations, res_norms[-1], lam=alpha, alpha=beta, recurred_rr=nu
                )
                telemetry.iterate(x)
            if stop.is_met(res_norms[-1], b_norm):
                # A corrupted nu can fake convergence; under injection
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
                    continue
                reason = StopReason.BREAKDOWN
                break
            if res_norms[-1] > _DIVERGENCE_FACTOR * max(res_norms[0], b_norm):
                if policy is not None and restarts_used < policy.max_restarts:
                    restarts_used += 1
                    recoveries["restart"] += 1
                    if telemetry is not None:
                        telemetry.recovery(iterations, "restart", "divergence")
                    _restart()
                    continue
                reason = StopReason.BREAKDOWN
                break

            # Sampled replacement: the vector-recurred r vs. the truth.
            if check_every is not None and since_check >= check_every:
                since_check = 0
                r_true = b - op.matvec(x)
                nu_direct = dot(r_true, r_true, label="drift_check_dot")
                if telemetry is not None:
                    telemetry.drift(iterations, nu, nu_direct)
                floor = max(
                    stop.threshold(b_norm) ** 2, np.finfo(np.float64).tiny
                )
                if nu_direct > floor:
                    gap = abs(nu - nu_direct) / nu_direct
                    if gap > drift_tol:
                        # Replace r (and the recurred products); KEEP the
                        # direction p.
                        r[:] = r_true
                        s[:] = op.matvec(p)
                        if pipelined:
                            w[:] = op.matvec(r)
                            u[:] = op.matvec(s)
                        _dots()
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
            f"{label} broke down after {iterations} iterations "
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
        label=label,
        extras=extras,
    )
    if telemetry is not None:
        telemetry.solve_end(result)
    return result


def pr_cg(
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
    """Solve the SPD system by eager predict-and-recompute CG.

    One matvec (``w = Ar``) and one fused 4-dot reduction per iteration:
    the single-synchronization structure of Chronopoulos--Gear, with the
    recompute step preventing the scalar drift that plagues pure
    recurrence methods.  ``faults``/``recovery``/``telemetry``/
    ``workspace`` behave as in
    :func:`repro.variants.ghysels_vanroose_cg`.
    """
    return _pr_solve(
        a,
        b,
        pipelined=False,
        x0=x0,
        stop=stop,
        faults=faults,
        recovery=recovery,
        telemetry=telemetry,
        workspace=workspace,
    )


def pr_pipe_cg(
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
    """Solve the SPD system by pipelined predict-and-recompute CG.

    Maintains ``w = Ar`` and ``u = As`` by vector recurrence so the
    iteration's one matvec (``u = As``) has no data dependence on the
    fused reduction and can overlap it -- the Ghysels--Vanroose overlap
    applied to the predict-and-recompute scalar schedule, at the price
    of two extra stored vectors and one extra axpy.
    """
    return _pr_solve(
        a,
        b,
        pipelined=True,
        x0=x0,
        stop=stop,
        faults=faults,
        recovery=recovery,
        telemetry=telemetry,
        workspace=workspace,
    )
