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
axpys, the run's workspace-arena buffers, fault-plan wrapping with
sampled residual replacement and bounded restarts under a
:class:`repro.faults.RecoveryPolicy`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import DIVERGENCE_FACTOR, StoppingCriterion
from repro.sparse.linop import matvec_into
from repro.util.counters import add_scalar_flops
from repro.util.kernels import axpy, dot

__all__ = ["pr_cg", "pr_pipe_cg"]

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
) -> CGResult:
    """Shared driver for the eager and pipelined predict-and-recompute forms."""
    label = "pr-pipe-cg" if pipelined else "pr-cg"
    run = SolveRun.open(
        label, label, a, b, x0=x0, stop=stop, faults=faults, recovery=recovery,
        telemetry=telemetry,
    )
    op, b, x, stop, b_norm = run.op, run.b, run.x, run.stop, run.b_norm
    n, ws, plan = b.shape[0], run.ws, run.plan

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
        """Fresh residual, direction reset to steepest descent; growth is
        judged from the fresh residual on."""
        nonlocal best_res
        r[:] = b - op.matvec(x)
        p[:] = r
        s[:] = op.matvec(p)
        if pipelined:
            w[:] = s  # A r = A p at a restart
            u[:] = op.matvec(s)
        _dots()
        best_res = float(np.sqrt(max(nu, 0.0)))

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

    reason = StopReason.MAX_ITER
    iterations = 0
    best_res = res_norms[0]
    if stop.is_met(res_norms[0], b_norm):
        reason = StopReason.CONVERGED
    else:
        for _ in range(stop.budget(n)):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            if mu <= 0.0 or nu <= 0.0 or not np.isfinite(mu) or not np.isfinite(nu):
                if run.restart(iterations, "breakdown"):
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

            if pipelined:
                # p, s from the recurred w -- then the iteration's one
                # matvec u = A s depends on no reduction and overlaps the
                # fused dots on the machine model.
                axpy(beta, p, r, out=p, work=ws)  # p = r + beta p
                axpy(beta, s, w, out=s, work=ws)  # s = w + beta s
                matvec_into(op, s, u, work=ws)
            else:
                # Eager form: the matvec w = A r feeds s directly.
                matvec_into(op, r, w, work=ws)
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
                if run.convergence_holds(x):
                    reason = StopReason.CONVERGED
                    break
                if run.restart(iterations, "false_convergence"):
                    _restart()
                    continue
                reason = StopReason.BREAKDOWN
                break
            if res_norms[-1] > DIVERGENCE_FACTOR * max(res_norms[0], b_norm) or (
                run.policy is not None and res_norms[-1] > 100.0 * best_res
            ):
                # The hard growth guard, and under a policy cg's
                # sustained-growth one: a matvec fault can drive gradual
                # exponential growth that would eat most of the budget
                # before the hard guard trips.
                if run.restart(iterations, "divergence"):
                    _restart()
                    continue
                reason = StopReason.BREAKDOWN
                break
            best_res = min(best_res, res_norms[-1])

            # Sampled replacement: the vector-recurred r vs. the truth.
            replaced = run.residual_check(iterations, x, nu)
            if replaced is not None:
                # Replace r (and the recurred products); KEEP the
                # direction p.
                r[:] = replaced[0]
                s[:] = op.matvec(p)
                if pipelined:
                    w[:] = op.matvec(r)
                    u[:] = op.matvec(s)
                _dots()

    return run.finish(
        reason, x, iterations, res_norms, alphas=alphas, lambdas=lambdas
    )


def pr_cg(
    a: Any,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    faults: Any = None,
    recovery: Any = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Solve the SPD system by eager predict-and-recompute CG.

    One matvec (``w = Ar``) and one fused 4-dot reduction per iteration:
    the single-synchronization structure of Chronopoulos--Gear, with the
    recompute step preventing the scalar drift that plagues pure
    recurrence methods.  ``faults``/``recovery``/``telemetry`` behave as
    in :func:`repro.variants.ghysels_vanroose_cg`.
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
    )
