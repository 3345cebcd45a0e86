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

from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import DIVERGENCE_FACTOR, StoppingCriterion
from repro.sparse.linop import matvec_into
from repro.util.kernels import axpy, dot

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

    The six axpys and the steady-state matvec draw scratch from the
    run's workspace arena.
    """
    run = SolveRun.open(
        "gv", "ghysels-vanroose-cg", a, b, x0=x0, stop=stop,
        faults=faults, recovery=recovery, telemetry=telemetry,
    )
    op, b, x, stop, b_norm = run.op, run.b, run.x, run.stop, run.b_norm
    n, ws, plan = b.shape[0], run.ws, run.plan
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

    alpha = 0.0
    gamma_old = 0.0

    def _restart() -> None:
        """Fresh residual, recurrence vectors reset (it==0 semantics)."""
        nonlocal r, w, gamma, delta
        r = b - op.matvec(x)
        w = op.matvec(r)
        gamma = dot(r, r, label="pipelined_dot")
        delta = dot(w, r, label="pipelined_dot")
        p[:] = 0.0
        s[:] = 0.0
        z[:] = 0.0

    reason = StopReason.MAX_ITER
    iterations = 0
    fresh_start = True
    if stop.is_met(res_norms[0], b_norm):
        reason = StopReason.CONVERGED
    else:
        for _ in range(stop.budget(n)):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            # q = A w runs concurrently with the two dots on the machine
            # model; sequentially we just execute it here.
            q = ws.get("q", n)
            matvec_into(op, w, q, work=ws)
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
                    if run.restart(iterations, "breakdown"):
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
                if run.convergence_holds(x):
                    reason = StopReason.CONVERGED
                    break
                if run.restart(iterations, "false_convergence"):
                    _restart()
                    fresh_start = True
                    continue
                reason = StopReason.BREAKDOWN
                break
            if (plan is not None or run.policy is not None) and res_norms[
                -1
            ] > DIVERGENCE_FACTOR * max(res_norms[0], b_norm):
                # Growth with every denominator still positive: the
                # recurrences no longer track x.  Gated as cg gates its
                # own, so the plain solver's exit is untouched.
                if run.restart(iterations, "divergence"):
                    _restart()
                    fresh_start = True
                    continue
                reason = StopReason.BREAKDOWN
                break

            # Sampled replacement: the vector-recurred r vs. the truth.
            replaced = run.residual_check(iterations, x, gamma)
            if replaced is not None:
                # Replace r and rebuild the three recurred auxiliary
                # vectors; KEEP the direction p.
                r, gamma = replaced
                w = op.matvec(r)
                s = op.matvec(p)
                z = op.matvec(s)
                delta = dot(w, r, label="pipelined_dot")

    return run.finish(
        reason, x, iterations, res_norms, alphas=alphas, lambdas=lambdas
    )
