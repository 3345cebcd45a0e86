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

from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import matvec_into
from repro.util.kernels import axpy, dot

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

    The fused dots, axpys and the steady-state matvec draw scratch from
    the run's workspace arena.
    """
    run = SolveRun.open(
        "cg-cg", "chronopoulos-gear-cg", a, b, x0=x0, stop=stop,
        faults=faults, recovery=recovery, telemetry=telemetry,
    )
    op, b, x = run.op, run.b, run.x
    n, ws, plan = b.shape[0], run.ws, run.plan
    r = b - op.matvec(x)
    w = op.matvec(r)
    rr = dot(r, r, label="fused_dot")
    rar = dot(r, w, label="fused_dot")
    if plan is not None:
        rr = plan.corrupt_dot(rr, "rr")
        rar = plan.corrupt_dot(rar, "rar")
    alphas: list[float] = []
    lambdas: list[float] = []

    p = np.zeros(n)
    s = np.zeros(n)  # s = A p
    lam = 0.0
    beta = 0.0

    def _restart() -> None:
        """Fresh residual, direction history dropped (it==0 semantics)."""
        nonlocal r, w, rr, rar
        r = b - op.matvec(x)
        w = op.matvec(r)
        rr = dot(r, r, label="fused_dot")
        rar = dot(r, w, label="fused_dot")
        p[:] = 0.0
        s[:] = 0.0
        run.restarted(float(np.sqrt(max(rr, 0.0))))

    reason = StopReason.MAX_ITER
    iterations = 0
    fresh_start = True
    if run.start(float(np.sqrt(max(rr, 0.0))), x):
        reason = StopReason.CONVERGED
    else:
        for _ in range(run.stop.budget(n)):
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
                    if run.restart(iterations, "breakdown"):
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

            matvec_into(op, r, w)
            rr_prev = rr
            rr = dot(r, r, label="fused_dot")
            rar = dot(r, w, label="fused_dot")
            if plan is not None:
                rr = plan.corrupt_dot(rr, "rr")
                rar = plan.corrupt_dot(rar, "rar")
            verdict = run.verdict(
                iterations, float(np.sqrt(max(rr, 0.0))), x, lam=lam,
                recurred_rr=rr,
            )
            if verdict is not None:
                if verdict != "converged" and run.restart(iterations, verdict):
                    _restart()
                    fresh_start = True
                    continue
                reason = run.ending(verdict)
                break

            # Sampled replacement: the vector-recurred r vs. the truth.
            replaced = run.residual_check(iterations, x, rr)
            if replaced is not None:
                # Replace r and refresh the derived vectors but KEEP the
                # conjugate direction p (s follows it).
                r, rr = replaced
                w = op.matvec(r)
                s = op.matvec(p)
                rar = dot(r, w, label="fused_dot")

    return run.finish(reason, x, iterations, alphas=alphas, lambdas=lambdas)
