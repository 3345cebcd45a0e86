"""Classical conjugate gradient iteration (the paper's Section 2 baseline).

This is the exact algorithmic form the paper restructures::

    λn    = (rⁿ, rⁿ) / (pⁿ, Apⁿ)
    uⁿ⁺¹  = uⁿ + λn pⁿ
    rⁿ⁺¹  = rⁿ − λn Apⁿ
    αn+1  = (rⁿ⁺¹, rⁿ⁺¹) / (rⁿ, rⁿ)
    pⁿ⁺¹  = rⁿ⁺¹ + αn+1 pⁿ

with ``p⁰ = r⁰``.  Note the paper's ``λ`` is the step length usually
written ``α`` in modern texts, and its ``α`` is the direction-update scalar
usually written ``β``; we keep the *paper's* names throughout the
repository so the recurrence derivations read against the source.

The solver records the full ``α``/``λ`` histories because the Van Rosendale
coefficient machinery (claims C3/C4) is exercised against real parameter
sequences from this baseline, and because equivalence testing (E7) compares
the two solvers parameter-by-parameter.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import matvec_into
from repro.util.kernels import axpy, dot

__all__ = ["conjugate_gradient"]


def conjugate_gradient(
    a: Any,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    faults: Any = None,
    recovery: Any = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Solve the SPD system ``A x = b`` by classical (Hestenes--Stiefel) CG.

    Parameters
    ----------
    a:
        SPD operator: our CSR/ELL matrices, a dense symmetric array, a
        scipy sparse matrix, or any :class:`repro.sparse.LinearOperator`.
    b:
        Right-hand side.
    x0:
        Initial guess (defaults to zero).
    stop:
        Stopping rule; defaults to ``StoppingCriterion()``.
    faults:
        Optional :class:`repro.faults.FaultPlan` (or injector(s)):
        matvec-site injectors corrupt ``Ap`` outputs, dot-site injectors
        the two inner products.  Classical CG serves as the fault
        *oracle* in the test harness, so it takes the same hooks as the
        recurrence solvers.  With faults active a convergence claim is
        also checked against the true residual inside the loop -- the
        vector-recurred ``r`` can't vouch for itself once corrupted.
    recovery:
        Optional :class:`repro.faults.RecoveryPolicy` or preset name.
        Classical CG has no recurred scalars to recompute; recovery here
        is sampled residual replacement (every ``verify_every`` or
        ``replace_every`` iterations, default 5, the vector-recurred
        ``r`` is checked against ``b − A x`` and replaced when the gap
        exceeds the drift tolerance) plus bounded restarts on breakdown.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hook; receives one
        :class:`~repro.telemetry.IterationEvent` per iteration and (with
        ``capture_iterates=True``) a copy of every iterate including
        ``x⁰`` -- the equivalence experiment compares iterates, not just
        final answers.

    Returns
    -------
    CGResult
        With ``alphas`` = ``[α₁, α₂, ...]`` and ``lambdas`` = ``[λ₀, λ₁,
        ...]`` in the paper's notation.  The exit is verified by
        :meth:`repro.core.results.SolveRun.finish`; steady-state
        iterations draw their scratch from the run's workspace arena and
        allocate zero new arrays.
    """
    run = SolveRun.open(
        "cg", "cg", a, b, x0=x0, stop=stop, faults=faults, recovery=recovery,
        telemetry=telemetry, keep_dtype=True,
    )
    reason, iterations, alphas, lambdas = _cg_loop(run)
    return run.finish(reason, run.x, iterations, alphas=alphas, lambdas=lambdas)


def _cg_loop(
    run: SolveRun, iterations: int = 0
) -> tuple[StopReason, int, list[float], list[float]]:
    """Classical CG on ``run`` from its current iterate.

    Iterations are numbered on from ``iterations`` and the budget is what
    the run has left, so an adaptive solve's fallback continues here
    inside its own run.  Returns ``(reason, iterations, alphas,
    lambdas)``; the iterate is ``run.x``, updated in place.
    """
    op, b, x, ws, plan = run.op, run.b, run.x, run.ws, run.plan
    n = b.shape[0]
    tracer = run.telemetry.tracer if run.telemetry is not None else None

    if tracer is not None:
        tracer.begin("startup")
    r = b - op.matvec(x)
    p = r.copy()
    rr = dot(r, r)
    if plan is not None:
        rr = plan.corrupt_dot(rr, "rr")
    if tracer is not None:
        tracer.end("startup")
    alphas: list[float] = []
    lambdas: list[float] = []

    if run.start(float(np.sqrt(max(rr, 0.0))), x):
        return StopReason.CONVERGED, iterations, alphas, lambdas

    reason = StopReason.MAX_ITER

    def _try_restart(trigger: str) -> bool:
        """Spend one restart: fresh residual, direction reset to it."""
        nonlocal r, p, rr
        if not run.restart(iterations, trigger):
            return False
        r = b - op.matvec(x)
        p = r.copy()
        rr = dot(r, r)
        run.restarted(float(np.sqrt(max(rr, 0.0))))
        return True

    for _ in range(run.stop.budget(n) - iterations):
        if plan is not None:
            plan.begin_iteration(iterations + 1)
        ap = ws.get("ap", n, b.dtype)
        matvec_into(op, p, ap)
        pap = dot(p, ap)
        if plan is not None:
            pap = plan.corrupt_dot(pap, "pap")
        if pap <= 0.0 or not np.isfinite(pap):
            if _try_restart("breakdown"):
                continue
            reason = StopReason.BREAKDOWN
            break
        lam = rr / pap
        lambdas.append(lam)
        axpy(lam, p, x, out=x, work=ws)
        axpy(-lam, ap, r, out=r, work=ws)
        iterations += 1
        rr_new = dot(r, r)
        if plan is not None:
            rr_new = plan.corrupt_dot(rr_new, "rr")
        verdict = run.verdict(
            iterations, float(np.sqrt(max(rr_new, 0.0))), x, lam=lam
        )
        if verdict is not None:
            if verdict != "converged" and _try_restart(verdict):
                continue
            reason = run.ending(verdict)
            break

        # Sampled residual replacement: check the vector-recurred r
        # against the true residual on the policy's cadence.
        replaced = run.residual_check(iterations, x, rr_new)
        if replaced is not None:
            r, rr_new = replaced

        alpha = rr_new / rr
        alphas.append(alpha)
        axpy(alpha, p, r, out=p, work=ws)  # p = r + alpha * p
        rr = rr_new

    return reason, iterations, alphas, lambdas
