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

from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import as_operator, matvec_into, operator_dtype
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import as_1d_typed_array, check_square_operator

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
    workspace: Any = None,
    record_iterates: list[np.ndarray] | None = None,
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
        recurrence solvers.  With faults (or recovery) active the exit
        is verified against the true residual -- the vector-recurred
        ``r`` can't vouch for itself once corrupted.
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
    workspace:
        Optional :class:`repro.backend.Workspace` to draw scratch
        buffers from; pass one across repeated solves to amortize even
        first-iteration allocations.  Defaults to a fresh per-solve
        arena.  Steady-state iterations allocate zero new arrays either
        way.
    record_iterates:
        Deprecated; pass ``telemetry=Telemetry(capture_iterates=True)``
        and read ``telemetry.iterates`` instead.  When a list is
        supplied it is still filled (with a :class:`DeprecationWarning`).

    Returns
    -------
    CGResult
        With ``alphas`` = ``[α₁, α₂, ...]`` and ``lambdas`` = ``[λ₀, λ₁,
        ...]`` in the paper's notation.
    """
    b_arr = np.asarray(b)
    op = as_operator(a, n=b_arr.shape[0] if b_arr.ndim == 1 else None)
    dtype = operator_dtype(op)
    b = as_1d_typed_array(b, "b", dtype)
    n = check_square_operator(op, b.shape[0])
    stop = stop or StoppingCriterion()
    if record_iterates is not None:
        from repro.telemetry import deprecated_hook

        if telemetry is not None:
            raise ValueError(
                "conjugate_gradient() got both telemetry= and the "
                "deprecated record_iterates= hook; pass only telemetry="
            )
        deprecated_hook(
            "conjugate_gradient(record_iterates=...)",
            "telemetry=Telemetry(capture_iterates=True)",
        )

    from repro.backend import Workspace
    from repro.faults import RecoveryPolicy, UnrecoverableDivergence, as_fault_plan

    ws = workspace if workspace is not None else Workspace()
    policy = RecoveryPolicy.from_spec(recovery)
    plan = as_fault_plan(faults)

    x = (
        np.zeros(n, dtype=dtype)
        if x0 is None
        else as_1d_typed_array(x0, "x0", dtype).copy()
    )
    if record_iterates is not None:
        record_iterates.append(x.copy())
    if telemetry is not None:
        telemetry.solve_start("cg", "cg", n)
        telemetry.iterate(x)

    op_true = op
    if plan is not None:
        plan.attach(telemetry)
        op = plan.wrap_operator(op)
    tracer = telemetry.tracer if telemetry is not None else None

    if tracer is not None:
        tracer.begin("startup")
    b_norm = norm(b)
    r = b - op.matvec(x)
    p = r.copy()
    rr = dot(r, r)
    if plan is not None:
        rr = plan.corrupt_dot(rr, "rr")
    res_norms = [float(np.sqrt(max(rr, 0.0)))]
    if tracer is not None:
        tracer.end("startup")
    alphas: list[float] = []
    lambdas: list[float] = []
    recoveries: dict[str, int] = {"replace": 0, "restart": 0, "recompute": 0}
    restarts_used = 0
    check_every = None
    if policy is not None:
        check_every = policy.verify_every or policy.replace_every or 5
    drift_tol = policy.drift_tol if policy is not None else None
    if drift_tol is None and policy is not None:
        drift_tol = policy.verify_rtol
    health = telemetry.health if telemetry is not None else None
    if check_every is None and health is not None and health.check_every > 0:
        # Health-only cadence: run the direct residual check so the
        # monitor sees the recurred-vs-true gap even without a recovery
        # policy.  drift_tol stays None -- observation, never a repair.
        check_every = health.check_every

    def _result(reason: StopReason, iterations: int) -> CGResult:
        true_res = norm(b - op_true.matvec(x))
        if plan is not None or policy is not None:
            # Under injection the vector-recurred residual cannot vouch
            # for itself: verify the exit against the true residual.
            reason = verified_exit(reason, true_res, stop.threshold(b_norm))
            if (
                policy is not None
                and policy.on_unrecoverable == "raise"
                and reason is StopReason.BREAKDOWN
                and restarts_used >= policy.max_restarts
            ):
                raise UnrecoverableDivergence(
                    f"cg broke down after {iterations} iterations and "
                    f"{restarts_used} restarts (true residual {true_res:.3e})"
                )
        extras: dict = {}
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
            label="cg",
            extras=extras,
        )
        if telemetry is not None:
            telemetry.solve_end(result)
        return result

    if stop.is_met(res_norms[0], b_norm):
        return _result(StopReason.CONVERGED, 0)

    reason = StopReason.MAX_ITER
    budget = stop.budget(n)
    iterations = 0
    since_check = 0
    best_res = res_norms[0]

    def _try_restart(trigger: str) -> bool:
        """Spend one restart: fresh residual, direction reset to it."""
        nonlocal r, p, rr, restarts_used, since_check, best_res
        if policy is None or restarts_used >= policy.max_restarts:
            return False
        restarts_used += 1
        recoveries["restart"] += 1
        r = b - op.matvec(x)
        p = r.copy()
        rr = dot(r, r)
        since_check = 0
        best_res = float(np.sqrt(max(rr, 0.0)))
        if telemetry is not None:
            telemetry.recovery(iterations, "restart", trigger)
        return True

    for _ in range(budget):
        if plan is not None:
            plan.begin_iteration(iterations + 1)
        if tracer is not None:
            tracer.begin("matvec")
        ap = ws.get("ap", n, dtype)
        matvec_into(op, p, ap, work=ws)
        if tracer is not None:
            tracer.end("matvec")
            tracer.begin("local_dot")
        pap = dot(p, ap)
        if plan is not None:
            pap = plan.corrupt_dot(pap, "pap")
        if tracer is not None:
            tracer.end("local_dot")
        if pap <= 0.0 or not np.isfinite(pap):
            if _try_restart("breakdown"):
                continue
            reason = StopReason.BREAKDOWN
            break
        lam = rr / pap
        lambdas.append(lam)
        if tracer is not None:
            tracer.begin("axpy")
        axpy(lam, p, x, out=x, work=ws)
        axpy(-lam, ap, r, out=r, work=ws)
        if tracer is not None:
            tracer.end("axpy")
        iterations += 1
        since_check += 1
        if record_iterates is not None:
            record_iterates.append(x.copy())
        if tracer is not None:
            tracer.begin("local_dot")
        rr_new = dot(r, r)
        if plan is not None:
            rr_new = plan.corrupt_dot(rr_new, "rr")
        if tracer is not None:
            tracer.end("local_dot")
        res_norms.append(float(np.sqrt(max(rr_new, 0.0))))
        if telemetry is not None:
            telemetry.iteration(iterations, res_norms[-1], lam=lam)
            telemetry.iterate(x)
        if stop.is_met(res_norms[-1], b_norm):
            # A corrupted rr can fake convergence; under injection verify
            # against the true residual before accepting the exit.
            if plan is None or norm(
                b - op_true.matvec(x)
            ) <= stop.threshold(b_norm):
                reason = StopReason.CONVERGED
                break
            if _try_restart("false_convergence"):
                continue
            reason = StopReason.BREAKDOWN
            break
        if rr_new <= 0.0 or not np.isfinite(rr_new):
            if _try_restart("breakdown"):
                continue
            reason = StopReason.BREAKDOWN
            break
        if (plan is not None or policy is not None) and res_norms[
            -1
        ] > 1e8 * max(res_norms[0], b_norm):
            # A corrupted step scalar can send CG into exponential
            # divergence with r still consistently tracking x, so the
            # drift detector never fires; the growth itself is the
            # signal.  (Gated on faults/recovery being active so the
            # plain solver's exit behaviour is untouched.)
            if _try_restart("divergence"):
                continue
            reason = StopReason.BREAKDOWN
            break
        if policy is not None and res_norms[-1] > 100.0 * best_res:
            # Sustained growth over the best residual seen: a conjugacy
            # fault (bad step, direction set poisoned) drives gradual
            # exponential divergence that would eat the whole budget
            # before the hard 1e8 guard trips -- restart early instead.
            if _try_restart("divergence"):
                continue
            reason = StopReason.BREAKDOWN
            break
        best_res = min(best_res, res_norms[-1])

        # Sampled residual replacement: check the vector-recurred r
        # against the true residual on the policy's cadence.
        if check_every is not None and since_check >= check_every:
            since_check = 0
            if tracer is not None:
                tracer.begin("matvec")
            r_true = b - op.matvec(x)
            if tracer is not None:
                tracer.end("matvec")
                tracer.begin("local_dot")
            rr_direct = dot(r_true, r_true, label="drift_check_dot")
            if tracer is not None:
                tracer.end("local_dot")
            if telemetry is not None:
                telemetry.drift(iterations, rr_new, rr_direct)
            floor = max(stop.threshold(b_norm) ** 2, np.finfo(np.float64).tiny)
            if drift_tol is not None and rr_direct > floor:
                gap = abs(rr_new - rr_direct) / rr_direct
                if gap > drift_tol:
                    r = r_true
                    rr_new = rr_direct
                    recoveries["replace"] += 1
                    if telemetry is not None:
                        telemetry.replacement(iterations, "drift")
                        telemetry.recovery(iterations, "replace", "drift", gap)

        alpha = rr_new / rr
        alphas.append(alpha)
        if tracer is not None:
            tracer.begin("axpy")
        axpy(alpha, p, r, out=p, work=ws)  # p = r + alpha * p
        if tracer is not None:
            tracer.end("axpy")
        rr = rr_new

    return _result(reason, iterations)
