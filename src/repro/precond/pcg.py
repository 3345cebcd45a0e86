"""Preconditioned solvers.

Two routes to preconditioning:

* :func:`preconditioned_cg` -- the textbook PCG loop (applied form,
  ``z = M⁻¹r``), the baseline for E9.
* :func:`vr_pcg` / :func:`pipelined_vr_pcg` -- Van Rosendale CG run on the
  *split* operator ``Ã = E⁻¹AE⁻ᵀ``.  Since ``Ã`` is SPD, the restructured
  algorithm applies verbatim; the driver transforms the right-hand side
  (``b̃ = E⁻¹b``) and back-transforms the solution (``x = E⁻ᵀx̃``).  In
  exact arithmetic this produces the same iterates as split-preconditioned
  classical CG, which equals applied-form PCG -- asserted in the tests.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.pipeline import pipelined_vr_cg
from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.precond.base import Preconditioner, SplitPreconditioner, split_operator
from repro.sparse.linop import as_operator, matvec_into
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import as_1d_float_array, check_square_operator

__all__ = ["preconditioned_cg", "vr_pcg", "pipelined_vr_pcg"]


def preconditioned_cg(
    a: Any,
    b: np.ndarray,
    *,
    precond: Preconditioner,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Classical preconditioned CG (applied form).

    Stopping is tested on the *true* residual norm ``‖r‖₂`` (not the
    M-norm), so iteration counts are comparable across preconditioners.
    ``telemetry`` takes an optional :class:`repro.telemetry.Telemetry`
    hook; the steady-state matvec and axpys draw scratch from the run's
    workspace arena.
    """
    run = SolveRun.open(
        "pcg", "pcg", a, b, x0=x0, stop=stop, telemetry=telemetry,
        precond=type(precond).__name__,
    )
    op, b, x, ws = run.op, run.b, run.x, run.ws
    n = b.shape[0]
    r = b - op.matvec(x)
    z = precond.apply(r)
    p = z.copy()
    rz = dot(r, z)
    alphas: list[float] = []
    lambdas: list[float] = []

    reason = StopReason.MAX_ITER
    iterations = 0
    if run.start(norm(r), x):
        reason = StopReason.CONVERGED
    else:
        ap = ws.get("ap", n)
        for _ in range(run.stop.budget(n)):
            matvec_into(op, p, ap)
            pap = dot(p, ap)
            if pap <= 0.0 or rz <= 0.0:
                reason = StopReason.BREAKDOWN
                break
            lam = rz / pap
            lambdas.append(lam)
            axpy(lam, p, x, out=x, work=ws)
            axpy(-lam, ap, r, out=r, work=ws)
            iterations += 1
            verdict = run.verdict(iterations, norm(r), x, lam=lam)
            if verdict is not None:
                reason = run.ending(verdict)
                break
            z = precond.apply(r)
            rz_new = dot(r, z)
            alpha = rz_new / rz
            alphas.append(alpha)
            axpy(alpha, p, z, out=p, work=ws)  # p = z + alpha p
            rz = rz_new

    return run.finish(reason, x, iterations, alphas=alphas, lambdas=lambdas)


def _split_solve(solver, a, b, m, x0, stop, label, **kwargs) -> CGResult:
    """Shared driver: transform, solve on ``Ã``, back-transform."""
    op = as_operator(a)
    b = as_1d_float_array(b, "b")
    check_square_operator(op, b.shape[0])
    a_tilde = split_operator(op, m)
    b_tilde = m.solve_factor(b)
    x0_tilde = None
    if x0 is not None:
        # x̃0 = Eᵀ x0 would need the forward factor; instead start the
        # preconditioned iteration from the transformed residual of x0 by
        # solving for the correction: A~ d~ = E^{-1}(b - A x0).
        x0 = as_1d_float_array(x0, "x0")
        b_tilde = m.solve_factor(b - op.matvec(x0))
    result = solver(a_tilde, b_tilde, x0=x0_tilde, stop=stop, **kwargs)
    x = m.solve_factor_t(result.x)
    if x0 is not None:
        x = x + x0
    result.x = x
    result.true_residual_norm = norm(b - op.matvec(x))
    result.label = label
    return result


def vr_pcg(
    a: Any,
    b: np.ndarray,
    *,
    precond: SplitPreconditioner,
    k: int = 2,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    recovery: Any = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Van Rosendale CG on the split-preconditioned operator.

    Note the recorded ``residual_norms`` are norms of the *preconditioned*
    residual ``r̃ = E⁻¹(b − Ax)``; ``true_residual_norm`` is recomputed in
    the original variables at exit.  Telemetry events describe the inner
    iteration on ``Ã``, and ``recovery`` (as in
    :func:`~repro.core.vr_cg.vr_conjugate_gradient`) repairs it.
    """
    return _split_solve(
        vr_conjugate_gradient,
        a,
        b,
        precond,
        x0,
        stop,
        f"vr-pcg(k={k})",
        k=k,
        recovery=recovery,
        telemetry=telemetry,
    )


def pipelined_vr_pcg(
    a: Any,
    b: np.ndarray,
    *,
    precond: SplitPreconditioner,
    k: int = 2,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Pipelined Van Rosendale CG on the split-preconditioned operator.

    Telemetry events describe the inner iteration on ``Ã``.
    """
    return _split_solve(
        pipelined_vr_cg,
        a,
        b,
        precond,
        x0,
        stop,
        f"pipelined-vr-pcg(k={k})",
        k=k,
        telemetry=telemetry,
    )
