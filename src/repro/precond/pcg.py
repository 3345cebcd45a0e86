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
from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.precond.base import Preconditioner, SplitPreconditioner, split_operator
from repro.sparse.linop import as_operator, matvec_into
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import as_1d_float_array, check_square_operator

__all__ = ["preconditioned_cg", "vr_pcg", "pipelined_vr_pcg"]


def _resolve_precond(fname: str, m: Any, precond: Any) -> Any:
    """Honour the deprecated positional ``m`` while preferring ``precond=``."""
    if m is not None:
        from repro.telemetry import deprecated_hook

        if precond is not None:
            raise ValueError(
                f"{fname}() got both a positional preconditioner and precond="
            )
        deprecated_hook(
            f"{fname}(a, b, m) with a positional preconditioner",
            f"{fname}(a, b, precond=...)",
        )
        precond = m
    if precond is None:
        raise TypeError(f"{fname}() requires a preconditioner: pass precond=...")
    return precond


def preconditioned_cg(
    a: Any,
    b: np.ndarray,
    m: Preconditioner | None = None,
    *,
    precond: Preconditioner | None = None,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
) -> CGResult:
    """Classical preconditioned CG (applied form).

    Stopping is tested on the *true* residual norm ``‖r‖₂`` (not the
    M-norm), so iteration counts are comparable across preconditioners.
    Pass the preconditioner as ``precond=``; the positional ``m`` form is
    deprecated (still accepted, with a :class:`DeprecationWarning`).
    ``telemetry`` takes an optional :class:`repro.telemetry.Telemetry`
    hook and ``workspace`` an optional :class:`repro.backend.Workspace`
    arena the steady-state matvec and axpys draw scratch from.
    """
    m = _resolve_precond("preconditioned_cg", m, precond)
    op = as_operator(a)
    b = as_1d_float_array(b, "b")
    n = check_square_operator(op, b.shape[0])
    stop = stop or StoppingCriterion()
    from repro.backend import Workspace

    ws = workspace if workspace is not None else Workspace()

    x = np.zeros(n) if x0 is None else as_1d_float_array(x0, "x0").copy()
    if telemetry is not None:
        telemetry.solve_start("pcg", "pcg", n, precond=type(m).__name__)
        telemetry.iterate(x)
    b_norm = norm(b)
    r = b - op.matvec(x)
    z = m.apply(r)
    p = z.copy()
    rz = dot(r, z)
    res_norms = [norm(r)]
    alphas: list[float] = []
    lambdas: list[float] = []

    reason = StopReason.MAX_ITER
    iterations = 0
    if stop.is_met(res_norms[0], b_norm):
        reason = StopReason.CONVERGED
    else:
        ap = ws.get("ap", n)
        for _ in range(stop.budget(n)):
            matvec_into(op, p, ap, work=ws)
            pap = dot(p, ap)
            if pap <= 0.0 or rz <= 0.0:
                reason = StopReason.BREAKDOWN
                break
            lam = rz / pap
            lambdas.append(lam)
            axpy(lam, p, x, out=x, work=ws)
            axpy(-lam, ap, r, out=r, work=ws)
            iterations += 1
            res_norms.append(norm(r))
            if telemetry is not None:
                telemetry.iteration(iterations, res_norms[-1], lam=lam)
                telemetry.iterate(x)
            if stop.is_met(res_norms[-1], b_norm):
                reason = StopReason.CONVERGED
                break
            z = m.apply(r)
            rz_new = dot(r, z)
            alpha = rz_new / rz
            alphas.append(alpha)
            axpy(alpha, p, z, out=p, work=ws)  # p = z + alpha p
            rz = rz_new

    true_res = norm(b - op.matvec(x))
    reason = verified_exit(reason, true_res, stop.threshold(b_norm))
    result = CGResult(
        x=x,
        converged=reason is StopReason.CONVERGED,
        stop_reason=reason,
        iterations=iterations,
        residual_norms=res_norms,
        alphas=alphas,
        lambdas=lambdas,
        true_residual_norm=true_res,
        label="pcg",
    )
    if telemetry is not None:
        telemetry.solve_end(result)
    return result


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
    m: SplitPreconditioner | None = None,
    *,
    precond: SplitPreconditioner | None = None,
    k: int = 2,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    replace_every: int | None = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
) -> CGResult:
    """Van Rosendale CG on the split-preconditioned operator.

    Note the recorded ``residual_norms`` are norms of the *preconditioned*
    residual ``r̃ = E⁻¹(b − Ax)``; ``true_residual_norm`` is recomputed in
    the original variables at exit.  Pass the preconditioner as
    ``precond=`` (the positional ``m`` form is deprecated).  Telemetry
    events describe the inner iteration on ``Ã``.
    """
    m = _resolve_precond("vr_pcg", m, precond)
    return _split_solve(
        lambda at, bt, x0, stop, **kw: vr_conjugate_gradient(at, bt, x0=x0, stop=stop, **kw),
        a,
        b,
        m,
        x0,
        stop,
        f"vr-pcg(k={k})",
        k=k,
        replace_every=replace_every,
        telemetry=telemetry,
        workspace=workspace,
    )


def pipelined_vr_pcg(
    a: Any,
    b: np.ndarray,
    m: SplitPreconditioner | None = None,
    *,
    precond: SplitPreconditioner | None = None,
    k: int = 2,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
) -> CGResult:
    """Pipelined Van Rosendale CG on the split-preconditioned operator.

    Pass the preconditioner as ``precond=`` (the positional ``m`` form is
    deprecated).  Telemetry events describe the inner iteration on ``Ã``.
    """
    m = _resolve_precond("pipelined_vr_pcg", m, precond)
    return _split_solve(
        lambda at, bt, x0, stop, **kw: pipelined_vr_cg(at, bt, x0=x0, stop=stop, **kw),
        a,
        b,
        m,
        x0,
        stop,
        f"pipelined-vr-pcg(k={k})",
        k=k,
        telemetry=telemetry,
        workspace=workspace,
    )
