"""Three-term recurrence conjugate gradient (Rutishauser form).

A mathematically equivalent CG formulation that eliminates the direction
vector ``p`` in favour of a three-term recurrence on ``r`` and ``x``.  It
predates the paper and is included as the other classical baseline: it has
the *same* inner-product data dependencies as standard CG (two dependent
fan-ins per iteration), which the depth experiments confirm -- the paper's
restructuring, not mere reformulation, is what removes them.

Recurrences (Hageman & Young notation)::

    γn = (rⁿ, rⁿ) / (rⁿ, Arⁿ)
    ρn = 1 / (1 − (γn/γn−1)·(rⁿ,rⁿ)/(rⁿ⁻¹,rⁿ⁻¹)·(1/ρn−1)),  ρ0 = 1
    xⁿ⁺¹ = ρn (xⁿ − γn A... )  -- see code; x and r advance in lockstep
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import as_operator, matvec_into
from repro.util.kernels import dot, norm
from repro.util.validation import as_1d_float_array, check_square_operator

__all__ = ["three_term_cg"]


def three_term_cg(
    a: Any,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
) -> CGResult:
    """Solve the SPD system by the three-term CG recurrence.

    Produces the same iterates as classical CG in exact arithmetic.  The
    recorded ``lambdas`` hold ``γn`` and ``alphas`` hold ``ρn`` (the
    closest analogues of the two-term parameters).  ``telemetry`` takes
    an optional :class:`repro.telemetry.Telemetry` hook and ``workspace``
    a :class:`repro.backend.Workspace` arena for the matvec scratch.
    """
    op = as_operator(a)
    b = as_1d_float_array(b, "b")
    n = check_square_operator(op, b.shape[0])
    stop = stop or StoppingCriterion()
    from repro.backend import Workspace

    ws = workspace if workspace is not None else Workspace()

    x = np.zeros(n) if x0 is None else as_1d_float_array(x0, "x0").copy()
    if telemetry is not None:
        telemetry.solve_start("three-term", "three-term-cg", n)
        telemetry.iterate(x)
    b_norm = norm(b)
    r = b - op.matvec(x)
    rr = dot(r, r)
    res_norms = [float(np.sqrt(max(rr, 0.0)))]
    gammas: list[float] = []
    rhos: list[float] = []

    x_prev = x.copy()
    r_prev = r.copy()
    rr_prev = rr
    gamma_prev = 1.0
    rho_prev = 1.0

    reason = StopReason.MAX_ITER
    iterations = 0
    if stop.is_met(res_norms[0], b_norm):
        reason = StopReason.CONVERGED
    else:
        ar = ws.get("ar", n)
        for it in range(stop.budget(n)):
            matvec_into(op, r, ar, work=ws)
            rar = dot(r, ar)
            if rar <= 0.0:
                reason = StopReason.BREAKDOWN
                break
            gamma = rr / rar
            if it == 0:
                rho = 1.0
            else:
                denom = 1.0 - (gamma / gamma_prev) * (rr / rr_prev) / rho_prev
                if denom == 0.0:
                    reason = StopReason.BREAKDOWN
                    break
                rho = 1.0 / denom
            gammas.append(gamma)
            rhos.append(rho)

            x_next = rho * (x + gamma * r) + (1.0 - rho) * x_prev
            r_next = rho * (r - gamma * ar) + (1.0 - rho) * r_prev

            x_prev, x = x, x_next
            r_prev, r = r, r_next
            rr_prev, rr = rr, dot(r, r)
            gamma_prev, rho_prev = gamma, rho
            iterations += 1
            res_norms.append(float(np.sqrt(max(rr, 0.0))))
            if telemetry is not None:
                telemetry.iteration(iterations, res_norms[-1], lam=gamma)
                telemetry.iterate(x)
            if stop.is_met(res_norms[-1], b_norm):
                reason = StopReason.CONVERGED
                break

    true_res = norm(b - op.matvec(x))
    reason = verified_exit(reason, true_res, stop.threshold(b_norm))
    result = CGResult(
        x=x,
        converged=reason is StopReason.CONVERGED,
        stop_reason=reason,
        iterations=iterations,
        residual_norms=res_norms,
        alphas=rhos,
        lambdas=gammas,
        true_residual_norm=true_res,
        label="three-term-cg",
    )
    if telemetry is not None:
        telemetry.solve_end(result)
    return result
