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

from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import matvec_into
from repro.util.kernels import dot

__all__ = ["three_term_cg"]


def three_term_cg(
    a: Any,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Solve the SPD system by the three-term CG recurrence.

    Produces the same iterates as classical CG in exact arithmetic.  The
    recorded ``lambdas`` hold ``γn`` and ``alphas`` hold ``ρn`` (the
    closest analogues of the two-term parameters).  ``telemetry`` takes
    an optional :class:`repro.telemetry.Telemetry` hook; the matvec
    scratch comes from the run's workspace arena.
    """
    run = SolveRun.open(
        "three-term", "three-term-cg", a, b, x0=x0, stop=stop, telemetry=telemetry
    )
    op, b, x, ws = run.op, run.b, run.x, run.ws
    n = b.shape[0]
    r = b - op.matvec(x)
    rr = dot(r, r)
    gammas: list[float] = []
    rhos: list[float] = []

    x_prev = x.copy()
    r_prev = r.copy()
    rr_prev = rr
    gamma_prev = 1.0
    rho_prev = 1.0

    reason = StopReason.MAX_ITER
    iterations = 0
    if run.start(float(np.sqrt(max(rr, 0.0))), x):
        reason = StopReason.CONVERGED
    else:
        ar = ws.get("ar", n)
        for it in range(run.stop.budget(n)):
            matvec_into(op, r, ar)
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
            verdict = run.verdict(
                iterations, float(np.sqrt(max(rr, 0.0))), x, lam=gamma
            )
            if verdict is not None:
                reason = run.ending(verdict)
                break

    return run.finish(reason, x, iterations, alphas=rhos, lambdas=gammas)
