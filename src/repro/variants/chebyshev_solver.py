"""Chebyshev iteration as a standalone solver.

The classical *other* answer to the paper's problem: if inner products
are the parallel bottleneck, use an iteration that has none.  Chebyshev
iteration needs only spectrum bounds ``[λmin, λmax]`` -- its parameters
are precomputed scalars, so a parallel iteration costs just the matvec
(``log d`` depth, zero reductions).  The price, known since the 1950s and
part of the 1980s parallel-CG debate this paper sits in:

* it needs the bounds (CG finds the spectrum adaptively); bad bounds
  slow it down or diverge it;
* even with exact bounds it converges at CG's *worst-case* Chebyshev
  rate, with none of CG's superlinear spectrum adaptation;
* monitoring convergence still needs an occasional residual norm -- one
  reduction every ``check_every`` iterations, amortizable at will.

Implemented in the standard three-term form (Saad, Alg. 12.1); the same
recurrence powers :class:`repro.precond.polynomial.ChebyshevPolyPrecond`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.util.counters import add_axpy
from repro.util.kernels import norm
from repro.util.validation import require_positive_int

__all__ = ["chebyshev_iteration"]


def chebyshev_iteration(
    a: Any,
    b: np.ndarray,
    bounds: tuple[float, float],
    *,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    check_every: int = 1,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Solve the SPD system ``A x = b`` by Chebyshev iteration.

    Parameters
    ----------
    a, b, x0, stop:
        As in :func:`repro.core.conjugate_gradient`.
    bounds:
        Enclosing spectrum estimates ``(λmin, λmax)``; use
        :func:`repro.core.lanczos.estimate_spectrum_via_cg` or Gershgorin.
    check_every:
        Residual-norm (reduction!) frequency.  ``1`` checks every
        iteration; larger values amortize the solver's only inner product
        -- the knob that makes the method reduction-free in the limit.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hook; an
        :class:`~repro.telemetry.IterationEvent` per residual *check*
        (the method has no per-iteration reductions to report).

    Returns
    -------
    CGResult
        ``lambdas`` records the per-step scaling ``2ρ_{j+1}/δ``;
        ``residual_norms`` has one entry per *check*.
    """
    check_every = require_positive_int(check_every, "check_every")
    lam_min, lam_max = float(bounds[0]), float(bounds[1])
    if not (0.0 < lam_min < lam_max < float("inf")):
        raise ValueError(f"bounds must satisfy 0 < lam_min < lam_max, got {bounds}")

    theta = 0.5 * (lam_max + lam_min)
    delta = 0.5 * (lam_max - lam_min)
    sigma1 = theta / delta

    run = SolveRun.open(
        "chebyshev",
        f"chebyshev(check={check_every})",
        a,
        b,
        x0=x0,
        stop=stop,
        telemetry=telemetry,
        bounds=(lam_min, lam_max),
        check_every=check_every,
    )
    op, b, x = run.op, run.b, run.x
    n = b.shape[0]
    r = b - op.matvec(x)
    lambdas: list[float] = []

    reason = StopReason.MAX_ITER
    iterations = 0
    if run.start(norm(r), x):
        reason = StopReason.CONVERGED
    else:
        rho = 1.0 / sigma1
        tracer = add_axpy(n, flops_per_entry=1)
        d = r / theta
        if tracer is not None:
            tracer.end("axpy")
        budget = run.stop.budget(n)
        while iterations < budget:
            tracer = add_axpy(n, flops_per_entry=1)
            x += d
            if tracer is not None:
                tracer.end("axpy")
            iterations += 1
            ax = op.matvec(x)
            tracer = add_axpy(n)
            r = b - ax  # fresh residual (robust form)
            if tracer is not None:
                tracer.end("axpy")
            if iterations % check_every == 0 or iterations >= budget:
                verdict = run.verdict(iterations, norm(r), x)
                if verdict is not None:
                    reason = run.ending(verdict)
                    break
            rho_next = 1.0 / (2.0 * sigma1 - rho)
            lambdas.append(2.0 * rho_next / delta)
            tracer = add_axpy(n, flops_per_entry=4)
            d = rho_next * rho * d + (2.0 * rho_next / delta) * r
            if tracer is not None:
                tracer.end("axpy")
            rho = rho_next

    return run.finish(reason, x, iterations, lambdas=lambdas)
