"""E9 -- extension: the restructuring composes with preconditioning.

The paper motivates CG partly through preconditioning but restructures
only the plain iteration.  The natural extension -- run the Van Rosendale
machinery on the split-preconditioned operator ``Ã = E⁻¹AE⁻ᵀ`` (still
SPD, so the recurrences apply verbatim) -- is validated here:

* convergence parity: ``vr_pcg`` matches classical applied-form PCG's
  iteration count for Jacobi, SSOR and IC(0) on an anisotropic problem
  where preconditioning actually matters;
* the machine-model note: a Jacobi split preserves row degree (depth
  story unchanged), while triangular splits (SSOR/IC) put a depth-Θ(n)
  substitution on every iteration -- the classical parallel-preconditioning
  tension, quantified in the findings.
"""

from __future__ import annotations

from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.experiments.common import ExperimentReport, register
from repro.faults import RecoveryPolicy
from repro.machine.pcg_dag import build_pcg_dag, precond_depth
from repro.precond import (
    ICholPrecond,
    JacobiPrecond,
    SSORPrecond,
    preconditioned_cg,
    vr_pcg,
)
from repro.sparse.generators import anisotropic2d
from repro.util.rng import default_rng
from repro.util.tables import Table

__all__ = ["run"]


@register("E9")
def run(*, fast: bool = True, k: int = 2) -> ExperimentReport:
    """Convergence parity of vr_pcg vs classical PCG per preconditioner."""
    grid = 14 if fast else 28
    a = anisotropic2d(grid, epsilon=0.05)
    b = default_rng(41).standard_normal(a.nrows)
    stop = StoppingCriterion(rtol=1e-8, max_iter=4000)

    plain = conjugate_gradient(a, b, stop=stop)
    table = Table(
        ["preconditioner", "pcg iters", f"vr-pcg(k={k}) iters", "both converged", "iter gap"],
        title=f"E9: preconditioned solves, anisotropic2d({grid}), plain cg = {plain.iterations} iters",
    )
    passed = plain.converged
    precs = [
        ("jacobi", JacobiPrecond(a)),
        ("ssor(w=1.2)", SSORPrecond(a, omega=1.2)),
        ("ic0", ICholPrecond(a)),
    ]
    speedup_seen = False
    for name, m in precs:
        ref = preconditioned_cg(a, b, precond=m, stop=stop)
        vr = vr_pcg(
            a, b, precond=m, k=k, stop=stop,
            recovery=RecoveryPolicy(replace_every=8, max_restarts=0),
        )
        gap = abs(vr.iterations - ref.iterations)
        table.add(name, ref.iterations, vr.iterations, ref.converged and vr.converged, gap)
        passed = passed and ref.converged and vr.converged and gap <= max(3, ref.iterations // 10)
        speedup_seen = speedup_seen or ref.iterations < plain.iterations

    # Polynomial (Chebyshev) preconditioning: the parallel-friendly option
    # -- commuting trick, no triangular solves anywhere.
    from repro.core.lanczos import estimate_spectrum_via_cg
    from repro.precond.polynomial import (
        ChebyshevPolyPrecond,
        polynomial_pcg,
        vr_poly_pcg,
    )

    bounds = estimate_spectrum_via_cg(a, b, iterations=12)
    cheb = ChebyshevPolyPrecond(a, bounds, degree=4)
    ref = polynomial_pcg(a, b, precond=cheb, stop=stop)
    vr = vr_poly_pcg(
        a, b, precond=cheb, k=k, stop=stop,
        recovery=RecoveryPolicy(replace_every=8, max_restarts=0),
    )
    gap = abs(vr.iterations - ref.iterations)
    table.add("chebyshev(q=4)", ref.iterations, vr.iterations,
              ref.converged and vr.converged, gap)
    passed = (
        passed and ref.converged and vr.converged
        and gap <= max(3, ref.iterations // 10)
        and ref.iterations < plain.iterations
    )

    passed = passed and speedup_seen

    # Depth accounting: what each preconditioner's application costs on
    # the machine model (per iteration, applied-form PCG).
    n_model, d_model = 2**20, 5
    depth_table = Table(
        ["preconditioner", "apply depth", "pcg depth/iter"],
        title=f"E9-depth: preconditioner application on the machine model "
        f"(N=2^20, d={d_model})",
    )
    depth_rows = {}
    for kind in ("identity", "jacobi", "polynomial", "triangular"):
        md = precond_depth(kind, n=n_model, d=d_model)
        per_iter = build_pcg_dag(
            n_model, d_model, 16, m_depth=md
        ).per_iteration_depth()
        depth_table.add(kind, md, per_iter)
        depth_rows[kind] = per_iter
    passed = passed and depth_rows["jacobi"] <= depth_rows["identity"] + 2
    passed = passed and depth_rows["triangular"] > 100 * depth_rows["jacobi"]

    findings = [
        "paper: mentions preconditioning as CG's practical context but "
        "restructures only the plain iteration.",
        "extension measured: running the VR machinery on the SPD split "
        "operator E^-1 A E^-T reproduces applied-form PCG's iteration "
        "counts for Jacobi, SSOR and IC(0) -- the recurrences needed no "
        "re-derivation.",
        "machine-model caveat, now quantified (table E9-depth): Jacobi "
        "adds one depth unit per iteration; a degree-3 polynomial "
        "preconditioner adds a constant; SSOR/IC substitutions add "
        "Θ(n), which is orders of magnitude beyond everything the "
        "restructuring saved -- the standard parallel-preconditioning "
        "tension, present here exactly as in the later literature.",
    ]
    return ExperimentReport(
        exp_id="E9",
        claim="extension",
        title="Preconditioned Van Rosendale CG",
        tables=[table, depth_table],
        findings=findings,
        passed=passed,
    )
