#!/usr/bin/env python3
"""Domain study: preconditioned solves of an anisotropic diffusion problem.

The workload the paper's introduction motivates: a large sparse SPD system
from an elliptic PDE, solved with CG plus "various preconditioning
techniques" (Concus/Golub/O'Leary).  We discretize an anisotropic
diffusion operator (which plain CG handles poorly), compare Jacobi, SSOR
and IC(0) preconditioning, and run both classical PCG and the Van
Rosendale solver on the split-preconditioned operator.

Run:  python examples/poisson2d_study.py [grid] [epsilon]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import StoppingCriterion, conjugate_gradient
from repro.faults import RecoveryPolicy
from repro.precond import (
    ICholPrecond,
    JacobiPrecond,
    SSORPrecond,
    preconditioned_cg,
    vr_pcg,
)
from repro.sparse import anisotropic2d, matrix_stats
from repro.util.tables import Table


def main(grid: int = 24, epsilon: float = 0.02) -> None:
    """Sweep preconditioners on anisotropic2d(grid, epsilon)."""
    a = anisotropic2d(grid, epsilon=epsilon)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(a.nrows)
    stop = StoppingCriterion(rtol=1e-8, max_iter=20 * a.nrows)

    stats = matrix_stats(a)
    print(f"anisotropic diffusion -u_xx - {epsilon}*u_yy on a "
          f"{grid}x{grid} grid")
    print(f"n = {stats.n}, nnz = {stats.nnz}, d = {stats.max_degree}, "
          f"cond ~ {stats.condition_estimate:.1f}")
    print()

    plain = conjugate_gradient(a, b, stop=stop)
    table = Table(
        ["method", "iterations", "true residual", "converged"],
        title="solver comparison",
    )
    table.add("cg (no preconditioner)", plain.iterations,
              plain.true_residual_norm, plain.converged)

    for name, m in [
        ("jacobi", JacobiPrecond(a)),
        ("ssor(w=1.0)", SSORPrecond(a, omega=1.0)),
        ("ssor(w=1.4)", SSORPrecond(a, omega=1.4)),
        ("ic0", ICholPrecond(a)),
    ]:
        ref = preconditioned_cg(a, b, precond=m, stop=stop)
        table.add(f"pcg + {name}", ref.iterations,
                  ref.true_residual_norm, ref.converged)
        vr = vr_pcg(a, b, precond=m, k=2, stop=stop,
                    recovery=RecoveryPolicy(replace_every=8))
        table.add(f"vr-pcg(k=2) + {name}", vr.iterations,
                  vr.true_residual_norm, vr.converged)

    print(table.render())
    print()
    print("vr-pcg runs the restructured iteration on the SPD operator")
    print("E^-1 A E^-T, so the moment recurrences apply unchanged; its")
    print("iteration counts match classical PCG per preconditioner.")


if __name__ == "__main__":
    grid_arg = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    eps_arg = float(sys.argv[2]) if len(sys.argv) > 2 else 0.02
    main(grid_arg, eps_arg)
