#!/usr/bin/env python3
"""Application: implicit heat-equation time stepping with warm starts.

The workload the paper's machinery actually lives inside: an implicit
(backward Euler) discretization of ``u_t = ∇²u`` requires solving

    (I + dt·L) uⁿ⁺¹ = uⁿ

every time step -- hundreds of SPD solves with slowly varying right-hand
sides.  This example runs the whole simulation three ways (classical CG,
eager VR-CG with adaptive replacement, polynomially preconditioned VR)
with warm starts (previous step's solution as x0), tracks cumulative
iteration counts and counted work, and checks the three trajectories
agree.

Run:  python examples/heat_equation.py [grid] [steps]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import StoppingCriterion, conjugate_gradient, poisson2d
from repro.core.lanczos import estimate_spectrum_via_cg
from repro.core.vr_cg import vr_conjugate_gradient
from repro.precond.polynomial import ChebyshevPolyPrecond, vr_poly_pcg
from repro.sparse.coo import COOBuilder
from repro.util.counters import counting
from repro.util.tables import Table


def backward_euler_matrix(grid: int, dt: float):
    """``I + dt·L`` for the 2-D Laplacian on a grid (SPD for dt > 0)."""
    lap = poisson2d(grid)
    b = COOBuilder(lap.nrows, lap.ncols)
    row_of = np.repeat(np.arange(lap.nrows), np.diff(lap.indptr))
    b.add_batch(row_of, lap.indices, dt * lap.data)
    idx = np.arange(lap.nrows, dtype=np.int64)
    b.add_batch(idx, idx, np.ones(lap.nrows))
    return b.to_csr()


def initial_condition(grid: int) -> np.ndarray:
    """A hot square in a cold domain."""
    u = np.zeros((grid, grid))
    lo, hi = grid // 3, 2 * grid // 3
    u[lo:hi, lo:hi] = 1.0
    return u.ravel()


def run_simulation(a, u0, steps, solve):
    """March `steps` backward-Euler steps; returns (u_final, iter_total)."""
    u = u0.copy()
    total_iters = 0
    for _ in range(steps):
        result = solve(a, u, x0=u)  # warm start from the previous step
        if not result.converged:
            raise RuntimeError(f"solver failed: {result.summary()}")
        u = result.x
        total_iters += result.iterations
    return u, total_iters


def main(grid: int = 24, steps: int = 30, dt: float = 0.1) -> None:
    """Simulate and compare the solver family on the time-stepping loop."""
    a = backward_euler_matrix(grid, dt)
    u0 = initial_condition(grid)
    stop = StoppingCriterion(rtol=1e-8, max_iter=2000)

    print(f"backward Euler heat equation: {grid}x{grid} grid, dt={dt}, "
          f"{steps} steps (one SPD solve each, warm-started)")
    print()

    bounds = estimate_spectrum_via_cg(a, u0 + 1e-3, iterations=10)
    cheb = ChebyshevPolyPrecond(a, bounds, degree=3)

    runs = {}
    table = Table(
        ["solver", "total iterations", "matvecs", "direct dots", "energy drift"],
        title="whole-simulation cost",
    )
    for label, solve in [
        ("cg", lambda a_, b_, x0: conjugate_gradient(a_, b_, x0=x0, stop=stop)),
        ("vr-cg(k=2, adaptive)", lambda a_, b_, x0: vr_conjugate_gradient(
            a_, b_, k=2, x0=x0, stop=stop, recovery="drift")),
        ("vr-poly-pcg(k=2, q=3)", lambda a_, b_, x0: vr_poly_pcg(
            a_, b_, precond=cheb, k=2, x0=x0, stop=stop, recovery="periodic")),
    ]:
        with counting() as c:
            u_final, iters = run_simulation(
                a, u0, steps, lambda a_, b_, x0=None, s=solve: s(a_, b_, x0)
            )
        runs[label] = u_final
        # heat diffuses: total energy (sum) is conserved by the exact
        # scheme up to boundary loss; report the change as a sanity metric
        drift = abs(u_final.sum() - u0.sum()) / u0.sum()
        table.add(label, iters, c.matvecs, c.dots, f"{drift:.2%}")

    print(table.render())
    print()
    ref = runs["cg"]
    for label, u in runs.items():
        if label == "cg":
            continue
        err = np.linalg.norm(u - ref) / np.linalg.norm(ref)
        print(f"trajectory agreement {label} vs cg: {err:.2e}")
    print()
    print("warm starts shrink per-step iteration counts as the solution")
    print("field smooths; all three solvers track the same trajectory.")


if __name__ == "__main__":
    grid_arg = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    steps_arg = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    main(grid_arg, steps_arg)
