#!/usr/bin/env python3
"""Quickstart: solve an SPD system with Van Rosendale's restructured CG.

Builds a 2-D Poisson problem and solves it three ways through the
``repro.solve`` front door -- classical CG, the eager restructured
solver, and the fully pipelined form -- showing that all three produce
the same answer while doing structurally different amounts of
synchronizing work (read live from the telemetry stream).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import StoppingCriterion, Telemetry, available_methods, poisson2d, solve


def run(method: str, a, b, stop, **options):
    """One solve with a fresh telemetry session; returns (result, counts)."""
    tele = Telemetry()
    result = solve(a, b, method, stop=stop, telemetry=tele, **options)
    [counters] = tele.events_of("counters")
    return result, counters.counts


def main() -> None:
    """Solve one problem three ways and compare."""
    a = poisson2d(32)  # 1024 x 1024 five-point Laplacian
    rng = np.random.default_rng(0)
    b = rng.standard_normal(a.nrows)
    stop = StoppingCriterion(rtol=1e-8, max_iter=2000)

    print(f"problem: 2-D Poisson, n = {a.nrows}, nnz = {a.nnz}, "
          f"max row degree d = {a.max_row_degree()}")
    print()

    ref, c_cg = run("cg", a, b, stop)
    print(f"  {ref.summary()}")
    print(f"    direct inner products: {c_cg.dots}  matvecs: {c_cg.matvecs}")

    vr, c_vr = run("vr", a, b, stop, k=3, recovery="periodic")
    print(f"  {vr.summary()}")
    print(f"    direct inner products: {c_vr.labelled('direct_dot')} "
          f"(2/iteration; all other moments recurred)  matvecs: {c_vr.matvecs}")

    pipe, _ = run("pipelined-vr", a, b, stop, k=3)
    print(f"  {pipe.summary()}")

    err_vr = np.linalg.norm(vr.x - ref.x) / np.linalg.norm(ref.x)
    err_pipe = np.linalg.norm(pipe.x - ref.x) / np.linalg.norm(ref.x)
    print()
    print(f"solution agreement vs classical CG: eager {err_vr:.2e}, "
          f"pipelined {err_pipe:.2e}")
    print()
    print("The point of the restructuring is not sequential speed -- it is")
    print("that the two remaining inner products per iteration operate on")
    print("vectors that exist k iterations before their results are needed,")
    print("so their log(N) reduction latency overlaps the iteration pipeline")
    print("on a parallel machine.  See examples/parallel_depth_study.py.")
    print()
    print("Every solver in the family is reachable the same way:")
    print("  repro.solve(a, b, method=..., precond=..., telemetry=...)")
    print("methods: " + ", ".join(available_methods()))


if __name__ == "__main__":
    main()
