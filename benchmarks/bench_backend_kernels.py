"""Backend kernel throughput and allocation discipline (``BENCH_perf.json``).

Two measurements of the :mod:`repro.backend` subsystem on the model
problem:

* **workspace matvec speedup** -- the subsystem's optimized matvec
  path (setup-cached ELL conversion via :func:`repro.backend.cached_ell`
  plus ``matvec(x, out=, work=)``) against the plain allocating CSR
  ``matvec(x)`` path, same matrix, same vectors.  The ELL plane swaps
  CSR's ragged ``reduceat`` segment reduction for a uniform-width
  einsum contraction, and the workspace arena makes the gather plane
  and output reusable, so the arm measures what the backend subsystem
  actually buys end to end.  This is the headline number: the
  acceptance floor is >= 1.2x at n >= 1e5.  The CSR gather-reuse
  numbers are recorded alongside for reference.
* **allocation counts** -- tracemalloc-measured bytes and block counts
  per call for both paths, plus per-iteration steady-state allocations
  of a full CG solve on its own arena (it must be allocation-free).

Running the script writes the numbers to ``BENCH_perf.json`` at the
repository root (the pytest test writes to its temporary directory);
``tools/check_bench_regression.py`` compares them against
``benchmarks/baselines/BENCH_perf.json`` in the bench-smoke CI job.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.backend import Workspace, cached_ell
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.sparse import poisson2d
from repro.util.rng import default_rng

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

# poisson2d(320) has n = 102400 >= 1e5 rows: the acceptance scale.
DEFAULT_GRID = 320


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _traced_allocs(fn) -> dict:
    """Bytes/blocks allocated across one call of ``fn`` (peak over floor)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        floor, _ = tracemalloc.get_traced_memory()
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"peak_bytes": int(peak - floor), "retained_bytes": int(current - floor)}


def _matvec_arms(a, x, repeats: int) -> dict:
    """Time and trace the allocating vs optimized matvec paths.

    The allocating arm is the plain CSR ``a.matvec(x)``.  The workspace
    arm is the backend subsystem's full path: the setup cache memoizes
    the ELL conversion once, and the ELL ``matvec(x, out=, work=)``
    then runs a uniform-width einsum over a workspace-resident gather
    plane -- no ragged ``reduceat``, no allocation.  The CSR
    ``out=``/``work=`` gather-reuse path is timed too, as a secondary
    record (it shares the reduceat bottleneck, so its win is small).
    """
    n = a.nrows
    out = np.empty(n)
    ws = Workspace()
    ell = cached_ell(a)  # setup-cache hit on every later call
    a.matvec(x)  # warm all paths before timing
    a.matvec(x, out=out, work=ws)
    ell.matvec(x, out=out, work=ws)

    alloc_seconds = _best_of(lambda: a.matvec(x), repeats)
    work_seconds = _best_of(lambda: cached_ell(a).matvec(x, out=out, work=ws), repeats)
    csr_work_seconds = _best_of(lambda: a.matvec(x, out=out, work=ws), repeats)
    return {
        "allocating_matvec_seconds": alloc_seconds,
        "workspace_matvec_seconds": work_seconds,
        "workspace_matvec_speedup": alloc_seconds / work_seconds,
        "csr_workspace_matvec_seconds": csr_work_seconds,
        "allocating_matvec_allocs": _traced_allocs(lambda: a.matvec(x)),
        "workspace_matvec_allocs": _traced_allocs(
            lambda: cached_ell(a).matvec(x, out=out, work=ws)
        ),
    }


def _solve_allocation_profile(a, b, stop) -> dict:
    """Steady-state per-iteration allocation of a full CG solve.

    Every solve provisions its own workspace arena, so the
    allocation-free path is the only path.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.events import IterationEvent

    class _Probe:
        def __init__(self):
            self.deltas = []
            self._floor = None

        def emit(self, event):
            if not isinstance(event, IterationEvent):
                return
            _, peak = tracemalloc.get_traced_memory()
            if self._floor is not None:
                self.deltas.append(peak - self._floor)
            tracemalloc.reset_peak()
            self._floor = tracemalloc.get_traced_memory()[0]

    probe = _Probe()
    tracemalloc.start()
    try:
        conjugate_gradient(a, b, stop=stop, telemetry=Telemetry(probe))
    finally:
        tracemalloc.stop()
    steady = probe.deltas[4:-1] or probe.deltas
    return {
        "default": {
            "max_iteration_bytes": int(max(steady)),
            "mean_iteration_bytes": int(sum(steady) / len(steady)),
        }
    }


def run(
    *,
    grid: int = DEFAULT_GRID,
    rtol: float = 1e-8,
    repeats: int = 20,
    solve_grid: int = 96,
    out_path: Path | str | None = DEFAULT_OUT,
) -> dict:
    """Measure the backend kernels; return (and optionally write) the record.

    ``grid`` sizes the matvec arms (acceptance wants n >= 1e5, i.e.
    grid >= 317); ``solve_grid`` sizes the full-solve allocation
    section, which runs dozens of iterations and can be smaller.
    """
    a = poisson2d(grid)
    x = default_rng(3).standard_normal(a.nrows)

    a_small = poisson2d(solve_grid)
    b_small = np.ones(a_small.nrows)
    stop = StoppingCriterion(rtol=rtol, max_iter=60)

    payload = {
        "bench": "backend_kernels",
        "operator": f"poisson2d({grid})",
        "n": a.nrows,
        "nnz": a.nnz,
        "repeats": repeats,
        **_matvec_arms(a, x, repeats),
        "solve_allocations": _solve_allocation_profile(a_small, b_small, stop),
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_backend_kernel_performance(tmp_path):
    """Acceptance: workspace matvec >= 1.2x allocating matvec at n >= 1e5."""
    out = tmp_path / DEFAULT_OUT.name
    payload = run(out_path=out)
    assert payload["n"] >= 100_000
    speedup = payload["workspace_matvec_speedup"]
    assert speedup >= 1.2, (
        f"workspace matvec speedup {speedup:.3f}x is below the 1.2x floor "
        f"(allocating {payload['allocating_matvec_seconds']*1e3:.2f} ms vs "
        f"workspace {payload['workspace_matvec_seconds']*1e3:.2f} ms)"
    )
    # The workspace path must not allocate anything vector-sized.
    assert (
        payload["workspace_matvec_allocs"]["peak_bytes"] < payload["n"] // 2
    ), payload["workspace_matvec_allocs"]
    assert out.exists()


if __name__ == "__main__":
    record = run()
    print(json.dumps(record, indent=2))
