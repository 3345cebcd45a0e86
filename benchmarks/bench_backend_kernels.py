"""CSR matvec throughput and allocation discipline (``BENCH_perf.json``).

Two measurements on the model problem:

* **matvec arms** -- the CSR product solves run, ``matvec(x, out=)``
  into a preallocated buffer (what :func:`repro.sparse.linop.matvec_into`
  calls), next to the allocating ``matvec(x)``: best-of-N seconds and
  the bandwidth they imply, from the bytes the operation counter books
  for one product (computed from array sizes, not measured traffic).
* **allocation counts** -- tracemalloc-measured bytes per call for both
  arms (the ``out=`` arm must not allocate anything vector-sized), plus
  per-iteration steady-state allocations of a full CG solve.
* **concurrent_cg** -- 8 cg solves on poisson2d(128) on a 2-thread
  ``ThreadPoolExecutor`` against the same 8 in sequence, alternating
  which runs first in each repeat: each arm's median and quartiles, a
  ``host`` block, and a check that the pool returns the sequence's x
  bytes.  Every solve keeps to its calling thread, so on a multi-core
  host the pool should be no slower than the sequence.

Running the script writes the numbers to ``BENCH_perf.json`` at the
repository root (the pytest test writes to its temporary directory);
``tools/check_bench_regression.py`` compares them against
``benchmarks/baselines/BENCH_perf.json`` in the bench-smoke CI job.
"""

from __future__ import annotations

import json
import os
import platform
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro import solve
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.sparse import poisson2d
from repro.util.counters import counting
from repro.util.rng import default_rng

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

# poisson2d(320): n = 102,400 rows, and one product moves about 9.8 MB
# (the counter's 2·nnz + 2·n words), over twice the L2 of the 2-vCPU host
# the recorded numbers come from.
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
    """Time and trace the allocating and the ``out=`` CSR products."""
    out = np.empty(a.nrows)
    with counting() as c:
        a.matvec(x, out=out)
    a.matvec(x)  # both arms are warm before timing
    alloc_seconds = _best_of(lambda: a.matvec(x), repeats)
    out_seconds = _best_of(lambda: a.matvec(x, out=out), repeats)
    return {
        "matvec_bytes": c.bytes_moved,
        "allocating_matvec_seconds": alloc_seconds,
        "allocating_matvec_gbps": c.bytes_moved / alloc_seconds / 1e9,
        "out_matvec_seconds": out_seconds,
        "out_matvec_gbps": c.bytes_moved / out_seconds / 1e9,
        "allocating_matvec_allocs": _traced_allocs(lambda: a.matvec(x)),
        "out_matvec_allocs": _traced_allocs(lambda: a.matvec(x, out=out)),
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


def _host() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _concurrent_cg(grid: int, solves: int, workers: int, repeats: int) -> dict:
    """``solves`` cg solves on a ``workers``-thread pool against the same
    solves in sequence; the arms alternate which runs first."""
    a = poisson2d(grid)
    bs = [default_rng(40 + i).standard_normal(a.nrows) for i in range(solves)]

    def one(b):
        return solve(a, b, "cg")

    with ThreadPoolExecutor(max_workers=workers) as pool:
        arms = {
            "pool": lambda: list(pool.map(one, bs)),
            "sequence": lambda: [one(b) for b in bs],
        }
        seconds: dict[str, list[float]] = {name: [] for name in arms}
        results: dict[str, list] = {}
        for name, fn in arms.items():  # both arms warm before timing
            results[name] = fn()
        for i in range(repeats):
            for name in sorted(arms, reverse=bool(i % 2)):
                t0 = time.perf_counter()
                results[name] = arms[name]()
                seconds[name].append(time.perf_counter() - t0)
    for p, q in zip(results["pool"], results["sequence"]):
        if p.x.tobytes() != q.x.tobytes():
            raise AssertionError("the pool's x bytes differ from the sequence's")
    record = {
        "operator": f"poisson2d({grid})",
        "n": a.nrows,
        "solves": solves,
        "workers": workers,
        "repeats": repeats,
        "statistic": "median; quartiles are [q1, q3] in seconds",
    }
    for name, samples in seconds.items():
        q1, med, q3 = np.percentile(samples, [25, 50, 75])
        record[f"{name}_seconds"] = float(med)
        record[f"{name}_quartiles"] = [float(q1), float(q3)]
    record["speedup"] = record["sequence_seconds"] / record["pool_seconds"]
    record["iterations"] = [int(r.iterations) for r in results["sequence"]]
    record["host"] = _host()
    return record


def run(
    *,
    grid: int = DEFAULT_GRID,
    rtol: float = 1e-8,
    repeats: int = 20,
    solve_grid: int = 96,
    concurrent_grid: int = 128,
    concurrent_repeats: int = 7,
    out_path: Path | str | None = DEFAULT_OUT,
) -> dict:
    """Measure the CSR products; return (and optionally write) the record.

    ``grid`` sizes the matvec arms (grid 320 gives n = 102,400 rows);
    ``solve_grid`` sizes the full-solve allocation section, which runs
    dozens of iterations and can be smaller; ``concurrent_grid`` and
    ``concurrent_repeats`` size the ``concurrent_cg`` record.
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
        "concurrent_cg": _concurrent_cg(
            concurrent_grid, solves=8, workers=2, repeats=concurrent_repeats
        ),
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_backend_kernel_performance(tmp_path):
    """The solve path's ``out=`` product allocates nothing vector-sized,
    and concurrent solves return the sequence's bytes (smoke scale)."""
    out = tmp_path / DEFAULT_OUT.name
    payload = run(out_path=out, concurrent_grid=24, concurrent_repeats=2)
    assert payload["n"] >= 100_000
    assert payload["out_matvec_allocs"]["peak_bytes"] < payload["n"] // 2, (
        payload["out_matvec_allocs"]
    )
    concurrent = payload["concurrent_cg"]
    assert len(concurrent["iterations"]) == 8
    assert out.exists()


if __name__ == "__main__":
    record = run()
    print(json.dumps(record, indent=2))
