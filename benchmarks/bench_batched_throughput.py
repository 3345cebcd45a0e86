"""Batched multi-RHS throughput: one block solve vs a loop of single solves.

The batched solvers exist to amortize work across right-hand sides: one
streaming pass over the matrix per sweep (``matmat``) instead of ``m``
separate traversals, one fused ``m``-wide reduction per inner-product site
instead of ``m`` scalar reductions, and deflation so finished columns stop
paying.  This benchmark measures that claim end to end through the public
front doors -- ``repro.solve_batched(op, B)`` against
``[repro.solve(op, B[:, j]) for j in range(m)]`` -- on the SAME operator,
same tolerance, for m ∈ {1, 4, 16, 64}.

Both arms of the main record run a CSR ``poisson2d(24)``, whose block
product is scipy's compiled ``csr_matvecs``.

The ``csr_large`` record times the same comparison on a CSR
poisson2d(128) at m = 2 and 8: a working set near the L2 cache, where
narrow blocks used to lose to looped solves because numpy ran every
per-column update with an inner loop only m wide (docs/performance.md,
"Batched blocks").  It keeps the median and quartiles over its repeats,
and the record carries a ``host`` block.

``python benchmarks/bench_batched_throughput.py`` writes
``BENCH_batched.json`` at the repository root (about 30 s).  Acceptance
floor (ISSUE 2): batched classical CG at m=16 must be at least 3x the
throughput of the looped solves.  The reduction-count side of the story
(2 collectives per sweep independent of m) is pinned separately in
``tests/core/test_batched.py``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro import solve, solve_batched
from repro.core.stopping import StoppingCriterion
from repro.sparse import poisson2d
from repro.util.rng import default_rng

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_batched.json"

DEFAULT_M = (1, 4, 16, 64)
CSR_M = (2, 8)


def _host() -> dict:
    return {
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _csr_arm(grid: int, stop: StoppingCriterion, repeats: int, method: str) -> dict:
    """Batched against looped seconds on a CSR ``poisson2d(grid)`` at
    each ``m`` of :data:`CSR_M`.

    The two arms alternate within each repeat; each arm's median and
    quartiles over the repeats are kept, and ``speedup`` is the ratio of
    the medians.
    """
    a = poisson2d(grid)
    n = a.nrows
    results = []
    for m in CSR_M:
        b_block = default_rng(98).standard_normal((n, m))
        solve_batched(a, b_block, method, stop=stop)  # warm the caches
        batched_s, looped_s = [], []
        batched_res, singles = None, []
        for _ in range(repeats):
            t0 = time.perf_counter()
            batched_res = solve_batched(a, b_block, method, stop=stop)
            batched_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            singles = [solve(a, b_block[:, j], method, stop=stop) for j in range(m)]
            looped_s.append(time.perf_counter() - t0)
        assert batched_res is not None and batched_res.converged
        assert all(s.converged for s in singles)
        b_q1, b_med, b_q3 = np.percentile(batched_s, [25, 50, 75])
        l_q1, l_med, l_q3 = np.percentile(looped_s, [25, 50, 75])
        results.append(
            {
                "m": m,
                "batched_seconds": float(b_med),
                "batched_quartiles": [float(b_q1), float(b_q3)],
                "looped_seconds": float(l_med),
                "looped_quartiles": [float(l_q1), float(l_q3)],
                "speedup": float(l_med / b_med),
                "column_iterations": [int(v) for v in batched_res.column_iterations],
                "looped_iterations": [int(s.iterations) for s in singles],
            }
        )
    return {
        "operator": f"poisson2d({grid})",
        "n": n,
        "repeats": repeats,
        "statistic": "median; quartiles are [q1, q3] in seconds",
        "results": results,
    }


def run(
    *,
    grid: int = 24,
    m_values: tuple[int, ...] = DEFAULT_M,
    rtol: float = 1e-8,
    repeats: int = 5,
    method: str = "cg",
    csr_grid: int = 128,
    csr_repeats: int = 9,
    out_path: Path | str | None = DEFAULT_OUT,
) -> dict:
    """Time batched vs looped solves; return (and optionally write) the record.

    Each arm of the main record is timed ``repeats`` times and the best
    wall-clock is kept (standard minimum-of-repeats to suppress scheduler
    noise).  Both arms solve the identical systems to the identical
    stopping criterion; the batched result is cross-checked against
    convergence of every column.  The CSR arm (``csr_grid``, ``csr_repeats``) is
    described in the module docstring.
    """
    op = poisson2d(grid)
    n = op.nrows
    stop = StoppingCriterion(rtol=rtol)

    # Warm up lazy imports and the allocator so m=1 is not charged for them.
    warm = default_rng(0).standard_normal((n, 2))
    solve_batched(op, warm, method, stop=stop)
    solve(op, warm[:, 0], method, stop=stop)

    results = []
    for m in m_values:
        b_block = default_rng(99).standard_normal((n, m))
        batched_best = looped_best = float("inf")
        batched_res = None
        singles = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            batched_res = solve_batched(op, b_block, method, stop=stop)
            batched_best = min(batched_best, time.perf_counter() - t0)

            t0 = time.perf_counter()
            singles = [
                solve(op, b_block[:, j], method, stop=stop) for j in range(m)
            ]
            looped_best = min(looped_best, time.perf_counter() - t0)

        assert batched_res is not None and batched_res.converged, (
            f"batched {method} failed to converge at m={m}"
        )
        assert all(s.converged for s in singles), (
            f"looped {method} failed to converge at m={m}"
        )
        results.append(
            {
                "m": m,
                "batched_seconds": batched_best,
                "looped_seconds": looped_best,
                "speedup": looped_best / batched_best,
                "batched_sweeps": int(batched_res.iterations),
                "column_iterations": [
                    int(v) for v in batched_res.column_iterations
                ],
                "looped_iterations": [int(s.iterations) for s in singles],
            }
        )

    payload = {
        "bench": "batched_throughput",
        "method": method,
        "operator": f"poisson2d({grid})",
        "n": n,
        "rtol": rtol,
        "repeats": repeats,
        "results": results,
        "csr_large": _csr_arm(csr_grid, stop, csr_repeats, method),
        "host": _host(),
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_batched_cg_throughput(tmp_path):
    """Acceptance: batched CG >= 3x looped throughput at m=16."""
    out = tmp_path / DEFAULT_OUT.name
    payload = run(out_path=out, csr_grid=32, csr_repeats=3)
    by_m = {r["m"]: r for r in payload["results"]}
    assert 16 in by_m, "bench must include the m=16 acceptance point"
    speedup = by_m[16]["speedup"]
    assert speedup >= 3.0, (
        f"batched CG speedup at m=16 is {speedup:.2f}x, below the 3x floor "
        f"(batched {by_m[16]['batched_seconds']*1e3:.1f} ms vs looped "
        f"{by_m[16]['looped_seconds']*1e3:.1f} ms)"
    )
    # Column trajectories are identical work: the block solve wins on
    # locality and fused reductions, not by doing fewer iterations.
    assert by_m[16]["batched_sweeps"] == max(by_m[16]["looped_iterations"])
    for arm in payload["csr_large"]["results"]:
        assert arm["column_iterations"] == arm["looped_iterations"]
    assert out.exists()


def main() -> None:
    payload = run()
    for r in payload["results"]:
        print(
            f"{payload['operator']} m={r['m']:<3} "
            f"batched {r['batched_seconds'] * 1e3:8.2f} ms  "
            f"looped {r['looped_seconds'] * 1e3:8.2f} ms  x{r['speedup']:.2f}"
        )
    large = payload["csr_large"]
    for r in large["results"]:
        print(
            f"{large['operator']} m={r['m']:<3} "
            f"batched {r['batched_seconds'] * 1e3:8.2f} ms  "
            f"looped {r['looped_seconds'] * 1e3:8.2f} ms  x{r['speedup']:.2f}"
        )
    print(f"wrote {DEFAULT_OUT}")


if __name__ == "__main__":
    main()
