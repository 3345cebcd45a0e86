"""Service request throughput: coalesced dispatch and worker-pool dispatch.

Two scenarios, both measured end to end THROUGH the service -- admission,
the lane backlogs, executor handoff, response fan-out -- not just the
underlying kernels.

**Scenario 1 -- coalescing (same operator).**  ``m`` concurrent clients
solving against one operator should cost one batched solve, not ``m``
sequential ones:

* *coalesced arm* -- a :class:`repro.serve.SolverService` with
  ``max_coalesce_width >= clients``: the burst is admitted in one
  event-loop step and rides one :func:`repro.solve_batched` dispatch;
* *sequential arm* -- the same service with ``max_coalesce_width=1``,
  which is exactly the naive thread-per-request front end.

**Scenario 2 -- mixed operators (worker pool vs one thread).**
Closed-loop clients split across several *distinct* operator
fingerprints, solving for several rounds.  Every fingerprint gets its
own dispatch lane in both arms:

* *pool arm* -- ``workers > 1``: groups on different lanes solve at the
  same time;
* *single arm* -- ``workers=1``: a one-thread pool, so one group solves
  at a time while the other lanes wait for the thread.

Both arms coalesce identically (same width cap) and run with the
warm-start cache disabled, so the measured gap is purely how many groups
solve at once.  Every mixed run asserts the conservation law
``submitted == served + shed + errors + deduped`` and that full-width
coalesced results are bit-identical to a direct
:func:`repro.solve_batched` call on the same columns.

A note on hardware: the pool cannot conjure CPU cores, so the >= 2x
acceptance floor applies on multi-core hosts (the CI runners); on a
single core the bench only asserts that the pool does not lose.

Running the script writes the numbers to ``BENCH_serve.json`` at the
repository root (the pytest test writes to its temporary directory).
Acceptance floors: >= 2x request throughput for 16 concurrent
same-operator clients (ISSUE 8); >= 2x served RPS for the worker pool
against 16 clients spread over 4 operator fingerprints on multi-core
hosts (ISSUE 10).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro import solve_batched
from repro.core.stopping import StoppingCriterion
from repro.serve import ServiceConfig, SolveRequest, SolverService
from repro.sparse import poisson2d
from repro.util.rng import default_rng

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"


async def _run_burst(
    a, b_block, stop, *, clients: int, max_width: int
) -> tuple[float, list]:
    """One burst of concurrent clients through a fresh service."""
    config = ServiceConfig(
        max_coalesce_width=max_width,
        max_queue_depth=max(64, 2 * clients),
        warm_start=0,
    )
    async with SolverService(config) as service:
        t0 = time.perf_counter()
        responses = await asyncio.gather(
            *(
                service.submit(
                    SolveRequest(a=a, b=b_block[:, j], method="cg", stop=stop)
                )
                for j in range(clients)
            )
        )
        elapsed = time.perf_counter() - t0
    for response in responses:
        assert response.ok, f"burst member failed: {response.reason}"
        assert response.result.converged
    return elapsed, responses


def run(
    *,
    grid: int = 24,
    clients: int = 16,
    rtol: float = 1e-8,
    repeats: int = 3,
    out_path: Path | str | None = DEFAULT_OUT,
    mixed_grids: tuple[int, ...] = (10, 14, 20, 32),
    mixed_clients_per_op: int = 4,
    mixed_rounds: int = 6,
    mixed_repeats: int = 3,
) -> dict:
    """Run both scenarios and emit the combined record.

    Each arm runs its bursts/rounds ``repeats`` times and keeps the best
    wall-clock (minimum-of-repeats to suppress scheduler noise).  A
    fresh service is built per measurement so no queue state leaks
    between them; operators are shared, so all arms enjoy the same warm
    :class:`~repro.backend.SetupCache`.
    """
    a = poisson2d(grid)
    n = a.nrows
    stop = StoppingCriterion(rtol=rtol)
    b_block = default_rng(7).standard_normal((n, clients))

    async def measure() -> dict:
        # Warm-up burst per arm: lazy imports, setup cache, thread pool.
        await _run_burst(a, b_block, stop, clients=clients, max_width=clients)
        await _run_burst(a, b_block, stop, clients=clients, max_width=1)

        coalesced_best = sequential_best = float("inf")
        coalesced_responses = None
        for _ in range(repeats):
            elapsed, responses = await _run_burst(
                a, b_block, stop, clients=clients, max_width=clients
            )
            if elapsed < coalesced_best:
                coalesced_best, coalesced_responses = elapsed, responses

            elapsed, _ = await _run_burst(
                a, b_block, stop, clients=clients, max_width=1
            )
            sequential_best = min(sequential_best, elapsed)

        widths = sorted(
            {response.coalesce_width for response in coalesced_responses}
        )
        return {
            "clients": clients,
            "coalesced_seconds": coalesced_best,
            "sequential_seconds": sequential_best,
            "speedup": sequential_best / coalesced_best,
            "coalesced_rps": clients / coalesced_best,
            "sequential_rps": clients / sequential_best,
            "coalesce_widths": widths,
            "iterations": [
                int(response.result.iterations)
                for response in coalesced_responses
            ],
        }

    record = asyncio.run(measure())
    mixed = run_mixed(
        grids=mixed_grids,
        clients_per_op=mixed_clients_per_op,
        rounds=mixed_rounds,
        rtol=rtol,
        repeats=mixed_repeats,
    )
    payload = {
        "bench": "serve_throughput",
        "operator": f"poisson2d({grid})",
        "n": n,
        "rtol": rtol,
        "repeats": repeats,
        "results": [record],
        "mixed_operator": mixed,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ----------------------------------------------------------------------
# Scenario 2: mixed operators through the fingerprint-keyed worker pool.

async def _run_mixed(
    lanes, stop, *, rounds: int, max_width: int, workers: int
) -> tuple[float, Counter]:
    """Closed-loop mixed-operator rounds through a fresh service.

    ``lanes`` is a list of ``(operator, b_columns, reference)`` triples:
    each lane's ``b_columns.shape[1]`` clients repeatedly solve their
    own fixed column.  (The bit-identical reference check runs outside
    the timed region -- see :func:`_check_bit_identical`.)
    """
    config = ServiceConfig(
        max_coalesce_width=max_width,
        max_queue_depth=64,
        workers=workers,
        warm_start=0,  # repeat solves must measure dispatch, not caching
    )
    widths: Counter = Counter()

    async with SolverService(config) as service:
        t0 = time.perf_counter()
        await asyncio.gather(
            *(
                _mixed_client(service, a, b_cols[:, j], stop, rounds, widths)
                for a, b_cols, _ in lanes
                for j in range(b_cols.shape[1])
            )
        )
        elapsed = time.perf_counter() - t0
        assert service.shed == 0 and service.errors == 0
        assert service.submitted == (
            service.served + service.shed + service.errors + service.deduped
        )
    return elapsed, widths


async def _mixed_client(service, a, b, stop, rounds, widths):
    for _ in range(rounds):
        response = await service.submit(
            SolveRequest(a=a, b=b, method="cg", stop=stop)
        )
        assert response.ok, f"mixed client failed: {response.reason}"
        assert response.result.converged
        widths[response.coalesce_width] += 1


def run_mixed(
    *,
    grids: tuple[int, ...] = (10, 14, 20, 32),
    clients_per_op: int = 4,
    rounds: int = 6,
    rtol: float = 1e-8,
    repeats: int = 3,
    pool_workers: int = 4,
) -> dict:
    """Time a multi-thread pool against a one-thread pool over mixed
    operators.

    The lanes are Poisson operators of deliberately different sizes --
    realistic multi-tenant traffic where a heavyweight tenant's solve
    holds the only thread of a one-thread pool while every other lane
    waits.
    """
    stop = StoppingCriterion(rtol=rtol)
    lanes = []
    for i, grid in enumerate(grids):
        a = poisson2d(grid)
        b_cols = default_rng(100 + i).standard_normal(
            (a.nrows, clients_per_op)
        )
        reference = solve_batched(a, b_cols, "cg", stop=stop)
        lanes.append((a, b_cols, reference))
    clients = len(grids) * clients_per_op
    total = clients * rounds

    async def measure() -> dict:
        # Warm-up round per arm (setup caches, executor threads).
        await _run_mixed(
            lanes, stop, rounds=1, max_width=clients_per_op,
            workers=pool_workers,
        )
        await _run_mixed(
            lanes, stop, rounds=1, max_width=clients_per_op, workers=1
        )
        pool_best = single_best = float("inf")
        pool_widths: Counter = Counter()
        for _ in range(repeats):
            elapsed, widths = await _run_mixed(
                lanes, stop, rounds=rounds, max_width=clients_per_op,
                workers=pool_workers,
            )
            if elapsed < pool_best:
                pool_best, pool_widths = elapsed, widths
            elapsed, _ = await _run_mixed(
                lanes, stop, rounds=rounds, max_width=clients_per_op,
                workers=1,
            )
            single_best = min(single_best, elapsed)
        return {
            "operators": [f"poisson2d({g})" for g in grids],
            "distinct_fingerprints": len(grids),
            "clients": clients,
            "rounds": rounds,
            "requests": total,
            "max_width": clients_per_op,
            "workers": pool_workers,
            "cpu_count": os.cpu_count() or 1,
            "pool_seconds": pool_best,
            "single_worker_seconds": single_best,
            "pool_rps": total / pool_best,
            "single_worker_rps": total / single_best,
            "speedup": single_best / pool_best,
            "pool_coalesce_widths": {
                str(w): c for w, c in sorted(pool_widths.items())
            },
        }

    record = asyncio.run(measure())
    _check_bit_identical(lanes, stop, clients_per_op, pool_workers)
    return record


def _check_bit_identical(lanes, stop, width, workers):
    """Coalesced pool results must equal direct batched solves exactly."""

    async def main():
        config = ServiceConfig(
            max_coalesce_width=width,
            workers=workers,
            warm_start=0,
        )
        async with SolverService(config) as service:
            for a, b_cols, reference in lanes:
                requests = [
                    SolveRequest(a=a, b=b_cols[:, j], method="cg", stop=stop)
                    for j in range(b_cols.shape[1])
                ]
                responses = await service.submit_batched(requests)
                for j, response in enumerate(responses):
                    assert response.ok
                    assert response.coalesce_width == width
                    expected = reference.column(j).x
                    assert np.array_equal(response.result.x, expected), (
                        "coalesced pool result diverged bitwise from "
                        "direct solve_batched"
                    )

    asyncio.run(main())


def test_serve_throughput_speedup(tmp_path):
    """Acceptance: coalesced service >= 2x sequential RPS at 16 clients."""
    out = tmp_path / DEFAULT_OUT.name
    payload = run(out_path=out)
    [record] = payload["results"]
    assert record["clients"] == 16
    speedup = record["speedup"]
    assert speedup >= 2.0, (
        f"coalesced service speedup is {speedup:.2f}x, below the 2x floor "
        f"(coalesced {record['coalesced_seconds']*1e3:.1f} ms vs sequential "
        f"{record['sequential_seconds']*1e3:.1f} ms for 16 clients)"
    )
    # The win must come from actual coalescing, not timing luck.
    assert max(record["coalesce_widths"]) >= 8
    assert out.exists()

    # Acceptance: the fingerprint-keyed pool beats a
    # one-thread pool on mixed-operator traffic.  A pool cannot conjure
    # a second core, so the 2x floor binds on multi-core hosts (the CI
    # runners); on a single core we only assert the pool does not lose.
    mixed = payload["mixed_operator"]
    assert mixed["distinct_fingerprints"] >= 4
    assert mixed["clients"] == 16
    floor = 2.0 if mixed["cpu_count"] >= 2 else 1.0
    assert mixed["speedup"] >= floor, (
        f"worker-pool speedup is {mixed['speedup']:.2f}x on "
        f"{mixed['cpu_count']} cpu(s), below the {floor}x floor "
        f"(pool {mixed['pool_seconds']*1e3:.1f} ms vs single-worker "
        f"{mixed['single_worker_seconds']*1e3:.1f} ms for "
        f"{mixed['requests']} requests)"
    )
    # The pool arm must actually coalesce full-width groups.
    assert mixed["pool_coalesce_widths"].get(str(mixed["max_width"]), 0) > 0


if __name__ == "__main__":
    result = run()
    print(json.dumps(result, indent=2))
