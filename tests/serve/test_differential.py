"""Differential test: coalesced dispatch vs the paths it replaces.

The serve layer's coalescer claims that riding ``m`` cg requests on one
:func:`repro.solve_batched` call is a pure performance transformation.
This module pins exactly what "pure" means:

* the coalesced responses are **bit-identical** to calling
  :func:`repro.solve_batched` directly on the stacked right-hand sides
  (the service adds nothing numerically -- same solution, same
  iteration counts, same residual histories, bit for bit);
* against *sequential* per-request :func:`repro.solve` calls, each
  column reproduces the same trajectory -- identical iteration counts
  and stopping reasons, solutions agreeing far below the convergence
  tolerance.  Bitwise x-equality against the sequential path is NOT
  promised: the batched kernels evaluate their reductions as fused
  ``m``-wide ``einsum`` contractions, which round differently than the
  sequential ``np.dot`` (documented in docs/serving.md).

Requests of a method without a block path never coalesce: a vr request
gathered with others is answered by the same single-RHS ``vr`` a direct
:func:`repro.solve` call runs, bit for bit.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import solve, solve_batched
from repro.serve import ServiceConfig, SolveRequest, SolverService
from repro.sparse import poisson2d

A = poisson2d(8)  # 64x64
M = 6


def rhs_block() -> np.ndarray:
    return np.random.default_rng(42).standard_normal((A.nrows, M))


def serve_gathered(method: str) -> list:
    """Submit the M columns in one event-loop step."""
    block = rhs_block()

    async def main():
        async with SolverService() as svc:
            # Admitted in one event-loop step: all M columns are on the
            # lane's backlog before its runner plans.
            return await asyncio.gather(
                *(
                    svc.submit(SolveRequest(a=A, b=block[:, j], method=method))
                    for j in range(M)
                )
            )

    responses = asyncio.run(main())
    assert all(r.ok for r in responses)
    return responses


def serve_coalesced(method: str) -> list:
    """Submit the M columns concurrently, forcing one coalesced batch."""
    responses = serve_gathered(method)
    assert [r.coalesce_width for r in responses] == [M] * M
    return responses


@pytest.mark.parametrize("method", ["cg"])
def test_coalesced_bit_identical_to_direct_batched(method):
    responses = serve_coalesced(method)
    direct = solve_batched(A, rhs_block(), method)
    for j, response in enumerate(responses):
        col = direct.column(j)
        got = response.result
        assert np.array_equal(got.x, col.x), f"column {j} x differs"
        assert got.iterations == col.iterations
        assert got.stop_reason == col.stop_reason
        assert got.residual_norms == col.residual_norms
        assert got.converged and col.converged


def test_gathered_vr_requests_run_direct_vr():
    # vr has no block path: six vr requests admitted in one step each
    # run alone, and each answer is the direct single-RHS solve's.
    responses = serve_gathered("vr")
    block = rhs_block()
    for j, response in enumerate(responses):
        direct = solve(A, block[:, j], "vr")
        got = response.result
        assert response.coalesce_width == 1
        assert got.x.tobytes() == direct.x.tobytes(), f"column {j} x differs"
        assert got.iterations == direct.iterations
        assert got.stop_reason == direct.stop_reason
        assert got.true_residual_norm == direct.true_residual_norm


def test_coalesced_matches_sequential_trajectories():
    responses = serve_coalesced("cg")
    block = rhs_block()
    for j, response in enumerate(responses):
        sequential = solve(A, block[:, j], "cg")
        got = response.result
        assert got.converged and sequential.converged
        # Same trajectory: the batched column takes exactly the steps
        # the standalone solve takes.
        assert got.iterations == sequential.iterations
        assert got.stop_reason == sequential.stop_reason
        # Solutions agree orders of magnitude below the 1e-8 rtol
        # convergence tolerance (see module docstring for why not
        # bitwise).
        scale = np.linalg.norm(sequential.x)
        assert np.linalg.norm(got.x - sequential.x) <= 1e-10 * scale
        np.testing.assert_allclose(
            got.residual_norms, sequential.residual_norms, rtol=1e-6
        )


def test_sequential_service_matches_plain_solve_bitwise():
    # With coalescing disabled the service IS solve() -- bit for bit.
    block = rhs_block()

    async def main():
        config = ServiceConfig(max_coalesce_width=1)
        async with SolverService(config) as svc:
            return await asyncio.gather(
                *(
                    svc.submit(SolveRequest(a=A, b=block[:, j], method="cg"))
                    for j in range(M)
                )
            )

    responses = asyncio.run(main())
    for j, response in enumerate(responses):
        direct = solve(A, block[:, j], "cg")
        assert np.array_equal(response.result.x, direct.x)
        assert response.result.iterations == direct.iterations
