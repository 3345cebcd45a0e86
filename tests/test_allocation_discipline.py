"""Zero-allocation discipline of the steady-state solver loops.

The per-solve workspace arena (:class:`repro.backend.Workspace`, made by
each solve's :class:`~repro.core.results.SolveRun`) plus the ``out=``
and ``work=`` kernel paths promise that once a solver reaches steady
state, each iteration reuses the same buffers and allocates **no new
arrays**.  These tests pin that promise with :mod:`tracemalloc`: a
telemetry sink samples the traced-memory peak at every iteration event,
and the per-iteration peak deltas in steady state must stay far below
the size of a single length-``n`` vector -- a single stray temporary
(``8n`` bytes) trips the assertion.

The aliasing half of the file pins which in-place aliasing patterns each
elementwise kernel supports, including the ``axpby(..., out=x)`` case
whose silent ``b*y`` temporary this subsystem removed.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.backend import Workspace
from repro.core.batched import batched_cg
from repro.core.pipeline import pipelined_vr_cg
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.sparse.generators import poisson2d
from repro.telemetry import Telemetry
from repro.telemetry.events import IterationEvent
from repro.util.kernels import axpby, axpy, scale

# One length-n float64 vector on the n=16384 test problem is 128 KiB;
# steady-state iterations may allocate small O(k) bookkeeping (event
# objects, list growth, scalars) but never a vector-sized block.
GRID = 128
N = GRID * GRID
VECTOR_BYTES = 8 * N
ALLOWED_PER_ITERATION = VECTOR_BYTES // 2


class _PeakProbe:
    """Telemetry sink recording the traced-memory peak between iterations."""

    def __init__(self) -> None:
        self.deltas: list[int] = []
        self._floor: int | None = None

    def emit(self, event) -> None:
        if not isinstance(event, IterationEvent):
            return
        _, peak = tracemalloc.get_traced_memory()
        if self._floor is not None:
            self.deltas.append(peak - self._floor)
        tracemalloc.reset_peak()
        self._floor = tracemalloc.get_traced_memory()[0]

    def steady_deltas(self) -> list[int]:
        # Drop the first few iterations (arena warm-up: the workspace
        # legitimately allocates each named buffer once) and the last
        # (the convergence exit path builds the result).
        return self.deltas[4:-1]


def _run_probed(solver, b=None, **kwargs):
    a = poisson2d(GRID)
    b = np.ones(a.nrows) if b is None else b
    probe = _PeakProbe()
    telemetry = Telemetry(probe)
    stop = StoppingCriterion(rtol=1e-10, max_iter=60)
    tracemalloc.start()
    try:
        result = solver(a, b, stop=stop, telemetry=telemetry, **kwargs)
    finally:
        tracemalloc.stop()
    return result, probe


class TestSteadyStateAllocations:
    def test_cg_steady_state_allocates_no_arrays(self):
        result, probe = _run_probed(conjugate_gradient)
        assert result.iterations > 10
        steady = probe.steady_deltas()
        assert steady, "not enough iterations to measure steady state"
        assert max(steady) < ALLOWED_PER_ITERATION, (
            f"cg allocated up to {max(steady)} bytes in one steady-state "
            f"iteration (budget {ALLOWED_PER_ITERATION}); a length-n "
            f"vector is {VECTOR_BYTES}"
        )

    def test_vr_steady_state_allocates_no_arrays(self):
        # Repair off: replacement rebuilds the power block (a legitimate
        # allocation) and would pollute the measurement.
        result, probe = _run_probed(vr_conjugate_gradient, k=2, recovery=None)
        assert result.iterations > 10
        steady = probe.steady_deltas()
        assert steady, "not enough iterations to measure steady state"
        assert max(steady) < ALLOWED_PER_ITERATION, (
            f"vr allocated up to {max(steady)} bytes in one steady-state "
            f"iteration (budget {ALLOWED_PER_ITERATION})"
        )

    def test_batched_cg_steady_state_allocates_no_arrays_after_deflation(self):
        # The zero column deflates at iteration 0, so every sweep runs on
        # a compacted (n, 2) block: compaction must leave the working
        # blocks C-ordered, or each block product copies its operand in
        # and its result out, and the folded updates must not go through
        # numpy's per-call ufunc buffer (64 KiB here).
        b = np.ones((N, 3))
        b[:, 1] = 0.0
        b[:, 2] = np.linspace(-1.0, 1.0, N)
        result, probe = _run_probed(batched_cg, b=b)
        assert result.column_iterations[1] == 0
        assert result.iterations > 10
        steady = probe.steady_deltas()
        assert steady, "not enough iterations to measure steady state"
        assert max(steady) < ALLOWED_PER_ITERATION, (
            f"batched cg allocated up to {max(steady)} bytes in one "
            f"steady-state sweep (budget {ALLOWED_PER_ITERATION}); an "
            f"(n, 2) block is {2 * VECTOR_BYTES}"
        )

    def test_pipelined_vr_steady_state_allocates_no_arrays(self):
        result, probe = _run_probed(pipelined_vr_cg, k=2)
        assert result.iterations > 10
        steady = probe.steady_deltas()
        assert steady, "not enough iterations to measure steady state"
        assert max(steady) < ALLOWED_PER_ITERATION, (
            f"pipelined-vr allocated up to {max(steady)} bytes in one "
            f"steady-state iteration (budget {ALLOWED_PER_ITERATION})"
        )


class TestKernelAliasing:
    """The documented aliasing matrix of axpy / axpby / scale."""

    def setup_method(self):
        self.x = np.arange(1.0, 6.0)
        self.y = np.full(5, 2.0)

    def test_axpy_out_is_y(self):
        # out aliasing y: y <- a*x + y, in place, workspace optional.
        y = self.y.copy()
        got = axpy(3.0, self.x, y, out=y)
        assert got is y
        np.testing.assert_allclose(y, 3.0 * self.x + 2.0)

    def test_axpy_out_is_y_with_workspace(self):
        ws = np.empty(5)
        y = self.y.copy()
        got = axpy(3.0, self.x, y, out=y, work=ws)
        assert got is y
        np.testing.assert_allclose(y, 3.0 * self.x + 2.0)

    def test_axpy_out_is_x(self):
        # out aliasing x: x <- a*x + y, in place.
        x = self.x.copy()
        got = axpy(3.0, x, self.y, out=x)
        assert got is x
        np.testing.assert_allclose(x, 3.0 * np.arange(1.0, 6.0) + 2.0)

    def test_axpby_out_is_x(self):
        x = self.x.copy()
        got = axpby(2.0, x, 3.0, self.y, out=x)
        assert got is x
        np.testing.assert_allclose(x, 2.0 * np.arange(1.0, 6.0) + 6.0)

    def test_axpby_out_is_y(self):
        y = self.y.copy()
        got = axpby(2.0, self.x, 3.0, y, out=y)
        assert got is y
        np.testing.assert_allclose(y, 2.0 * self.x + 6.0)

    def test_axpby_out_is_both(self):
        # x and y and out all the same array: out <- (a+b) * x.
        v = self.x.copy()
        got = axpby(2.0, v, 3.0, v, out=v)
        assert got is v
        np.testing.assert_allclose(v, 5.0 * np.arange(1.0, 6.0))

    def test_axpby_distinct_out_with_workspace_is_allocation_free(self):
        out = np.empty(5)
        ws = np.empty(5)
        got = axpby(2.0, self.x, 3.0, self.y, out=out, work=ws)
        assert got is out
        np.testing.assert_allclose(out, 2.0 * self.x + 6.0)

    def test_scale_in_place(self):
        x = self.x.copy()
        got = scale(2.0, x, out=x)
        assert got is x
        np.testing.assert_allclose(x, 2.0 * np.arange(1.0, 6.0))

    @pytest.mark.parametrize(
        "kernel_case, work_kind",
        [pytest.param(case, "array", id=case) for case in ("axpy", "axpby", "scale")]
        + [
            pytest.param(case, "workspace", id=f"{case}-workspace")
            for case in ("axpy", "axpby")
        ],
    )
    def test_aliased_kernels_allocate_nothing(self, kernel_case, work_kind):
        n = 1 << 15
        x = np.ones(n)
        y = np.ones(n)
        ws = np.empty(n) if work_kind == "array" else Workspace()
        # Warm up any lazy numpy machinery before measuring.
        axpy(1.0, x, y, out=y, work=ws)
        axpby(1.0, x, 1.0, y, out=y, work=ws)
        scale(1.0, x, out=x)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            floor, _ = tracemalloc.get_traced_memory()
            if kernel_case == "axpy":
                axpy(2.0, x, y, out=y, work=ws)
            elif kernel_case == "axpby":
                axpby(2.0, x, 0.5, y, out=y, work=ws)
            else:
                scale(0.5, x, out=x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - floor < n, (
            f"{kernel_case} allocated {peak - floor} bytes on the aliased "
            f"in-place path"
        )
