"""Microbenchmarks of the primitive kernels the cost model prices.

These are the sequential-throughput counterparts of the machine model's
depth costs: the CSR SpMV (the one sparse product; an ELL matrix runs
on its CSR form), the instrumented dot/axpy wrappers, the moment-window
advance, the power-block advance, and a triangular solve (the
preconditioning bottleneck).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.moments import MomentWindow, initial_window
from repro.core.powers import PowerBlock
from repro.sparse.generators import poisson2d
from repro.sparse.linop import as_operator
from repro.sparse.trisolve import solve_lower
from repro.util.kernels import axpy, dot
from repro.util.rng import default_rng

N_GRID = 64  # 4096-dimensional system


@pytest.fixture(scope="module")
def matrix():
    return poisson2d(N_GRID)


@pytest.fixture(scope="module")
def vec(matrix):
    return default_rng(1).standard_normal(matrix.nrows)


def test_kernel_csr_matvec(benchmark, matrix, vec):
    """CSR SpMV (scipy's compiled ``csr_matvec`` into ``out``)."""
    out = np.empty(matrix.nrows)
    benchmark(lambda: matrix.matvec(vec, out=out))


def test_kernel_dot(benchmark, vec):
    """Instrumented inner product."""
    benchmark(lambda: dot(vec, vec))


def test_kernel_axpy(benchmark, vec):
    """Instrumented in-place axpy."""
    y = vec.copy()
    benchmark(lambda: axpy(0.5, vec, y, out=y))


def test_kernel_moment_window_advance(benchmark, matrix, vec):
    """One scalar moment-window advance at k = 8 (O(k) flops)."""
    k = 8
    op = as_operator(matrix)
    blk = PowerBlock.startup(op, vec, k)
    win = initial_window(k, blk.r_powers)
    benchmark(lambda: win.advanced(0.3, 0.5, 1.0, 1.0))


def test_kernel_power_block_advance(benchmark, matrix, vec):
    """One vector power-block advance at k = 4 (k+2 fused axpys + 1 SpMV)."""
    op = as_operator(matrix)
    blk = PowerBlock.startup(op, vec, 4)

    def step():
        blk.advance_r(1e-8)  # tiny steps keep the block numerically tame
        blk.advance_p(op, 1e-8)

    benchmark(step)


def test_kernel_triangular_solve(benchmark, matrix, vec):
    """Forward substitution on the Poisson lower triangle."""
    lower = matrix.lower_triangle()
    benchmark(lambda: solve_lower(lower, vec))
