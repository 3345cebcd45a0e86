"""Tests for :mod:`repro.core.batched` -- block multi-RHS CG.

The contract under test: column ``j`` of a batched solve reproduces a
standalone solve on ``B[:, j]`` (same trajectory, same history, same
iteration count), while the batch as a whole pays ONE matrix pass and TWO
fused reductions per sweep regardless of ``m``, and deflates finished
columns out of the active set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batched import batched_cg
from repro.core.results import BatchedResult, CGResult, StopReason
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.sparse.csr import from_dense
from repro.sparse.generators import poisson2d, tridiag_toeplitz
from repro.telemetry import Telemetry
from repro.util.counters import counting
from repro.util.rng import default_rng

STOP = StoppingCriterion(rtol=1e-8)


@pytest.fixture(scope="module")
def system():
    a = poisson2d(10)
    b_block = default_rng(5).standard_normal((a.nrows, 4))
    return a, b_block


# ----------------------------------------------------------------------
# batched classical CG
# ----------------------------------------------------------------------
def test_columns_match_standalone_cg(system):
    a, b_block = system
    res = batched_cg(a, b_block, stop=STOP)
    assert isinstance(res, BatchedResult)
    assert res.converged
    for j in range(b_block.shape[1]):
        single = conjugate_gradient(a, b_block[:, j], stop=STOP)
        assert int(res.column_iterations[j]) == single.iterations
        np.testing.assert_allclose(res.x[:, j], single.x, atol=1e-12)
        np.testing.assert_allclose(
            res.residual_norms[j], single.residual_norms, rtol=1e-12
        )


def test_zero_column_deflates_at_iteration_zero(system):
    a, b_block = system
    b = b_block.copy()
    b[:, 1] = 0.0
    res = batched_cg(a, b, stop=STOP)
    assert res.converged
    assert int(res.column_iterations[1]) == 0
    assert res.stop_reasons[1] is StopReason.CONVERGED
    assert np.all(res.x[:, 1] == 0.0)
    assert res.residual_norms[1] == [0.0]
    # the other columns are unaffected by the deflated neighbour
    ref = batched_cg(a, b_block, stop=STOP)
    np.testing.assert_allclose(res.x[:, 0], ref.x[:, 0], atol=1e-12)


def test_all_zero_block(system):
    a, _ = system
    res = batched_cg(a, np.zeros((a.nrows, 3)), stop=STOP)
    assert res.converged
    assert res.iterations == 0
    assert np.all(res.x == 0.0)
    assert all(r is StopReason.CONVERGED for r in res.stop_reasons)


def test_one_dimensional_b_promoted_to_single_column(system):
    a, b_block = system
    res = batched_cg(a, b_block[:, 0], stop=STOP)
    assert res.m == 1
    single = conjugate_gradient(a, b_block[:, 0], stop=STOP)
    np.testing.assert_allclose(res.x[:, 0], single.x, atol=1e-12)


def test_x0_must_match_block_shape(system):
    a, b_block = system
    with pytest.raises(ValueError, match="x0 shape"):
        batched_cg(a, b_block, x0=np.zeros((a.nrows, 2)), stop=STOP)


def test_exact_x0_converges_without_sweeps(system):
    a, b_block = system
    exact = batched_cg(a, b_block, stop=STOP).x
    res = batched_cg(a, b_block, x0=exact, stop=STOP)
    assert res.converged
    assert res.iterations == 0


def test_indefinite_column_breaks_down_others_survive():
    a = from_dense(np.diag([-4.0, 1.0, 2.0]))
    b = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    res = batched_cg(a, b, stop=STOP)
    assert res.stop_reasons[0] is StopReason.BREAKDOWN
    assert not res.column_converged[0]
    assert res.stop_reasons[1] is StopReason.CONVERGED
    np.testing.assert_allclose(res.x[:, 1], [0.0, 1.0, 0.5], atol=1e-10)
    assert res.stop_reason is StopReason.BREAKDOWN  # worst column wins


def test_two_fused_reductions_per_sweep_independent_of_m(system):
    a, b_block = system
    counts = {}
    for m in (1, 4):
        with counting() as c:
            res = batched_cg(a, b_block[:, :m], stop=STOP)
        sweeps = res.iterations
        # fixed overhead: b-norms, initial rr, exit check -- then exactly
        # two fused launches per sweep, NOT 2*m
        assert c.reductions == 2 * sweeps + 3
        assert c.labelled("batched_pap") == sweeps
        counts[m] = c
    # the arithmetic still scales with m; only the launch count is flat
    assert counts[4].dots > counts[1].dots


def test_telemetry_stream(system):
    a, b_block = system
    tele = Telemetry()
    res = batched_cg(a, b_block, stop=STOP, telemetry=tele)
    [start] = tele.events_of("solve_start")
    assert start.method == "batched-cg"
    assert start.options["m"] == b_block.shape[1]
    [end] = tele.events_of("solve_end")
    assert end.converged
    assert end.iterations == res.iterations
    assert len(tele.events_of("column_iteration")) == res.total_column_iterations
    assert len(tele.events_of("column_converged")) == res.m
    widths = [e.width for e in tele.events_of("active_set")]
    assert len(widths) == res.iterations
    assert widths == sorted(widths, reverse=True)  # deflation never grows


def test_column_view_roundtrip(system):
    a, b_block = system
    res = batched_cg(a, b_block, stop=STOP)
    col = res.column(2)
    assert isinstance(col, CGResult)
    assert col.converged
    assert col.iterations == int(res.column_iterations[2])
    assert col.residual_norms == res.residual_norms[2]
    assert "columns converged" in res.summary()


def test_prime_n_columns_match_standalone_cg():
    # n = 1,021 is prime: the block kernels have no fold and run t = 1.
    a = tridiag_toeplitz(1021, -1.0, 4.0, -1.0)
    b_block = default_rng(6).standard_normal((a.nrows, 3))
    res = batched_cg(a, b_block, stop=STOP)
    assert res.converged
    for j in range(b_block.shape[1]):
        single = conjugate_gradient(a, b_block[:, j], stop=STOP)
        assert int(res.column_iterations[j]) == single.iterations
        np.testing.assert_allclose(res.x[:, j], single.x, atol=1e-12)
