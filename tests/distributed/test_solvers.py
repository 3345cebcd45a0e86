"""Tests for the distributed solvers: correctness + synchronization counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.distributed import (
    distributed_cg,
    distributed_cgcg,
    distributed_pipelined_vr,
    distributed_sstep,
)
from repro.sparse.generators import banded_spd, poisson2d
from repro.util.counters import counting
from repro.util.rng import default_rng

STOP = StoppingCriterion(rtol=1e-8, max_iter=600)


@pytest.fixture
def problem():
    a = poisson2d(10)
    b = default_rng(8).standard_normal(a.nrows)
    ref = conjugate_gradient(a, b, stop=STOP)
    return a, b, ref


class TestCorrectness:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 5])
    def test_dist_cg_matches_sequential(self, problem, nranks):
        a, b, ref = problem
        res, _ = distributed_cg(a, b, nranks=nranks, stop=STOP)
        assert res.converged
        assert res.iterations == ref.iterations
        np.testing.assert_allclose(res.x, ref.x, rtol=1e-10, atol=1e-12)

    def test_dist_cgcg_matches_sequential(self, problem):
        a, b, ref = problem
        res, _ = distributed_cgcg(a, b, nranks=4, stop=STOP)
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, atol=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dist_vr_matches_sequential(self, problem, k):
        a, b, ref = problem
        res, _ = distributed_pipelined_vr(a, b, k=k, nranks=4, stop=STOP)
        assert res.converged
        assert abs(res.iterations - ref.iterations) <= 1
        np.testing.assert_allclose(res.x, ref.x, atol=1e-5)

    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_dist_sstep_matches_sequential(self, problem, s):
        a, b, ref = problem
        res, _ = distributed_sstep(a, b, s=s, nranks=4, stop=STOP)
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, atol=1e-6)

    def test_banded_problem(self):
        a = banded_spd(60, 3, seed=6)
        b = default_rng(7).standard_normal(60)
        ref = conjugate_gradient(a, b, stop=STOP)
        res, _ = distributed_pipelined_vr(a, b, k=2, nranks=3, stop=STOP)
        assert res.converged
        np.testing.assert_allclose(res.x, ref.x, atol=1e-6)


class TestSynchronizationCounts:
    def test_cg_two_blocking_per_iteration(self, problem):
        a, b, _ = problem
        res, comm = distributed_cg(a, b, nranks=4, stop=STOP)
        rate = comm.stats.blocking_allreduces / res.iterations
        assert 2.0 <= rate <= 2.2  # +setup collectives amortized

    def test_cgcg_one_blocking_per_iteration(self, problem):
        a, b, _ = problem
        res, comm = distributed_cgcg(a, b, nranks=4, stop=STOP)
        rate = comm.stats.blocking_allreduces / res.iterations
        assert 1.0 <= rate <= 1.15

    def test_sstep_two_over_s_blocking(self, problem):
        a, b, _ = problem
        s = 4
        res, comm = distributed_sstep(a, b, s=s, nranks=4, stop=STOP)
        rate = comm.stats.blocking_allreduces / res.iterations
        assert rate <= 2.0 / s + 0.2

    def test_vr_zero_blocking_in_steady_state(self, problem):
        """The executable form of the paper's claim: after the k-iteration
        startup transient, NO collective blocks."""
        a, b, _ = problem
        k = 3
        res, comm = distributed_pipelined_vr(a, b, k=k, nranks=4, stop=STOP)
        # blocking collectives: 1 initial front + 2 per startup iteration
        assert comm.stats.blocking_allreduces <= 2 * k + 2
        assert comm.stats.forced_waits == 0
        assert comm.stats.hidden_allreduces >= res.iterations - k - 2

    def test_vr_never_reads_early(self, problem):
        a, b, _ = problem
        for k in (1, 2, 4):
            _, comm = distributed_pipelined_vr(a, b, k=k, nranks=4, stop=STOP)
            assert comm.stats.forced_waits == 0

    def test_matrix_powers_kernel_startup(self, problem):
        """CA startup: one ghost fetch replaces k+2 halo exchanges, same
        answer."""
        a, b, ref = problem
        k = 3
        plain, comm_plain = distributed_pipelined_vr(
            a, b, k=k, nranks=4, stop=STOP
        )
        ca, comm_ca = distributed_pipelined_vr(
            a, b, k=k, nranks=4, stop=STOP, use_matrix_powers_kernel=True
        )
        assert ca.converged
        np.testing.assert_allclose(ca.x, plain.x, atol=1e-6)
        # startup halos: k+2 (plain) vs 1 (kernel); per-iteration halos equal
        assert (
            comm_plain.stats.halo_exchanges - comm_ca.stats.halo_exchanges
            == (k + 2) - 1
        )

    def test_one_halo_per_iteration_all_solvers(self, problem):
        a, b, _ = problem
        res, comm = distributed_cg(a, b, nranks=4, stop=STOP)
        assert comm.stats.halo_exchanges == res.iterations  # 1/iter (r0 is b)
        res, comm = distributed_pipelined_vr(a, b, k=2, nranks=4, stop=STOP)
        # startup k+2 matvecs + ~1 per iteration
        assert comm.stats.halo_exchanges <= res.iterations + 2 + 3


class TestOperationCounts:
    """One booking per distributed operation: a distributed product is one
    matvec, and a rank-parallel dot or axpy one entry, whatever the rank
    count -- so dist-cg's counts read like cg's."""

    FIELDS = (
        "matvecs", "dots", "axpys", "reductions", "matvec_flops", "dot_flops",
        "axpy_flops", "words_moved",
    )

    def _per_iteration(self, solver):
        totals = []
        for max_iter in (10, 20):
            with counting() as counts:
                result = solver(StoppingCriterion(rtol=1e-8, max_iter=max_iter))
            assert result.iterations == max_iter
            totals.append(counts)
        lo, hi = totals
        return tuple((getattr(hi, f) - getattr(lo, f)) / 10 for f in self.FIELDS)

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_dist_cg_books_what_cg_books(self, nranks):
        a = poisson2d(16)
        b = default_rng(0).standard_normal(a.nrows)
        cg = self._per_iteration(lambda stop: conjugate_gradient(a, b, stop=stop))
        dist = self._per_iteration(
            lambda stop: distributed_cg(a, b, nranks=nranks, stop=stop)[0]
        )
        assert dist == cg
        assert cg[:4] == (1.0, 2.0, 3.0, 2.0)

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_counts_leave_the_comm_stats_alone(self, nranks):
        a = poisson2d(16)
        b = default_rng(0).standard_normal(a.nrows)
        result, comm = distributed_cg(a, b, nranks=nranks, stop=STOP)
        assert result.converged
        # r0 = b: one startup collective, then two per iteration.
        assert comm.stats.blocking_allreduces == 2 * result.iterations + 1
        assert comm.stats.halo_exchanges == result.iterations
        assert comm.stats.hidden_allreduces == comm.stats.forced_waits == 0
