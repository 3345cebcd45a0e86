"""Unit tests for the preconditioned solver drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.faults import RecoveryPolicy
from repro.precond import (
    ICholPrecond,
    IdentityPrecond,
    JacobiPrecond,
    SSORPrecond,
    pipelined_vr_pcg,
    preconditioned_cg,
    split_operator,
    vr_pcg,
)
from repro.sparse.generators import anisotropic2d, poisson2d
from repro.util.rng import default_rng

STOP = StoppingCriterion(rtol=1e-9, max_iter=3000)


@pytest.fixture
def problem():
    a = anisotropic2d(10, epsilon=0.1)
    b = default_rng(71).standard_normal(a.nrows)
    return a, b


class TestPreconditionedCG:
    def test_identity_matches_plain_cg(self, problem):
        a, b = problem
        plain = conjugate_gradient(a, b, stop=STOP)
        pcg = preconditioned_cg(a, b, precond=IdentityPrecond(), stop=STOP)
        assert pcg.iterations == plain.iterations
        np.testing.assert_allclose(pcg.x, plain.x, rtol=1e-10)

    @pytest.mark.parametrize(
        "precond_factory",
        [JacobiPrecond, lambda a: SSORPrecond(a, omega=1.2), ICholPrecond],
        ids=["jacobi", "ssor", "ic0"],
    )
    def test_converges_and_solves(self, problem, precond_factory):
        a, b = problem
        res = preconditioned_cg(a, b, precond=precond_factory(a), stop=STOP)
        assert res.converged
        assert res.true_residual_norm < 1e-6

    def test_good_preconditioner_reduces_iterations(self, problem):
        a, b = problem
        plain = conjugate_gradient(a, b, stop=STOP)
        ssor = preconditioned_cg(a, b, precond=SSORPrecond(a, omega=1.2), stop=STOP)
        assert ssor.iterations < plain.iterations

    def test_histories_recorded(self, problem):
        a, b = problem
        res = preconditioned_cg(a, b, precond=JacobiPrecond(a), stop=STOP)
        assert len(res.lambdas) == res.iterations
        assert res.label == "pcg"


class TestSplitEquivalence:
    def test_split_pcg_matches_applied_pcg(self, problem):
        """Classical CG on E^-1 A E^-T == applied-form PCG (same lambdas)."""
        a, b = problem
        m = JacobiPrecond(a)
        applied = preconditioned_cg(a, b, precond=m, stop=STOP)
        tilde = split_operator(a, m)
        split = conjugate_gradient(tilde, m.solve_factor(b), stop=STOP)
        for l1, l2 in zip(applied.lambdas[:10], split.lambdas[:10]):
            assert l2 == pytest.approx(l1, rel=1e-10)

    def test_split_operator_degree_inherited(self, problem):
        a, _ = problem
        tilde = split_operator(a, JacobiPrecond(a))
        assert tilde.max_row_degree() == a.max_row_degree()


class TestVRPCG:
    @pytest.mark.parametrize(
        "precond_factory",
        [JacobiPrecond, lambda a: SSORPrecond(a, omega=1.2), ICholPrecond],
        ids=["jacobi", "ssor", "ic0"],
    )
    def test_iteration_parity_with_pcg(self, problem, precond_factory):
        a, b = problem
        m = precond_factory(a)
        ref = preconditioned_cg(a, b, precond=m, stop=STOP)
        res = vr_pcg(
            a, b, precond=m, k=2, stop=STOP, recovery=RecoveryPolicy(replace_every=6)
        )
        assert res.converged
        assert abs(res.iterations - ref.iterations) <= 2
        np.testing.assert_allclose(res.x, ref.x, atol=1e-6)

    def test_label(self, problem):
        a, b = problem
        res = vr_pcg(
            a, b, precond=JacobiPrecond(a), k=3, stop=STOP,
            recovery=RecoveryPolicy(replace_every=6),
        )
        assert res.label == "vr-pcg(k=3)"

    def test_x0_supported(self, problem):
        a, b = problem
        x0 = default_rng(72).standard_normal(a.nrows)
        res = vr_pcg(
            a, b, precond=JacobiPrecond(a), k=1, stop=STOP,
            recovery=RecoveryPolicy(replace_every=6), x0=x0,
        )
        assert res.converged
        assert res.true_residual_norm < 1e-6

    def test_pipelined_variant(self, problem):
        a, b = problem
        m = JacobiPrecond(a)
        ref = preconditioned_cg(a, b, precond=m, stop=StoppingCriterion(rtol=1e-6, max_iter=3000))
        res = pipelined_vr_pcg(a, b, precond=m, k=2, stop=StoppingCriterion(rtol=1e-6, max_iter=3000))
        assert res.converged
        assert abs(res.iterations - ref.iterations) <= 2
        assert res.label == "pipelined-vr-pcg(k=2)"
