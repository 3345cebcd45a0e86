"""Unit tests for CG convergence theory checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.convergence import (
    a_norm_error_history,
    cg_error_bound,
    check_against_bound,
    iterations_for_tolerance,
)
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.faults import RecoveryPolicy
from repro.sparse.generators import poisson2d
from repro.telemetry import Telemetry
from repro.util.rng import default_rng, spd_test_matrix
from repro.variants import chronopoulos_gear_cg, ghysels_vanroose_cg


class TestBound:
    def test_monotone_decreasing(self):
        vals = [cg_error_bound(100.0, n) for n in range(0, 30, 3)]
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_n_zero_is_one(self):
        assert cg_error_bound(50.0, 0) == 1.0

    def test_kappa_one_instant(self):
        assert cg_error_bound(1.0, 1) == 0.0

    def test_capped_at_one(self):
        assert cg_error_bound(1e8, 1) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cg_error_bound(0.5, 3)
        with pytest.raises(ValueError):
            cg_error_bound(10.0, -1)


class TestIterationEstimate:
    def test_consistent_with_bound(self):
        kappa, tol = 400.0, 1e-8
        n = iterations_for_tolerance(kappa, tol)
        assert cg_error_bound(kappa, n) <= tol
        assert cg_error_bound(kappa, n - 1) > tol

    def test_sqrt_kappa_scaling(self):
        n1 = iterations_for_tolerance(100.0, 1e-10)
        n2 = iterations_for_tolerance(10000.0, 1e-10)
        assert n2 == pytest.approx(10 * n1, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            iterations_for_tolerance(10.0, 2.0)


class TestAgainstSolvers:
    @pytest.fixture
    def problem(self):
        a = spd_test_matrix(24, cond=200.0, seed=13)
        b = default_rng(14).standard_normal(24)
        return a, b

    def test_classical_cg_satisfies_bound(self, problem):
        a, b = problem
        tele = Telemetry(capture_iterates=True, count_ops=False)
        conjugate_gradient(
            a, b, stop=StoppingCriterion(rtol=1e-10),
            telemetry=tele,
        )
        assert check_against_bound(a, b, tele.iterates)

    def test_vr_cg_satisfies_bound(self, problem):
        a, b = problem
        tele = Telemetry(capture_iterates=True, count_ops=False)
        vr_conjugate_gradient(
            a, b, k=2, stop=StoppingCriterion(rtol=1e-10),
            recovery=RecoveryPolicy(replace_every=6), telemetry=tele,
        )
        assert check_against_bound(a, b, tele.iterates)

    def test_a_norm_history_decreasing_for_cg(self, problem):
        a, b = problem
        tele = Telemetry(capture_iterates=True, count_ops=False)
        conjugate_gradient(
            a, b, stop=StoppingCriterion(rtol=1e-10), telemetry=tele
        )
        errs = a_norm_error_history(a, b, tele.iterates)
        assert all(e2 <= e1 * (1 + 1e-9) for e1, e2 in zip(errs, errs[1:]))

    def test_predicted_iterations_upper_bounds_measured(self):
        """CG on Poisson converges no slower than the κ bound predicts."""
        a = poisson2d(12)
        b = default_rng(15).standard_normal(a.nrows)
        dense = a.todense()
        w = np.linalg.eigvalsh(dense)
        kappa = float(w[-1] / w[0])
        res = conjugate_gradient(a, b, stop=StoppingCriterion(rtol=1e-8))
        predicted = iterations_for_tolerance(kappa, 1e-9)
        assert res.iterations <= predicted

    def test_exact_start_trivially_passes(self, problem):
        a, b = problem
        x_star = np.linalg.solve(a, b)
        assert check_against_bound(a, b, [x_star])
