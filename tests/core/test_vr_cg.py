"""Unit tests for the eager Van Rosendale solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.results import StopReason
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import VRState, vr_conjugate_gradient
from repro.faults import RecoveryPolicy
from repro.telemetry import Telemetry
from repro.util.counters import counting
from repro.util.rng import default_rng, spd_test_matrix

TIGHT = StoppingCriterion(rtol=1e-10, max_iter=600)


class TestEquivalence:
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_early_lambdas_match_cg(self, poisson_small, rhs, k):
        b = rhs(poisson_small.nrows)
        ref = conjugate_gradient(poisson_small, b, stop=TIGHT)
        res = vr_conjugate_gradient(poisson_small, b, k=k, stop=TIGHT)
        head = 6
        for l_ref, l_vr in zip(ref.lambdas[:head], res.lambdas[:head]):
            assert l_vr == pytest.approx(l_ref, rel=1e-7)

    def test_first_lambda_exact(self, small_spd_dense, rhs):
        b = rhs(24)
        ref = conjugate_gradient(small_spd_dense, b, stop=TIGHT)
        res = vr_conjugate_gradient(small_spd_dense, b, k=2, stop=TIGHT)
        assert res.lambdas[0] == ref.lambdas[0]

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_replacement_gives_iteration_parity(self, poisson_small, rhs, k):
        b = rhs(poisson_small.nrows)
        ref = conjugate_gradient(poisson_small, b, stop=TIGHT)
        res = vr_conjugate_gradient(
            poisson_small, b, k=k, stop=TIGHT,
            recovery=RecoveryPolicy(replace_every=5),
        )
        assert res.converged
        assert abs(res.iterations - ref.iterations) <= 1
        np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=1e-7)

    def test_solves_well_conditioned_without_replacement(self):
        a = spd_test_matrix(30, cond=5.0, seed=3)
        b = default_rng(4).standard_normal(30)
        res = vr_conjugate_gradient(a, b, k=3, stop=StoppingCriterion(rtol=1e-4))
        assert res.converged
        # exit verification guarantees truth within 100x the threshold
        assert res.true_residual_norm <= 100 * 1e-4 * float(np.linalg.norm(b))


class TestMechanics:
    def test_work_counts(self, poisson_small, rhs):
        k = 2
        b = rhs(poisson_small.nrows)
        with counting() as c:
            res = vr_conjugate_gradient(
                poisson_small, b, k=k, stop=StoppingCriterion(rtol=1e-6, max_iter=50)
            )
        # startup: 1 (r0) + k+1 (r powers) + 1 (p top); then 1 per iter;
        # plus 1 for the exit true-residual check.  The final iteration may
        # break before its advance_p matvec.
        expected_full = (k + 3) + res.iterations + 1
        assert c.matvecs in (expected_full, expected_full - 1)
        # two direct dots per completed window advance
        assert c.labelled("direct_dot") <= 2 * res.iterations
        assert c.labelled("direct_dot") >= 2 * (res.iterations - 1)

    def test_observer_called(self, small_spd_dense, rhs):
        states: list[VRState] = []
        vr_conjugate_gradient(
            small_spd_dense, rhs(24), k=1,
            stop=StoppingCriterion(rtol=1e-6, max_iter=10),
            telemetry=Telemetry(on_state=states.append, count_ops=False),
        )
        assert states
        assert all(isinstance(s, VRState) for s in states)
        assert states[0].iteration == 1
        assert states[0].window.k == 1

    def test_record_iterates(self, small_spd_dense, rhs):
        tele = Telemetry(capture_iterates=True, count_ops=False)
        res = vr_conjugate_gradient(
            small_spd_dense, rhs(24), k=1, stop=TIGHT, telemetry=tele
        )
        iterates = tele.iterates
        assert len(iterates) == res.iterations + 1
        np.testing.assert_array_equal(iterates[-1], res.x)

    def test_zero_rhs(self, small_spd_dense):
        res = vr_conjugate_gradient(
            small_spd_dense, np.full(24, 1e-320),
            stop=StoppingCriterion(rtol=0.5, atol=1e-30), k=1,
        )
        assert res.iterations == 0 and res.converged

    def test_exact_x0(self, small_spd_dense):
        x_star = default_rng(5).standard_normal(24)
        b = small_spd_dense @ x_star
        res = vr_conjugate_gradient(small_spd_dense, b, k=2, x0=x_star)
        assert res.iterations == 0

    def test_residual_norms_are_recurred(self, poisson_small, rhs):
        res = vr_conjugate_gradient(
            poisson_small, rhs(poisson_small.nrows), k=1,
            stop=StoppingCriterion(rtol=1e-6, max_iter=60),
        )
        assert len(res.residual_norms) == res.iterations + 1
        assert res.label == "vr-cg(k=1)"


class TestAdaptiveReplacement:
    def test_rescues_large_k(self, rhs):
        from repro.sparse.generators import poisson2d

        a = poisson2d(14)
        b = rhs(a.nrows)
        stop = StoppingCriterion(rtol=1e-8, max_iter=1500)
        ref = conjugate_gradient(a, b, stop=stop)
        bare = vr_conjugate_gradient(a, b, k=4, stop=stop)
        adaptive = vr_conjugate_gradient(
            a, b, k=4, stop=stop, recovery="drift"
        )
        assert not bare.converged  # drift kills the pure algorithm here
        assert adaptive.converged
        assert abs(adaptive.iterations - ref.iterations) <= 2

    def test_costs_one_extra_dot_per_iteration(self, small_spd_dense, rhs):
        with counting() as c:
            res = vr_conjugate_gradient(
                small_spd_dense, rhs(24), k=1,
                stop=StoppingCriterion(rtol=1e-6, max_iter=30),
                recovery=RecoveryPolicy(drift_tol=1e-4),
            )
        checks = c.labelled("drift_check_dot")
        assert res.iterations - 1 <= checks <= res.iterations

    def test_tight_tolerance_replaces_more(self, rhs):
        from repro.sparse.generators import poisson2d

        a = poisson2d(12)
        b = rhs(a.nrows)
        stop = StoppingCriterion(rtol=1e-8, max_iter=1500)
        with counting() as c_tight:
            vr_conjugate_gradient(
                a, b, k=3, stop=stop, recovery=RecoveryPolicy(drift_tol=1e-12)
            )
        with counting() as c_loose:
            vr_conjugate_gradient(
                a, b, k=3, stop=stop, recovery=RecoveryPolicy(drift_tol=1e-2)
            )
        assert c_tight.labelled("rebuild_dot") >= c_loose.labelled("rebuild_dot")

    def test_machine_zero_convergence_with_drift_detector(self):
        """Regression: with a drift detector armed, a solve
        driven to machine-zero residuals must neither divide by the
        underflowed direct ``(r, r)`` (inf/nan drift) nor fire spurious
        drift replacements below the stopping threshold."""
        a = np.diag([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
        b = np.ones(8)
        tele = Telemetry()
        with np.errstate(divide="raise", invalid="raise"):
            res = vr_conjugate_gradient(
                a,
                b,
                k=1,
                stop=StoppingCriterion(rtol=1e-14, max_iter=200),
                recovery=RecoveryPolicy(drift_tol=1e-8),
                telemetry=tele,
            )
        assert res.converged
        assert res.stop_reason is StopReason.CONVERGED
        assert all(np.isfinite(v) for v in res.residual_norms)
        assert np.isfinite(res.true_residual_norm)
        for event in tele.events_of("drift"):
            assert np.isfinite(event.drift)

    def test_drift_trigger_skipped_below_threshold_floor(self):
        """The drift signal is meaningless once the direct residual sits
        below the (squared) stopping threshold: no drift-triggered
        replacement may fire there even with an absurdly tight tol."""
        a = np.diag([1.0, 3.0, 9.0, 27.0])
        b = np.ones(4)
        tele = Telemetry()
        res = vr_conjugate_gradient(
            a,
            b,
            k=1,
            stop=StoppingCriterion(rtol=1e-6, max_iter=100),
            # would fire on ANY computed gap
            recovery=RecoveryPolicy(drift_tol=1e-300),
            telemetry=tele,
        )
        assert res.converged
        drift_fires = [
            e for e in tele.events_of("recovery")
            if e.action == "replace" and e.trigger == "drift"
        ]
        # a 4x4 well-separated diagonal converges in <= 4 exact steps;
        # every drift event the detector did compute stayed finite
        assert len(drift_fires) <= res.iterations
        for event in tele.events_of("drift"):
            assert np.isfinite(event.drift)

    def test_invalid_tol(self, small_spd_dense):
        with pytest.raises(ValueError, match="drift_tol"):
            vr_conjugate_gradient(
                small_spd_dense, np.ones(24), k=1,
                recovery=RecoveryPolicy(drift_tol=0.0),
            )

    def test_composes_with_periodic(self, rhs):
        from repro.sparse.generators import poisson2d

        a = poisson2d(10)
        b = rhs(a.nrows)
        res = vr_conjugate_gradient(
            a, b, k=2, stop=StoppingCriterion(rtol=1e-8, max_iter=1000),
            recovery=RecoveryPolicy(replace_every=10, drift_tol=1e-8),
        )
        assert res.converged


class TestRobustness:
    def test_breakdown_detected_not_silent(self, poisson_small, rhs):
        # large k without replacement on a slow problem must either
        # converge or report breakdown/max-iter -- never return nonsense
        # flagged as converged
        b = rhs(poisson_small.nrows)
        res = vr_conjugate_gradient(
            poisson_small, b, k=6, stop=StoppingCriterion(rtol=1e-12, max_iter=300)
        )
        if res.converged:
            assert res.true_residual_norm < 1e-4
        else:
            assert res.stop_reason in (StopReason.BREAKDOWN, StopReason.MAX_ITER)

    def test_divergence_flagged_as_breakdown(self):
        # engineered hard case: ill-conditioned + large k, no replacement
        a = spd_test_matrix(60, cond=1e6, seed=13)
        b = default_rng(14).standard_normal(60)
        res = vr_conjugate_gradient(
            a, b, k=6, stop=StoppingCriterion(rtol=1e-14, max_iter=500)
        )
        assert not (res.converged and res.true_residual_norm > 1e-2)

    def test_invalid_k(self, small_spd_dense):
        with pytest.raises(ValueError):
            vr_conjugate_gradient(small_spd_dense, np.ones(24), k=-1)

    def test_invalid_replace_every(self, small_spd_dense):
        with pytest.raises(ValueError, match="replace_every"):
            vr_conjugate_gradient(
                small_spd_dense, np.ones(24), k=1,
                recovery=RecoveryPolicy(replace_every=0),
            )

    def test_shape_mismatch(self, small_spd_dense):
        with pytest.raises(ValueError):
            vr_conjugate_gradient(small_spd_dense, np.ones(7), k=1)
