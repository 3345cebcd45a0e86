"""Unit tests for the pipelined solver, ledger and trace."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import (
    LaunchLedger,
    PipelineTrace,
    TraceEvent,
    pipelined_vr_cg,
    trace_from_events,
)
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.telemetry import Telemetry

TIGHT = StoppingCriterion(rtol=1e-8, max_iter=500)


class TestLaunchLedger:
    def test_read_after_latency(self):
        ledger = LaunchLedger(3)
        ledger.launch(0, np.array([1.0]))
        np.testing.assert_array_equal(
            ledger.read(0, at_iteration=3), np.array([1.0])
        )

    def test_early_read_raises(self):
        ledger = LaunchLedger(3)
        ledger.launch(0, np.array([1.0]))
        with pytest.raises(RuntimeError, match="not available"):
            ledger.read(0, at_iteration=2)

    def test_double_launch_rejected(self):
        ledger = LaunchLedger(1)
        ledger.launch(5, np.zeros(2))
        with pytest.raises(ValueError):
            ledger.launch(5, np.zeros(2))

    def test_discard(self):
        ledger = LaunchLedger(1)
        ledger.launch(0, np.zeros(1))
        ledger.launch(1, np.zeros(1))
        ledger.discard_before(1)
        with pytest.raises(KeyError):
            ledger.read(0, at_iteration=10)
        ledger.read(1, at_iteration=10)  # still there


class TestTrace:
    def test_event_filters(self):
        tr = PipelineTrace(k=2)
        tr.events.append(TraceEvent("launch", 0, 0, 12))
        tr.events.append(TraceEvent("consume", 2, 0, 12))
        tr.events.append(TraceEvent("coeff_update", 1, 1, 1))
        assert len(tr.launches()) == 1
        assert len(tr.consumes()) == 1
        assert tr.verify_lookahead()

    def test_lookahead_violation_detected(self):
        tr = PipelineTrace(k=2)
        tr.events.append(TraceEvent("consume", 2, 1, 12))
        assert not tr.verify_lookahead()


class TestSolver:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_cg_iterations(self, poisson_small, rhs, k):
        b = rhs(poisson_small.nrows)
        ref = conjugate_gradient(poisson_small, b, stop=TIGHT)
        res = pipelined_vr_cg(poisson_small, b, k=k, stop=TIGHT, recovery="none")
        assert res.converged
        assert abs(res.iterations - ref.iterations) <= 1
        np.testing.assert_allclose(res.x, ref.x, atol=1e-5)

    def test_early_lambdas_exact(self, small_spd_dense, rhs):
        b = rhs(24)
        ref = conjugate_gradient(small_spd_dense, b, stop=TIGHT)
        res = pipelined_vr_cg(small_spd_dense, b, k=2, stop=TIGHT)
        for l_ref, l_res in zip(ref.lambdas[:6], res.lambdas[:6]):
            assert l_res == pytest.approx(l_ref, rel=1e-9)

    def test_trace_structure(self, poisson_small, rhs):
        k = 3
        tele = Telemetry(count_ops=False)
        res = pipelined_vr_cg(
            poisson_small, rhs(poisson_small.nrows), k=k, stop=TIGHT,
            telemetry=tele,
        )
        tr = trace_from_events(k, tele.events)
        assert tr.verify_lookahead()
        launches = tr.launches()
        consumes = tr.consumes()
        # one launch per iteration (including iteration 0)
        assert len(launches) == res.iterations or len(launches) == res.iterations + 1
        # consumes start after the pipeline fills
        assert all(e.iteration > k or e.iteration == e.source_iteration + k for e in consumes)
        assert all(e.count == 6 * k + 6 for e in launches)

    def test_k_zero_rejected(self, small_spd_dense):
        with pytest.raises(ValueError):
            pipelined_vr_cg(small_spd_dense, np.ones(24), k=0)

    def test_zero_rhs(self, small_spd_dense):
        res = pipelined_vr_cg(
            small_spd_dense, np.full(24, 1e-320), k=1,
            stop=StoppingCriterion(rtol=0.5, atol=1e-30),
        )
        assert res.iterations == 0 and res.converged

    def test_label(self, small_spd_dense, rhs):
        res = pipelined_vr_cg(small_spd_dense, rhs(24), k=2, stop=TIGHT)
        assert res.label == "pipelined-vr-cg(k=2)"

    def test_converges_where_eager_breaks(self, poisson_small, rhs):
        """The pipelined form's per-iteration re-anchoring beats the eager
        form's compounding recurrences (E7b's third finding)."""
        from repro.core.vr_cg import vr_conjugate_gradient

        b = rhs(poisson_small.nrows)
        stop = StoppingCriterion(rtol=1e-8, max_iter=500)
        eager = vr_conjugate_gradient(poisson_small, b, k=4, stop=stop)
        piped = pipelined_vr_cg(poisson_small, b, k=4, stop=stop)
        assert piped.converged
        assert piped.true_residual_norm < max(eager.true_residual_norm, 1e-5)
