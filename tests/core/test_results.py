"""Unit tests for result containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.results import CGResult, StopReason, verified_exit


def make_result(**kw) -> CGResult:
    base = dict(
        x=np.zeros(3),
        converged=True,
        stop_reason=StopReason.CONVERGED,
        iterations=5,
        residual_norms=[1.0, 0.1, 0.01],
        alphas=[0.5],
        lambdas=[0.3, 0.4],
        true_residual_norm=0.011,
        label="cg",
    )
    base.update(kw)
    return CGResult(**base)


class TestCGResult:
    def test_final_recurred_residual(self):
        assert make_result().final_recurred_residual == 0.01

    def test_final_recurred_residual_empty(self):
        r = make_result(residual_norms=[])
        assert np.isnan(r.final_recurred_residual)

    def test_residual_drift(self):
        assert make_result().residual_drift == pytest.approx(0.001)

    def test_summary_contains_key_facts(self):
        s = make_result().summary()
        assert "cg" in s and "5 iterations" in s and "converged" in s

    def test_summary_breakdown(self):
        s = make_result(
            converged=False, stop_reason=StopReason.BREAKDOWN
        ).summary()
        assert "breakdown" in s


class TestStopReason:
    def test_values(self):
        assert StopReason.CONVERGED.value == "converged"
        assert StopReason.MAX_ITER.value == "max_iterations"
        assert StopReason.BREAKDOWN.value == "breakdown"


class TestVerifiedExit:
    def test_breakdown_that_meets_the_threshold_converged(self):
        # A recurrence can break down at its rounding floor on an iterate
        # that already meets the rule; only the true residual decides.
        assert verified_exit(StopReason.BREAKDOWN, 0.5, 1.0) is StopReason.CONVERGED
        assert verified_exit(StopReason.BREAKDOWN, 1.0, 1.0) is StopReason.CONVERGED
        assert verified_exit(StopReason.BREAKDOWN, 2.0, 1.0) is StopReason.BREAKDOWN
        assert verified_exit(StopReason.MAX_ITER, 0.5, 1.0) is StopReason.MAX_ITER
