"""The online numerical-health monitor (repro.trace.health).

Unit tests drive the estimator directly with synthetic observations;
the integration tests attach it to a telemetry session and check that
real solves feed it (from the drift checks the solve itself runs; the
monitor adds none) and that :class:`~repro.trace.MetricsSink` turns its
events into the ``repro_health_*`` gauges.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import poisson2d, solve
from repro.telemetry import MemorySink, Telemetry
from repro.telemetry.events import HealthEvent
from repro.trace import HealthMonitor, MetricsRegistry, MetricsSink


class _FakeResult:
    def __init__(self, converged=True, stop_reason="converged",
                 iterations=10, true_residual_norm=1e-9):
        self.converged = converged
        self.stop_reason = stop_reason
        self.iterations = iterations
        self.true_residual_norm = true_residual_norm


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------
def test_small_gaps_stay_ok():
    mon = HealthMonitor()
    mon.begin_solve("vr", "vr(k=2)", 64)
    assert mon.observe_drift(5, 1.0, 1.0 + 1e-9, 1e-9) is None
    assert mon.status == "ok"


def test_watch_then_critical_escalation():
    mon = HealthMonitor(gap_watch=1e-6, gap_critical=1e-2)
    mon.begin_solve("vr", "vr", 64)
    event = mon.observe_drift(5, 1.0, 1.001, 1e-3)
    assert isinstance(event, HealthEvent)
    assert (event.status, event.reason) == ("watch", "drift")
    # Same status+reason again: no duplicate event.
    assert mon.observe_drift(6, 1.0, 1.001, 1e-3) is None
    event = mon.observe_drift(7, 1.0, 1.1, 0.1)
    assert (event.status, event.reason) == ("critical", "drift")
    assert mon.status == "critical"


def test_nonfinite_gap_is_critical():
    mon = HealthMonitor()
    mon.begin_solve("vr", "vr", 64)
    event = mon.observe_drift(3, -1.0, 0.0, math.inf)
    assert event.status == "critical"


def test_recovery_demotes_only_when_the_trend_settles():
    mon = HealthMonitor(gap_watch=1e-6, trend_decay=0.0)  # trend = last gap
    mon.begin_solve("vr", "vr", 64)
    assert mon.observe_drift(1, 1.0, 1.001, 1e-3).status == "watch"
    # One small gap with decay 0 drops the trend below the watch line.
    event = mon.observe_drift(2, 1.0, 1.0, 1e-12)
    assert (event.status, event.reason) == ("ok", "recovered")
    assert mon.status == "ok"


def test_no_silent_demotion_without_recovery():
    mon = HealthMonitor()
    mon.begin_solve("vr", "vr", 64)
    mon.observe_drift(1, 1.0, 1.1, 0.1)
    assert mon.status == "critical"
    # One good check does not walk critical back while the EW trend is
    # still above the watch line.
    assert mon.observe_drift(2, 1.0, 1.0, 1e-12) is None
    assert mon.status == "critical"


def test_floor_estimate_is_sqrt_of_max_abs_gap():
    mon = HealthMonitor()
    mon.begin_solve("vr", "vr", 64)
    mon.observe_drift(1, 1.0 + 1e-8, 1.0, 1e-8)
    mon.observe_drift(2, 1.0 + 4e-6, 1.0, 4e-6)
    assert mon.current.floor_estimate == pytest.approx(math.sqrt(4e-6))


def test_clamp_counts_and_raises_watch():
    mon = HealthMonitor()
    mon.begin_solve("vr", "vr", 64)
    event = mon.observe_clamp(7, -1e-14)
    assert (event.status, event.reason) == ("watch", "clamp")
    assert mon.current.clamps == 1
    assert mon.current.floor_estimate == pytest.approx(math.sqrt(1e-14))


def test_stagnation_fires_once_per_plateau():
    mon = HealthMonitor(stagnation_window=5, stagnation_rtol=1e-2)
    mon.begin_solve("cg", "cg", 64)
    assert mon.observe_iteration(0, 1.0) is None  # establishes the best
    events = [mon.observe_iteration(i, 1.0) for i in range(1, 20)]
    fired = [e for e in events if e is not None]
    assert len(fired) == 1
    assert (fired[0].status, fired[0].reason) == ("watch", "stagnation")


def test_improving_residuals_never_stagnate():
    mon = HealthMonitor(stagnation_window=3)
    mon.begin_solve("cg", "cg", 64)
    res = 1.0
    for i in range(30):
        assert mon.observe_iteration(i, res) is None
        res *= 0.5
    assert mon.status == "ok"


def test_judge_steps_a_record_in_the_order_it_was_observed():
    # A drift check recorded between two residuals is stepped between
    # them: here the critical drift lands first and the stagnation that
    # follows it is a demotion, so only one transition fires.
    from repro.core.results import CGResult, StopReason

    tele = Telemetry(health=HealthMonitor(stagnation_window=2))
    tele.solve_start("vr", "vr", 4)
    tele.iteration(0, 1.0)
    tele.iteration(1, 1.0)
    tele.drift(2, 1.1, 1.0)  # rel gap 0.1: critical
    tele.iteration(2, 1.0)  # two iterations without progress: stagnation
    tele.clamp(3, -1e-12)  # a clamp after the last residual: watch, ignored
    [start] = tele.events_of("solve_start")
    record = start.record  # the bracket's live record rides solve_start
    mon = HealthMonitor(stagnation_window=2)
    mon.begin_solve("vr", "vr", 4)
    events = mon.judge(record)
    assert [(e.iteration, e.status, e.reason) for e in events] == [
        (2, "critical", "drift")
    ]
    assert mon.current.checks == 1 and mon.current.clamps == 1
    tele.solve_end(
        CGResult(
            x=np.zeros(4), converged=False, stop_reason=StopReason.MAX_ITER,
            iterations=3, residual_norms=[1.0], label="vr",
        )
    )
    [summary] = tele.health.history
    assert (summary.status, summary.reason) == ("critical", "drift")


# ---------------------------------------------------------------------------
# solve-bracket lifecycle
# ---------------------------------------------------------------------------
def test_end_solve_archives_a_summary():
    mon = HealthMonitor()
    mon.begin_solve("vr", "vr(k=2)", 36)
    mon.observe_drift(5, 1.0, 1.0 + 1e-9, 1e-9)
    summary = mon.end_solve(_FakeResult())
    assert summary.method == "vr"
    assert summary.converged is True
    assert summary.checks == 1
    assert mon.current is None
    assert list(mon.history) == [summary]


def test_nonconverged_ok_solve_lands_in_watch():
    mon = HealthMonitor()
    mon.begin_solve("cg", "cg", 36)
    summary = mon.end_solve(
        _FakeResult(converged=False, stop_reason="max_iterations")
    )
    assert summary.status == "watch"
    assert summary.reason == "max_iterations"


def test_abandon_solve_is_critical():
    mon = HealthMonitor()
    mon.begin_solve("vr", "vr", 36)
    summary = mon.abandon_solve("exception")
    assert summary.status == "critical"
    assert mon.status == "critical"  # sticky: the last solve's assessment
    assert mon.current is None


def test_observations_between_solves_are_ignored():
    mon = HealthMonitor()
    assert mon.observe_iteration(0, 1.0) is None
    assert mon.observe_drift(0, 1.0, 1.0, 0.0) is None
    assert mon.observe_clamp(0, -1.0) is None
    assert mon.end_solve(_FakeResult()) is None
    assert mon.abandon_solve() is None


def test_summary_reports_worst_recent_and_caps_detail():
    mon = HealthMonitor(history=16)
    for i in range(12):
        mon.begin_solve("cg", f"solve-{i}", 8)
        if i == 3:
            mon.observe_drift(1, 1.0, 1.1, 0.1)  # one critical solve
        mon.end_solve(_FakeResult())
    out = mon.summary()
    assert out["status"] == "ok"
    assert out["worst_recent"] == "critical"
    assert out["solves"] == 12
    assert len(out["recent"]) == 8  # detail is bounded
    assert all(isinstance(item["last_gap"], float) for item in out["recent"])


def test_history_ring_is_bounded():
    mon = HealthMonitor(history=4)
    for i in range(10):
        mon.begin_solve("cg", f"s{i}", 8)
        mon.end_solve(_FakeResult())
    assert len(mon.history) == 4
    assert mon.history[-1].label == "s9"


# ---------------------------------------------------------------------------
# integration with real solves
# ---------------------------------------------------------------------------
def test_monitor_has_no_check_cadence():
    # An observer never changes a solve's arithmetic, so there is no
    # cadence knob to ask the solvers for extra residual checks.
    with pytest.raises(TypeError):
        HealthMonitor(check_every=5)


def test_monitor_observes_the_solves_own_drift_checks():
    a = poisson2d(8)
    b = np.ones(a.nrows)
    tele = Telemetry(health=HealthMonitor())
    result = solve(a, b, "vr", k=2, telemetry=tele)  # default drift policy
    assert result.converged
    [summary] = tele.health.history
    # Clamps travel as drift events too.
    assert summary.checks >= 1
    assert summary.checks + summary.clamps == len(tele.events_of("drift"))
    assert summary.converged is True


def test_unwind_abandons_the_health_bracket():
    tele = Telemetry(health=HealthMonitor())
    tele.solve_start("vr", "vr", 8)
    tele.drift(1, 1.0, 1.0)
    tele.unwind()
    [summary] = tele.health.history
    assert summary.status == "critical"
    assert summary.stop_reason == "exception"


def test_health_events_drive_metrics_gauges():
    from repro.core.results import CGResult, StopReason

    reg = MetricsRegistry()
    tele = Telemetry(MetricsSink(reg), health=HealthMonitor(gap_watch=1e-6))
    tele.solve_start("vr", "vr(k=2)", 36)
    tele.drift(5, 1.0, 1.001)  # rel gap ~1e-3: watch
    # The monitor judges the solve's record at solve_end.
    assert "repro_health_status" not in reg.to_prometheus()
    tele.solve_end(
        CGResult(
            x=np.zeros(36), converged=True, stop_reason=StopReason.CONVERGED,
            iterations=5, residual_norms=[1.0], true_residual_norm=1e-9,
            label="vr(k=2)",
        )
    )
    text = reg.to_prometheus()
    assert 'repro_health_status{method="vr"} 1' in text
    assert 'repro_health_residual_gap{method="vr"}' in text
    assert 'repro_health_floor{method="vr"}' in text


@pytest.mark.parametrize("grid", [32, 64])
def test_default_vr_does_not_flap(grid):
    # vr's default drift repair replaces at a 1e-6 gap; the default watch
    # line sits an order of magnitude above it, so the gaps the solver
    # answers itself raise no health transition.
    a = poisson2d(grid)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    reg, sink = MetricsRegistry(), MemorySink()
    tele = Telemetry(sink, MetricsSink(reg), health=HealthMonitor())
    result = solve(a, b, "vr", telemetry=tele)
    assert result.converged
    assert sink.of_kind("recovery"), "the drift repair never fired"
    assert not [e for e in sink.of_kind("health") if e.reason == "drift"]
    status = [
        float(line.split()[-1]) for line in reg.to_prometheus().splitlines()
        if line.startswith('repro_health_status{method="vr"}')
    ]
    assert status in ([], [0.0])
    [summary] = tele.health.history
    assert summary.status == "ok" and summary.checks > 0
