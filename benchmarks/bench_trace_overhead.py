"""Span-tracing overhead budget and trace-export validity.

The span layer's hot path (``Tracer.begin``/``end``/``mark_iteration``)
is a flat append of a 3-tuple -- no tree building, no attribute dicts,
no timestamps beyond one ``perf_counter`` call; the span tree is
assembled lazily at read time (``Tracer.spans()``).  This file holds
that design to its number: a fully traced solve (every phase of every
iteration bracketed) must cost **under 5%** over the null-sink
instrumented solve -- the always-on telemetry baseline the tracer stacks
on, which itself carries a <5% budget over bare in
``bench_telemetry_overhead.py`` -- with the same measurement discipline
(interleaved minima, GC off, best of several trials; noise inflates an
overhead ratio, never deflates it).

Alongside the budget, the export contract: the Chrome trace JSON
produced from a live solve must be loadable (valid JSON, ``traceEvents``
list of complete events with microsecond timestamps) so the acceptance
check "opens in Perfetto" is pinned by a test rather than a manual step.
"""

from __future__ import annotations

import gc
import json
import time

from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.telemetry import NullSink, Telemetry
from repro.trace import (
    FlightRecorder,
    HealthMonitor,
    MetricsSink,
    Tracer,
    chrome_trace,
)

OVERHEAD_BUDGET = 0.05
ROUNDS = 10
TRIALS = 6
STOP = StoppingCriterion(rtol=1e-8)


def _one_trial(solve_bare, solve_traced) -> float:
    gc.disable()
    try:
        best_bare = best_traced = float("inf")
        for round_no in range(ROUNDS):
            pair = (solve_bare, solve_traced)
            if round_no % 2:
                pair = (solve_traced, solve_bare)
            times = {}
            for fn in pair:
                start = time.perf_counter()
                fn()
                times[fn] = time.perf_counter() - start
            best_bare = min(best_bare, times[solve_bare])
            best_traced = min(best_traced, times[solve_traced])
    finally:
        gc.enable()
    return best_traced / best_bare - 1.0


def _measure_overhead(solve_bare, solve_traced) -> float:
    for _ in range(2):
        solve_bare()
        solve_traced()
    best = float("inf")
    for _ in range(TRIALS):
        best = min(best, _one_trial(solve_bare, solve_traced))
        if best < OVERHEAD_BUDGET:
            break
    return best


def test_cg_span_recording_overhead(poisson_overhead_bench):
    """Classical CG fully span-bracketed costs <5% over null-sink."""
    a, b = poisson_overhead_bench

    def baseline():
        tele = Telemetry(NullSink())
        result = conjugate_gradient(a, b, stop=STOP, telemetry=tele)
        tele.close()
        return result

    def traced():
        tele = Telemetry(NullSink(), tracer=Tracer())
        result = conjugate_gradient(a, b, stop=STOP, telemetry=tele)
        tele.close()
        return result

    assert baseline().converged
    overhead = _measure_overhead(baseline, traced)
    print(f"\ncg span-recording overhead: {overhead:+.2%}")
    assert overhead < OVERHEAD_BUDGET


def test_vr_span_recording_overhead(poisson_overhead_bench):
    """VR CG (more spans per iteration than cg) costs <5% over null-sink."""
    a, b = poisson_overhead_bench

    def baseline():
        tele = Telemetry(NullSink())
        result = vr_conjugate_gradient(
            a, b, k=2, recovery="drift", stop=STOP, telemetry=tele
        )
        tele.close()
        return result

    def traced():
        tele = Telemetry(NullSink(), tracer=Tracer())
        result = vr_conjugate_gradient(
            a, b, k=2, recovery="drift", stop=STOP, telemetry=tele
        )
        tele.close()
        return result

    assert baseline().converged
    overhead = _measure_overhead(baseline, traced)
    print(f"\nvr span-recording overhead: {overhead:+.2%}")
    assert overhead < OVERHEAD_BUDGET


def test_cg_metrics_sink_overhead(poisson_overhead_bench):
    """The MetricsSink aggregation path costs <5% over null-sink."""
    a, b = poisson_overhead_bench

    def baseline():
        tele = Telemetry(NullSink())
        result = conjugate_gradient(a, b, stop=STOP, telemetry=tele)
        tele.close()
        return result

    def instrumented():
        tele = Telemetry(MetricsSink())
        result = conjugate_gradient(a, b, stop=STOP, telemetry=tele)
        tele.close()
        return result

    overhead = _measure_overhead(baseline, instrumented)
    print(f"\ncg metrics-sink overhead: {overhead:+.2%}")
    assert overhead < OVERHEAD_BUDGET


def test_cg_flight_recorder_overhead(poisson_overhead_bench):
    """The production flight-recorder ring (256) costs <5% over null-sink.

    The recorder's emit path is one deque append plus per-kind
    accumulation; this pins that it stays cheap enough to leave attached
    in production, which is the whole point of a black-box recorder.
    """
    a, b = poisson_overhead_bench

    def baseline():
        tele = Telemetry(NullSink())
        result = conjugate_gradient(a, b, stop=STOP, telemetry=tele)
        tele.close()
        return result

    def recorded():
        tele = Telemetry(NullSink(), FlightRecorder(ring=256))
        result = conjugate_gradient(a, b, stop=STOP, telemetry=tele)
        tele.close()
        return result

    assert baseline().converged
    overhead = _measure_overhead(baseline, recorded)
    print(f"\ncg flight-recorder overhead: {overhead:+.2%}")
    assert overhead < OVERHEAD_BUDGET


def test_vr_health_monitor_overhead(poisson_overhead_bench):
    """The health monitor (stagnation + drift estimators) costs <5%.

    VR with the drift detector on is the configuration that feeds the
    monitor most often: every iteration observes, every drift check
    updates the trend and floor estimators.
    """
    a, b = poisson_overhead_bench

    def baseline():
        tele = Telemetry(NullSink())
        result = vr_conjugate_gradient(
            a, b, k=2, recovery="drift", stop=STOP, telemetry=tele
        )
        tele.close()
        return result

    def monitored():
        tele = Telemetry(NullSink(), health=HealthMonitor())
        result = vr_conjugate_gradient(
            a, b, k=2, recovery="drift", stop=STOP, telemetry=tele
        )
        tele.close()
        return result

    assert baseline().converged
    overhead = _measure_overhead(baseline, monitored)
    print(f"\nvr health-monitor overhead: {overhead:+.2%}")
    assert overhead < OVERHEAD_BUDGET


def test_chrome_export_of_live_solve_is_valid(poisson_overhead_bench):
    """A traced solve serializes to loadable Chrome trace JSON."""
    a, b = poisson_overhead_bench
    tracer = Tracer()
    tele = Telemetry(NullSink(), tracer=tracer)
    result = conjugate_gradient(a, b, stop=STOP, telemetry=tele)
    tele.close()
    assert result.converged

    doc = json.loads(json.dumps(chrome_trace(tracer)))
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    names = {e["name"] for e in events if e.get("ph") == "X"}
    assert {"solve", "iteration", "matvec", "local_dot", "axpy"} <= names
    for e in events:
        if e.get("ph") == "X":
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
