"""Observability layer: spans, metrics, Chrome trace export, profiling.

Built on the :mod:`repro.telemetry` event stream (PR 1), this package
answers the question the paper is actually about -- *where does a CG
iteration spend its time?* -- on live runs instead of only in the
:mod:`repro.machine` analysis:

* :mod:`repro.trace.spans` -- hierarchical span recording
  (solve → iteration → matvec/local_dot/allreduce_wait/recurrence/axpy/
  precond) cheap enough to leave on;
* :mod:`repro.trace.metrics` -- :class:`MetricsRegistry` with Prometheus
  text and JSON snapshot export, fed by :class:`MetricsSink`;
* :mod:`repro.trace.chrome` -- Chrome trace-event (Perfetto) export for
  both live traces and :mod:`repro.machine` schedules;
* :mod:`repro.trace.profile` -- the critical-path profiler behind
  ``python -m repro profile``;
* :mod:`repro.trace.context` -- request-correlated
  :class:`TraceContext` attribution threaded from the serve layer
  through coalesced batches;
* :mod:`repro.trace.flightrecorder` -- bounded black-box event ring
  with atomic postmortem bundles and ``repro replay``;
* :mod:`repro.trace.health` -- the per-solve numerical-health monitor
  (residual gap, drift trend, attainable-accuracy floor).

Entry points::

    from repro import Tracer, solve
    tracer = Tracer()
    solve(a, b, "vr", trace=tracer)
    spans = tracer.solve_spans()

    from repro.trace import profile_solve, write_chrome_trace
    report = profile_solve(a, b, "cg")
    print(report.render())
    write_chrome_trace(report.tracer, "run.json")   # open in Perfetto
"""

from repro.trace.context import TraceContext, new_trace_id
from repro.trace.flightrecorder import (
    FlightRecorder,
    ReplayReport,
    load_bundle,
    replay_bundle,
)
from repro.trace.health import HealthMonitor, HealthSummary
from repro.trace.chrome import (
    chrome_trace,
    events_from_graph,
    events_from_schedule,
    events_from_spans,
    trace_events,
    write_chrome_trace,
)
from repro.trace.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
)
from repro.trace.profile import (
    ModelPrediction,
    PhaseStat,
    ProfileReport,
    profile_solve,
)
from repro.trace.spans import PHASE_NAMES, Span, Tracer, build_spans

__all__ = [
    "PHASE_NAMES",
    "Span",
    "Tracer",
    "build_spans",
    "TraceContext",
    "new_trace_id",
    "FlightRecorder",
    "ReplayReport",
    "load_bundle",
    "replay_bundle",
    "HealthMonitor",
    "HealthSummary",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "trace_events",
    "events_from_spans",
    "events_from_schedule",
    "events_from_graph",
    "chrome_trace",
    "write_chrome_trace",
    "PhaseStat",
    "ModelPrediction",
    "ProfileReport",
    "profile_solve",
]
