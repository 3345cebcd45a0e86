"""Structured solver instrumentation.

The paper's whole argument is about *where time goes per iteration* --
inner-product fan-in latency versus pipelined moment recurrences.  This
subpackage is the uniform observability layer that lets every solver in
the repository answer that question the same way: typed per-iteration
events, operation counters, wall-clock phase timers, and pluggable sinks,
all attached through the single ``telemetry=`` keyword every solver (and
the :func:`repro.solve` front-door) accepts.

* :class:`Telemetry` -- the session object solvers emit into.
* :class:`SolveRecord` -- one solve bracket's residuals and drift checks,
  read at ``solve_end`` by the consumers that need only per-solve
  aggregates (metrics, health, the flight recorder).
* :mod:`repro.telemetry.events` -- the closed event vocabulary
  (iteration, drift, recovery, pipeline, reduction, phase, counters,
  solve brackets).
* :mod:`repro.telemetry.sinks` -- destinations: in-memory (default),
  JSON-lines file/stream, ASCII summary table, and a no-op sink for
  overhead measurement.
"""

from repro.telemetry.events import (
    AdaptiveEvent,
    CountersEvent,
    DriftEvent,
    FaultEvent,
    IterationEvent,
    PhaseEvent,
    PipelineEvent,
    RecoveryEvent,
    ReductionEvent,
    ServiceEvent,
    SolveEndEvent,
    SolveStartEvent,
    TelemetryEvent,
)
from repro.telemetry.session import SolveRecord, Telemetry
from repro.telemetry.sinks import (
    AsciiSummarySink,
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
)

__all__ = [
    "Telemetry",
    "SolveRecord",
    "TelemetryEvent",
    "SolveStartEvent",
    "IterationEvent",
    "DriftEvent",
    "AdaptiveEvent",
    "FaultEvent",
    "RecoveryEvent",
    "PipelineEvent",
    "ReductionEvent",
    "PhaseEvent",
    "ServiceEvent",
    "CountersEvent",
    "SolveEndEvent",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "AsciiSummarySink",
]
