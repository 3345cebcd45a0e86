"""The `Telemetry` hook: one object every solver can emit into.

Usage::

    from repro import Telemetry, solve
    tele = Telemetry()                      # default in-memory sink
    result = solve(a, b, method="vr", k=3, telemetry=tele)
    iters = tele.memory.of_kind("iteration")

or streaming to disk::

    from repro.telemetry import JsonlSink
    with Telemetry(JsonlSink("run.jsonl")) as tele:
        solve(a, b, method="pipelined-vr", telemetry=tele)

Design constraints, in order:

1. **Uniformity** -- every solver (core, variants, preconditioned,
   distributed) takes the same ``telemetry=`` keyword and emits the same
   event vocabulary, so cross-variant comparisons need no per-solver
   glue.
2. **Cheap when absent** -- solvers guard every call with
   ``if telemetry is not None``; a solve without telemetry pays nothing.
3. **Cheap when present** -- with a no-op sink the instrumentation costs
   <5% on the poisson2d hot path (enforced by
   ``benchmarks/bench_telemetry_overhead.py``), so it can stay on in
   production.

A `Telemetry` instance also opens a :mod:`repro.util.counters` scope for
the duration of each solve, so the stream ends with a
:class:`CountersEvent` carrying the SpMV/dot/axpy/flop/byte totals
without the caller wrapping anything in ``counting()``.  The same bracket
makes its tracer the thread's active one, so the kernels that book those
totals also record their phase spans.

Consumers that only need per-solve aggregates -- sinks whose class
sets ``reads_record = True`` (:class:`~repro.trace.MetricsSink`,
:class:`~repro.trace.FlightRecorder`) and the health monitor -- read a
:class:`SolveRecord` instead of one event per iteration: each bracket
a record reader attends keeps the residuals, drift checks and clamps of
the solve in the order they happened, and the record rides on the
``solve_start`` and ``solve_end`` events as their ``record`` attribute.
Per-iteration events (``iteration``, ``drift``, ``column_iteration``,
``active_set``, ``pipeline``) are built only when a sink that streams
them is attached: any sink without that class attribute.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.telemetry.events import (
    ActiveSetEvent,
    AdaptiveEvent,
    ColumnConvergedEvent,
    ColumnIterationEvent,
    CountersEvent,
    DriftEvent,
    FaultEvent,
    IterationEvent,
    RecoveryEvent,
    PhaseEvent,
    PipelineEvent,
    ReductionEvent,
    ReplacementEvent,
    SolveEndEvent,
    SolveStartEvent,
    TelemetryEvent,
)
from repro.telemetry.sinks import MemorySink, Sink
from repro.util.counters import OpCounts, pop_scope, push_scope, swap_tracer

__all__ = ["SolveRecord", "Telemetry", "drift_gap"]

_TINY = float(np.finfo(np.float64).tiny)


class SolveRecord:
    """What one solve bracket observed, in the order it happened.

    ``iterations``/``residuals`` hold each :meth:`Telemetry.iteration`
    call's iteration number and algorithm-visible residual norm.
    ``checks`` holds each :meth:`Telemetry.drift` call as ``(position,
    iteration, recurred_rr, direct_rr)`` and each :meth:`Telemetry.clamp`
    call as ``(position, iteration, recurred_rr, None)``, where
    ``position`` is the number of residuals recorded before the check,
    so the two lists replay in their original interleaving.  The lists
    grow while the solve runs; readers that keep the record see every
    observation so far.
    """

    __slots__ = ("method", "iterations", "residuals", "checks", "_drifts")

    def __init__(self, method: str) -> None:
        self.method = method
        self.iterations: list[int] = []
        self.residuals: list[float] = []
        self.checks: list[tuple[int, int, float, float | None]] = []
        self._drifts: list[float] = []

    def drifts(self) -> list[float]:
        """Each check's ``drift``, as its :class:`DriftEvent` carries it:
        the relative gap of a drift check, ``|recurred_rr|`` of a clamp.

        Computed once per check, however many readers ask; the returned
        list belongs to the record.
        """
        drifts = self._drifts
        for _, _, recurred, direct in self.checks[len(drifts):]:
            drifts.append(
                abs(recurred) if direct is None else drift_gap(recurred, direct)
            )
        return drifts


def drift_gap(recurred_rr: float, direct_rr: float) -> float:
    """Relative gap between a recurred and a direct ``(r, r)``.

    Taken against ``max(direct_rr, tiny)`` so a direct residual that has
    underflowed to zero near machine-zero convergence yields a
    large-but-finite drift instead of inf/nan (which would poison JSON
    sinks and downstream statistics).
    """
    return abs(recurred_rr - direct_rr) / max(direct_rr, _TINY)


class _ActiveSolve:
    """Book-keeping for one open solve bracket (they may nest)."""

    __slots__ = ("counter", "started_at", "outer_tracer", "record")

    def __init__(
        self,
        counter: OpCounts | None,
        started_at: float,
        outer_tracer: Any,
        record: SolveRecord | None,
    ) -> None:
        self.counter = counter
        self.started_at = started_at
        self.outer_tracer = outer_tracer
        self.record = record


class Telemetry:
    """Structured instrumentation session shared by every solver.

    Parameters
    ----------
    *sinks:
        Event destinations.  With none given, a :class:`MemorySink` is
        attached and reachable as :attr:`memory`.
    capture_iterates:
        When true, :meth:`iterate` stores a copy of every iterate
        (including ``x⁰``) in :attr:`iterates`; the equivalence
        experiment E7 compares solvers iterate by iterate.
    on_state:
        Optional callback receiving the live solver state object (the
        Van Rosendale :class:`~repro.core.vr_cg.VRState`) after each
        iteration.
    count_ops:
        When true (default), each solve bracket runs inside a fresh
        :mod:`repro.util.counters` scope and emits a
        :class:`CountersEvent` at solve end.
    tracer:
        Optional :class:`repro.trace.Tracer`.  When attached, solve
        brackets open/close ``solve`` spans, :meth:`iteration` drops
        iteration marks, and :meth:`phase` records spans alongside its
        :class:`PhaseEvent` -- see :mod:`repro.trace.spans`.  While a
        solve bracket is open the tracer is the thread's active one
        (:func:`repro.util.counters.swap_tracer`): the calls that book
        operation counts record the per-phase spans.
    health:
        Optional :class:`repro.trace.health.HealthMonitor`.  When
        attached, the session opens it with each solve bracket and, at
        ``solve_end``, has it judge the bracket's :class:`SolveRecord`
        (a monitor, like a ``reads_record`` sink, makes brackets keep one);
        the :class:`HealthEvent` transitions it finds are emitted just
        before the ``solve_end`` event.  It observes only the checks
        the solve runs anyway; attaching it changes no solver's
        arithmetic.
    """

    def __init__(
        self,
        *sinks: Sink,
        capture_iterates: bool = False,
        on_state: Callable[[Any], None] | None = None,
        count_ops: bool = True,
        tracer: Any = None,
        health: Any = None,
    ) -> None:
        self._sinks: tuple[Sink, ...] = sinks if sinks else (MemorySink(),)
        self._streams = _streaming(self._sinks)
        self._reads = len(self._streams) < len(self._sinks)
        self.capture_iterates = bool(capture_iterates)
        self.iterates: list[np.ndarray] = []
        self.on_state = on_state
        self.count_ops = bool(count_ops)
        self.tracer = tracer
        self.health = health
        self._active: list[_ActiveSolve] = []
        # The innermost open bracket's record (None between solves, or
        # when nothing reads it).
        self._record: SolveRecord | None = None
        # Trace contexts are thread-local: the serve layer emits service
        # events on the event-loop thread while a batched solve narrates
        # on a worker thread, and a session-global context would stamp
        # one request's attribution onto another's events.
        self._ctxlocal = threading.local()
        for sink in self._sinks:
            bind = getattr(sink, "bind_session", None)
            if callable(bind):
                bind(self)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def sinks(self) -> tuple[Sink, ...]:
        """The attached sinks, in emission order."""
        return self._sinks

    @property
    def streams(self) -> bool:
        """Whether a sink that streams per-iteration events is attached.

        Emitters whose per-iteration narration costs a loop of its own
        (the batched solver's per-column events) test this first.
        """
        return bool(self._streams)

    @property
    def memory(self) -> MemorySink | None:
        """The first attached :class:`MemorySink`, if any."""
        for sink in self._sinks:
            if isinstance(sink, MemorySink):
                return sink
        return None

    @property
    def events(self) -> list[TelemetryEvent]:
        """Shortcut to the memory sink's event list (empty if none)."""
        mem = self.memory
        return mem.events if mem is not None else []

    def events_of(self, kind: str) -> list[TelemetryEvent]:
        """Events of one kind from the memory sink (empty if none)."""
        mem = self.memory
        return mem.of_kind(kind) if mem is not None else []

    # ------------------------------------------------------------------
    # trace context
    # ------------------------------------------------------------------
    @property
    def current_context(self) -> Any:
        """The active :class:`TraceContext` on this thread (or ``None``)."""
        stack = self._ctxlocal.__dict__.get("stack")
        return stack[-1] if stack else None

    def push_context(self, ctx: Any) -> None:
        """Activate a trace context for events emitted on this thread."""
        stack = self._ctxlocal.__dict__.setdefault("stack", [])
        stack.append(ctx)
        if self.tracer is not None:
            self.tracer.activate(ctx)

    def pop_context(self) -> Any:
        """Deactivate the innermost trace context on this thread."""
        stack = self._ctxlocal.__dict__.get("stack")
        if not stack:
            return None
        ctx = stack.pop()
        if self.tracer is not None:
            self.tracer.activate(stack[-1] if stack else None)
        return ctx

    @contextmanager
    def context(self, ctx: Any) -> Iterator[None]:
        """``with tele.context(ctx): ...`` sugar over push/pop."""
        self.push_context(ctx)
        try:
            yield
        finally:
            self.pop_context()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, event: TelemetryEvent, ctx: Any = None) -> None:
        """Deliver one event to every sink.

        ``ctx`` overrides the thread's active trace context for this
        event (used by the serve layer to stamp per-request attribution
        on service events emitted from the shared event-loop thread).
        """
        if ctx is None:
            ctx = self.current_context
        if ctx is not None:
            event.ctx = ctx
        for sink in self._sinks:
            sink.emit(event)

    def _narrate(self, event: TelemetryEvent) -> None:
        """Deliver a per-iteration event to the streaming sinks only."""
        stack = self._ctxlocal.__dict__.get("stack")
        if stack:
            event.ctx = stack[-1]
        for sink in self._streams:
            sink.emit(event)

    def solve_start(self, method: str, label: str, n: int, **options: Any) -> None:
        """Open a solve bracket (emits :class:`SolveStartEvent`)."""
        counter = push_scope() if self.count_ops else None
        outer = swap_tracer(self.tracer)
        record = self._record = (
            SolveRecord(method) if self._reads or self.health is not None else None
        )
        self._active.append(_ActiveSolve(counter, time.perf_counter(), outer, record))
        if self.tracer is not None:
            self.tracer.begin("solve")
            self.tracer.annotate(method=method, label=label, n=n)
        if self.health is not None:
            self.health.begin_solve(method, label, n)
        event = SolveStartEvent(method=method, label=label, n=n, options=options)
        event.record = record
        self.emit(event)

    def iteration(
        self,
        iteration: int,
        residual_norm: float,
        *,
        lam: float | None = None,
        alpha: float | None = None,
        recurred_rr: float | None = None,
    ) -> None:
        """One completed iteration: recorded, and streamed as an
        :class:`IterationEvent` when a streaming sink is attached."""
        # The once-per-iteration hot path (bench_telemetry_overhead.py):
        # positional construction and an inlined _narrate.
        record = self._record
        if record is not None:
            record.iterations.append(iteration)
            record.residuals.append(residual_norm)
        streams = self._streams
        if streams:
            event = IterationEvent(iteration, residual_norm, lam, alpha, recurred_rr)
            stack = self._ctxlocal.__dict__.get("stack")
            if stack:
                event.ctx = stack[-1]
            for sink in streams:
                sink.emit(event)
        if self.tracer is not None:
            self.tracer.mark_iteration(iteration)

    def drift(self, iteration: int, recurred_rr: float, direct_rr: float) -> None:
        """Recurred vs. direct ``(r, r)`` check (recorded; streamed as a
        :class:`DriftEvent` carrying :func:`drift_gap`)."""
        record = self._record
        if record is not None:
            record.checks.append(
                (len(record.residuals), iteration, recurred_rr, direct_rr)
            )
        if self._streams:
            self._narrate(
                DriftEvent(
                    iteration, recurred_rr, direct_rr,
                    drift_gap(recurred_rr, direct_rr),
                )
            )

    def clamp(self, iteration: int, recurred_rr: float) -> None:
        """The recurred ``(r, r)`` went negative and was clamped to zero.

        A negative recurred ``μ₀`` is pure finite-precision drift (the
        true quadratic form is non-negative); silently clamping it in the
        residual history hides exactly the signal the drift instruments
        exist to expose.  Recorded as a clamp and streamed as a
        :class:`DriftEvent` with ``direct_rr = 0.0`` and the clamped
        magnitude as the gap, so drift consumers (and the adaptive
        controller) see the event without a new vocabulary entry.
        """
        record = self._record
        if record is not None:
            record.checks.append((len(record.residuals), iteration, recurred_rr, None))
        if self._streams:
            self._narrate(DriftEvent(iteration, recurred_rr, 0.0, abs(recurred_rr)))

    def adaptive(
        self,
        iteration: int,
        action: str,
        trigger: str,
        k_old: int,
        k_new: int,
        gap: float = 0.0,
    ) -> None:
        """An adaptive window-size decision (emits :class:`AdaptiveEvent`)."""
        self.emit(
            AdaptiveEvent(
                iteration=iteration,
                action=action,
                trigger=trigger,
                k_old=k_old,
                k_new=k_new,
                gap=gap,
            )
        )

    def column_iteration(
        self, column: int, iteration: int, residual_norm: float
    ) -> None:
        """One column of a batched solve completed an iteration
        (streamed only)."""
        if self._streams:
            self._narrate(ColumnIterationEvent(column, iteration, residual_norm))

    def column_converged(
        self,
        column: int,
        iteration: int,
        residual_norm: float,
        reason: str = "converged",
    ) -> None:
        """A batched-solve column was deflated out of the active set."""
        self.emit(ColumnConvergedEvent(column, iteration, residual_norm, reason))

    def active_set(self, iteration: int, width: int) -> None:
        """Active-set width of a batched solve after one sweep (streamed
        only)."""
        if self._streams:
            self._narrate(ActiveSetEvent(iteration=iteration, width=width))

    def replacement(self, iteration: int, trigger: str) -> None:
        """A residual replacement fired (emits :class:`ReplacementEvent`)."""
        self.emit(ReplacementEvent(iteration=iteration, trigger=trigger))

    def fault(self, iteration: int, site: str, injector: str, detail: str) -> None:
        """An injected fault landed (emits :class:`FaultEvent`)."""
        self.emit(
            FaultEvent(iteration=iteration, site=site, injector=injector, detail=detail)
        )

    def recovery(
        self, iteration: int, action: str, trigger: str, detail: float = 0.0
    ) -> None:
        """A recovery action fired (emits :class:`RecoveryEvent`)."""
        self.emit(
            RecoveryEvent(
                iteration=iteration, action=action, trigger=trigger, detail=detail
            )
        )

    def pipeline(
        self, op: str, iteration: int, source_iteration: int, count: int
    ) -> None:
        """Pipeline data movement (streams a :class:`PipelineEvent`)."""
        if self._streams:
            self._narrate(
                PipelineEvent(
                    op=op,
                    iteration=iteration,
                    source_iteration=source_iteration,
                    count=count,
                )
            )

    def reduction(self, op: str, iteration: int, nranks: int, words: int) -> None:
        """Distributed collective / halo (emits :class:`ReductionEvent`)."""
        self.emit(
            ReductionEvent(op=op, iteration=iteration, nranks=nranks, words=words)
        )

    def iterate(self, x: np.ndarray) -> None:
        """Store a copy of the current iterate when capture is enabled."""
        if self.capture_iterates:
            self.iterates.append(np.array(x, copy=True))

    def state(self, state: Any) -> None:
        """Forward the live solver state to the ``on_state`` callback."""
        if self.on_state is not None:
            self.on_state(state)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase (emits :class:`PhaseEvent` on exit)."""
        if self.tracer is not None:
            self.tracer.begin(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.end(name)
            self.emit(PhaseEvent(name=name, seconds=time.perf_counter() - start))

    def solve_end(self, result: Any) -> None:
        """Close the innermost solve bracket.

        Emits the :class:`CountersEvent` for the bracket's counting scope
        (when enabled), the health monitor's transitions judged from the
        bracket's :class:`SolveRecord`, and then :class:`SolveEndEvent`
        summarizing the :class:`~repro.core.results.CGResult` (its
        ``record`` attribute is the bracket's record).
        """
        seconds = 0.0
        record = None
        if self._active:
            active = self._active.pop()
            seconds = time.perf_counter() - active.started_at
            record = active.record
            self._record = self._active[-1].record if self._active else None
            swap_tracer(active.outer_tracer)
            if active.counter is not None:
                self.emit(CountersEvent(counts=pop_scope(active.counter).snapshot()))
        if self.health is not None:
            if record is not None:
                self._judge(record)
            self.health.end_solve(result)
        event = SolveEndEvent(
            label=result.label,
            converged=bool(result.converged),
            stop_reason=result.stop_reason.value,
            iterations=int(result.iterations),
            residual_norm=float(result.final_recurred_residual),
            true_residual_norm=float(result.true_residual_norm),
            seconds=seconds,
        )
        event.record = record
        self.emit(event)
        if self.tracer is not None:
            self.tracer.end("solve")

    def _judge(self, record: SolveRecord) -> None:
        """Emit the health transitions the monitor finds in ``record``."""
        for health_event in self.health.judge(record):
            self.emit(health_event)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def open_solves(self) -> int:
        """Number of solve brackets currently open (they may nest)."""
        return len(self._active)

    def unwind(self, depth: int = 0) -> None:
        """Abandon solve brackets opened beyond ``depth`` and flush.

        The front door calls this when a solver raises mid-solve: each
        abandoned bracket pops its counting scope (so the global counter
        stack is balanced for the next solve), restores the thread's
        outer tracer and closes its tracer span; then the sinks are
        flushed so a :class:`JsonlSink` keeps every event emitted before
        the failure.  No solve-end event is emitted -- the stream
        honestly ends where the solver died.  The health monitor judges
        the innermost abandoned bracket's record (the solve it was
        watching) before archiving it as abandoned.
        """
        abandoned = []
        while len(self._active) > max(depth, 0):
            active = self._active.pop()
            abandoned.append(active.record)
            swap_tracer(active.outer_tracer)
            if active.counter is not None:
                pop_scope(active.counter)
            if self.tracer is not None:
                self.tracer.end("solve")
        self._record = self._active[-1].record if self._active else None
        if abandoned and self.health is not None:
            if abandoned[0] is not None:
                self._judge(abandoned[0])
            self.health.abandon_solve()
        self.flush()

    def add_sink(self, sink: Sink) -> None:
        """Attach one more sink to the running session."""
        self._sinks = self._sinks + (sink,)
        self._streams = _streaming(self._sinks)
        self._reads = len(self._streams) < len(self._sinks)
        bind = getattr(sink, "bind_session", None)
        if callable(bind):
            bind(self)

    def worker_view(self) -> "Telemetry":
        """A view of this session safe to drive from one worker thread.

        The serve layer's worker pool runs several dispatches
        concurrently, but a session's solve-bracket list and tracer
        record list assume one solve at a time: two threads pushing
        brackets on ``_active`` or begin/end marks on one tracer would
        interleave unrelated dispatches.  A worker view shares
        everything that is already concurrency-tolerant -- the sinks
        (without rebinding: ``bind_session`` backrefs such as the flight
        recorder's stay on the parent), the health monitor (whose
        per-solve state is thread-local), the context stack object
        (itself thread-local, so the worker's pushes are invisible to
        other threads) -- and owns the rest: its own bracket list and a
        fresh tracer whose balanced record block the caller merges back
        via ``parent.tracer.absorb(view.tracer)`` when the dispatch
        finishes.
        """
        view = Telemetry.__new__(Telemetry)
        view._sinks = self._sinks
        view._streams = self._streams
        view._reads = self._reads
        view.capture_iterates = self.capture_iterates
        view.iterates = self.iterates
        view.on_state = self.on_state
        view.count_ops = self.count_ops
        view.health = self.health
        view._active = []
        view._record = None
        view._ctxlocal = self._ctxlocal
        if self.tracer is not None:
            from repro.trace.spans import Tracer

            view.tracer = Tracer(trace_id=self.tracer.trace_id)
        else:
            view.tracer = None
        return view

    def notify_solve_call(
        self, a: Any, b: Any, method: str, options: dict[str, Any]
    ) -> None:
        """The front door is about to run a solve: forward the call's
        inputs to sinks that record them (the flight recorder captures
        the system, right-hand side, and fault seeds for replay)."""
        for sink in self._sinks:
            hook = getattr(sink, "on_solve_call", None)
            if callable(hook):
                hook(a, b, method, options)

    def notify_failure(self, exc: BaseException) -> None:
        """A solve died: forward to sinks that snapshot postmortems."""
        for sink in self._sinks:
            hook = getattr(sink, "on_solve_failure", None)
            if callable(hook):
                hook(exc)

    def flush(self) -> None:
        """Flush every sink that supports flushing (keeps them open)."""
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if callable(flush):
                flush()

    def close(self) -> None:
        """Close every sink that supports closing (flushes streams)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _streaming(sinks: tuple[Sink, ...]) -> tuple[Sink, ...]:
    """The sinks that take per-iteration events: all but record readers."""
    return tuple(sink for sink in sinks if not getattr(sink, "reads_record", False))
