"""Hierarchical spans recorded on top of the telemetry session.

The paper's argument is about *where a CG iteration spends its time*:
claims C1/C2 say the two inner-product fan-ins dominate the parallel
critical path, and the Van Rosendale reformulation exists to move them
off it.  :mod:`repro.machine` asserts this analytically; the span layer
lets a *live* solve be decomposed the same way, so the two can be
compared on equal terms (see :mod:`repro.trace.profile`).

Span vocabulary
---------------
Spans come from a closed phase vocabulary::

    solve                     one per front-door solve bracket
      startup                 residual/power-block initialisation
      iteration               synthesized, one per IterationEvent
        matvec                sparse matrix-vector products
        local_dot             local inner-product arithmetic
        allreduce_wait        blocking collectives / forced waits
        recurrence            moment-window scalar recurrences
        axpy                  vector updates
        precond               preconditioner applications

Solvers open only ``startup``.  The phase spans are recorded where the
work is booked: the :mod:`repro.util.counters` calls that count a dot,
vector update or matvec open its span on the solve's tracer, and the
recurrences and collectives record theirs from the same thread-local
(:func:`~repro.util.counters.traced`,
:func:`~repro.util.counters.record_instant`).  Every registry method
therefore gets phase spans with no per-solver code.

The hot path records **flat tuples**, not objects: ``begin``/``end``
append ``("B"/"E", name, perf_counter())`` to a list, which is the only
work done while a solver runs.  That keeps an actively-recording tracer
inside the same <5% overhead budget the null-sink telemetry path obeys
(``benchmarks/bench_trace_overhead.py``).  The tree is built lazily by
:meth:`Tracer.spans`.

Iteration spans are not recorded by solvers at all -- wrapping every
iteration in ``begin``/``end`` pairs would double the per-iteration call
count and, worse, would force each solver to agree on where an iteration
"starts", which the pipelined variants cannot (work for iteration ``n+k``
is interleaved with iteration ``n``).  Instead
:meth:`Telemetry.iteration` drops a single mark record and
:func:`build_spans` synthesizes one ``iteration`` span per mark,
adopting the phase spans recorded since the previous mark.  Phase spans
within an iteration are therefore non-overlapping by construction
(phase spans never nest) and the sum of phase times is bounded by the
iteration span -- the invariants ``tests/trace/test_span_properties.py``
pins across every registry method.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator

__all__ = ["PHASE_NAMES", "Span", "Tracer", "build_spans"]

#: The leaf phases recorded inside a solve bracket.  Only these names
#: are adopted into synthesized ``iteration`` spans; anything else (e.g.
#: ``startup``) stays a direct child of ``solve``.
PHASE_NAMES = frozenset(
    {"matvec", "local_dot", "allreduce_wait", "recurrence", "axpy", "precond"}
)


@dataclass
class Span:
    """One closed interval of a solve, possibly with children.

    ``attrs`` carries annotations attached while the span was open
    (method/label/n on ``solve`` spans, op/words/stall_iterations on
    ``allreduce_wait`` spans, the iteration number on synthesized
    ``iteration`` spans).

    ``trace_id``/``span_id``/``parent_id`` are stable correlation ids
    assigned by :func:`build_spans`: every span in a tree shares the
    root's trace id (taken from the active
    :class:`~repro.trace.context.TraceContext` at recording time, else
    the builder's default), ``span_id`` is depth-first sequential
    within the build, and ``parent_id`` links to the enclosing span.
    They let a span in a Chrome trace be joined against the JSONL
    telemetry stream of the same request.
    """

    name: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None

    @property
    def seconds(self) -> float:
        """Wall-clock duration of the span."""
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        """Whether ``other``'s interval lies within this span's."""
        return self.start <= other.start and other.end <= self.end

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every descendant span (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def phase_totals(self) -> dict[str, tuple[float, int]]:
        """Aggregate ``{phase: (seconds, count)}`` over all descendants."""
        totals: dict[str, tuple[float, int]] = {}
        for span in self.walk():
            if span.name in PHASE_NAMES:
                seconds, count = totals.get(span.name, (0.0, 0))
                totals[span.name] = (seconds + span.seconds, count + 1)
        return totals


class Tracer:
    """Records span begin/end marks as flat tuples; builds trees on demand.

    The recording API is deliberately tiny and allocation-light:

    * :meth:`begin` / :meth:`end` -- open and close a named span;
    * :meth:`mark_iteration` -- drop an iteration boundary (called by
      :meth:`repro.telemetry.Telemetry.iteration`, never by solvers);
    * :meth:`annotate` -- attach key/value attributes to the innermost
      open span;
    * :meth:`span` -- context-manager sugar over begin/end.

    ``end`` is tolerant: closing ``"solve"`` closes any still-open inner
    spans at the same timestamp, so a solver that raises mid-phase still
    yields a well-formed tree (the front door unwinds open brackets via
    :meth:`repro.telemetry.Telemetry.unwind`).
    """

    __slots__ = ("_records", "_clock", "begin", "end", "mark_iteration", "trace_id")

    def __init__(self, *, trace_id: str | None = None) -> None:
        records: list[tuple[str, Any, float]] = []
        clock = perf_counter
        append = records.append
        self._records = records
        self._clock = clock
        #: Default trace id stamped on root spans recorded with no
        #: active :class:`~repro.trace.context.TraceContext`.
        self.trace_id = trace_id
        # Hot path: begin/end/mark_iteration are bound closures over the
        # record list's append and the clock, skipping the attribute
        # loads and descriptor binding a plain method pays on every call
        # -- these three run several times per solver iteration, and the
        # <5% budget is measured in tens of nanoseconds.
        self.begin = lambda name: append(("B", name, clock()))
        self.end = lambda name: append(("E", name, clock()))
        self.mark_iteration = lambda iteration: append(("I", iteration, clock()))

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span."""
        self._records.append(("A", attrs, self._clock()))

    def activate(self, ctx: Any) -> None:
        """Activate a trace context for subsequently recorded spans.

        ``ctx`` is a :class:`~repro.trace.context.TraceContext` (or a
        bare trace-id string, or ``None`` to deactivate).  Root spans
        opened while a context is active adopt its trace id; their
        descendants inherit it during :func:`build_spans`.
        """
        self._records.append(("C", ctx, self._clock()))

    def absorb(self, other: "Tracer") -> None:
        """Merge another tracer's records into this one.

        The serve layer's worker pool records each dispatch on a
        per-worker tracer (concurrent begin/end on one shared record
        list would interleave two dispatches into a corrupt tree) and
        merges the finished dispatch back into the session tracer here.
        Each dispatch's block is balanced -- the worker closes its spans
        and deactivates its context before the merge -- so a single
        list-extend keeps the forest well-formed, and the extend itself
        is atomic under the GIL.
        """
        self._records.extend(other._records)

    # -- convenience ---------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with tracer.span("matvec"): ...`` sugar over begin/end."""
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    @property
    def records(self) -> list[tuple[str, Any, float]]:
        """The raw record list (read-only view by convention)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop all recorded spans."""
        self._records.clear()

    def spans(self, *, group_iterations: bool = True) -> list[Span]:
        """Build the span forest from the recorded marks.

        With ``group_iterations`` (default), phase spans between
        consecutive iteration marks are regrouped under synthesized
        ``iteration`` spans as described in the module docstring.
        """
        return build_spans(
            self._records,
            group_iterations=group_iterations,
            default_trace_id=self.trace_id,
        )

    def solve_spans(self) -> list[Span]:
        """The top-level ``solve`` spans, in recording order."""
        return [s for s in self.spans() if s.name == "solve"]


def build_spans(
    records: list[tuple[str, Any, float]],
    *,
    group_iterations: bool = True,
    default_trace_id: str | None = None,
) -> list[Span]:
    """Turn a flat record list into a forest of :class:`Span` trees.

    ``default_trace_id`` is stamped on root spans recorded while no
    trace context was active; roots recorded under an activation record
    take the context's trace id instead.  Every span then receives a
    stable depth-first ``span_id`` and its ``parent_id``.
    """
    roots: list[Span] = []
    stack: list[Span] = []
    marks: dict[int, list[tuple[int, float]]] = {}
    last_t = 0.0
    active_trace: str | None = None
    for tag, payload, t in records:
        last_t = t
        if tag == "B":
            span = Span(name=payload, start=t, end=t)
            if not stack:
                span.trace_id = active_trace
            (stack[-1].children if stack else roots).append(span)
            stack.append(span)
        elif tag == "E":
            # Tolerant pop: close any unclosed inner spans at this time.
            while stack:
                span = stack.pop()
                span.end = t
                if span.name == payload:
                    break
        elif tag == "I":
            if stack:
                marks.setdefault(id(stack[-1]), []).append((payload, t))
        elif tag == "A":
            if stack:
                stack[-1].attrs.update(payload)
        elif tag == "C":
            active_trace = getattr(payload, "trace_id", payload)
            if stack and active_trace is not None:
                # A context activated mid-span re-tags the enclosing
                # tree: the service opens its request span and then
                # activates, and attribution must cover that span too.
                root = stack[0]
                root.trace_id = active_trace
    # Auto-close anything left open (aborted solve) at the last record.
    while stack:
        span = stack.pop()
        span.end = max(span.end, last_t)
    if group_iterations:
        for root in roots:
            _group_iterations(root, marks)
    _assign_ids(roots, default_trace_id)
    return roots


def _assign_ids(roots: list[Span], default_trace_id: str | None) -> None:
    """Assign stable depth-first span/parent/trace ids over the forest."""
    counter = 0
    for root in roots:
        if root.trace_id is None:
            root.trace_id = default_trace_id
        pending: list[tuple[Span, Span | None]] = [(root, None)]
        while pending:
            span, parent = pending.pop()
            counter += 1
            span.span_id = f"s{counter:04d}"
            if parent is not None:
                span.parent_id = parent.span_id
                if span.trace_id is None:
                    span.trace_id = parent.trace_id
            for child in reversed(span.children):
                pending.append((child, span))


def _group_iterations(span: Span, marks: dict[int, list[tuple[int, float]]]) -> None:
    """Regroup ``span``'s phase children under synthesized iterations."""
    for child in span.children:
        _group_iterations(child, marks)
    mlist = marks.get(id(span))
    if not mlist:
        return
    mark_times = [t for _, t in mlist]
    # A non-phase child (startup) that finished before the first mark
    # pushes the first iteration's left boundary right.
    first_bound = span.start
    for child in span.children:
        if child.name not in PHASE_NAMES and first_bound < child.end <= mark_times[0]:
            first_bound = child.end
    # Phase children are assigned to the first iteration whose mark time
    # is >= their start.  Phases recorded before that boundary (setup
    # work ahead of startup) or after the last mark (trailing drift
    # checks, next-direction work of an exhausted budget) remain direct
    # children of the solve span.
    assigned: list[list[Span]] = [[] for _ in mlist]
    keep: list[Span] = []
    for child in span.children:
        if child.name in PHASE_NAMES and child.start >= first_bound:
            idx = bisect.bisect_left(mark_times, child.start)
            if idx < len(mark_times):
                assigned[idx].append(child)
                continue
        keep.append(child)
    prev = first_bound
    for (iteration, mark_t), kids in zip(mlist, assigned):
        start = min([prev] + [k.start for k in kids])
        end = max([mark_t] + [k.end for k in kids])
        keep.append(
            Span(
                name="iteration",
                start=start,
                end=end,
                attrs={"iteration": iteration},
                children=kids,
            )
        )
        prev = mark_t
    keep.sort(key=lambda s: s.start)
    span.children = keep
