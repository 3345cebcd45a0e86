"""Typed telemetry events.

Every solver in the package narrates its execution through a small,
closed vocabulary of event types.  The vocabulary is exactly the set of
per-iteration quantities the paper's argument (and the follow-up
literature: Cools & Vanroose 2017, Chen & Carson 2019) instruments when
comparing CG variants:

* :class:`IterationEvent` -- the residual-norm history and the CG scalar
  parameters, one event per iteration of *any* solver;
* :class:`DriftEvent` -- recurred scalar quantities versus true inner
  products (the finite-precision gap of experiment E7);
* :class:`RecoveryEvent` -- repairs (residual replacement, restart,
  recompute) and the detector that asked for each;
* :class:`PipelineEvent` -- launch/consume/coefficient-composition data
  movement (the Figure 1 diagonal flow);
* :class:`ReductionEvent` -- distributed collectives and halo exchanges,
  per issue/completion, with payload sizes (the C1/C2 synchronization
  accounting on real runs);
* :class:`PhaseEvent` -- wall-clock phase timers (startup vs. iterate);
* :class:`CountersEvent` -- the :class:`repro.util.counters.OpCounts`
  totals booked during the solve (SpMV/dot/axpy, flops, words moved,
  reduction launches);
* :class:`SolveStartEvent` / :class:`SolveEndEvent` -- solve brackets.

Events are plain dataclasses with a stable ``kind`` discriminator and a
:meth:`~TelemetryEvent.to_payload` method producing a flat,
JSON-serializable dict -- the contract the JSON-lines sink writes and the
schema tests pin down.  They are *treated* as immutable but deliberately
not ``frozen=True``: frozen-dataclass construction goes through
``object.__setattr__`` per field, which triples the cost of the
once-per-iteration :class:`IterationEvent` on the hot path priced by
``benchmarks/bench_telemetry_overhead.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.util.counters import OpCounts

__all__ = [
    "TelemetryEvent",
    "SolveStartEvent",
    "IterationEvent",
    "ColumnIterationEvent",
    "ColumnConvergedEvent",
    "ActiveSetEvent",
    "DriftEvent",
    "AdaptiveEvent",
    "FaultEvent",
    "RecoveryEvent",
    "PipelineEvent",
    "ReductionEvent",
    "PhaseEvent",
    "ServiceEvent",
    "HealthEvent",
    "CountersEvent",
    "SolveEndEvent",
]


@dataclass
class TelemetryEvent:
    """Base class: every event carries a ``kind`` discriminator.

    Events emitted while a :class:`~repro.trace.context.TraceContext`
    is active on the session carry it as a dynamically-attached ``ctx``
    attribute (set by :class:`~repro.telemetry.Telemetry`, not a
    dataclass field -- the hot-path constructors stay positional); its
    ``trace_id``/``request_id``/``tenant``/``members`` fields are merged
    into :meth:`to_payload` so JSONL streams carry attribution.
    """

    kind = "event"

    def to_payload(self) -> dict[str, Any]:
        """Flat JSON-serializable dict (``kind`` first, then the fields)."""
        payload: dict[str, Any] = {"kind": self.kind}
        for key, value in asdict(self).items():
            payload[key] = value
        ctx = getattr(self, "ctx", None)
        if ctx is not None:
            payload.update(ctx.to_payload())
        return payload


@dataclass
class SolveStartEvent(TelemetryEvent):
    """A solver began: registry method name, solver label, problem size.

    ``options`` holds the scalar solve options (k, s, nranks, ...) so a
    telemetry stream is self-describing.
    """

    kind = "solve_start"

    method: str
    label: str
    n: int
    options: dict[str, Any] = field(default_factory=dict)


@dataclass
class IterationEvent(TelemetryEvent):
    """One completed iteration of any solver in the family.

    Attributes
    ----------
    iteration:
        Completed iteration count (1-based, matching ``CGResult.iterations``).
    residual_norm:
        The residual norm *as the algorithm sees it* -- recurred ``sqrt(mu_0)``
        for the Van Rosendale solvers, directly computed for classical CG.
    lam:
        The step length ``lambda_n`` (paper notation), when the method has one.
    alpha:
        The direction scalar ``alpha_{n+1}``, when already available at
        emission time.
    recurred_rr:
        The scalar-recurred ``(r, r)`` for moment-recurrence solvers.
    """

    kind = "iteration"

    iteration: int
    residual_norm: float
    lam: float | None = None
    alpha: float | None = None
    recurred_rr: float | None = None


@dataclass
class ColumnIterationEvent(TelemetryEvent):
    """One completed iteration of ONE column of a batched solve.

    Batched solvers emit one of these per active column per sweep
    (alongside the usual aggregate :class:`IterationEvent`), so
    per-right-hand-side convergence curves can be rebuilt from a single
    stream.
    """

    kind = "column_iteration"

    column: int
    iteration: int
    residual_norm: float


@dataclass
class ColumnConvergedEvent(TelemetryEvent):
    """A batched-solve column left the active set.

    ``reason`` mirrors :class:`~repro.core.results.StopReason` values
    (``"converged"`` for a deflation on convergence, ``"breakdown"`` for
    a per-column numerical failure).
    """

    kind = "column_converged"

    column: int
    iteration: int
    residual_norm: float
    reason: str = "converged"


@dataclass
class ActiveSetEvent(TelemetryEvent):
    """Width of a batched solve's active set after one sweep.

    The deflation trajectory: starts at ``m``, non-increasing; the area
    under this curve is the work the batch actually paid
    (``BatchedResult.total_column_iterations``).
    """

    kind = "active_set"

    iteration: int
    width: int


@dataclass
class DriftEvent(TelemetryEvent):
    """Recurred scalar vs. true inner product at one iteration.

    ``drift`` is the relative gap ``|recurred - direct| / direct`` -- the
    moment-window finite-precision drift the stability experiment (E7)
    tracks, emitted whenever a solver computes both quantities.
    """

    kind = "drift"

    iteration: int
    recurred_rr: float
    direct_rr: float
    drift: float


@dataclass
class AdaptiveEvent(TelemetryEvent):
    """The adaptive window controller made a decision (:mod:`repro.core.adaptive`).

    ``action`` is ``"shrink"``/``"grow"`` (the window size stepped by
    one), ``"replace"`` (repair at the floor, k unchanged), or
    ``"fallback"`` (the controller gave up on the moment window and
    handed the solve to classical CG); ``trigger`` names the observation
    that fired (``drift``/``calm``, or the trouble the solver reported,
    such as ``breakdown``); ``gap`` is
    the measured recurred-vs-direct relative gap when the trigger has
    one, else 0.
    """

    kind = "adaptive"

    iteration: int
    action: str
    trigger: str
    k_old: int
    k_new: int
    gap: float = 0.0


@dataclass
class FaultEvent(TelemetryEvent):
    """A fault injector fired (:mod:`repro.faults`).

    ``site`` is the injection site (``matvec``/``dot``/``scalar``/
    ``comm``), ``injector`` the class name of the injector that fired,
    ``detail`` a human-readable description of what was corrupted.  One
    event per actually-landed fault, so a telemetry stream is a complete
    fault log for the run.
    """

    kind = "fault"

    iteration: int
    site: str
    injector: str
    detail: str


@dataclass
class RecoveryEvent(TelemetryEvent):
    """A repair fired (:class:`repro.faults.RecoveryPolicy`): one event
    per repair, booked by :meth:`repro.core.results.SolveRun.book`.

    ``action`` is ``"replace"`` (power block rebuilt from the true
    residual), ``"restart"`` (iteration restarted from the current
    iterate), or ``"recompute"`` (recurred moments re-derived from direct
    dots and adopted); ``trigger`` names the detector that fired
    (``periodic``/``drift``/``verify``/``divergence``/``breakdown``/
    ``false_convergence``/``conjugacy``/``comm_drop``); ``detail`` is
    the detector's measured gap when it has one, else 0.
    """

    kind = "recovery"

    iteration: int
    action: str
    trigger: str
    detail: float = 0.0


@dataclass
class PipelineEvent(TelemetryEvent):
    """One data-movement step of the pipelined iteration (Figure 1).

    ``op`` is ``"launch"``, ``"consume"``, or ``"coeff_update"``;
    ``source_iteration`` is the launch iteration a consume refers to;
    ``count`` is the number of scalar values involved (6k+6 per launch).
    """

    kind = "pipeline"

    op: str
    iteration: int
    source_iteration: int
    count: int


@dataclass
class ReductionEvent(TelemetryEvent):
    """One distributed collective or halo exchange.

    ``op`` is one of ``"allreduce"`` (blocking), ``"iallreduce"``
    (nonblocking issue), ``"wait_hidden"`` (nonblocking completion after
    its latency elapsed -- off the critical path), ``"wait_forced"`` (an
    early wait, booked as a real synchronization), or ``"halo"``
    (neighbour exchange).  ``nranks`` is the number of participating
    ranks and ``words`` the per-event payload in vector words.
    """

    kind = "reduction"

    op: str
    iteration: int
    nranks: int
    words: int


@dataclass
class PhaseEvent(TelemetryEvent):
    """A named wall-clock phase completed (``startup``, ``iterate``, ...)."""

    kind = "phase"

    name: str
    seconds: float


@dataclass
class ServiceEvent(TelemetryEvent):
    """One admission/dispatch decision of the solver service.

    The :mod:`repro.serve` front end narrates each request's life cycle
    through these: ``admitted`` (entered the queue), ``shed`` (rejected,
    ``detail`` carries the reason), ``dispatch`` (left the queue,
    ``detail`` carries the coalesce width), ``respond`` (answer
    resolved, ``detail`` carries the status), ``dedup`` (idempotent
    resubmission rode an in-flight request).  ``request_id`` is the
    request's trace id, so a JSONL stream can be joined against the
    span tracer's request spans.
    """

    kind = "service"

    action: str
    request_id: str
    tenant: str
    detail: str = ""


@dataclass
class HealthEvent(TelemetryEvent):
    """The online numerical-health monitor changed its assessment.

    Emitted by :class:`repro.trace.health.HealthMonitor` (via the
    telemetry session) when a solve's health status transitions or a
    watched condition fires.  ``status`` is ``"ok"``/``"watch"``/
    ``"critical"``; ``reason`` names the observation (``drift``/
    ``clamp``/``stagnation``/``recovered``); ``residual_gap`` is the
    relative recurred-vs-true gap that fired; ``floor_estimate`` is the
    running attainable-accuracy floor (Cools et al.: the residual norm
    below which the recurrence can no longer be trusted), as a residual
    norm.
    """

    kind = "health"

    iteration: int
    status: str
    reason: str
    residual_gap: float = 0.0
    floor_estimate: float = 0.0


@dataclass
class CountersEvent(TelemetryEvent):
    """Operation totals booked between solve start and solve end."""

    kind = "counters"

    counts: OpCounts

    def to_payload(self) -> dict[str, Any]:
        c = self.counts
        payload = {
            "kind": self.kind,
            "dots": c.dots,
            "dot_flops": c.dot_flops,
            "axpys": c.axpys,
            "axpy_flops": c.axpy_flops,
            "matvecs": c.matvecs,
            "matvec_flops": c.matvec_flops,
            "scalar_flops": c.scalar_flops,
            "reductions": c.reductions,
            "words_moved": c.words_moved,
            "total_flops": c.total_flops,
            "bytes_moved": c.bytes_moved,
            "labels": dict(c._labels),
        }
        ctx = getattr(self, "ctx", None)
        if ctx is not None:
            payload.update(ctx.to_payload())
        return payload


@dataclass
class SolveEndEvent(TelemetryEvent):
    """A solver finished: the outcome summary, mirroring ``CGResult``."""

    kind = "solve_end"

    label: str
    converged: bool
    stop_reason: str
    iterations: int
    residual_norm: float
    true_residual_norm: float
    seconds: float
