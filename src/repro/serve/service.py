"""The asyncio solver service: admission, coalescing, dispatch, drain.

:class:`SolverService` is the long-lived front end the ROADMAP's
"millions of users" story needs on top of :func:`repro.solve` /
:func:`repro.solve_batched`:

* **admission control** -- per-tenant token buckets
  (:mod:`repro.serve.admission`) and a bounded queue.  A request that
  cannot be admitted is *shed with a reason* (``rate_limited``,
  ``queue_full``, ``draining``) -- never silently dropped, never
  queued unboundedly;
* **request coalescing** -- a lane's runner groups the block-path
  (``cg``) requests pending on it by operator fingerprint + dtype +
  tolerance class (:mod:`repro.serve.coalescer`), and runs each group as
  ONE :func:`repro.solve_batched` call on the fused ``m``-wide kernels.
  Every other request runs as a single :func:`repro.solve` call;
* **observability** -- every request carries a trace id; dispatch groups
  open ``request``/``request_batch`` spans on the session tracer
  annotated with the member ids, queue-depth/shed/coalesce-width
  instruments land in a :class:`~repro.trace.MetricsRegistry`
  (Prometheus-exportable), and :class:`~repro.telemetry.ServiceEvent`
  records admission decisions in the telemetry stream;
* **graceful drain** -- :meth:`SolverService.drain` stops admitting,
  answers everything admitted, then shuts the worker pool down.

The solves themselves run on a bounded **worker pool keyed by operator
fingerprint**.  Admission routes every request to its operator's
*lane* in the same synchronous step: an idle lane gets a runner task, a
busy lane parks the request on its backlog.  A runner takes its whole
backlog, plans it into groups and solves them one after another, so
groups against *different* operators execute concurrently while groups
against the *same* operator stay FIFO -- the coalescer's ordering
guarantees (and the bit-identical-to-direct ``solve_batched``
differential) survive the parallelism, and requests that arrive while
their lane is busy coalesce into its next group.  Nothing waits on a
timer: requests admitted in one event-loop step share their lane's next
pass, and the event loop keeps admitting and shedding while the
numerics run.  Repeated solves against the same operator hit the
process-global :class:`~repro.backend.SetupCache` exactly as the
ROADMAP promises -- the fingerprint the coalescer groups by is the same
key the cache memoizes under -- and converged solutions additionally
seed the cross-request warm start (:mod:`repro.serve.warmstart`).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from concurrent.futures import ThreadPoolExecutor

from repro.core.results import CGResult
from repro.core.stopping import StoppingCriterion
from repro.serve.admission import AdmissionController
from repro.serve.coalescer import compat_key, plan_batches
from repro.serve.warmstart import WarmStartCache
from repro.telemetry import ServiceEvent, Telemetry
from repro.trace.context import TraceContext

__all__ = ["ServiceConfig", "SolveRequest", "SolveResponse", "SolverService"]

_REQUEST_COUNTER = itertools.count(1)

#: Coalesce-width histogram buckets: powers of two up to a block of 64.
_WIDTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def new_request_id() -> str:
    """A process-unique request/trace id (monotonic, log-greppable)."""
    return f"req-{next(_REQUEST_COUNTER):08d}"


@dataclass
class SolveRequest:
    """One client solve: the system, the method, and the identity.

    ``request_id`` doubles as the trace id; submitting the same id twice
    while the first submission is still in flight is *idempotent* -- both
    callers await the same response, and only one solve runs.
    """

    a: Any
    b: np.ndarray
    method: str = "cg"
    tenant: str = "default"
    request_id: str = field(default_factory=new_request_id)
    stop: StoppingCriterion | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def compat_key(self) -> tuple | None:
        """Request key: lane, warm start and, for block-path methods,
        coalescing (see :func:`repro.serve.coalescer.compat_key`)."""
        return compat_key(self.method, self.a, self.b, self.stop, self.options)


@dataclass
class SolveResponse:
    """The service's answer to one :class:`SolveRequest`.

    Exactly one response exists per submitted request -- shed requests
    get a response with ``status="shed"`` and the shed reason, failed
    solves ``status="error"`` with the exception, successful solves
    ``status="ok"`` with the :class:`~repro.core.results.CGResult`.
    """

    request_id: str
    tenant: str
    status: str  # "ok" | "shed" | "error"
    reason: str = ""
    result: CGResult | None = None
    coalesce_width: int = 0
    queue_seconds: float = 0.0
    #: Whether the solve was seeded from the cross-request warm-start
    #: cache (and converged under the solver's exit rule).
    warm_started: bool = False

    @property
    def ok(self) -> bool:
        """Whether the request was served a solver result."""
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        """Whether admission control rejected the request."""
        return self.status == "shed"

    @property
    def trace_id(self) -> str:
        """The id dispatch spans are annotated with (= the request id)."""
        return self.request_id


def _answer(request: SolveRequest, status: str, **fields: Any) -> SolveResponse:
    """The response to ``request``; ``fields`` are the rest of it."""
    return SolveResponse(request.request_id, request.tenant, status, **fields)


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`SolverService`.

    Attributes
    ----------
    max_queue_depth:
        Bound on *admitted-but-undispatched* requests: those parked on
        their lane's backlog or waiting for a worker thread.  Arrivals
        beyond it are shed with reason ``queue_full`` -- the
        backpressure that keeps queue latency bounded under overload.
    max_coalesce_width:
        Largest ``m`` one batched dispatch may carry; wider compatible
        groups are chunked.  ``1`` disables coalescing entirely (the
        naive-sequential baseline the throughput bench compares against).
    tenant_rate, tenant_burst:
        Per-tenant token-bucket admission (requests/second and bucket
        capacity).  ``tenant_rate=None`` (default) disables metering.
    clock:
        Monotonic-seconds callable used for queue-latency accounting and
        the token buckets; tests inject a fake clock for determinism.
    flight_ring:
        Capacity of the attached
        :class:`~repro.trace.FlightRecorder` event ring.  ``0``
        disables the recorder (and postmortem bundles) entirely.
    postmortem_dir:
        When set, failure and shed snapshots are written there as
        ``postmortem-*.json`` bundles (``repro replay`` input); without
        it the recorder keeps the last bundle in memory only.
    recent_outcomes:
        How many recently-answered requests :meth:`SolverService.status`
        reports (a bounded ring; oldest entries fall off).
    workers:
        Size of the dispatch worker pool.  Groups keyed to *different*
        operator fingerprints run concurrently, up to this many at
        once; groups sharing a fingerprint stay FIFO regardless.
    warm_start:
        Capacity (entry count) of the cross-request warm-start cache
        (:mod:`repro.serve.warmstart`).  ``0`` disables warm starting
        entirely.
    """

    max_queue_depth: int = 64
    max_coalesce_width: int = 16
    tenant_rate: float | None = None
    tenant_burst: float = 8.0
    clock: Callable[[], float] = time.monotonic
    flight_ring: int = 256
    postmortem_dir: str | None = None
    recent_outcomes: int = 32
    workers: int = 4
    warm_start: int = 64

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.warm_start < 0:
            raise ValueError(
                f"warm_start capacity must be >= 0, got {self.warm_start}"
            )
        if self.max_coalesce_width < 1:
            raise ValueError(
                f"max_coalesce_width must be >= 1, got {self.max_coalesce_width}"
            )
        if self.flight_ring < 0:
            raise ValueError(
                f"flight_ring must be >= 0, got {self.flight_ring}"
            )
        if self.recent_outcomes < 1:
            raise ValueError(
                f"recent_outcomes must be >= 1, got {self.recent_outcomes}"
            )


class _Pending:
    """One admitted request waiting for dispatch."""

    __slots__ = ("request", "future", "submitted_at", "key")

    def __init__(
        self, request: SolveRequest, future: "asyncio.Future[SolveResponse]",
        submitted_at: float,
    ) -> None:
        self.request = request
        self.future = future
        self.submitted_at = submitted_at
        self.key = request.compat_key()


class SolverService:
    """Async multi-tenant front end over the solver registry.

    Parameters
    ----------
    config:
        A :class:`ServiceConfig`; defaults are sensible for tests and
        small deployments.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` session every
        dispatch runs under (service events, solver events, and -- when
        the session carries a tracer -- request spans all land in it).
        Without one, the service builds a session around a
        :class:`~repro.trace.MetricsSink` feeding :attr:`metrics`.
    metrics:
        Optional :class:`~repro.trace.MetricsRegistry`; created when
        absent.  Exported by the HTTP front's ``/metrics`` endpoint.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        telemetry: Telemetry | None = None,
        metrics: Any = None,
    ) -> None:
        from repro.trace import FlightRecorder, HealthMonitor, MetricsRegistry, MetricsSink

        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if telemetry is None:
            telemetry = Telemetry(MetricsSink(self.metrics), count_ops=False)
        self.telemetry = telemetry
        # Health monitor: attach one unless the caller's session already
        # carries its own.
        if telemetry.health is None:
            telemetry.health = HealthMonitor()
        # Flight recorder: a bounded ring of recent observability, the
        # source of postmortem bundles on failure or shed.
        self.recorder: FlightRecorder | None = None
        if self.config.flight_ring > 0:
            # REPRO_POSTMORTEM_DIR lets operators (and CI) turn on bundle
            # writes without touching configuration code.
            postmortem_dir = self.config.postmortem_dir or os.environ.get(
                "REPRO_POSTMORTEM_DIR"
            )
            self.recorder = FlightRecorder(
                ring=self.config.flight_ring,
                directory=postmortem_dir,
            )
            telemetry.add_sink(self.recorder)
        self._admission = AdmissionController(
            self.config.tenant_rate,
            self.config.tenant_burst,
            clock=self.config.clock,
        )
        self._operators: dict[str, Any] = {}
        # Admitted requests whose group does not hold a worker slot yet:
        # parked on their lane's backlog or waiting for a thread.
        self._depth = 0
        self._inflight: dict[str, asyncio.Future[SolveResponse]] = {}
        self._draining = False
        # Worker pool: lazily-built executor, one slot per worker (a
        # group holds one while it solves), the busy lanes (lane key ->
        # backlog parked behind the running group) and their runner
        # tasks, which the drain path awaits.
        self._executor: ThreadPoolExecutor | None = None
        self._slots = asyncio.Semaphore(self.config.workers)
        self._lanes: dict[Any, deque[_Pending]] = {}
        self._runners: set[asyncio.Task] = set()
        self._inflight_dispatches = 0
        self.peak_inflight_dispatches = 0
        # Cross-request warm start: converged solutions keyed by
        # (compat key, RHS digest); a warm-started solve is served only
        # when it converged under the solver's exit rule.
        self.warmstart = WarmStartCache(self.config.warm_start)
        # Plain-int mirrors of the metric counters: the conservation law
        # (served + shed + errors == submitted) the property tests pin.
        self.submitted = 0
        self.served = 0
        self.shed = 0
        self.errors = 0
        self.deduped = 0
        self.peak_queue_depth = 0
        # Recently-answered requests, newest last (the /status ring).
        self.recent: deque[dict[str, Any]] = deque(
            maxlen=self.config.recent_outcomes
        )
        self._shed_snapshotted: set[str] = set()
        reg = self.metrics
        self._metric_requests = {
            status: reg.counter(
                "repro_serve_requests_total", "Requests by final status",
                status=status,
            )
            for status in ("ok", "shed", "error")
        }
        self._metric_depth = reg.gauge(
            "repro_serve_queue_depth", "Admitted requests awaiting dispatch"
        )
        self._metric_depth_peak = reg.gauge(
            "repro_serve_queue_depth_peak", "High-water mark of the queue depth"
        )
        self._metric_width = reg.histogram(
            "repro_serve_coalesce_width", "Requests per dispatch group",
            buckets=_WIDTH_BUCKETS,
        )
        self._metric_wait = reg.histogram(
            "repro_serve_queue_seconds", "Admission-to-dispatch latency"
        )
        self._metric_workers = reg.gauge(
            "repro_serve_workers", "Configured dispatch worker-pool size"
        )
        self._metric_workers.set(self.config.workers)
        self._metric_dispatch_inflight = reg.gauge(
            "repro_serve_dispatch_inflight",
            "Dispatch groups currently executing on the worker pool",
        )
        self._metric_dispatch_inflight_peak = reg.gauge(
            "repro_serve_dispatch_inflight_peak",
            "High-water mark of concurrently executing dispatch groups",
        )

    # ------------------------------------------------------------------
    # operator registry (the HTTP front's server-side matrices)
    # ------------------------------------------------------------------
    def register_operator(self, name: str, a: Any) -> None:
        """Register a named server-side operator for clients to solve
        against (the multi-tenant same-operator pattern the coalescer
        and the setup cache are built for)."""
        if not name:
            raise ValueError("operator name must be non-empty")
        self._operators[name] = a

    def operator(self, name: str) -> Any:
        """Look up a registered operator; raises ``KeyError`` with the
        available names in the message."""
        try:
            return self._operators[name]
        except KeyError:
            raise KeyError(
                f"unknown operator {name!r}; registered: "
                f"{', '.join(sorted(self._operators)) or '(none)'}"
            ) from None

    @property
    def operators(self) -> list[str]:
        """Registered operator names, sorted."""
        return sorted(self._operators)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting, answer everything admitted, shut the pool down.

        Every request admitted before the drain began still receives its
        response: admission put it on its lane's backlog, and every lane
        runner -- including one whose group is executing on the worker
        pool -- finishes its backlog before the pool shuts down.
        Requests submitted after the drain began are shed with reason
        ``draining``.  Idempotent.
        """
        self._draining = True
        while self._runners:
            await asyncio.gather(*list(self._runners), return_exceptions=True)
        pool, self._executor = self._executor, None
        if pool is not None:
            pool.shutdown(wait=True)

    async def __aenter__(self) -> "SolverService":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.drain()

    @property
    def draining(self) -> bool:
        """Whether the service has begun (or finished) draining."""
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Admitted requests whose group holds no worker slot yet: parked
        on their lane's backlog or waiting for a worker thread."""
        return self._depth

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _admit(
        self, request: SolveRequest
    ) -> "SolveResponse | asyncio.Future[SolveResponse]":
        """Synchronous admission core: a shed response or a lane append.

        Returns either an immediate ``status="shed"`` response or the
        future the request's lane runner will resolve.  Deliberately
        contains no awaits: an admitted request is on its lane's backlog
        when this returns, and an idle lane's runner first runs after
        every task step already scheduled.  So the columns of a
        :meth:`submit_batched` block, or :meth:`submit` calls gathered
        in one event-loop step, are all on the backlog when the runner
        plans its first pass -- the property that lets them ride ONE
        coalesced dispatch.
        """
        self.submitted += 1
        existing = self._inflight.get(request.request_id)
        if existing is not None:
            # Idempotent resubmission: ride the original solve.
            self.deduped += 1
            self._event("dedup", request)
            return existing
        if self._draining:
            return self._shed(request, "draining")
        if not self._admission.admit(request.tenant):
            return self._shed(request, "rate_limited")
        if self.queue_depth >= self.config.max_queue_depth:
            return self._shed(request, "queue_full")
        future: asyncio.Future[SolveResponse] = (
            asyncio.get_running_loop().create_future()
        )
        pending = _Pending(request, future, self.config.clock())
        self._inflight[request.request_id] = future
        self._route(pending)
        self._depth += 1
        depth = self.queue_depth
        self._metric_depth.set(depth)
        self._metric_depth_peak.set_max(depth)
        self.peak_queue_depth = max(self.peak_queue_depth, depth)
        self._event("admitted", request)
        return future

    async def _await_admitted(
        self,
        request: SolveRequest,
        outcome: "SolveResponse | asyncio.Future[SolveResponse]",
    ) -> SolveResponse:
        if isinstance(outcome, SolveResponse):
            return outcome
        try:
            return await asyncio.shield(outcome)
        finally:
            if outcome.done():
                self._inflight.pop(request.request_id, None)

    async def submit(self, request: SolveRequest) -> SolveResponse:
        """Admit one request and await its response.

        Never raises for per-request problems: admission rejections come
        back as ``status="shed"`` responses, solver failures as
        ``status="error"`` ones.  The returned response is the single
        source of truth -- exactly one exists per request id.
        """
        return await self._await_admitted(request, self._admit(request))

    async def submit_batched(
        self, requests: list[SolveRequest]
    ) -> list[SolveResponse]:
        """Admit a block of requests together and await every response.

        The whole block is admitted synchronously -- no scheduling point
        between columns -- so compatible columns are all on their lane's
        backlog when its runner plans them.  Columns of a block-path
        method (``cg``) coalesce into one :func:`repro.solve_batched`
        call (bit-identical to calling it directly, per the differential
        tests); columns of any other method run one by one.  Each column
        still gets its own admission decision: a rate-limited or
        queue-full column sheds individually without poisoning its
        siblings.
        """
        outcomes = [self._admit(request) for request in requests]
        return list(
            await asyncio.gather(
                *(
                    self._await_admitted(request, outcome)
                    for request, outcome in zip(requests, outcomes)
                )
            )
        )

    async def solve(
        self,
        a: Any,
        b: np.ndarray,
        method: str = "cg",
        *,
        tenant: str = "default",
        stop: StoppingCriterion | None = None,
        **options: Any,
    ) -> SolveResponse:
        """Convenience wrapper: build a :class:`SolveRequest` and submit."""
        return await self.submit(
            SolveRequest(
                a=a, b=b, method=method, tenant=tenant, stop=stop,
                options=options,
            )
        )

    def _shed(self, request: SolveRequest, reason: str) -> SolveResponse:
        self.shed += 1
        self._metric_requests["shed"].inc()
        self.metrics.counter(
            "repro_serve_shed_total", "Requests rejected by admission control",
            reason=reason,
        ).inc()
        self._count_tenant("shed", request.tenant)
        self._event("shed", request, detail=reason)
        response = _answer(request, "shed", reason=reason)
        self._record_outcome(request, response)
        if self.recorder is not None and reason not in self._shed_snapshotted:
            # A shed is a capacity event worth a postmortem, but under
            # overload they arrive in bursts: one bundle per distinct
            # reason, not one per rejected request.
            self._shed_snapshotted.add(reason)
            bundle = self.recorder.snapshot(
                f"shed:{reason}", detail=request.request_id
            )
            if self.recorder.directory is not None:
                self.recorder.write(bundle)
        return response

    def _count_tenant(self, status: str, tenant: str) -> None:
        # Lazily-created per-tenant series; the unlabelled-by-tenant
        # repro_serve_requests_total family is kept unchanged for
        # dashboards that predate tenant attribution.
        self.metrics.counter(
            "repro_serve_tenant_requests_total",
            "Requests by tenant and terminal status",
            tenant=tenant, status=status,
        ).inc()

    def _record_outcome(
        self, request: SolveRequest, response: SolveResponse
    ) -> None:
        self.recent.append(
            {
                "request_id": request.request_id,
                "trace_id": response.trace_id,
                "tenant": request.tenant,
                "method": request.method,
                "status": response.status,
                "reason": response.reason,
                "coalesce_width": response.coalesce_width,
                "queue_seconds": response.queue_seconds,
            }
        )

    def _event(self, action: str, request: SolveRequest, detail: str = "") -> None:
        event = ServiceEvent(
            action=action,
            request_id=request.request_id,
            tenant=request.tenant,
            detail=detail,
        )
        # Stamp the request's trace context directly: service events are
        # emitted from the event loop, outside any worker-thread context.
        event.ctx = TraceContext.for_request(request.request_id, request.tenant)
        self.telemetry.emit(event)

    # ------------------------------------------------------------------
    # introspection (the /status wire format)
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Operational snapshot: queue, tenants, recent outcomes, health.

        Everything in the returned dict is JSON-serializable; the HTTP
        front's ``GET /status`` route returns it verbatim.
        """
        tenants: dict[str, Any] = {}
        for tenant in self._admission.tenants:
            bucket = self._admission.bucket(tenant)
            tenants[tenant] = {
                "rate": bucket.rate,
                "burst": bucket.burst,
                "tokens_available": (
                    None if bucket.rate is None else bucket.available()
                ),
            }
        return {
            "draining": self.draining,
            "queue_depth": self.queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "submitted": self.submitted,
            "served": self.served,
            "shed": self.shed,
            "errors": self.errors,
            "deduped": self.deduped,
            "operators": self.operators,
            "tenants": tenants,
            "workers": {
                "configured": self.config.workers,
                "inflight_dispatches": self._inflight_dispatches,
                "peak_inflight_dispatches": self.peak_inflight_dispatches,
                "active_lanes": len(self._lanes),
            },
            "warm_start": self.warmstart.stats(),
            "recent": list(self.recent),
            "postmortems_written": (
                [str(p) for p in self.recorder.written]
                if self.recorder is not None
                else []
            ),
            "health": self.telemetry.health.summary(),
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _lane_key(self, pending: _Pending) -> Any:
        """The FIFO lane a request serializes on.

        Requests against the same operator share a lane (keyed by the
        fingerprint component of the compat key admission already
        computed -- never re-hashed here, where it would stall the event
        loop on large dense operators), so their relative order -- and
        with it the coalescing and bit-identical-to-direct-batched
        guarantees -- is admission order.  Unkeyed requests
        (``key is None``: unfingerprintable operators, single-solve-only
        options, methods without ``x0`` or on the simulated
        communicator) get a private lane object: they can never coalesce
        or warm-start, so there is no order to protect.
        """
        key = pending.key
        if key is None:
            return object()
        return ("op", key[1])

    def _route(self, pending: _Pending) -> None:
        """Append a request to its lane's backlog.

        An idle lane gets a runner, whose first pass takes every request
        the lane gathers before the runner first runs; on a busy lane
        the request rides the next pass.  A lane is busy from here until
        its runner finds the backlog empty.  Either way the request
        stays in :attr:`queue_depth` until its group holds a worker
        slot.
        """
        lane = self._lane_key(pending)
        if lane not in self._lanes:
            self._lanes[lane] = deque()
            runner = asyncio.get_running_loop().create_task(
                self._run_lane(lane)
            )
            self._runners.add(runner)
            runner.add_done_callback(self._runners.discard)
        self._lanes[lane].append(pending)

    async def _run_lane(self, lane: Any) -> None:
        """Solve a lane's backlog, pass by pass, until it is empty.

        Only requests of a method with a block path group; any other
        request plans as a singleton, in its place on the lane.
        """
        from repro.registry import batched_methods

        backlog = self._lanes[lane]
        block_path = frozenset(batched_methods())
        try:
            while backlog:
                work = list(backlog)
                backlog.clear()
                for group in plan_batches(
                    work,
                    key=lambda p: (
                        p.key if p.request.method in block_path else None
                    ),
                    max_width=self.config.max_coalesce_width,
                ):
                    await self._dispatch_group(group)
        finally:
            del self._lanes[lane]

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-serve",
            )
        return self._executor

    async def _dispatch_group(self, group: list[_Pending]) -> None:
        try:
            # One slot per pool thread: a group leaves the queue depth
            # and counts as in flight only once it holds one, never
            # while it waits for a thread.
            async with self._slots:
                self._depth -= len(group)
                self._metric_depth.set(self.queue_depth)
                now = self.config.clock()
                width = len(group)
                self._metric_width.observe(width)
                for pending in group:
                    waited = max(0.0, now - pending.submitted_at)
                    self._metric_wait.observe(waited)
                    self._event(
                        "dispatch", pending.request, detail=f"width={width}"
                    )
                self._inflight_dispatches += 1
                self.peak_inflight_dispatches = max(
                    self.peak_inflight_dispatches, self._inflight_dispatches
                )
                self._metric_dispatch_inflight.set(self._inflight_dispatches)
                self._metric_dispatch_inflight_peak.set_max(
                    self._inflight_dispatches
                )
                try:
                    responses = await asyncio.get_running_loop().run_in_executor(
                        self._pool(), self._solve_group, group
                    )
                finally:
                    self._inflight_dispatches -= 1
                    self._metric_dispatch_inflight.set(self._inflight_dispatches)
            for pending, response in zip(group, responses):
                response.queue_seconds = max(0.0, now - pending.submitted_at)
                self._account_response(pending, response)
        except Exception as exc:  # noqa: BLE001 -- answer, don't leak
            # The solve half never raises (it answers errors in-band);
            # this covers executor-level failures (e.g. a pool shut down
            # mid-flight).  Conservation demands every member still gets
            # exactly one response.
            reason = f"{type(exc).__name__}: {exc}"
            for pending in group:
                if pending.future.done():
                    continue
                response = _answer(
                    pending.request, "error", reason=reason,
                    coalesce_width=len(group),
                )
                self._account_response(pending, response)

    def _account_response(
        self, pending: _Pending, response: SolveResponse
    ) -> None:
        """Terminal accounting for one served/errored request
        (event-loop thread only -- the counters are unsynchronized)."""
        if response.ok:
            self.served += 1
            self._metric_requests["ok"].inc()
        else:
            self.errors += 1
            self._metric_requests["error"].inc()
        self._count_tenant(response.status, pending.request.tenant)
        self._record_outcome(pending.request, response)
        self._event("respond", pending.request, detail=response.status)
        if not pending.future.done():
            pending.future.set_result(response)

    # -- the worker-thread half ----------------------------------------
    def _solve_group(self, group: list[_Pending]) -> list[SolveResponse]:
        """Run one dispatch group to completion (worker-pool thread).

        A raising solve must not take the service down, must not leave
        the telemetry session unbalanced (the JsonlSink tail-loss
        guarantee extends to the service path), and must answer *every*
        member of the group -- the error responses carry the exception.

        Concurrency: each dispatch runs under a *worker view* of the
        session (:meth:`repro.telemetry.Telemetry.worker_view`) -- own
        bracket stack, own tracer -- so concurrent groups cannot
        interleave their solve brackets or span records.  The view's
        balanced record block is merged back into the session tracer
        when the dispatch finishes, preserving PR 9's request-correlated
        span attribution exactly.
        """
        from repro.registry import solve_batched

        session = self.telemetry
        telemetry = session.worker_view()
        tracer = telemetry.tracer
        width = len(group)
        ids = [p.request.request_id for p in group]
        span_name = "request_batch" if width > 1 else "request"
        depth = telemetry.open_solves
        # Request-correlated tracing: every event and span of this group
        # carries the requests' identity.  Member tuples map each request
        # to its column in the coalesced block.
        if width == 1:
            ctx = TraceContext.for_request(ids[0], group[0].request.tenant)
        else:
            ctx = TraceContext.for_batch(
                [
                    (p.request.request_id, p.request.request_id, p.request.tenant, j)
                    for j, p in enumerate(group)
                ]
            )
        telemetry.push_context(ctx)
        if tracer is not None:
            tracer.begin(span_name)
            tracer.annotate(
                trace_id=ctx.trace_id,
                request_ids=",".join(ids),
                width=width,
                tenants=",".join(sorted({p.request.tenant for p in group})),
            )
        finalized = False

        def finalize() -> None:
            # Close the request span, deactivate the context, and merge
            # the worker view's balanced record block into the session
            # tracer.  Runs exactly once, on both the happy and the
            # failure path (the failure path runs it early so the
            # postmortem snapshot sees the merged spans).
            nonlocal finalized
            if finalized:
                return
            finalized = True
            if tracer is not None:
                tracer.end(span_name)
            telemetry.pop_context()
            if tracer is not None:
                session.tracer.absorb(tracer)

        try:
            warm_flags = [False] * width
            if width == 1:
                result, warm_flags[0] = self._solve_single(group[0], telemetry)
                results = [result]
            else:
                first = group[0].request
                options = dict(first.options)
                if first.stop is not None:
                    options.setdefault("stop", first.stop)
                block = np.stack([p.request.b for p in group], axis=1)
                batched = solve_batched(
                    first.a, block, first.method,
                    telemetry=telemetry, **options,
                )
                results = [batched.column(j) for j in range(width)]
                # Converged columns seed the warm-start cache: a later
                # single request repeating any of these right-hand sides
                # starts from the converged answer.  Batched dispatches
                # themselves never *consume* seeds -- injecting x0 would
                # break the bit-identical-to-direct-batched guarantee.
                for pending, result in zip(group, results):
                    if pending.key is not None and result.converged:
                        self.warmstart.store(
                            pending.key, pending.request.b, result.x
                        )
            return [
                _answer(
                    p.request, "ok", result=r, coalesce_width=width,
                    warm_started=w,
                )
                for p, r, w in zip(group, results, warm_flags)
            ]
        except Exception as exc:  # noqa: BLE001 -- answered, not swallowed
            # solve()/solve_batched() already unwound their own bracket;
            # this also covers failures outside the front door (stacking,
            # option validation) and flushes buffered sinks either way.
            telemetry.unwind(depth)
            finalize()
            # The flight recorder dedups per exception object, so a
            # failure the registry already snapshotted is not bundled
            # twice.
            session.notify_failure(exc)
            reason = f"{type(exc).__name__}: {exc}"
            return [
                _answer(p.request, "error", reason=reason, coalesce_width=width)
                for p in group
            ]
        finally:
            finalize()

    def _solve_single(
        self, pending: _Pending, telemetry: Telemetry
    ) -> tuple[CGResult, bool]:
        """One width-1 dispatch, warm-started when the cache allows it.

        Returns ``(result, warm_started)``.  A cache hit seeds ``x0``;
        the warm answer reaches the client only if the solve converged,
        and ``converged`` is the solver's own exit rule (the true
        residual checked against the request's threshold, see
        :meth:`repro.core.results.SolveRun.finish`).  An unconverged
        warm solve drops the seed and re-solves cold, so a poisoned or
        stale cache entry costs time, never correctness.
        """
        from repro.registry import solve

        request = pending.request
        options = dict(request.options)
        if request.stop is not None:
            options.setdefault("stop", request.stop)
        seed = None
        eligible = self.warmstart.enabled and pending.key is not None
        if eligible:
            seed = self.warmstart.lookup(pending.key, request.b)
        if seed is not None:
            depth = telemetry.open_solves
            try:
                warm = solve(
                    request.a, request.b, request.method,
                    telemetry=telemetry, x0=seed, **options,
                )
            except Exception:
                # A seed the solver itself rejects (bad values the cache
                # validation missed) must cost a retry, never turn a
                # servable request into an error response.  Rebalance any
                # bracket the aborted solve left open before going cold.
                telemetry.unwind(depth)
                warm = None
            if warm is not None and warm.converged:
                self._count_warmstart("hit")
                return warm, True
            # The seed earned no trust: drop it, count the rejection,
            # and answer from a cold start.
            self.warmstart.reject(pending.key, request.b)
            self._count_warmstart("rejected")
        elif eligible:
            self._count_warmstart("miss")
        result = solve(
            request.a, request.b, request.method,
            telemetry=telemetry, **options,
        )
        if eligible and result.converged:
            self.warmstart.store(pending.key, request.b, result.x)
            self._count_warmstart("stored")
        return result, False

    def _count_warmstart(self, outcome: str) -> None:
        self.metrics.counter(
            "repro_serve_warmstart_total",
            "Warm-start cache outcomes per eligible dispatch",
            outcome=outcome,
        ).inc()
