"""Metrics registry (counters/gauges/histograms) and the telemetry sink.

The telemetry event stream (:mod:`repro.telemetry`) is a *log*: good for
replaying one solve, awkward for watching a fleet of them.  The
:class:`MetricsRegistry` is the aggregate view -- monotonic counters,
last-value gauges, and bucketed histograms keyed by metric name plus
label set -- with two export formats:

* :meth:`MetricsRegistry.to_prometheus` -- the Prometheus text
  exposition format (version 0.0.4), so a long-running experiment
  harness can be scraped or its output diffed;
* :meth:`MetricsRegistry.to_json` -- a nested snapshot for programmatic
  consumption (the CLI's ``--metrics out.prom`` writes the former,
  ``repro profile`` can emit either).

:class:`MetricsSink` adapts the registry to the sink protocol: attach it
to a :class:`~repro.telemetry.Telemetry` session and every solve feeds
the registry -- iteration counts and latencies, drift magnitudes,
fault/recovery counts, reduction traffic -- with per-event cost low
enough to stay inside the instrumentation overhead budget
(``benchmarks/bench_trace_overhead.py`` prices it).
"""

from __future__ import annotations

import bisect
import json
import math
import threading
import time
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets: exponential from 1 microsecond to ~10 s,
#: wide enough for iteration latencies and dimensionless drift ratios.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * (10.0 ** (i / 2.0)) for i in range(15)
)


def _labelkey(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value.

    Mutation is lock-guarded: the serve layer's worker pool increments
    shared instruments from several threads at once, and an unguarded
    read-modify-write would drop increments under that interleaving.
    """

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-observed value (may go up or down)."""

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (peak-drift style gauges)."""
        with self._lock:
            if value > self.value:
                self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram in the Prometheus style.

    ``observe`` updates three fields that must stay mutually consistent
    (bucket count, sum, count); the lock keeps concurrent worker-thread
    observations from tearing them, and :meth:`cumulative` snapshots
    under the same lock so exports never see a half-applied observation.
    """

    __slots__ = ("labels", "buckets", "counts", "sum", "count", "_lock")

    def __init__(
        self, labels: dict[str, str], buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # trailing +Inf bucket
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.counts[bisect.bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        return self.snapshot()[2]

    def snapshot(self) -> tuple[float, int, list[tuple[float, int]]]:
        """``(sum, count, cumulative)`` read atomically, so an export
        never pairs a bucket table with a sum/count it disagrees with."""
        out: list[tuple[float, int]] = []
        running = 0
        with self._lock:
            for le, c in zip(self.buckets, self.counts):
                running += c
                out.append((le, running))
            out.append((math.inf, self.count))
            return self.sum, self.count, out


class _Family:
    """All instruments sharing one metric name."""

    __slots__ = ("name", "kind", "help", "instruments", "buckets")

    def __init__(
        self, name: str, kind: str, help: str, buckets: tuple[float, ...] | None
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.instruments: dict[tuple[tuple[str, str], ...], Any] = {}


_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


class MetricsRegistry:
    """Named counters, gauges, and histograms with label sets.

    Instruments are get-or-create: ``registry.counter("repro_faults_total",
    site="dot")`` returns the same :class:`Counter` on every call with the
    same name and labels, so emitters need no caching of their own (though
    :class:`MetricsSink` caches anyway for hot-path economy).  Registering
    the same name with a different instrument type raises.

    Get-or-create and export are lock-guarded: the serve layer's worker
    pool lazily creates labelled series from several threads at once, and
    an unguarded race there could hand two threads *different* instrument
    objects for the same series -- one of which would silently drop every
    update made through it.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: tuple[float, ...] | None = None,
    ) -> _Family:
        # Caller holds self._lock.  A name is checked once, when its
        # family is created; later lookups are one dict hit.
        family = self._families.get(name)
        if family is None:
            if not name or any(ch not in _NAME_OK for ch in name):
                raise ValueError(f"invalid metric name: {name!r}")
            family = _Family(name, kind, help, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """Get or create a counter."""
        with self._lock:
            family = self._family(name, "counter", help)
            key = _labelkey(labels)
            inst = family.instruments.get(key)
            if inst is None:
                inst = family.instruments[key] = Counter(dict(labels))
            return inst

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """Get or create a gauge."""
        with self._lock:
            family = self._family(name, "gauge", help)
            key = _labelkey(labels)
            inst = family.instruments.get(key)
            if inst is None:
                inst = family.instruments[key] = Gauge(dict(labels))
            return inst

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        """Get or create a histogram (buckets fixed at first creation)."""
        with self._lock:
            family = self._family(name, "histogram", help, buckets)
            key = _labelkey(labels)
            inst = family.instruments.get(key)
            if inst is None:
                inst = family.instruments[key] = Histogram(
                    dict(labels), family.buckets or DEFAULT_BUCKETS
                )
            return inst

    # -- export --------------------------------------------------------
    def _snapshot(self) -> list[tuple[_Family, list[tuple[Any, Any]]]]:
        """Family/instrument listing frozen under the lock, so exports
        never iterate a dict a worker thread is concurrently growing."""
        with self._lock:
            return [
                (
                    self._families[name],
                    [
                        (key, self._families[name].instruments[key])
                        for key in sorted(self._families[name].instruments)
                    ],
                )
                for name in sorted(self._families)
            ]

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for family, instruments in self._snapshot():
            name = family.name
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, inst in instruments:
                labels = dict(key)
                if family.kind == "histogram":
                    total, count, cumulative = inst.snapshot()
                    for le, cum in cumulative:
                        le_str = "+Inf" if math.isinf(le) else _fmt(le)
                        lines.append(
                            f"{name}_bucket{_labelstr(labels, le=le_str)} {cum}"
                        )
                    lines.append(f"{name}_sum{_labelstr(labels)} {_fmt(total)}")
                    lines.append(f"{name}_count{_labelstr(labels)} {count}")
                else:
                    lines.append(f"{name}{_labelstr(labels)} {_fmt(inst.value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def to_json(self) -> dict[str, Any]:
        """Nested JSON-serializable snapshot of every instrument."""
        out: dict[str, Any] = {}
        for family, instruments in self._snapshot():
            name = family.name
            series = []
            for key, inst in instruments:
                entry: dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    total, count, cumulative = inst.snapshot()
                    entry["sum"] = total
                    entry["count"] = count
                    entry["buckets"] = [
                        {"le": ("+Inf" if math.isinf(le) else le), "count": cum}
                        for le, cum in cumulative
                    ]
                else:
                    entry["value"] = inst.value
                series.append(entry)
            out[name] = {"type": family.kind, "help": family.help, "series": series}
        return out

    def dumps(self, indent: int | None = 2) -> str:
        """:meth:`to_json` as a JSON string."""
        return json.dumps(self.to_json(), indent=indent)


def _fmt(value: float) -> str:
    # Non-finite values must use the 0.0.4 spellings (+Inf/-Inf/NaN) --
    # Python's repr ("inf"/"nan") is not valid exposition text, and
    # drift gauges can legitimately hold either.
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labelstr(labels: dict[str, str], **extra: str) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in merged.items())
    return "{" + body + "}"


class _SolveState:
    """One thread's in-flight solve: its method label, the time of its
    last iteration event, and the cached instruments its iterations feed."""

    __slots__ = ("method", "last_ts", "iters", "latency", "residual")

    def __init__(self, registry: MetricsRegistry, method: str, last_ts: float) -> None:
        self.method = method
        self.last_ts = last_ts
        self.iters = registry.counter(
            "repro_iterations_total", "Solver iterations completed", method=method
        )
        self.latency = registry.histogram(
            "repro_iteration_seconds", "Wall time between iteration events",
            method=method,
        )
        self.residual = registry.gauge(
            "repro_residual_norm", "Last reported residual norm", method=method
        )


class _ThreadSolves(threading.local):
    """Per-thread :class:`_SolveState`, ``method="unknown"`` until a
    solve starts on the thread."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.solve = _SolveState(registry, "unknown", 0.0)


class MetricsSink:
    """Telemetry sink deriving registry metrics from the event stream.

    Metric families fed (all labelled with the registry ``method`` of the
    enclosing solve, plus event-specific labels):

    ==============================  =========  ==============================
    metric                          type       source
    ==============================  =========  ==============================
    repro_solves_total              counter    solve_end (label: converged)
    repro_iterations_total          counter    iteration
    repro_iteration_seconds         histogram  inter-iteration wall time
    repro_residual_norm             gauge      iteration
    repro_drift                     histogram  drift events
    repro_drift_peak                gauge      running max drift per method
    repro_faults_total              counter    fault events (label: site)
    repro_recoveries_total          counter    recovery events (label: action)
    repro_reductions_total          counter    reduction events (label: op)
    repro_reduction_words_total     counter    reduction payload words
    repro_solve_seconds             gauge      solve_end
    repro_solve_iterations          gauge      solve_end
    repro_flops_total               counter    counters event
    repro_health_status             gauge      health events (0/1/2)
    repro_health_residual_gap       gauge      health events
    repro_health_floor              gauge      health events
    ==============================  =========  ==============================

    The per-iteration path is kept flat (cached instruments, single
    ``kind`` string compare) because it runs inside the solver hot loop.
    The per-solve state is thread-local: the serve layer's worker pool
    runs concurrent solves through one sink, and each thread's events
    must land under its own solve's method label.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._solves = _ThreadSolves(self.registry)

    def emit(self, event: Any) -> None:
        kind = event.kind
        if kind == "iteration":
            solve = self._solves.solve
            now = time.perf_counter()
            solve.iters.inc()
            solve.latency.observe(now - solve.last_ts)
            solve.last_ts = now
            solve.residual.set(event.residual_norm)
            return
        reg = self.registry
        method = self._solves.solve.method
        if kind == "solve_start":
            self._solves.solve = _SolveState(reg, event.method, time.perf_counter())
        elif kind == "drift":
            reg.histogram(
                "repro_drift", "Recurred vs direct (r,r) relative gap", method=method
            ).observe(event.drift)
            reg.gauge(
                "repro_drift_peak", "Peak observed drift", method=method
            ).set_max(event.drift)
        elif kind == "fault":
            reg.counter(
                "repro_faults_total", "Injected faults that landed",
                method=method, site=event.site,
            ).inc()
        elif kind == "recovery":
            reg.counter(
                "repro_recoveries_total", "Recovery actions taken",
                method=method, action=event.action,
            ).inc()
        elif kind == "reduction":
            reg.counter(
                "repro_reductions_total", "Distributed collectives and halos",
                method=method, op=event.op,
            ).inc()
            reg.counter(
                "repro_reduction_words_total", "Collective payload (vector words)",
                method=method, op=event.op,
            ).inc(event.words)
        elif kind == "counters":
            reg.counter(
                "repro_flops_total", "Floating-point operations booked",
                method=method,
            ).inc(event.counts.total_flops)
        elif kind == "health":
            rank = {"ok": 0.0, "watch": 1.0, "critical": 2.0}.get(event.status, 1.0)
            reg.gauge(
                "repro_health_status",
                "Numerical-health assessment (0=ok, 1=watch, 2=critical)",
                method=method,
            ).set(rank)
            reg.gauge(
                "repro_health_residual_gap",
                "Last recurred-vs-true relative residual gap seen by the monitor",
                method=method,
            ).set(event.residual_gap)
            reg.gauge(
                "repro_health_floor",
                "Attainable-accuracy floor estimate (residual norm)",
                method=method,
            ).set(event.floor_estimate)
        elif kind == "solve_end":
            reg.counter(
                "repro_solves_total", "Completed solves",
                method=method, converged=str(bool(event.converged)).lower(),
            ).inc()
            reg.gauge(
                "repro_solve_seconds", "Wall time of the last solve", method=method
            ).set(event.seconds)
            reg.gauge(
                "repro_solve_iterations", "Iterations of the last solve",
                method=method,
            ).set(event.iterations)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass
