"""Parity of the solve record with the per-iteration event stream.

The metrics sink, the health monitor and the flight recorder read each
solve's :class:`~repro.telemetry.SolveRecord` at ``solve_end`` instead
of one event per iteration.  These tests run real solves on a session
that also streams every event into a :class:`MemorySink`, recompute what
a per-event consumer would have derived from that stream, and require
the record-fed consumers to agree: the same health summary and
transitions, the same iteration, drift and residual metrics, and a
flight-recorder snapshot that holds every residual so far, mid-solve.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro import poisson2d, solve, solve_batched
from repro.faults import FaultPlan, PerturbInjector
from repro.serve import ServiceConfig, SolverService
from repro.telemetry import MemorySink, Telemetry
from repro.trace import FlightRecorder, HealthMonitor, MetricsRegistry, MetricsSink

GRID_METHODS = ["cg", "vr", "pipelined-vr", "adaptive-vr", "batched-cg"]


class _Snapshots:
    """A streaming sink that snapshots the flight recorder mid-solve and
    keeps each snapshot's residual history beside the stream's."""

    def __init__(self, recorder: FlightRecorder, at: tuple[int, ...]) -> None:
        self.recorder = recorder
        self.at = at
        self.seen: list[float] = []
        self.taken: list[tuple[list[float], list[float]]] = []

    def emit(self, event) -> None:
        if event.kind == "solve_start":
            self.seen = []
        elif event.kind == "iteration":
            self.seen.append(event.residual_norm)
            if len(self.seen) in self.at:
                bundle = self.recorder.snapshot("probe")
                self.taken.append((bundle["residual_norms"], list(self.seen)))


def _session():
    memory = MemorySink()
    metrics = MetricsSink(MetricsRegistry())
    recorder = FlightRecorder(ring=64)
    probe = _Snapshots(recorder, at=(1, 5, 20))
    tele = Telemetry(memory, metrics, recorder, probe, health=HealthMonitor())
    return tele, memory, metrics, probe


def _replay_health(events):
    """A fresh monitor's step functions fed the streamed events in order:
    ``(summary payload, transitions)`` of the one solve they describe."""
    monitor = HealthMonitor()
    transitions = []
    for event in events:
        kind = event.kind
        if kind == "solve_start":
            monitor.begin_solve(event.method, event.label, event.n)
        elif kind == "iteration":
            transitions.append(
                monitor.observe_iteration(event.iteration, event.residual_norm)
            )
        elif kind == "drift":
            if event.direct_rr == 0.0 and event.recurred_rr < 0.0:  # a clamp
                transitions.append(
                    monitor.observe_clamp(event.iteration, event.recurred_rr)
                )
            else:
                transitions.append(
                    monitor.observe_drift(
                        event.iteration, event.recurred_rr, event.direct_rr,
                        event.drift,
                    )
                )
        elif kind == "solve_end":
            monitor.end_solve(event)  # carries the result's exit fields
    return monitor, [_key(t) for t in transitions if t is not None]


def _key(health_event):
    return (
        health_event.iteration, health_event.status, health_event.reason,
        health_event.residual_gap, health_event.floor_estimate,
    )


def _same(x: float, y: float, exact: bool) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y if exact else math.isclose(x, y, rel_tol=1e-12)


def _check_metrics(registry, events, *, exact=True):
    """Iteration, drift and residual metrics against the stream.

    ``exact=False`` is for concurrent solves, which book in completion
    order: drift sums then agree up to the order of float additions,
    and the residual gauge holds some solve's last residual.
    """
    by_method: dict[str, dict] = {}
    method = None
    for event in events:
        if event.kind == "solve_start":
            method = event.method
        entry = by_method.setdefault(
            method, {"iterations": 0, "drifts": [], "lasts": []}
        )
        if event.kind == "solve_start":
            entry["lasts"].append(None)
        elif event.kind == "iteration":
            entry["iterations"] += 1
            entry["lasts"][-1] = event.residual_norm
        elif event.kind == "drift":
            entry["drifts"].append(event.drift)
    for method, entry in by_method.items():
        if method is None:
            continue
        iters = registry.counter("repro_iterations_total", method=method)
        assert iters.value == entry["iterations"], method
        latency = registry.histogram("repro_iteration_seconds", method=method)
        assert latency.count == entry["iterations"], method
        lasts = [last for last in entry["lasts"] if last is not None]
        if lasts:
            residual = registry.gauge("repro_residual_norm", method=method).value
            assert residual == lasts[-1] if exact else residual in lasts, method
        drifts = entry["drifts"]
        if drifts:
            hist = registry.histogram("repro_drift", method=method)
            total = 0.0
            peak = 0.0
            for value in drifts:
                total += value
                if value > peak:
                    peak = value
            assert hist.count == len(drifts), method
            assert _same(hist.sum, total, exact), method
            assert registry.gauge("repro_drift_peak", method=method).value == peak


def _run(method, a, b, tele, **options):
    if method == "batched-cg":
        block = np.stack(
            [np.roll(b, j) * (1.0 + 0.1 * j) for j in range(4)], axis=1
        )
        return solve_batched(a, block, "cg", telemetry=tele, **options)
    return solve(a, b, method, telemetry=tele, **options)


def _assert_parity(tele, memory, metrics, probe):
    events = memory.events
    monitor, transitions = _replay_health(events)
    [judged] = list(tele.health.history)
    assert judged.to_payload() == monitor.history[-1].to_payload()
    streamed = [_key(e) for e in events if e.kind == "health"]
    assert streamed == transitions
    # Health transitions ride just before the solve_end they belong to.
    kinds = [e.kind for e in events]
    tail = kinds[kinds.index("health"):] if "health" in kinds else []
    assert all(k in ("health", "solve_end") for k in tail)
    _check_metrics(metrics.registry, events)
    assert probe.taken, "no mid-solve snapshot was taken"
    for recorded, streamed_so_far in probe.taken:
        assert recorded == streamed_so_far


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", [16, 32])
@pytest.mark.parametrize("method", GRID_METHODS)
def test_record_consumers_match_the_stream(method, size, seed):
    a = poisson2d(size)
    b = np.random.default_rng(seed).standard_normal(a.nrows)
    tele, memory, metrics, probe = _session()
    _run(method, a, b, tele)
    _assert_parity(tele, memory, metrics, probe)


def test_record_consumers_match_the_stream_under_faults():
    a = poisson2d(16)
    b = np.random.default_rng(3).standard_normal(a.nrows)
    tele, memory, metrics, probe = _session()
    plan = FaultPlan([PerturbInjector(site="matvec", rate=0.04)], seed=5)
    result = solve(a, b, "vr", faults=plan, recovery="robust", telemetry=tele)
    assert result.extras["faults"]
    assert memory.of_kind("recovery")
    _assert_parity(tele, memory, metrics, probe)


def test_record_consumers_match_the_stream_in_a_concurrent_burst():
    # Four operators, so the four workers solve concurrently; one cg and
    # one vr request each, so every (method, n) names one solve.
    operators = {f"p{size}": poisson2d(size) for size in (10, 12, 14, 16)}
    registry = MetricsRegistry()
    memory = MemorySink()
    tele = Telemetry(memory, MetricsSink(registry), health=HealthMonitor())

    async def main():
        async with SolverService(
            ServiceConfig(workers=4), telemetry=tele, metrics=registry
        ) as svc:
            calls = []
            for j, a in enumerate(operators.values()):
                for i, method in enumerate(("cg", "vr")):
                    rng = np.random.default_rng(2 * j + i)
                    calls.append(svc.solve(a, rng.standard_normal(a.nrows), method))
            return svc, await asyncio.gather(*calls)

    svc, responses = asyncio.run(main())
    assert all(r.ok for r in responses)
    assert svc.peak_inflight_dispatches > 1
    solves: dict[str, list] = {}
    for event in memory.events:
        ctx = getattr(event, "ctx", None)
        if ctx is not None and event.kind != "service":
            solves.setdefault(ctx.trace_id, []).append(event)
    assert len(solves) == 8
    judged = {(s.method, s.n): s.to_payload() for s in tele.health.history}
    assert len(judged) == 8
    for events in solves.values():
        monitor, transitions = _replay_health(events)
        [replayed] = list(monitor.history)
        assert judged[(replayed.method, replayed.n)] == replayed.to_payload()
        assert [_key(e) for e in events if e.kind == "health"] == transitions
    # Solves booked their drift sums in completion order: equal up to
    # the order of float additions.
    _check_metrics(
        registry,
        [e for events in solves.values() for e in events],
        exact=False,
    )
