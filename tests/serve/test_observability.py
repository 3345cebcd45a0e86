"""Service-side observability: /status snapshot, postmortems, tenants.

The serve layer's failure story: a solver death inside a dispatch
produces an error *response* (the service stays up), a postmortem
bundle (the flight recorder), and a health downgrade -- all visible
through :meth:`SolverService.status`.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import counting, operator_methods, solve
from repro.core.stopping import StoppingCriterion
from repro.faults import FaultPlan, RecoveryPolicy, ScalarCorruptor
from repro.serve import ServiceConfig, SolveRequest, SolverService
from repro.sparse import poisson2d
from repro.trace import replay_bundle

from tests.serve.helpers import FakeClock

A = poisson2d(6)
N = A.nrows

FAIL_A = poisson2d(10)
FAIL_B = np.random.default_rng(42).standard_normal(FAIL_A.nrows)
FAIL_STOP = StoppingCriterion(rtol=1e-8, max_iter=12)


def fail_options() -> dict:
    # Fresh per call: fault plans are stateful across solves.
    return dict(
        k=3,
        faults=FaultPlan(
            [ScalarCorruptor(at_iteration=5, factor=1e12)], seed=0
        ),
        recovery=RecoveryPolicy(max_restarts=0, on_unrecoverable="raise"),
    )


def rhs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(N)


def test_status_snapshot_is_json_clean_and_counts():
    async def main():
        async with SolverService() as svc:
            await svc.solve(A, rhs(0), tenant="alice")
            await svc.solve(A, rhs(1), tenant="bob")
            return svc.status()

    status = asyncio.run(main())
    json.dumps(status)  # the /status wire format is JSON through and through
    assert status["served"] == 2 and status["submitted"] == 2
    assert status["queue_depth"] == 0
    assert status["draining"] is False  # snapshot taken mid-flight
    recent = status["recent"]
    assert [r["tenant"] for r in recent] == ["alice", "bob"]
    assert all(r["status"] == "ok" for r in recent)
    assert all(r["trace_id"] == r["request_id"] for r in recent)
    assert all(r["coalesce_width"] == 1 for r in recent)
    # Health rode along: two ok solves in the monitor's history.
    assert status["health"]["solves"] == 2
    assert status["health"]["status"] == "ok"


def test_recent_ring_is_bounded():
    async def main():
        config = ServiceConfig(recent_outcomes=3)
        async with SolverService(config) as svc:
            for j in range(5):
                await svc.solve(A, rhs(j))
            return svc.status()

    status = asyncio.run(main())
    assert len(status["recent"]) == 3
    assert status["served"] == 5  # counters still see everything


def test_status_reports_tenant_buckets():
    clock = FakeClock()

    async def main():
        config = ServiceConfig(tenant_rate=2.0, tenant_burst=2.0, clock=clock)
        async with SolverService(config) as svc:
            await svc.solve(A, rhs(0), tenant="alice")
            return svc.status()

    status = asyncio.run(main())
    bucket = status["tenants"]["alice"]
    assert bucket["rate"] == 2.0 and bucket["burst"] == 2.0
    assert bucket["tokens_available"] == 1.0  # one of two tokens spent


def test_unmetered_tenants_report_no_token_count():
    async def main():
        async with SolverService() as svc:
            await svc.solve(A, rhs(0), tenant="alice")
            return svc.status()

    status = asyncio.run(main())
    assert status["tenants"]["alice"]["tokens_available"] is None


def test_per_tenant_counter_family():
    async def main():
        async with SolverService() as svc:
            await svc.solve(A, rhs(0), tenant="alice")
            await svc.solve(A, rhs(1), tenant="alice")
            await svc.solve(A, rhs(2), tenant="bob")
            return svc.metrics.to_prometheus()

    text = asyncio.run(main())
    assert 'repro_serve_tenant_requests_total{status="ok",tenant="alice"} 2' in text
    assert 'repro_serve_tenant_requests_total{status="ok",tenant="bob"} 1' in text
    # The legacy family is untouched -- same series, no tenant label.
    assert 'repro_serve_requests_total{status="ok"} 3' in text


def test_solver_failure_writes_a_replayable_postmortem(tmp_path):
    async def main():
        config = ServiceConfig(postmortem_dir=str(tmp_path))
        async with SolverService(config) as svc:
            response = await svc.submit(
                SolveRequest(
                    a=FAIL_A, b=FAIL_B, method="vr", tenant="alice",
                    stop=FAIL_STOP, options=fail_options(),
                )
            )
            ok = await svc.solve(A, rhs(0))
            return svc, response, ok

    svc, response, ok = asyncio.run(main())
    assert response.status == "error"
    assert "UnrecoverableDivergence" in response.reason
    assert ok.ok  # the service survived the divergence
    [path] = svc.recorder.written
    assert path.parent == tmp_path
    report = replay_bundle(path)
    assert report.matched and report.error == "UnrecoverableDivergence"
    # The bundle shows up in /status, and health flagged the solve.
    status = svc.status()
    assert status["postmortems_written"] == [str(path)]
    assert status["health"]["worst_recent"] == "critical"
    assert status["errors"] == 1
    error_rows = [r for r in status["recent"] if r["status"] == "error"]
    assert [r["tenant"] for r in error_rows] == ["alice"]


def test_env_var_enables_postmortem_writes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))

    async def main():
        async with SolverService() as svc:
            await svc.submit(
                SolveRequest(
                    a=FAIL_A, b=FAIL_B, method="vr",
                    stop=FAIL_STOP, options=fail_options(),
                )
            )
            return svc

    svc = asyncio.run(main())
    [path] = svc.recorder.written
    assert path.parent == tmp_path


def test_sheds_snapshot_once_per_reason(tmp_path):
    async def main():
        config = ServiceConfig(postmortem_dir=str(tmp_path))
        svc = SolverService(config)
        await svc.drain()
        # A burst of draining sheds: one bundle, not one per request.
        for j in range(4):
            response = await svc.solve(A, rhs(j))
            assert response.shed and response.reason == "draining"
        return svc

    svc = asyncio.run(main())
    assert svc.shed == 4
    assert len(svc.recorder.written) == 1
    bundle = json.loads(svc.recorder.written[0].read_text())
    assert bundle["reason"] == "shed:draining"


def test_flight_ring_zero_disables_the_recorder():
    async def main():
        config = ServiceConfig(flight_ring=0)
        async with SolverService(config) as svc:
            await svc.solve(A, rhs(0))
            return svc

    svc = asyncio.run(main())
    assert svc.recorder is None
    assert svc.status()["postmortems_written"] == []


def test_caller_supplied_health_monitor_is_kept():
    from repro.telemetry import Telemetry
    from repro.trace import HealthMonitor

    monitor = HealthMonitor()
    tele = Telemetry(health=monitor)

    async def main():
        async with SolverService(telemetry=tele) as svc:
            await svc.solve(A, rhs(0))
            return svc

    svc = asyncio.run(main())
    assert svc.telemetry.health is monitor  # not replaced
    assert len(monitor.history) == 1


@pytest.mark.parametrize("method", operator_methods())
def test_service_session_does_the_work_of_a_bare_solve(method):
    # The service attaches a health monitor to its session; an observer
    # adds no residual checks, so every method books exactly the
    # operations and iterations of a bare solve.
    a = poisson2d(16)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    session = SolverService(ServiceConfig()).telemetry
    runs = []
    for telemetry in (None, session):
        with counting() as ops:
            result = solve(a, b, method, telemetry=telemetry)
        runs.append((result.iterations, ops))
    assert runs[0] == runs[1]
