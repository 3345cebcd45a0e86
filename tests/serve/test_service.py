"""SolverService behavior under deterministic scheduling.

Every test here drives the service with the primitives from
:mod:`tests.serve.helpers`: requests coalesce because they are admitted
in one event-loop step, a lane stays busy while the test holds its
:class:`GatedOperator`, and token buckets refill when the test advances
the :class:`FakeClock`.  No assertion depends on a wall-clock race.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve import ServiceConfig, SolveRequest, SolverService
from repro.sparse import poisson2d

from tests.serve.helpers import FakeClock, GatedOperator, reached, settle


A = poisson2d(6)  # 36x36: a couple dozen CG iterations, sub-millisecond
N = A.nrows


def rhs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(N)


def request(seed: int, **kwargs) -> SolveRequest:
    return SolveRequest(a=A, b=rhs(seed), **kwargs)


def conservation(svc: SolverService) -> bool:
    return svc.submitted == svc.served + svc.shed + svc.errors + svc.deduped


def held_lane() -> tuple[GatedOperator, threading.Event, threading.Event]:
    """An operator whose solves park until ``hold`` is set; ``started``
    says a solve against it holds a worker thread."""
    hold, started = threading.Event(), threading.Event()
    return GatedOperator("held", hold=hold, started=started), hold, started


class TestBasics:
    def test_single_solve(self):
        async def main():
            async with SolverService() as svc:
                response = await svc.solve(A, rhs(0))
            return svc, response

        svc, response = asyncio.run(main())
        assert response.ok
        assert response.status == "ok"
        assert response.result.converged
        assert response.coalesce_width == 1
        assert response.trace_id == response.request_id
        assert svc.served == 1 and conservation(svc)

    def test_response_matches_direct_solve(self):
        from repro import solve

        async def main():
            async with SolverService() as svc:
                return await svc.solve(A, rhs(1))

        response = asyncio.run(main())
        direct = solve(A, rhs(1), "cg")
        assert np.array_equal(response.result.x, direct.x)
        assert response.result.iterations == direct.iterations

    def test_solver_error_becomes_error_response(self):
        async def main():
            async with SolverService() as svc:
                bad = await svc.solve(A, rhs(2), bogus_option=True)
                good = await svc.solve(A, rhs(3))
            return svc, bad, good

        svc, bad, good = asyncio.run(main())
        assert bad.status == "error"
        assert bad.reason  # the exception rides along, never swallowed
        assert good.ok  # one failed solve does not poison the service
        assert svc.errors == 1 and svc.served == 1 and conservation(svc)

    def test_request_ids_are_unique(self):
        ids = {SolveRequest(a=A, b=rhs(0)).request_id for _ in range(100)}
        assert len(ids) == 100

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            ServiceConfig(max_queue_depth=0)
        with pytest.raises(ValueError, match="max_coalesce_width"):
            ServiceConfig(max_coalesce_width=0)
        # Admission routes straight to the lane, so the window knobs
        # are rejected rather than ignored, and there is nothing to start.
        with pytest.raises(TypeError, match="coalesce_window"):
            ServiceConfig(coalesce_window=0.002)
        with pytest.raises(TypeError, match="sleep"):
            ServiceConfig(sleep=asyncio.sleep)
        assert not hasattr(SolverService, "start")


class TestCoalescing:
    def test_admission_opens_the_lane_in_the_same_step(self):
        # No task stands between admission and the lane: the
        # synchronous admission step itself makes the lane busy.
        async def main():
            async with SolverService() as svc:
                outcome = svc._admit(request(0))
                lanes = svc.status()["workers"]["active_lanes"]
                depth = svc.queue_depth
                response = await outcome
            return svc, lanes, depth, response

        svc, lanes, depth, response = asyncio.run(main())
        assert lanes == 1 and depth == 1
        assert response.ok and response.coalesce_width == 1
        assert conservation(svc)

    def test_window_forms_one_batch(self):
        async def main():
            async with SolverService() as svc:
                # All five are admitted in one event-loop step, so all
                # five are on the lane's backlog before its runner plans.
                responses = await asyncio.gather(
                    *(svc.submit(request(seed)) for seed in range(5))
                )
            return svc, responses

        svc, responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert [r.coalesce_width for r in responses] == [5] * 5
        assert svc.served == 5 and conservation(svc)

    def test_max_width_chunks_batches(self):
        async def main():
            config = ServiceConfig(max_coalesce_width=2)
            async with SolverService(config) as svc:
                return await asyncio.gather(
                    *(svc.submit(request(seed)) for seed in range(5))
                )

        responses = asyncio.run(main())
        assert sorted(r.coalesce_width for r in responses) == [1, 2, 2, 2, 2]

    def test_incompatible_requests_stay_single(self):
        async def main():
            async with SolverService() as svc:
                return await asyncio.gather(
                    svc.submit(request(0)),
                    svc.submit(request(1)),
                    # x0 is single-solve-only: admitted in the same step
                    # but must not join the batch.
                    svc.submit(request(2, options={"x0": np.zeros(N)})),
                )

        responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert [r.coalesce_width for r in responses] == [2, 2, 1]

    def test_width_one_disables_coalescing(self):
        async def main():
            config = ServiceConfig(max_coalesce_width=1)
            async with SolverService(config) as svc:
                responses = await asyncio.gather(
                    *(svc.submit(request(seed)) for seed in range(4))
                )
            return responses

        responses = asyncio.run(main())
        assert [r.coalesce_width for r in responses] == [1] * 4


class TestBackpressure:
    def test_queue_full_sheds_with_reason(self):
        op, hold, started = held_lane()

        async def main():
            config = ServiceConfig(max_queue_depth=2)
            async with SolverService(config) as svc:
                first = asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(0)))
                )
                # The first request's group holds a worker thread: it
                # has left the queue, and its lane is busy.
                await reached(started)
                tasks = [
                    asyncio.create_task(
                        svc.submit(SolveRequest(a=op, b=rhs(seed)))
                    )
                    for seed in range(1, 5)
                ]
                await settle(lambda: svc.shed == 2)
                assert svc.queue_depth == 2  # never exceeds the bound
                hold.set()
                responses = await asyncio.gather(first, *tasks)
            return svc, responses

        svc, responses = asyncio.run(main())
        shed = [r for r in responses if r.shed]
        assert len(shed) == 2
        assert {r.reason for r in shed} == {"queue_full"}
        assert sum(r.ok for r in responses) == 3
        assert svc.peak_queue_depth <= 2
        assert conservation(svc)
        # Zero lost, zero duplicated: exactly one response per request.
        assert len({r.request_id for r in responses}) == len(responses)

    def test_rate_limit_sheds_and_refills(self):
        clock = FakeClock()

        async def main():
            config = ServiceConfig(
                tenant_rate=1.0, tenant_burst=2.0, clock=clock
            )
            async with SolverService(config) as svc:
                r1 = await svc.solve(A, rhs(0), tenant="alice")
                r2 = await svc.solve(A, rhs(1), tenant="alice")
                r3 = await svc.solve(A, rhs(2), tenant="alice")
                # bob has his own bucket; alice's burn never taxes him.
                r4 = await svc.solve(A, rhs(3), tenant="bob")
                clock.advance(1.0)  # 1 req/s refill
                r5 = await svc.solve(A, rhs(4), tenant="alice")
            return svc, (r1, r2, r3, r4, r5)

        svc, (r1, r2, r3, r4, r5) = asyncio.run(main())
        assert r1.ok and r2.ok
        assert r3.shed and r3.reason == "rate_limited"
        assert r4.ok
        assert r5.ok
        assert conservation(svc)


class TestDrainAndDedup:
    def test_drain_answers_admitted_sheds_late(self):
        op, hold, started = held_lane()

        async def main():
            svc = SolverService()
            tasks = [
                asyncio.create_task(svc.submit(SolveRequest(a=op, b=rhs(0))))
            ]
            await reached(started)
            tasks += [
                asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(seed)))
                )
                for seed in (1, 2)
            ]
            await settle(lambda: svc.queue_depth == 2)
            drainer = asyncio.create_task(svc.drain())
            await settle(lambda: svc.draining)
            late = await svc.submit(request(99))
            hold.set()
            responses = await asyncio.gather(*tasks)
            await drainer
            return svc, responses, late

        svc, responses, late = asyncio.run(main())
        assert all(r.ok for r in responses)  # admitted work still answered
        assert late.shed and late.reason == "draining"
        assert conservation(svc)

    def test_drain_is_idempotent(self):
        async def main():
            svc = SolverService()
            await svc.drain()
            await svc.drain()
            return svc

        svc = asyncio.run(main())
        assert svc.draining

    def test_duplicate_inflight_id_is_idempotent(self):
        async def main():
            async with SolverService() as svc:
                req = request(0, request_id="req-dup")
                # Admitted in one step: the second finds the first in
                # flight.
                r1, r2 = await asyncio.gather(svc.submit(req), svc.submit(req))
            return svc, r1, r2

        svc, r1, r2 = asyncio.run(main())
        assert r1.ok and r2.ok
        assert r1 is r2  # both callers ride the one solve
        assert svc.served == 1 and svc.deduped == 1
        assert conservation(svc)

    def test_completed_id_may_be_reused(self):
        async def main():
            async with SolverService() as svc:
                r1 = await svc.submit(request(0, request_id="req-again"))
                r2 = await svc.submit(request(1, request_id="req-again"))
            return svc, r1, r2

        svc, r1, r2 = asyncio.run(main())
        # Idempotency covers *in-flight* duplicates; a completed id is
        # gone from the dedup table and a reuse is a fresh request.
        assert r1.ok and r2.ok
        assert svc.served == 2 and svc.deduped == 0


class TestObservability:
    def test_metrics_and_events(self):
        from repro.telemetry import Telemetry

        op, hold, started = held_lane()
        # An explicit session with a MemorySink: the service's own
        # internally-built session deliberately has none (a long-lived
        # service must not accumulate events unboundedly).
        tele = Telemetry(count_ops=False)

        async def main():
            config = ServiceConfig(max_queue_depth=2)
            async with SolverService(config, telemetry=tele) as svc:
                first = asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(0)))
                )
                await reached(started)
                tasks = [
                    asyncio.create_task(
                        svc.submit(SolveRequest(a=op, b=rhs(seed)))
                    )
                    for seed in range(1, 5)
                ]
                await settle(lambda: svc.shed == 2)
                hold.set()
                await asyncio.gather(first, *tasks)
            return svc

        svc = asyncio.run(main())
        text = svc.metrics.to_prometheus()
        assert 'repro_serve_requests_total{status="ok"} 3' in text
        assert 'repro_serve_shed_total{reason="queue_full"} 2' in text
        assert "repro_serve_queue_depth_peak 2" in text
        assert "repro_serve_coalesce_width" in text
        assert "repro_serve_queue_seconds" in text

        events = tele.events_of("service")
        actions = {e.action for e in events}
        assert {"admitted", "shed", "dispatch", "respond"} <= actions
        shed_events = [e for e in events if e.action == "shed"]
        assert all(e.detail == "queue_full" for e in shed_events)
        # Every service event carries the request's trace identity.
        assert all(e.request_id.startswith("req-") for e in events)

    def test_queue_seconds_uses_injected_clock(self):
        clock = FakeClock()
        op, hold, started = held_lane()

        async def main():
            async with SolverService(ServiceConfig(clock=clock)) as svc:
                first = asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(0)))
                )
                await reached(started)  # the lane is busy
                task = asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(1)))
                )
                await settle(lambda: svc.queue_depth == 1)
                clock.advance(2.5)  # the whole "wait" is fake time
                hold.set()
                response = await task
                await first
            return response

        response = asyncio.run(main())
        assert response.queue_seconds == pytest.approx(2.5)
