"""Worker-pool dispatch: concurrency, lane FIFO, drain interleavings.

The fingerprint-keyed pool has four load-bearing promises:

* groups against **distinct** operators genuinely run at the same time
  (proved here with a barrier both dispatches must reach), but never
  more than ``workers`` at once;
* groups against the **same** operator keep strict FIFO order on their
  lane -- the property the coalescing and bit-identical-to-direct
  guarantees stand on;
* requests that arrive while their lane is busy park on its backlog
  and coalesce into the lane's next group, and every request counts
  toward ``max_queue_depth`` until its group gets a thread, at every
  worker count;
* the conservation law ``submitted == served + shed + errors + deduped``
  survives every drain-during-dispatch interleaving, pinned with
  same-step admission, the FakeClock and event-gated worker threads
  rather than wall-clock races.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve import ServiceConfig, SolveRequest, SolverService
from repro.sparse import poisson2d

from tests.serve.helpers import (
    FakeClock,
    GatedOperator,
    occupy_every_thread,
    reached,
    settle,
)

A = poisson2d(6)
N = A.nrows


def rhs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(N)


def conservation(svc: SolverService) -> bool:
    return svc.submitted == svc.served + svc.shed + svc.errors + svc.deduped


class TestPoolConcurrency:
    def test_distinct_operators_dispatch_concurrently(self):
        # Both operators' first matvec parks on one barrier: the test
        # passes only if the two dispatches run at the same time.  A
        # one-thread pool would deadlock here (the barrier breaks after
        # 30s and surfaces as an error response instead).
        barrier = threading.Barrier(2)
        ops = [GatedOperator(tag, barrier=barrier) for tag in ("a", "b")]

        async def main():
            async with SolverService(ServiceConfig(workers=4)) as svc:
                responses = await asyncio.gather(
                    *(svc.submit(SolveRequest(a=op, b=np.ones(N))) for op in ops)
                )
            return svc, responses

        svc, responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert all(r.result.converged for r in responses)
        assert svc.peak_inflight_dispatches == 2
        assert conservation(svc)

    def test_same_operator_lane_stays_fifo(self):
        # Six width-1 groups against ONE operator, workers=4: the lane
        # must serialize them in admission order with zero overlap.
        events: list[tuple[str, str]] = []
        lock = threading.Lock()

        async def main():
            config = ServiceConfig(max_coalesce_width=1, workers=4)
            async with SolverService(config) as svc:
                orig = svc._solve_group

                def recording(group):
                    rid = group[0].request.request_id
                    with lock:
                        events.append(("start", rid))
                    try:
                        return orig(group)
                    finally:
                        with lock:
                            events.append(("end", rid))

                svc._solve_group = recording
                requests = [
                    SolveRequest(a=A, b=rhs(seed), request_id=f"req-fifo-{seed}")
                    for seed in range(6)
                ]
                responses = await svc.submit_batched(requests)
            return svc, responses

        svc, responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert [r.coalesce_width for r in responses] == [1] * 6
        # Strict alternation: every start is immediately followed by its
        # own end -- same-lane dispatches never overlapped.
        assert len(events) == 12
        for i in range(0, 12, 2):
            assert events[i][0] == "start" and events[i + 1][0] == "end"
            assert events[i][1] == events[i + 1][1]
        # And the lane preserved admission order.
        starts = [rid for kind, rid in events if kind == "start"]
        assert starts == [f"req-fifo-{seed}" for seed in range(6)]
        assert svc.peak_inflight_dispatches == 1
        assert conservation(svc)

    def test_mixed_lanes_interleave_but_never_within_a_lane(self):
        # Two operators, three requests each, workers=4.  Cross-lane
        # order is unconstrained; within-lane order is admission order.
        ops = {tag: GatedOperator(tag) for tag in ("a", "b")}
        events: list[str] = []
        lock = threading.Lock()

        async def main():
            config = ServiceConfig(max_coalesce_width=1, workers=4)
            async with SolverService(config) as svc:
                orig = svc._solve_group

                def recording(group):
                    with lock:
                        events.append(group[0].request.request_id)
                    return orig(group)

                svc._solve_group = recording
                requests = [
                    SolveRequest(
                        a=ops[tag], b=rhs(j), request_id=f"req-{tag}-{j}"
                    )
                    for j in range(3)
                    for tag in ("a", "b")
                ]
                responses = await svc.submit_batched(requests)
            return svc, responses

        svc, responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        for tag in ("a", "b"):
            lane = [rid for rid in events if rid.startswith(f"req-{tag}-")]
            assert lane == [f"req-{tag}-{j}" for j in range(3)]
        assert conservation(svc)

    def test_workers_one_keeps_sequential_dispatch(self):
        # workers=1 is a one-thread pool: two lanes, one group at a time.
        # The second lane's group waits for the thread without counting
        # as in flight, and no two solves ever overlap.
        hold = threading.Event()
        started = threading.Event()
        ops = {
            "slow": GatedOperator("slow", hold=hold, started=started),
            "other": GatedOperator("other"),
        }
        events: list[tuple[str, str]] = []
        lock = threading.Lock()

        async def main():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                orig = svc._solve_group

                def recording(group):
                    tag = group[0].request.a._tag
                    with lock:
                        events.append(("start", tag))
                    try:
                        return orig(group)
                    finally:
                        with lock:
                            events.append(("end", tag))

                svc._solve_group = recording
                tasks = [
                    asyncio.create_task(
                        svc.submit(SolveRequest(a=ops["slow"], b=np.ones(N)))
                    )
                ]
                await reached(started)
                tasks.append(
                    asyncio.create_task(
                        svc.submit(SolveRequest(a=ops["other"], b=np.ones(N)))
                    )
                )
                await settle(
                    lambda: svc.status()["workers"]["active_lanes"] == 2
                )
                for _ in range(5):  # let the second lane reach the pool
                    await asyncio.sleep(0)
                assert events == [("start", "slow")]
                assert svc.status()["workers"]["inflight_dispatches"] == 1
                hold.set()
                responses = await asyncio.gather(*tasks)
            return svc, responses

        svc, responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert events == [
            ("start", "slow"), ("end", "slow"),
            ("start", "other"), ("end", "other"),
        ]
        assert svc.peak_inflight_dispatches <= 1
        assert conservation(svc)

    def test_lane_key_reuses_admission_fingerprint(self):
        # The lane must come from the compat key admission already
        # computed -- re-hashing the operator per dispatch group would
        # stall the event loop on large dense operators.
        from repro.serve.service import _Pending

        class CountingOp(GatedOperator):
            def __init__(self, tag):
                super().__init__(tag)
                self.fingerprint_calls = 0

            def fingerprint(self):
                self.fingerprint_calls += 1
                return super().fingerprint()

        op = CountingOp("counted")
        svc = SolverService(ServiceConfig())
        pending = _Pending(SolveRequest(a=op, b=rhs(0)), None, 0.0)
        assert pending.key is not None
        hashed_at_admission = op.fingerprint_calls
        lane = svc._lane_key(pending)
        assert op.fingerprint_calls == hashed_at_admission  # no re-hash
        assert lane == ("op", pending.key[1])
        # Same operator, second request: same lane (FIFO preserved).
        again = _Pending(SolveRequest(a=op, b=rhs(1)), None, 0.0)
        assert svc._lane_key(again) == lane
        # Uncoalescable requests (key=None: single-solve-only options)
        # get a private lane object each -- nothing to serialize.
        single = _Pending(
            SolveRequest(a=op, b=rhs(2), options={"x0": np.zeros(N)}),
            None, 0.0,
        )
        assert single.key is None
        assert svc._lane_key(single) != svc._lane_key(single)

    def test_workers_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError, match="warm_start"):
            ServiceConfig(warm_start=-1)


@pytest.mark.parametrize("workers", [1, 4])
class TestLaneBacklog:
    def test_overload_on_a_busy_lane_sheds_queue_full(self, workers):
        # One operator held mid-solve; seven more arrivals against it.
        # Parked requests count toward the bound, so exactly three are
        # admitted and four shed -- however many workers the pool has.
        hold = threading.Event()
        started = threading.Event()
        op = GatedOperator("held", hold=hold, started=started)

        async def main():
            config = ServiceConfig(max_queue_depth=3, workers=workers)
            async with SolverService(config) as svc:
                first = asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(0)))
                )
                await reached(started)  # the lane is busy
                tasks = [
                    asyncio.create_task(
                        svc.submit(SolveRequest(a=op, b=rhs(seed)))
                    )
                    for seed in range(1, 8)
                ]
                await settle(lambda: svc.submitted == 8 and svc.shed == 4)
                parked = svc.queue_depth
                lanes = svc.status()["workers"]["active_lanes"]
                hold.set()
                responses = await asyncio.gather(first, *tasks)
            return svc, responses, parked, lanes

        svc, responses, parked, lanes = asyncio.run(main())
        shed = [r for r in responses if r.shed]
        assert len(shed) == 4
        assert {r.reason for r in shed} == {"queue_full"}
        assert parked == 3 and lanes == 1  # all three wait behind the lane
        assert svc.peak_queue_depth <= 3
        served = [r for r in responses[1:] if r.ok]
        assert [r.coalesce_width for r in served] == [3, 3, 3]
        assert conservation(svc)

    def test_busy_lane_coalesces_arrivals_across_windows(self, workers):
        # While the lane is held, four requests arrive in two separate
        # waves of two.  They all park on the lane and ride ONE group.
        hold = threading.Event()
        started = threading.Event()
        op = GatedOperator("held", hold=hold, started=started)

        async def main():
            async with SolverService(ServiceConfig(workers=workers)) as svc:
                first = asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(0)))
                )
                await reached(started)
                tasks = []
                for _wave in range(2):
                    for _ in range(2):
                        seed = len(tasks) + 1
                        tasks.append(
                            asyncio.create_task(
                                svc.submit(SolveRequest(a=op, b=rhs(seed)))
                            )
                        )
                    await settle(lambda: svc.queue_depth == len(tasks))
                parked = svc.queue_depth
                hold.set()
                responses = await asyncio.gather(*tasks)
                await first
            return svc, responses, parked

        svc, responses, parked = asyncio.run(main())
        assert parked == 4
        assert all(r.ok for r in responses)
        assert [r.coalesce_width for r in responses] == [4] * 4
        assert conservation(svc)

    @pytest.mark.parametrize("kind", ["x0", "operator"])
    def test_requests_waiting_for_a_thread_count_toward_the_bound(
        self, workers, kind
    ):
        # Every pool thread is held.  Five requests arrive one by one,
        # each on an idle lane of its own (x0 makes a request
        # uncoalescable; a distinct operator is a fresh lane), so none
        # parks on a backlog.  They still count until they get a
        # thread: three are admitted and two shed.
        hold = threading.Event()

        def arrival(seed):
            if kind == "x0":
                return SolveRequest(
                    a=A, b=rhs(seed), options={"x0": np.zeros(N)}
                )
            return SolveRequest(a=GatedOperator(f"idle-{seed}"), b=rhs(seed))

        async def main():
            config = ServiceConfig(max_queue_depth=3, workers=workers)
            async with SolverService(config) as svc:
                busy = await occupy_every_thread(svc, workers, hold)
                tasks = []
                for seed in range(5):
                    tasks.append(asyncio.create_task(svc.submit(arrival(seed))))
                    # Shed here, or routed to a lane of its own.
                    await settle(
                        lambda: svc.shed
                        + svc.status()["workers"]["active_lanes"]
                        == workers + len(tasks)
                    )
                waiting = svc.queue_depth
                hold.set()
                responses = await asyncio.gather(*tasks)
                await asyncio.gather(*busy)
            return svc, responses, waiting

        svc, responses, waiting = asyncio.run(main())
        assert waiting == 3
        assert [r.status for r in responses] == ["ok"] * 3 + ["shed"] * 2
        assert {r.reason for r in responses[3:]} == {"queue_full"}
        assert svc.peak_queue_depth <= 3
        assert conservation(svc)


class TestDrainInterleavings:
    def test_drain_during_inflight_dispatch_conserves(self):
        # The satellite regression: drain() lands while a dispatch is
        # provably executing on a worker thread.  Admitted work must be
        # answered, late work shed as draining, and the ledger must
        # balance -- nothing lost, nothing double-counted.
        hold = threading.Event()
        started = threading.Event()
        slow = GatedOperator("slow", hold=hold, started=started)
        fast = GatedOperator("fast")
        clock = FakeClock()

        async def main():
            svc = SolverService(ServiceConfig(workers=4, clock=clock))
            t_slow = asyncio.create_task(
                svc.submit(SolveRequest(a=slow, b=np.ones(N)))
            )
            t_fast = asyncio.create_task(
                svc.submit(SolveRequest(a=fast, b=np.ones(N)))
            )
            # The slow dispatch is ON a worker thread (its matvec set
            # the event) when the drain begins.
            await reached(started)
            drainer = asyncio.create_task(svc.drain())
            await settle(lambda: svc.draining)
            late = await svc.submit(SolveRequest(a=fast, b=rhs(9)))
            hold.set()
            r_slow, r_fast = await asyncio.gather(t_slow, t_fast)
            await drainer
            return svc, r_slow, r_fast, late

        svc, r_slow, r_fast, late = asyncio.run(main())
        assert r_slow.ok and r_fast.ok
        assert late.shed and late.reason == "draining"
        assert svc.served == 2 and svc.shed == 1
        assert conservation(svc)
        # Drain parked the pool: no serve worker threads survive it.
        assert svc._executor is None
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("repro-serve")
        ]

    def test_drain_waits_for_every_spawned_dispatch(self):
        # Several lanes in flight at drain time; every one must be
        # answered before drain() returns.
        hold = threading.Event()
        ops = [GatedOperator(f"lane-{j}", hold=hold) for j in range(3)]

        async def main():
            svc = SolverService(ServiceConfig(workers=4))
            tasks = [
                asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=np.ones(N)))
                )
                for op in ops
            ]
            await settle(lambda: svc.peak_inflight_dispatches == 3)
            drainer = asyncio.create_task(svc.drain())
            await settle(lambda: svc.draining)
            assert not drainer.done()  # blocked on the in-flight work
            hold.set()
            responses = await asyncio.gather(*tasks)
            await drainer
            return svc, responses

        svc, responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert svc.served == 3
        assert conservation(svc)

    def test_status_reports_pool_and_warmstart_state(self):
        async def main():
            config = ServiceConfig(workers=3, warm_start=8)
            async with SolverService(config) as svc:
                await svc.solve(A, rhs(0))
                return svc, svc.status()

        svc, status = asyncio.run(main())
        workers = status["workers"]
        assert workers["configured"] == 3
        assert workers["inflight_dispatches"] == 0
        assert workers["peak_inflight_dispatches"] >= 1
        warm = status["warm_start"]
        assert warm["capacity"] == 8
        assert warm["stores"] == 1
        text = svc.metrics.to_prometheus()
        assert "repro_serve_workers 3" in text
        assert "repro_serve_dispatch_inflight 0" in text
