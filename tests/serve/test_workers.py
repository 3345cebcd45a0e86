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
  survives every drain-during-dispatch interleaving, pinned with the
  deterministic FakeClock/GatedSleep harness and event-gated worker
  threads rather than wall-clock races.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve import ServiceConfig, SolveRequest, SolverService
from repro.sparse import poisson2d

from tests.serve.helpers import FakeClock, GatedSleep, reached, settle

A = poisson2d(6)
N = A.nrows


def rhs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(N)


def conservation(svc: SolverService) -> bool:
    return svc.submitted == svc.served + svc.shed + svc.errors + svc.deduped


class GatedOperator:
    """Delegate to a Poisson matrix, but let the test gate the matvec.

    ``barrier`` (when given) is waited on by the *first* application --
    two operators sharing a barrier prove their dispatches overlap in
    real time.  ``hold``/``started`` (when given) park every application
    until the test releases them, so a dispatch is provably in flight
    when the test acts.  A distinct ``tag`` gives each instance its own
    content fingerprint and therefore its own dispatch lane.
    """

    def __init__(self, tag, barrier=None, hold=None, started=None):
        self._inner = poisson2d(6)
        self._tag = tag
        self._barrier = barrier
        self._hold = hold
        self._started = started
        self._passed_barrier = False

    @property
    def shape(self):
        return (self._inner.nrows, self._inner.ncols)

    def matvec(self, x):
        if self._started is not None:
            self._started.set()
        if self._barrier is not None and not self._passed_barrier:
            self._passed_barrier = True
            self._barrier.wait(timeout=30)
        if self._hold is not None:
            assert self._hold.wait(timeout=30)
        return self._inner.matvec(x)

    def max_row_degree(self):
        return 5

    def fingerprint(self):
        return ("gated-op", self._tag)


class TestPoolConcurrency:
    def test_distinct_operators_dispatch_concurrently(self):
        # Both operators' first matvec parks on one barrier: the test
        # passes only if the two dispatches run at the same time.  A
        # one-thread pool would deadlock here (the barrier breaks after
        # 30s and surfaces as an error response instead).
        barrier = threading.Barrier(2)
        ops = [GatedOperator(tag, barrier=barrier) for tag in ("a", "b")]
        gate = GatedSleep()

        async def main():
            config = ServiceConfig(
                coalesce_window=10.0, sleep=gate, workers=4
            )
            async with SolverService(config) as svc:
                tasks = [
                    asyncio.create_task(
                        svc.submit(SolveRequest(a=op, b=np.ones(N)))
                    )
                    for op in ops
                ]
                await settle(lambda: gate.windows_open == 1)
                await settle(lambda: svc.queue_depth == 1)
                gate.open_gate()
                responses = await asyncio.gather(*tasks)
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
            config = ServiceConfig(
                coalesce_window=10.0, max_coalesce_width=1, workers=4
            )
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
            config = ServiceConfig(
                coalesce_window=10.0, max_coalesce_width=1, workers=4
            )
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
        gate = GatedSleep()

        async def main():
            config = ServiceConfig(
                max_queue_depth=3, coalesce_window=10.0, sleep=gate,
                workers=workers,
            )
            async with SolverService(config) as svc:
                first = asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(0)))
                )
                await settle(lambda: gate.windows_open == 1)
                gate.open_gate()
                gate.close_gate()
                await reached(started)  # the lane is busy
                tasks = [
                    asyncio.create_task(
                        svc.submit(SolveRequest(a=op, b=rhs(seed)))
                    )
                    for seed in range(1, 8)
                ]
                await settle(lambda: svc.submitted == 8 and svc.shed == 4)
                gate.open_gate()  # the second window routes its three
                await settle(lambda: gate.windows_closed == 2)
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
        # While the lane is held, four requests arrive over two coalesce
        # windows.  They all park on the lane and ride ONE group.
        hold = threading.Event()
        started = threading.Event()
        op = GatedOperator("held", hold=hold, started=started)
        gate = GatedSleep()

        async def main():
            config = ServiceConfig(
                coalesce_window=10.0, sleep=gate, workers=workers
            )
            async with SolverService(config) as svc:
                first = asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=rhs(0)))
                )
                await settle(lambda: gate.windows_open == 1)
                gate.open_gate()
                gate.close_gate()
                await reached(started)
                tasks = []
                for window in (2, 3):
                    for _ in range(2):
                        seed = len(tasks) + 1
                        tasks.append(
                            asyncio.create_task(
                                svc.submit(SolveRequest(a=op, b=rhs(seed)))
                            )
                        )
                        await settle(lambda: gate.windows_open == window)
                    await settle(lambda: svc.queue_depth == len(tasks))
                    gate.open_gate()
                    gate.close_gate()
                    await settle(lambda: gate.windows_closed == window)
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

    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize("kind", ["x0", "operator"])
    def test_requests_waiting_for_a_thread_count_toward_the_bound(
        self, workers, kind, window
    ):
        # Every pool thread is held.  Five requests arrive one by one,
        # each on an idle lane of its own (x0 makes a request
        # uncoalescable; a distinct operator is a fresh lane), so none
        # parks on a backlog.  They still count until they get a
        # thread: three are admitted and two shed.  With a coalesce
        # window (one that passes at once) the request last held in it
        # is exempt, so four are admitted -- one, not one per window.
        hold = threading.Event()
        gate = GatedSleep()
        gate.open_gate()

        def arrival(seed):
            if kind == "x0":
                return SolveRequest(
                    a=A, b=rhs(seed), options={"x0": np.zeros(N)}
                )
            return SolveRequest(a=GatedOperator(f"idle-{seed}"), b=rhs(seed))

        async def main():
            config = ServiceConfig(
                max_queue_depth=3, coalesce_window=10.0 if window else 0.0,
                sleep=gate, workers=workers,
            )
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
        admitted = 4 if window else 3
        assert waiting == 3
        assert [r.status for r in responses] == (
            ["ok"] * admitted + ["shed"] * (5 - admitted)
        )
        assert {r.reason for r in responses[admitted:]} == {"queue_full"}
        assert svc.peak_queue_depth <= 3
        assert conservation(svc)


async def occupy_every_thread(svc, workers, hold):
    """Start one held solve per pool thread, on distinct operators, and
    return their tasks once all of them run."""
    tasks = []
    for j in range(workers):
        op = GatedOperator(f"busy-{j}", hold=hold)
        tasks.append(
            asyncio.create_task(svc.submit(SolveRequest(a=op, b=rhs(j))))
        )
        await settle(
            lambda: svc.status()["workers"]["inflight_dispatches"] == j + 1
        )
    return tasks


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
            config = ServiceConfig(
                coalesce_window=0.0, workers=4, clock=clock
            )
            svc = SolverService(config)
            await svc.start()
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
        gate = GatedSleep()

        async def main():
            config = ServiceConfig(coalesce_window=10.0, sleep=gate, workers=4)
            svc = SolverService(config)
            await svc.start()
            tasks = [
                asyncio.create_task(
                    svc.submit(SolveRequest(a=op, b=np.ones(N)))
                )
                for op in ops
            ]
            await settle(lambda: gate.windows_open == 1)
            await settle(lambda: svc.queue_depth == 2)
            gate.open_gate()
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
