"""Deterministic scheduling primitives for the serve test harness.

The whole point of :mod:`tests.serve` is that NONE of its concurrency
assertions depend on wall-clock races.  Admission appends each request
to its operator's lane in the same synchronous step, and an idle lane's
runner first runs after every task step already scheduled.  So "these
requests coalesce" needs no fake: admit them in one event-loop step
(``asyncio.gather`` of ``submit`` calls, or ``submit_batched``) and
they are on the backlog together when the runner plans its first pass.
What else a test needs to control:

* :class:`FakeClock` -- a manually-advanced monotonic clock, plugged
  into :attr:`repro.serve.ServiceConfig.clock`, driving token-bucket
  refill and queue-latency accounting without sleeping;
* :class:`GatedOperator` -- an operator whose matvec the test holds, so
  a lane is provably busy (or a pool thread provably taken) while the
  test acts; :func:`occupy_every_thread` takes the whole pool this way.

``settle`` yields the event loop until a condition holds (bounded by an
iteration budget, not a timeout), which is how tests wait for "all my
submissions are admitted" deterministically.  A spin budget says
nothing about how far a *worker thread* got, so ``reached`` awaits a
thread-set :class:`threading.Event` instead.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable

import numpy as np

from repro.serve import SolveRequest
from repro.sparse import poisson2d


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


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


async def occupy_every_thread(svc, workers, hold):
    """Start one held solve per pool thread, on distinct operators, and
    return their tasks once all of them run."""
    tasks = []
    for j in range(workers):
        op = GatedOperator(f"busy-{j}", hold=hold)
        b = np.random.default_rng(j).standard_normal(op.shape[0])
        tasks.append(asyncio.create_task(svc.submit(SolveRequest(a=op, b=b))))
        await settle(
            lambda: svc.status()["workers"]["inflight_dispatches"] == j + 1
        )
    return tasks


async def settle(condition: Callable[[], bool], *, spins: int = 2000) -> None:
    """Yield the event loop until ``condition()`` holds.

    Bounded by ``spins`` loop iterations rather than wall time -- if the
    condition genuinely cannot become true the test fails fast with an
    assertion instead of hanging.
    """
    for _ in range(spins):
        if condition():
            return
        await asyncio.sleep(0)
    raise AssertionError(
        f"condition did not settle within {spins} event-loop spins"
    )


async def reached(event: threading.Event, *, timeout: float = 30.0) -> None:
    """Await an event a worker thread sets, without blocking the loop.

    The timeout only bounds a test that is already failing; a passing
    test returns as soon as the thread sets the event.
    """
    if not await asyncio.to_thread(event.wait, timeout):
        raise AssertionError("the worker thread never set the event")
