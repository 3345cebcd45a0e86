"""Deterministic scheduling primitives for the serve test harness.

The whole point of :mod:`tests.serve` is that NONE of its concurrency
assertions depend on wall-clock races.  Two injectable fakes make that
possible:

* :class:`FakeClock` -- a manually-advanced monotonic clock, plugged
  into :attr:`repro.serve.ServiceConfig.clock`, driving token-bucket
  refill and queue-latency accounting without sleeping;
* :class:`GatedSleep` -- a fake coalesce-window sleep, plugged into
  :attr:`repro.serve.ServiceConfig.sleep`.  The dispatcher "sleeps" on
  an :class:`asyncio.Event`, so *the window elapsing is an explicit test
  action*: the test enqueues exactly the requests it wants coalesced,
  then opens the gate.

``settle`` yields the event loop until a condition holds (bounded by an
iteration budget, not a timeout), which is how tests wait for "all my
submissions are enqueued" deterministically.  When the condition never
holds, ``settle`` opens every live :class:`GatedSleep` before it raises:
the failing test then unwinds through ``async with SolverService(...)``,
whose drain would otherwise wait forever on a window nobody opens.
A spin budget says nothing about how far a *worker thread* got, so
``reached`` awaits a thread-set :class:`threading.Event` instead.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from typing import Callable

_LIVE_GATES: "weakref.WeakSet[GatedSleep]" = weakref.WeakSet()


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)


class GatedSleep:
    """Coalesce-window sleep that returns only when the test says so.

    Each call parks on the current gate event and records the requested
    duration.  ``open_gate()`` releases every parked window (and any
    window opened afterwards, until ``close_gate()`` arms a fresh gate).
    """

    def __init__(self) -> None:
        self.calls: list[float] = []
        self.windows_closed = 0
        self._gate = asyncio.Event()
        _LIVE_GATES.add(self)

    async def __call__(self, seconds: float) -> None:
        self.calls.append(float(seconds))
        await self._gate.wait()
        # Counted in the same event-loop step in which the dispatcher
        # routes the window's requests, so a test that sees the count
        # also sees them routed.
        self.windows_closed += 1

    def open_gate(self) -> None:
        self._gate.set()

    def close_gate(self) -> None:
        self._gate = asyncio.Event()

    @property
    def windows_open(self) -> int:
        """Number of window sleeps entered so far."""
        return len(self.calls)


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
    for gate in list(_LIVE_GATES):
        gate.open_gate()
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
