"""A simulated message-passing communicator.

The machine model (:mod:`repro.machine`) measures *depth*; this layer
measures *communication semantics*: how many synchronizing collectives
per iteration each solver actually issues, which of them block, and how
many words move.  It is an in-process simulation -- all "ranks" live in
one interpreter and execute in lockstep -- but the accounting and the
availability rules are those of a real MPI program (mpi4py's vocabulary:
``allreduce`` ~ ``MPI.Allreduce``, ``iallreduce`` ~ ``MPI.Iallreduce``
with the completion test deferred).

The key rule, mirroring :class:`repro.core.pipeline.LaunchLedger` one
level down: a nonblocking reduction started at iteration ``t`` with
latency ``L`` may not be waited on before iteration ``t + L`` without
*blocking* -- the simulator charges a blocking synchronization if code
reads it early, so solvers that claim latency hiding must demonstrate it
under accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.counters import record_instant
from repro.util.validation import require_nonnegative_int, require_positive_int

__all__ = ["CommStats", "DroppedReductionError", "PendingReduction", "SimComm"]


class DroppedReductionError(RuntimeError):
    """Raised by :meth:`PendingReduction.wait` when the reduction was
    dropped by a fault injector: the result never arrives, and the caller
    must recover (recompute via a blocking collective) or fail loud."""


@dataclass
class CommStats:
    """Communication accounting of one simulated run.

    Attributes
    ----------
    blocking_allreduces:
        Collectives whose result was consumed at the iteration they were
        issued (full latency on the critical path) -- classical CG's two
        per iteration.
    hidden_allreduces:
        Nonblocking collectives whose result was consumed only after
        their declared latency had elapsed (off the critical path).
    forced_waits:
        Nonblocking collectives consumed *early* -- the simulator allows
        it but books the blocking cost; a latency-hiding solver must
        show zero here.
    cancelled_reductions:
        Nonblocking collectives explicitly cancelled without consuming
        their result (in-flight look-ahead discarded at convergence
        exit) -- the only legitimate way a handle may end unconsumed.
    dropped_reductions:
        Nonblocking collectives dropped by a fault injector
        (:class:`repro.faults.CommFaultInjector` in ``drop`` mode):
        their result never arrived.  Booked when the solver observes the
        drop (a ``wait()`` raising :class:`DroppedReductionError`, or a
        ``cancel()`` at exit), so a dropped handle is never silently
        counted as drained.
    halo_exchanges:
        Neighbour exchanges (one per distributed matvec).
    words_reduced / words_exchanged:
        Payload volumes.
    """

    blocking_allreduces: int = 0
    hidden_allreduces: int = 0
    forced_waits: int = 0
    cancelled_reductions: int = 0
    dropped_reductions: int = 0
    halo_exchanges: int = 0
    words_reduced: int = 0
    words_exchanged: int = 0

    def synchronizations_on_critical_path(self) -> int:
        """Blocking collectives plus forced early waits."""
        return self.blocking_allreduces + self.forced_waits


@dataclass
class PendingReduction:
    """Handle for a nonblocking reduction in flight."""

    value: np.ndarray
    issued_at: int
    latency: int
    comm: "SimComm"
    consumed: bool = field(default=False, repr=False)
    dropped: bool = field(default=False, repr=False)

    def wait(self) -> np.ndarray:
        """Consume the result at the communicator's current iteration.

        Books ``hidden`` when the latency has elapsed, ``forced_wait``
        (a real synchronization) when consumed early.  A handle dropped
        by a fault injector raises :class:`DroppedReductionError` --
        the value is gone and pretending otherwise would let a comm
        fault pass silently.
        """
        if self.consumed:
            raise RuntimeError("reduction result already consumed")
        if self.dropped:
            self.consumed = True
            self.comm._retire(self)
            self.comm.stats.dropped_reductions += 1
            self.comm._emit("dropped", int(np.size(self.value)))
            raise DroppedReductionError(
                f"nonblocking reduction issued at iteration {self.issued_at} "
                f"was dropped by a fault injector"
            )
        self.consumed = True
        self.comm._retire(self)
        words = int(np.size(self.value))
        if self.comm.iteration - self.issued_at >= self.latency:
            self.comm.stats.hidden_allreduces += 1
            self.comm._emit("wait_hidden", words)
            self.comm._span("wait_hidden", words, 0)
        else:
            self.comm.stats.forced_waits += 1
            self.comm._emit("wait_forced", words)
            # The stall: how many more iterations of overlap the solver
            # would have needed before this wait came off the clock.
            self.comm._span(
                "wait_forced",
                words,
                self.latency - (self.comm.iteration - self.issued_at),
            )
        return self.value

    def cancel(self) -> None:
        """Discard an in-flight reduction without consuming its result.

        The MPI analogue is ``Request.Cancel``: no synchronization cost
        is booked (unlike a late :meth:`wait`, which would charge a
        ``forced_wait``), but the cancellation is counted so accounting
        stays complete.  This is how a pipelined solver retires the
        look-ahead reductions still in flight when convergence exits the
        loop early -- after which :meth:`SimComm.assert_drained` passes.
        """
        if self.consumed:
            raise RuntimeError("reduction result already consumed")
        self.consumed = True
        self.comm._retire(self)
        if self.dropped:
            # A dropped handle retired at exit is still a drop, not a
            # voluntary cancellation -- keep the two books separate.
            self.comm.stats.dropped_reductions += 1
            self.comm._emit("dropped", int(np.size(self.value)))
        else:
            self.comm.stats.cancelled_reductions += 1
            self.comm._emit("cancel", int(np.size(self.value)))

    @property
    def ready(self) -> bool:
        """Whether the declared latency has elapsed."""
        return self.comm.iteration - self.issued_at >= self.latency


class SimComm:
    """Simulated communicator over ``nranks`` lockstep ranks.

    Reductions take *per-rank partial* arrays (shape ``(nranks, ...)`` or
    a list of scalars/arrays, one per rank) and return the global sum --
    the simulation computes it instantly, the accounting records what a
    real machine would have paid.
    """

    def __init__(
        self,
        nranks: int,
        *,
        reduction_latency: int = 1,
        telemetry=None,
        faults=None,
    ) -> None:
        self.nranks = require_positive_int(nranks, "nranks")
        self.reduction_latency = require_nonnegative_int(
            reduction_latency, "reduction_latency"
        )
        self.iteration = 0
        self.stats = CommStats()
        self.telemetry = telemetry
        # Optional repro.faults.FaultPlan whose comm-site injectors get to
        # corrupt/delay/drop each collective as it is issued.
        self.faults = faults
        self._pending: list[PendingReduction] = []

    def _emit(self, op: str, words: int) -> None:
        """One :class:`~repro.telemetry.ReductionEvent` when attached."""
        if self.telemetry is not None:
            self.telemetry.reduction(op, self.iteration, self.nranks, words)

    def _span(self, op: str, words: int, stall_iterations: int) -> None:
        """One ``allreduce_wait`` span on the solve's tracer, if traced.

        Emitted by the comm layer -- not the solvers -- so every
        distributed method surfaces its synchronization points uniformly,
        and the spans land as direct children of the solve span (the
        iteration grouper then files them by mark time).  The span is
        zero-width in simulated wall time; the attributes carry what a
        real wait would have cost (``stall_iterations`` > 0 only for
        ``wait_forced`` -- a collective consumed before its latency
        elapsed, i.e. a critical-path synchronization).
        """
        record_instant(
            "allreduce_wait", op=op, words=words, stall_iterations=stall_iterations
        )

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def advance_iteration(self) -> None:
        """One solver iteration completed (the latency clock)."""
        self.iteration += 1

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _sum_partials(self, partials) -> np.ndarray:
        arr = np.asarray(partials, dtype=np.float64)
        if arr.shape[0] != self.nranks:
            raise ValueError(
                f"expected one partial per rank ({self.nranks}), got {arr.shape}"
            )
        return arr.sum(axis=0)

    def allreduce(self, partials) -> np.ndarray:
        """Blocking sum-allreduce of per-rank partials."""
        result = self._sum_partials(partials)
        self.stats.blocking_allreduces += 1
        self.stats.words_reduced += int(np.size(result))
        self._emit("allreduce", int(np.size(result)))
        # A blocking collective stalls for its full latency by definition.
        self._span("allreduce", int(np.size(result)), self.reduction_latency)
        if self.faults is not None:
            result = self.faults.on_allreduce(result)
        return result

    def iallreduce(self, partials, *, latency: int | None = None) -> PendingReduction:
        """Nonblocking sum-allreduce; ``wait()`` applies the availability
        rule.  ``latency`` defaults to the communicator's
        ``reduction_latency`` (in solver iterations)."""
        result = self._sum_partials(partials)
        self.stats.words_reduced += int(np.size(result))
        self._emit("iallreduce", int(np.size(result)))
        lat = self.reduction_latency if latency is None else int(latency)
        handle = PendingReduction(
            value=result, issued_at=self.iteration, latency=lat, comm=self
        )
        self._pending.append(handle)
        if self.faults is not None:
            self.faults.on_iallreduce(handle)
        return handle

    def drop(self, handle: PendingReduction) -> None:
        """Mark an in-flight reduction as dropped (fault injection).

        The handle stays on the outstanding list: the *solver* must still
        observe the drop -- ``wait()`` raises, ``cancel()`` books it under
        ``dropped_reductions`` -- so a faulted collective can never be
        mistaken for a drained one.
        """
        if handle.comm is not self:
            raise ValueError("handle belongs to a different communicator")
        handle.dropped = True

    def _retire(self, handle: PendingReduction) -> None:
        """Drop a handle from the outstanding list (wait or cancel)."""
        try:
            self._pending.remove(handle)
        except ValueError:
            pass  # already retired (defensive; wait/cancel guard consumed)

    @property
    def pending_count(self) -> int:
        """Nonblocking reductions issued but neither waited nor cancelled."""
        return len(self._pending)

    def assert_drained(self) -> None:
        """Raise unless every nonblocking reduction was waited or cancelled.

        A :class:`PendingReduction` that is never consumed is a silently
        dropped collective: the words were booked at issue time but no
        completion (hidden, forced, or cancelled) ever appeared, so the
        run's synchronization accounting understates reality -- and on a
        real machine the leaked ``MPI_Request`` is a resource bug.  Every
        distributed solver calls this before returning.

        Handles marked dropped by a fault injector are reported
        separately from plain leaks: a drop the solver never observed is
        a *recovery* bug (the solver should have waited -- and recovered
        from the :class:`DroppedReductionError` -- or cancelled at
        exit), not a bookkeeping one.  Both still raise.
        """
        if self._pending:
            leaked = [h for h in self._pending if not h.dropped]
            dropped = [h for h in self._pending if h.dropped]

            def _fmt(handles: list[PendingReduction]) -> str:
                return ", ".join(
                    f"issued_at={h.issued_at} latency={h.latency} "
                    f"words={int(np.size(h.value))}"
                    for h in handles
                )

            parts = []
            if leaked:
                parts.append(
                    f"{len(leaked)} nonblocking reduction(s) never "
                    f"completed (wait or cancel each handle): {_fmt(leaked)}"
                )
            if dropped:
                parts.append(
                    f"{len(dropped)} reduction(s) dropped by a fault "
                    f"injector and never observed by the solver (wait or "
                    f"cancel each handle to book the drop): {_fmt(dropped)}"
                )
            raise RuntimeError("; ".join(parts))

    def record_halo_exchange(self, words: int) -> None:
        """Book one neighbour exchange of ``words`` vector entries."""
        self.stats.halo_exchanges += 1
        self.stats.words_exchanged += int(words)
        self._emit("halo", int(words))
