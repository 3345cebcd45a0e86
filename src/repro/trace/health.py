"""Online numerical-health monitoring for running solves.

The drift telemetry (PR 3) and the adaptive controller (PR 7) already
*react* to finite-precision trouble; this module *assesses* it
continuously, in the terms the rounding-error literature uses:

* **residual gap** -- the relative gap between the recurred ``(r, r)``
  and the directly computed one, the quantity Cools et al.'s analysis
  bounds per variant;
* **drift trend** -- an exponentially-weighted average of that gap, so
  a monotone build-up (the moment-window failure mode) is visible
  before any single check crosses a threshold;
* **attainable-accuracy floor** -- ``sqrt(max |recurred - direct|)``
  over the solve so far: once the true residual norm approaches this
  floor, further iterations refine the *recurrence*, not the solution,
  and convergence claims below it are not trustworthy;
* **stagnation** -- no meaningful best-residual improvement over a
  window of iterations.

A :class:`HealthMonitor` attaches to a :class:`~repro.telemetry.Telemetry`
session (``Telemetry(health=monitor)``).  The session opens it with each
solve bracket and, at ``solve_end``, hands it the bracket's
:class:`~repro.telemetry.SolveRecord`: :meth:`HealthMonitor.judge` runs
the step functions (:meth:`~HealthMonitor.observe_iteration`,
:meth:`~HealthMonitor.observe_drift`, :meth:`~HealthMonitor.observe_clamp`)
over the record's residuals and checks in the order they happened, and
the session emits the :class:`~repro.telemetry.events.HealthEvent`
transitions they fire -- each with its own iteration number -- just
before the ``solve_end`` event.  Sinks (JSONL, metrics gauges, the
flight recorder) therefore see the same transitions a per-iteration
feed would produce, at a per-solve cost.  It observes only: the
residual checks it reads are the ones a recovery policy, vr's default
drift replacement or an adaptive controller already runs, so a solve
under a monitor does exactly the arithmetic of a bare solve.

Per-solve summaries are kept in a bounded history ring; the serve layer
surfaces them through ``/healthz?detail=1`` and ``/status``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.telemetry.events import HealthEvent

__all__ = ["HealthMonitor", "HealthSummary"]

#: Ordering for status escalation: transitions only ever emit when the
#: assessment actually changes rank or a new reason fires at the same
#: rank.
_STATUS_RANK = {"ok": 0, "watch": 1, "critical": 2}


@dataclass(slots=True)
class HealthSummary:
    """Digest of one solve's numerical health, kept in the history ring."""

    method: str = ""
    label: str = ""
    n: int = 0
    iterations: int = 0
    status: str = "ok"
    reason: str = ""
    last_gap: float = 0.0
    peak_gap: float = 0.0
    drift_trend: float = 0.0
    floor_estimate: float = 0.0
    checks: int = 0
    clamps: int = 0
    converged: bool | None = None
    stop_reason: str = ""
    final_residual: float = 0.0

    def to_payload(self) -> dict[str, Any]:
        """Flat JSON-serializable dict (the ``/status`` wire format)."""
        return {
            "method": self.method,
            "label": self.label,
            "n": self.n,
            "iterations": self.iterations,
            "status": self.status,
            "reason": self.reason,
            "last_gap": self.last_gap,
            "peak_gap": self.peak_gap,
            "drift_trend": self.drift_trend,
            "floor_estimate": self.floor_estimate,
            "checks": self.checks,
            "clamps": self.clamps,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "final_residual": self.final_residual,
        }


class _Solve:
    """One in-flight solve: its summary, its estimator state and the step
    functions that advance them (the monitor's ``observe_*`` delegate
    here, and :meth:`HealthMonitor.judge` binds them once per record)."""

    __slots__ = (
        "current", "best_res", "best_iteration", "stagnation_reported_at",
        "max_abs_gap", "gap_watch", "gap_critical", "window", "keep", "decay",
        "blend",
    )

    def __init__(self, monitor: "HealthMonitor", current: HealthSummary) -> None:
        self.current = current
        self.best_res = math.inf
        self.best_iteration = 0
        self.stagnation_reported_at = -1
        self.max_abs_gap = 0.0
        self.gap_watch = monitor.gap_watch
        self.gap_critical = monitor.gap_critical
        self.window = monitor.stagnation_window
        self.keep = 1.0 - monitor.stagnation_rtol
        self.decay = monitor.trend_decay
        self.blend = 1.0 - monitor.trend_decay

    def raise_floor(self, abs_gap: float) -> None:
        """Fold one finite ``|recurred − direct|`` into the floor estimate."""
        if self.max_abs_gap < abs_gap < math.inf:
            self.max_abs_gap = abs_gap
            self.current.floor_estimate = math.sqrt(abs_gap)

    def iteration(self, iteration: int, residual_norm: float) -> HealthEvent | None:
        cur = self.current
        cur.iterations = iteration
        if residual_norm < self.best_res * self.keep:
            self.best_res = residual_norm
            self.best_iteration = iteration
            return None
        if (
            iteration - self.best_iteration >= self.window
            and self.stagnation_reported_at < self.best_iteration
        ):
            self.stagnation_reported_at = iteration
            return self.transition(iteration, "watch", "stagnation", 0.0)
        return None

    def drift(
        self, iteration: int, recurred_rr: float, direct_rr: float, rel_gap: float
    ) -> HealthEvent | None:
        cur = self.current
        cur.checks += 1
        cur.last_gap = rel_gap
        if rel_gap > cur.peak_gap:
            cur.peak_gap = rel_gap
        trend = cur.drift_trend = self.decay * cur.drift_trend + self.blend * rel_gap
        self.raise_floor(abs(recurred_rr - direct_rr))
        if not rel_gap <= self.gap_critical:  # past critical, or not finite
            return self.transition(iteration, "critical", "drift", rel_gap)
        if rel_gap > self.gap_watch:
            return self.transition(iteration, "watch", "drift", rel_gap)
        if trend <= self.gap_watch and cur.status != "ok":
            return self.transition(iteration, "ok", "recovered", rel_gap)
        return None

    def clamp(self, iteration: int, recurred_rr: float) -> HealthEvent | None:
        self.current.clamps += 1
        abs_gap = abs(recurred_rr)
        self.raise_floor(abs_gap)
        return self.transition(iteration, "watch", "clamp", abs_gap)

    def transition(
        self, iteration: int, status: str, reason: str, gap: float
    ) -> HealthEvent | None:
        cur = self.current
        if cur.status == status and cur.reason == reason:
            return None
        if reason != "recovered" and _STATUS_RANK[status] < _STATUS_RANK[cur.status]:
            return None
        cur.status, cur.reason = status, reason
        return HealthEvent(iteration, status, reason, float(gap), cur.floor_estimate)


class _ThreadSolve(threading.local):
    """The solve in flight on this thread (``None`` between solves)."""

    solve: _Solve | None = None


class HealthMonitor:
    """Per-solve numerical-health estimator.

    Parameters
    ----------
    gap_watch, gap_critical:
        Relative residual-gap thresholds for the ``watch`` and
        ``critical`` statuses.  The defaults (1e-6 / 1e-2) bracket the
        region between "finite precision doing its usual thing" and
        "the recurrence has decoupled from the true residual".
        Gaps come from the solve's own drift checks; a solve that runs
        none (plain ``cg`` without a recovery policy) reports only
        stagnation, clamps and its exit.
    stagnation_window:
        Emit a ``watch`` event when the best residual norm has not
        improved by ``stagnation_rtol`` over this many iterations.
    history:
        Number of per-solve :class:`HealthSummary` records retained.
    """

    def __init__(
        self,
        *,
        gap_watch: float = 1e-6,
        gap_critical: float = 1e-2,
        stagnation_window: int = 100,
        stagnation_rtol: float = 1e-2,
        trend_decay: float = 0.8,
        history: int = 64,
    ) -> None:
        self.gap_watch = float(gap_watch)
        self.gap_critical = float(gap_critical)
        self.stagnation_window = int(stagnation_window)
        self.stagnation_rtol = float(stagnation_rtol)
        self.trend_decay = float(trend_decay)
        self.history: deque[HealthSummary] = deque(maxlen=max(1, int(history)))
        # Per-solve estimator state is thread-local: one monitor is
        # shared across the serve layer's worker pool, where several
        # solves run concurrently on different threads.  Each thread
        # tracks its own in-flight solve; the history ring (deque
        # appends are atomic under the GIL) aggregates all of them.
        self._thread = _ThreadSolve()

    # ------------------------------------------------------------------
    # feeding (called by Telemetry)
    # ------------------------------------------------------------------
    def begin_solve(self, method: str, label: str, n: int) -> None:
        """A solve bracket opened: reset the per-solve estimators."""
        self._thread.solve = _Solve(
            self, HealthSummary(method=method, label=label, n=n)
        )

    def judge(self, record: Any) -> list[HealthEvent]:
        """Step through a solve's record in order; return the transitions.

        ``record`` is a :class:`~repro.telemetry.SolveRecord`: each check
        is stepped just before the residual it preceded, so the step
        functions see exactly the sequence a per-iteration feed would
        have delivered, and each transition keeps its iteration number.
        Nothing happens between solves.
        """
        solve = self._thread.solve
        if solve is None:
            return []
        step, drift, clamp = solve.iteration, solve.drift, solve.clamp
        iterations, residuals = record.iterations, record.residuals
        events: list[HealthEvent] = []
        done = 0
        for check, gap in zip(record.checks, record.drifts()):
            position, iteration, recurred_rr, direct_rr = check
            for i in range(done, position):  # the residuals before it
                event = step(iterations[i], residuals[i])
                if event is not None:
                    events.append(event)
            done = position
            if direct_rr is None:
                event = clamp(iteration, recurred_rr)
            else:
                event = drift(iteration, recurred_rr, direct_rr, gap)
            if event is not None:
                events.append(event)
        for i in range(done, len(residuals)):
            event = step(iterations[i], residuals[i])
            if event is not None:
                events.append(event)
        return events

    def observe_iteration(
        self, iteration: int, residual_norm: float
    ) -> HealthEvent | None:
        """One iteration completed; detects stagnation."""
        solve = self._thread.solve
        return None if solve is None else solve.iteration(iteration, residual_norm)

    def observe_drift(
        self, iteration: int, recurred_rr: float, direct_rr: float, rel_gap: float
    ) -> HealthEvent | None:
        """A recurred-vs-direct check (a ``Telemetry.drift`` call)."""
        solve = self._thread.solve
        if solve is None:
            return None
        return solve.drift(iteration, recurred_rr, direct_rr, rel_gap)

    def observe_clamp(self, iteration: int, recurred_rr: float) -> HealthEvent | None:
        """The recurred ``(r, r)`` went negative and was clamped."""
        solve = self._thread.solve
        return None if solve is None else solve.clamp(iteration, recurred_rr)

    def end_solve(self, result: Any) -> HealthSummary | None:
        """A solve bracket closed; archive and return its summary."""
        cur = self.current
        if cur is None:
            return None
        cur.converged = bool(result.converged)
        cur.stop_reason = str(getattr(result.stop_reason, "value", result.stop_reason))
        cur.iterations = int(result.iterations)
        cur.final_residual = float(result.true_residual_norm)
        if not cur.converged and _STATUS_RANK[cur.status] == 0:
            cur.status, cur.reason = "watch", cur.stop_reason
        self.history.append(cur)
        self._thread.solve = None
        return cur

    def abandon_solve(self, reason: str = "exception") -> HealthSummary | None:
        """The solve died mid-flight: archive what was observed."""
        cur = self.current
        if cur is None:
            return None
        cur.status, cur.reason = "critical", reason
        cur.stop_reason = reason
        self.history.append(cur)
        self._thread.solve = None
        return cur

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def current(self) -> HealthSummary | None:
        """The in-flight solve's summary (``None`` between solves)."""
        solve = self._thread.solve
        return None if solve is None else solve.current

    @property
    def status(self) -> str:
        """Current assessment: the in-flight solve's, else the last one's."""
        cur = self.current
        if cur is not None:
            return cur.status
        if self.history:
            return self.history[-1].status
        return "ok"

    def summary(self) -> dict[str, Any]:
        """Aggregate view for ``/healthz?detail=1`` and ``/status``."""
        recent = list(self.history)
        worst = "ok"
        for item in recent:
            if _STATUS_RANK[item.status] > _STATUS_RANK[worst]:
                worst = item.status
        return {
            "status": self.status,
            "worst_recent": worst,
            "solves": len(recent),
            "recent": [item.to_payload() for item in recent[-8:]],
        }
