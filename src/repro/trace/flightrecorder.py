"""Black-box flight recorder: bounded event ring + postmortem bundles.

When a solve dies mid-batch (:class:`UnrecoverableDivergence`, a poison
operator, a shed under load) the interesting evidence is everything
that happened *just before*: the recent spans, the telemetry tail, the
adaptive controller's k history, the fault seeds.  The
:class:`FlightRecorder` is a telemetry sink that keeps exactly that, in
a bounded ring so it can stay attached in production, and snapshots it
into a **postmortem bundle** -- a single JSON document containing

* the solve call (method, sanitized options, operator capture or
  fingerprint, right-hand side, fault-plan seeds),
* the telemetry tail (last ``ring`` event payloads, with trace/tenant
  attribution when the serve layer stamped it; the recorder reads the
  solve record, so per-iteration ``iteration``/``drift`` events never
  reach its ring),
* the full residual history (from the solve's
  :class:`~repro.telemetry.SolveRecord`, held by reference, so a
  snapshot taken mid-solve has every residual so far), ``k_history``,
  comm stats and fault log of the failed solve,
* the span forest with ``trace_id``/``span_id``/``parent_id``.

Bundles are written atomically (tmp + ``os.replace``) so a crash during
the write never leaves a half-bundle for tooling to trip on.
:func:`replay_bundle` re-runs the solve from the bundle -- the fault
plan is rebuilt from its seeds via
:func:`repro.faults.plan_from_config`, so the same faults land at the
same iterations -- and diffs the replayed residual history against the
recorded one (``repro replay <bundle>`` on the CLI).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "FlightRecorder",
    "ReplayReport",
    "load_bundle",
    "replay_bundle",
]

BUNDLE_VERSION = 1

#: Reasons worth a snapshot even without an exception (the serve layer
#: passes these explicitly).
_NAME_SAFE = "abcdefghijklmnopqrstuvwxyz0123456789-_"


def _safe(text: str) -> str:
    cleaned = "".join(c if c in _NAME_SAFE else "-" for c in text.lower())
    return cleaned.strip("-") or "snapshot"


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for span attrs and option values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def _span_payload(span: Any) -> dict[str, Any]:
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "attrs": _jsonable(span.attrs),
        "children": [_span_payload(child) for child in span.children],
    }


class _ThreadCapture(threading.local):
    """One thread's solve: its captured call, its ``solve_start`` event,
    its :class:`~repro.telemetry.SolveRecord` and per-solve
    accumulators."""

    def __init__(self) -> None:
        self.call: tuple[Any, Any, str, dict[str, Any]] | None = None
        self.last_failure: BaseException | None = None
        self.reset()

    def reset(self, start: Any = None) -> None:
        self.start = start
        self.record = getattr(start, "record", None)
        self.k_history: list[dict[str, Any]] = []
        self.comm: dict[str, dict[str, int]] = {}
        self.faults: list[dict[str, Any]] = []


class FlightRecorder:
    """Telemetry sink keeping a bounded ring of recent observability.

    Parameters
    ----------
    ring:
        Event-ring capacity (the telemetry tail of a bundle).  256 is
        the production default priced by
        ``benchmarks/bench_trace_overhead.py``.
    directory:
        When set, failure snapshots are written here automatically as
        ``postmortem-*.json``; without it the recorder only keeps the
        bundle in memory (:attr:`last_bundle`).
    capture_system:
        Capture the CSR arrays and right-hand side of each solve call
        (bounded by ``max_capture``) so bundles are replayable.  With
        it off -- or for operators bigger than the bound -- only the
        content fingerprint is kept.
    max_capture:
        Upper bound on captured array sizes (nnz for the operator,
        elements for vectors).
    """

    def __init__(
        self,
        *,
        ring: int = 256,
        directory: str | os.PathLike | None = None,
        capture_system: bool = True,
        max_capture: int = 200_000,
        clock: Any = time.time,
    ) -> None:
        self.ring = int(ring)
        self.directory = Path(directory) if directory is not None else None
        self.capture_system = bool(capture_system)
        self.max_capture = int(max_capture)
        self._clock = clock
        self._events: deque[tuple[float, Any]] = deque(maxlen=self.ring)
        self._session: Any = None
        # Per-solve accumulators are thread-local: the serve layer's
        # worker pool runs concurrent solves through one recorder, and a
        # failure snapshot must capture the *failing thread's* solve, not
        # whichever solve last emitted on another worker.  The event ring
        # stays shared (deque appends are atomic) so the telemetry tail
        # keeps its cross-request production semantics.
        self._solve = _ThreadCapture()
        self.snapshots = 0
        self.last_bundle: dict[str, Any] | None = None
        self.written: list[Path] = []

    # ------------------------------------------------------------------
    # sink protocol (+ session hooks)
    # ------------------------------------------------------------------
    def bind_session(self, session: Any) -> None:
        """Called by :class:`~repro.telemetry.Telemetry` on attachment."""
        self._session = session

    #: The session sends no per-iteration events: the residual history
    #: comes from the solve record, kept by reference from solve_start.
    reads_record = True

    def emit(self, event: Any) -> None:
        self._events.append((self._clock(), event))
        kind = event.kind
        solve = self._solve
        if kind == "adaptive":
            solve.k_history.append(
                {
                    "iteration": event.iteration,
                    "action": event.action,
                    "trigger": event.trigger,
                    "k_old": event.k_old,
                    "k_new": event.k_new,
                }
            )
        elif kind == "reduction":
            stats = solve.comm.setdefault(event.op, {"count": 0, "words": 0})
            stats["count"] += 1
            stats["words"] += event.words
        elif kind == "fault":
            solve.faults.append(
                {
                    "iteration": event.iteration,
                    "site": event.site,
                    "injector": event.injector,
                    "detail": event.detail,
                }
            )
        elif kind == "solve_start":
            solve.reset(event)

    def flush(self) -> None:  # sink protocol; nothing buffered to disk
        pass

    def on_solve_call(self, a: Any, b: Any, method: str, options: dict) -> None:
        """Front-door hook: keep the call's inputs for replay.

        Only references are kept here (every served request passes
        through); :meth:`snapshot` serializes them, which happens only
        on a failure or a shed.
        """
        self._solve.call = (a, b, method, dict(options))

    def on_solve_failure(self, exc: BaseException) -> None:
        """Front-door hook: a solve raised -- snapshot a postmortem.

        Idempotent per exception object: the registry notifies on the
        way out of the solver and the serve layer notifies again from
        its own catch-all, and one failure deserves one bundle.
        """
        if exc is self._solve.last_failure:
            return
        self._solve.last_failure = exc
        bundle = self.snapshot(
            reason=f"exception:{type(exc).__name__}", detail=str(exc)
        )
        if self.directory is not None:
            self.write(bundle)

    # ------------------------------------------------------------------
    # capture helpers
    # ------------------------------------------------------------------
    def _capture_call(self) -> dict[str, Any] | None:
        if self._solve.call is None:
            return None
        a, b, method, options = self._solve.call
        return {
            "method": method,
            "options": self._sanitize_options(options),
            "system": self._capture_system(a),
            "b": self._capture_vector(b),
        }

    def _capture_system(self, a: Any) -> dict[str, Any]:
        from repro.backend import matrix_fingerprint

        fingerprint = matrix_fingerprint(a)
        out: dict[str, Any] = {
            "fingerprint": _jsonable(fingerprint),
            "shape": _jsonable(getattr(a, "shape", None)),
        }
        indptr = getattr(a, "indptr", None)
        if (
            self.capture_system
            and indptr is not None
            and getattr(a, "data", None) is not None
            and a.data.size <= self.max_capture
        ):
            out.update(
                format="csr",
                nrows=int(a.nrows),
                ncols=int(a.ncols),
                indptr=a.indptr.tolist(),
                indices=a.indices.tolist(),
                data=a.data.tolist(),
            )
        return out

    def _capture_vector(self, b: Any) -> Any:
        if not self.capture_system:
            return None
        arr = np.asarray(b)
        if arr.size > self.max_capture:
            return None
        return arr.tolist()

    def _sanitize_options(self, options: dict) -> dict[str, Any]:
        from dataclasses import asdict, is_dataclass

        from repro.core.stopping import StoppingCriterion
        from repro.faults.injectors import FaultInjector, FaultPlan, as_fault_plan
        from repro.faults.recovery import RecoveryPolicy

        out: dict[str, Any] = {}
        dropped: list[str] = []
        for key, value in options.items():
            if key in ("telemetry", "trace"):
                continue
            if value is None or isinstance(value, (bool, int, float, str)):
                out[key] = value
            elif key == "faults" and isinstance(
                value, (FaultPlan, FaultInjector, list, tuple)
            ):
                plan = as_fault_plan(value)
                out[key] = plan.config() if plan is not None else None
            elif key == "recovery" and isinstance(value, RecoveryPolicy):
                out[key] = asdict(value)
            elif key == "stop" and isinstance(value, StoppingCriterion):
                out[key] = {
                    "rtol": value.rtol,
                    "atol": value.atol,
                    "max_iter": value.max_iter,
                }
            elif key == "x0" and isinstance(value, np.ndarray):
                if value.size <= self.max_capture:
                    out[key] = value.tolist()
                else:
                    dropped.append(key)
            elif is_dataclass(value) and not isinstance(value, type):
                try:
                    out[key] = _jsonable(asdict(value))
                except Exception:
                    dropped.append(key)
            else:
                dropped.append(key)
        if dropped:
            out["_unserialized"] = sorted(dropped)
        return out

    # ------------------------------------------------------------------
    # snapshotting
    # ------------------------------------------------------------------
    def snapshot(self, reason: str, detail: str = "") -> dict[str, Any]:
        """Build a postmortem bundle from the current ring contents."""
        solve = self._solve
        start = solve.start
        tail = []
        # Iterate a copy: the service snapshots sheds on the event loop
        # while worker threads keep appending solve events to the ring.
        for ts, event in list(self._events):
            payload = event.to_payload()
            payload["t"] = ts
            tail.append(_jsonable(payload))
        spans: list[dict[str, Any]] = []
        session = self._session
        if session is not None and session.tracer is not None:
            spans = [_span_payload(s) for s in session.tracer.spans()]
        context = None
        if session is not None:
            ctx = session.current_context
            if ctx is not None:
                context = ctx.to_payload()
        bundle: dict[str, Any] = {
            "version": BUNDLE_VERSION,
            "created": self._clock(),
            "reason": reason,
            "detail": detail,
            "context": context,
            "call": self._capture_call(),
            "solve": None if start is None else {
                "method": start.method,
                "label": start.label,
                "n": start.n,
                "options": _jsonable(start.options),
            },
            "residual_norms": (
                [] if solve.record is None else list(solve.record.residuals)
            ),
            "k_history": list(solve.k_history),
            "comm_stats": dict(solve.comm),
            "faults": list(solve.faults),
            "telemetry_tail": tail,
            "spans": spans,
        }
        self.snapshots += 1
        self.last_bundle = bundle
        return bundle

    def write(self, bundle: dict[str, Any], path: str | os.PathLike | None = None) -> Path:
        """Atomically write a bundle to disk; returns the final path."""
        if path is None:
            directory = self.directory or Path(".")
            directory.mkdir(parents=True, exist_ok=True)
            name = (
                f"postmortem-{_safe(bundle.get('reason', 'snapshot'))}"
                f"-{os.getpid()}-{self.snapshots:04d}.json"
            )
            path = directory / name
        path = Path(path)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=1)
        os.replace(tmp, path)
        self.written.append(path)
        return path


def load_bundle(path: str | os.PathLike) -> dict[str, Any]:
    """Read a postmortem bundle back from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class ReplayReport:
    """Outcome of re-running a bundle's solve and diffing histories."""

    matched: bool
    max_rel_diff: float
    iterations_recorded: int
    iterations_replayed: int
    recorded: list[float] = field(default_factory=list)
    replayed: list[float] = field(default_factory=list)
    error: str | None = None
    notes: str = ""

    def render(self) -> str:
        lines = [
            f"replay: {'MATCH' if self.matched else 'MISMATCH'}",
            f"  recorded iterations : {self.iterations_recorded}",
            f"  replayed iterations : {self.iterations_replayed}",
            f"  max relative diff   : {self.max_rel_diff:.3e}",
        ]
        if self.error:
            lines.append(f"  replay outcome      : raised {self.error}")
        if self.notes:
            lines.append(f"  notes               : {self.notes}")
        return "\n".join(lines)


def _rebuild_system(bundle: dict[str, Any]) -> Any:
    call = bundle.get("call") or {}
    system = call.get("system") or {}
    if system.get("format") == "csr":
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix(
            nrows=int(system["nrows"]),
            ncols=int(system["ncols"]),
            indptr=np.asarray(system["indptr"], dtype=np.int64),
            indices=np.asarray(system["indices"], dtype=np.int64),
            data=np.asarray(system["data"], dtype=np.float64),
        )
    return None


def _rebuild_options(options: dict[str, Any]) -> dict[str, Any]:
    from repro.core.stopping import StoppingCriterion
    from repro.faults.injectors import plan_from_config
    from repro.faults.recovery import RecoveryPolicy

    out = dict(options)
    out.pop("_unserialized", None)
    if isinstance(out.get("faults"), dict):
        out["faults"] = plan_from_config(out["faults"])
    if isinstance(out.get("recovery"), dict):
        out["recovery"] = RecoveryPolicy(**out["recovery"])
    if isinstance(out.get("stop"), dict):
        out["stop"] = StoppingCriterion(**out["stop"])
    if isinstance(out.get("x0"), list):
        out["x0"] = np.asarray(out["x0"], dtype=np.float64)
    return out


def replay_bundle(
    bundle: dict[str, Any] | str | os.PathLike,
    *,
    a: Any = None,
    rtol: float = 1e-9,
) -> ReplayReport:
    """Re-run the solve captured in a bundle and diff residual histories.

    ``a`` overrides the operator when the bundle only holds a
    fingerprint (too-large systems are not captured inline).  The
    replay runs under a fresh in-memory telemetry session so the
    residual history is recovered even when the solve raises the same
    exception the original did.
    """
    if not isinstance(bundle, dict):
        bundle = load_bundle(bundle)
    call = bundle.get("call")
    if not call:
        return ReplayReport(
            matched=False,
            max_rel_diff=math.inf,
            iterations_recorded=len(bundle.get("residual_norms", [])),
            iterations_replayed=0,
            error=None,
            notes="bundle has no captured solve call; nothing to replay",
        )
    system = a if a is not None else _rebuild_system(bundle)
    if system is None:
        return ReplayReport(
            matched=False,
            max_rel_diff=math.inf,
            iterations_recorded=len(bundle.get("residual_norms", [])),
            iterations_replayed=0,
            error=None,
            notes=(
                "operator was not captured (fingerprint only); pass a= to "
                "replay against the original system"
            ),
        )
    if call.get("b") is None:
        return ReplayReport(
            matched=False,
            max_rel_diff=math.inf,
            iterations_recorded=len(bundle.get("residual_norms", [])),
            iterations_replayed=0,
            error=None,
            notes="right-hand side was not captured; bundle is not replayable",
        )
    from repro.telemetry import Telemetry
    from repro.telemetry.sinks import MemorySink

    b = np.asarray(call["b"], dtype=np.float64)
    options = _rebuild_options(call.get("options") or {})
    telemetry = Telemetry(MemorySink())
    error: str | None = None
    try:
        if b.ndim == 2:
            from repro.registry import solve_batched

            solve_batched(system, b, call["method"], telemetry=telemetry, **options)
        else:
            from repro.registry import solve

            solve(system, b, call["method"], telemetry=telemetry, **options)
    except Exception as exc:
        error = type(exc).__name__
    replayed = [
        e.residual_norm for e in telemetry.events_of("iteration")
    ]
    recorded = [float(v) for v in bundle.get("residual_norms", [])]
    length = min(len(recorded), len(replayed))
    max_rel = 0.0
    for i in range(length):
        denom = max(abs(recorded[i]), abs(replayed[i]), np.finfo(np.float64).tiny)
        max_rel = max(max_rel, abs(recorded[i] - replayed[i]) / denom)
    if not recorded and not replayed:
        matched = True
    else:
        matched = len(recorded) == len(replayed) and max_rel <= rtol
    return ReplayReport(
        matched=matched,
        max_rel_diff=max_rel if length else (0.0 if matched else math.inf),
        iterations_recorded=len(recorded),
        iterations_replayed=len(replayed),
        recorded=recorded,
        replayed=replayed,
        error=error,
    )
