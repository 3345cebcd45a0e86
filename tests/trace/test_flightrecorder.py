"""The black-box flight recorder and postmortem replay.

The acceptance path the ISSUE pins: a fault-injected
``UnrecoverableDivergence`` produces a postmortem bundle, and
:func:`repro.trace.replay_bundle` re-runs the solve from the bundle
alone -- fault seeds included -- reproducing the recorded residual
history exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import poisson2d, solve
from repro.core.stopping import StoppingCriterion
from repro.faults import (
    FaultPlan,
    RecoveryPolicy,
    ScalarCorruptor,
    UnrecoverableDivergence,
)
from repro.telemetry import Telemetry
from repro.telemetry.events import IterationEvent
from repro.trace import FlightRecorder, Tracer, load_bundle, replay_bundle
from repro.trace.context import TraceContext

A = poisson2d(6)
B = np.ones(A.nrows)

# The divergence recipe needs enough iterations left after the corruption
# for the detector to call the restart budget exhausted -- the pinned
# problem from tests/test_faults.py, not the tiny capture system above.
FAIL_A = poisson2d(10)
FAIL_B = np.random.default_rng(42).standard_normal(FAIL_A.nrows)


def failing_solve(telemetry) -> BaseException:
    """The pinned divergence recipe (tests/test_faults.py): corrupt a
    recurred moment at iteration 5 with no restarts allowed."""
    with pytest.raises(UnrecoverableDivergence) as info:
        solve(
            FAIL_A, FAIL_B, "vr", k=3,
            stop=StoppingCriterion(rtol=1e-8, max_iter=12),
            faults=FaultPlan([ScalarCorruptor(at_iteration=5, factor=1e12)], seed=0),
            recovery=RecoveryPolicy(max_restarts=0, on_unrecoverable="raise"),
            telemetry=telemetry,
        )
    return info.value


# ---------------------------------------------------------------------------
# ring + capture
# ---------------------------------------------------------------------------
def test_event_ring_is_bounded():
    recorder = FlightRecorder(ring=8)
    tele = Telemetry(recorder)
    tele.solve_start("vr", "vr", 4)
    for i in range(50):
        tele.iteration(i, 1.0 / (i + 1))
        tele.recovery(i, "replace", "drift")
    bundle = recorder.snapshot("manual")
    tail = bundle["telemetry_tail"]
    assert len(tail) == 8
    # The recorder reads the solve record: iterations never enter the
    # ring, the events it still receives (repairs here) fill it...
    assert {event["kind"] for event in tail} == {"recovery"}
    # ...and the per-solve residual history is complete regardless.
    assert len(bundle["residual_norms"]) == 50


def test_snapshot_survives_appends_during_the_walk():
    # The serve layer snapshots sheds on its event loop while worker
    # threads keep emitting solve events into the same ring.  An event
    # that emits while being serialized stands in for that thread.
    recorder = FlightRecorder(ring=8)

    class Chatty(IterationEvent):
        def to_payload(self):
            recorder.emit(IterationEvent(iteration=99, residual_norm=0.5))
            return super().to_payload()

    recorder.emit(Chatty(iteration=0, residual_norm=1.0))
    recorder.emit(IterationEvent(iteration=1, residual_norm=0.9))
    bundle = recorder.snapshot("shed:queue_full")
    assert [e["iteration"] for e in bundle["telemetry_tail"]] == [0, 1]


def test_solve_inputs_are_captured_for_replay():
    recorder = FlightRecorder()
    result = solve(A, B, "cg", telemetry=Telemetry(recorder))
    bundle = recorder.snapshot("manual")
    call = bundle["call"]
    assert call["method"] == "cg"
    assert call["system"]["format"] == "csr"
    assert call["system"]["nrows"] == A.nrows
    assert call["b"] == B.tolist()
    assert bundle["solve"]["method"] == "cg"
    assert len(bundle["residual_norms"]) == result.iterations


def test_oversized_systems_keep_only_the_fingerprint():
    recorder = FlightRecorder(max_capture=4)  # far below poisson2d(6) nnz
    solve(A, B, "cg", telemetry=Telemetry(recorder))
    call = recorder.snapshot("manual")["call"]
    assert "fingerprint" in call["system"]
    assert "data" not in call["system"]
    assert call["b"] is None  # n=36 > 4


def test_option_sanitization_round_trips_and_drops_honestly():
    recorder = FlightRecorder()
    options = {
        "k": 3,
        "stop": StoppingCriterion(rtol=1e-8, max_iter=12),
        "faults": FaultPlan([ScalarCorruptor(at_iteration=5, factor=1e12)], seed=7),
        "recovery": RecoveryPolicy(max_restarts=0, on_unrecoverable="raise"),
        "x0": np.zeros(4),
        "telemetry": object(),          # never serialized
        "on_state": lambda s: None,     # unserializable -> dropped, named
    }
    out = recorder._sanitize_options(options)
    assert out["k"] == 3
    assert out["stop"] == {"rtol": 1e-8, "atol": 0.0, "max_iter": 12}
    assert out["faults"]["seed"] == 7
    assert out["faults"]["injectors"][0]["at_iteration"] == 5
    assert out["recovery"]["on_unrecoverable"] == "raise"
    assert out["x0"] == [0.0, 0.0, 0.0, 0.0]
    assert "telemetry" not in out
    assert out["_unserialized"] == ["on_state"]
    json.dumps(out)  # the whole thing is JSON-clean


# ---------------------------------------------------------------------------
# failure snapshots
# ---------------------------------------------------------------------------
def test_failure_snapshot_is_deduped_per_exception(tmp_path):
    recorder = FlightRecorder(directory=tmp_path)
    exc = ValueError("boom")
    recorder.on_solve_failure(exc)
    recorder.on_solve_failure(exc)  # serve layer re-notifies the same exc
    assert recorder.snapshots == 1
    assert len(recorder.written) == 1
    recorder.on_solve_failure(ValueError("different"))
    assert recorder.snapshots == 2


def test_registry_failure_writes_a_bundle_automatically(tmp_path):
    recorder = FlightRecorder(directory=tmp_path)
    failing_solve(Telemetry(recorder))
    [path] = recorder.written
    assert path.name.startswith("postmortem-exception-unrecoverabledivergence")
    bundle = load_bundle(path)
    assert bundle["reason"] == "exception:UnrecoverableDivergence"
    assert bundle["faults"], "the injected fault is in the log"
    assert bundle["call"]["options"]["faults"]["seed"] == 0
    # No half-written temp files survive the atomic write.
    assert list(tmp_path.glob("*.tmp*")) == []


def test_snapshot_records_spans_and_active_context():
    tracer = Tracer()
    recorder = FlightRecorder()
    tele = Telemetry(recorder, tracer=tracer)
    with tele.context(TraceContext.for_request("req-77", "alice")):
        solve(A, B, "cg", telemetry=tele)
        bundle = recorder.snapshot("manual")
    assert bundle["context"]["trace_id"] == "req-77"
    [span] = [s for s in bundle["spans"] if s["name"] == "solve"]
    assert span["trace_id"] == "req-77"
    assert span["span_id"] is not None
    iteration_spans = [c for c in span["children"] if c["name"] == "iteration"]
    assert iteration_spans and all(
        c["parent_id"] == span["span_id"] for c in iteration_spans
    )


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
def test_divergence_bundle_replays_to_the_same_history(tmp_path):
    """The acceptance test: failure -> bundle -> replay -> MATCH."""
    recorder = FlightRecorder(directory=tmp_path)
    failing_solve(Telemetry(recorder))
    [path] = recorder.written
    report = replay_bundle(path)
    assert report.error == "UnrecoverableDivergence"  # same death, replayed
    assert report.matched
    assert report.iterations_recorded == report.iterations_replayed > 0
    assert report.max_rel_diff == 0.0
    assert "MATCH" in report.render()


def test_successful_solve_bundle_replays_too():
    recorder = FlightRecorder()
    solve(A, B, "cg", telemetry=Telemetry(recorder))
    report = replay_bundle(recorder.snapshot("manual"))
    assert report.matched and report.error is None


def test_tampered_history_is_a_mismatch():
    recorder = FlightRecorder()
    solve(A, B, "cg", telemetry=Telemetry(recorder))
    bundle = recorder.snapshot("manual")
    bundle["residual_norms"][3] *= 2.0
    report = replay_bundle(bundle)
    assert not report.matched
    assert report.max_rel_diff > 0.1
    assert "MISMATCH" in report.render()


def test_fingerprint_only_bundle_needs_the_operator_back():
    recorder = FlightRecorder(capture_system=False)
    solve(A, B, "cg", telemetry=Telemetry(recorder))
    bundle = recorder.snapshot("manual")
    report = replay_bundle(bundle)
    assert not report.matched and "pass a=" in report.notes
    # capture_system=False also drops b: supplying a= alone cannot help,
    # and the report says which half is missing.
    report = replay_bundle(bundle, a=A)
    assert not report.matched and "right-hand side" in report.notes


def test_empty_bundle_reports_nothing_to_replay():
    report = replay_bundle({"residual_norms": [1.0]})
    assert not report.matched
    assert "nothing to replay" in report.notes


def test_shed_reason_snapshots_have_no_call_but_carry_the_tail():
    recorder = FlightRecorder()
    tele = Telemetry(recorder)
    tele.emit(IterationEvent(0, 1.0, None, None, None))
    bundle = recorder.snapshot("shed:queue_full", detail="req-5")
    assert bundle["reason"] == "shed:queue_full"
    assert bundle["detail"] == "req-5"
    assert bundle["call"] is None
    assert len(bundle["telemetry_tail"]) == 1
