"""Tests for :mod:`repro.telemetry` -- events, sinks, session.

Three layers under test:

1. the event schema (``kind`` discriminator first, flat JSON payloads);
2. the sinks (memory, JSON-lines, ascii summary, null);
3. the :class:`Telemetry` session semantics (solve brackets, counter
   scopes, phase timers, iterate capture, live-state callbacks).
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.pipeline import PipelineTrace, pipelined_vr_cg, trace_from_events
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import VRState, vr_conjugate_gradient
from repro.precond import JacobiPrecond
from repro.precond.pcg import pipelined_vr_pcg, preconditioned_cg, vr_pcg
from repro.precond.polynomial import ChebyshevPolyPrecond, polynomial_pcg, vr_poly_pcg
from repro.sparse.generators import poisson2d
from repro.telemetry import (
    AdaptiveEvent,
    AsciiSummarySink,
    CountersEvent,
    DriftEvent,
    IterationEvent,
    JsonlSink,
    MemorySink,
    NullSink,
    PhaseEvent,
    PipelineEvent,
    RecoveryEvent,
    ReductionEvent,
    SolveEndEvent,
    SolveStartEvent,
    Telemetry,
)


@pytest.fixture(scope="module")
def system():
    a = poisson2d(8)
    b = np.ones(a.nrows)
    return a, b


# ----------------------------------------------------------------------
# event schema
# ----------------------------------------------------------------------
def test_payloads_are_flat_json_with_kind_first():
    events = [
        SolveStartEvent(method="vr", label="vr-cg(k=2)", n=64, options={"k": 2}),
        IterationEvent(iteration=3, residual_norm=1e-4, lam=0.5, recurred_rr=1e-8),
        DriftEvent(iteration=3, recurred_rr=1.0, direct_rr=2.0, drift=0.5),
        RecoveryEvent(iteration=4, action="replace", trigger="drift", detail=2e-6),
        PipelineEvent(op="launch", iteration=1, source_iteration=1, count=18),
        ReductionEvent(op="allreduce", iteration=2, nranks=4, words=1),
        PhaseEvent(name="startup", seconds=0.01),
    ]
    for event in events:
        payload = event.to_payload()
        assert list(payload)[0] == "kind"
        assert payload["kind"] == event.kind
        # round-trips through JSON without a custom encoder
        assert json.loads(json.dumps(payload)) == payload


def test_iteration_event_optional_fields_default_none():
    payload = IterationEvent(iteration=1, residual_norm=0.5).to_payload()
    assert payload["lam"] is None
    assert payload["alpha"] is None
    assert payload["recurred_rr"] is None


def test_event_kinds_are_distinct():
    kinds = {
        cls.kind
        for cls in (
            SolveStartEvent,
            IterationEvent,
            DriftEvent,
            AdaptiveEvent,
            RecoveryEvent,
            PipelineEvent,
            ReductionEvent,
            PhaseEvent,
            CountersEvent,
            SolveEndEvent,
        )
    }
    assert len(kinds) == 10


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
def test_memory_sink_stores_and_filters():
    sink = MemorySink()
    sink.emit(IterationEvent(iteration=1, residual_norm=1.0))
    sink.emit(RecoveryEvent(iteration=1, action="replace", trigger="periodic"))
    assert len(sink.events) == 2
    assert [e.kind for e in sink.of_kind("iteration")] == ["iteration"]
    sink.clear()
    assert sink.events == []


def test_null_sink_discards():
    sink = NullSink()
    sink.emit(IterationEvent(iteration=1, residual_norm=1.0))
    sink.close()


def test_jsonl_sink_writes_one_object_per_line():
    buf = io.StringIO()
    sink = JsonlSink(buf)
    sink.emit(IterationEvent(iteration=1, residual_norm=0.25))
    sink.emit(PhaseEvent(name="iterate", seconds=0.5))
    sink.close()  # flushes but must not close a stream it does not own
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "kind": "iteration",
        "iteration": 1,
        "residual_norm": 0.25,
        "lam": None,
        "alpha": None,
        "recurred_rr": None,
    }
    assert json.loads(lines[1])["name"] == "iterate"


def test_jsonl_sink_owns_path(tmp_path):
    path = tmp_path / "run.jsonl"
    sink = JsonlSink(path)
    sink.emit(RecoveryEvent(iteration=7, action="replace", trigger="drift"))
    sink.close()
    [line] = path.read_text().strip().splitlines()
    assert json.loads(line) == {
        "kind": "recovery",
        "iteration": 7,
        "action": "replace",
        "trigger": "drift",
        "detail": 0.0,
    }


def test_ascii_summary_sink_renders_table(system):
    a, b = system
    buf = io.StringIO()
    tele = Telemetry(AsciiSummarySink(buf))
    conjugate_gradient(a, b, telemetry=tele)
    out = buf.getvalue()
    assert "telemetry: cg" in out
    assert "iterations" in out
    assert "matvecs" in out


def test_ascii_summary_sink_reports_drift_and_faults(system):
    """A faulted VR solve shows the peak-drift and fault/recovery rows."""
    from repro import solve
    from repro.faults import FaultPlan, parse_fault_spec

    a, b = system
    buf = io.StringIO()
    solve(
        a,
        b,
        method="vr",
        k=2,
        faults=FaultPlan([parse_fault_spec("scalar@3:factor=1e3")]),
        recovery="robust",
        telemetry=Telemetry(AsciiSummarySink(buf)),
    )
    out = buf.getvalue()
    assert "peak drift" in out
    assert "faults injected" in out
    assert "recovery actions" in out


def test_ascii_summary_sink_reports_reduction_counts(system):
    """A distributed solve shows per-collective and total reduction rows."""
    from repro import solve

    a, b = system
    buf = io.StringIO()
    solve(
        a,
        b,
        method="dist-cg",
        nranks=2,
        telemetry=Telemetry(AsciiSummarySink(buf)),
    )
    out = buf.getvalue()
    assert "collective allreduce" in out
    assert "reduction events (total)" in out


def test_ascii_summary_sink_omits_empty_observability_rows(system):
    """A plain CG solve has no collectives, drift, or faults: the new
    columns must not clutter its table."""
    a, b = system
    buf = io.StringIO()
    tele = Telemetry(AsciiSummarySink(buf))
    conjugate_gradient(a, b, telemetry=tele)
    out = buf.getvalue()
    assert "peak drift" not in out
    assert "faults injected" not in out


# ----------------------------------------------------------------------
# the Telemetry session
# ----------------------------------------------------------------------
def test_default_sink_is_memory_and_brackets_are_ordered(system):
    a, b = system
    tele = Telemetry()
    result = conjugate_gradient(a, b, telemetry=tele)
    kinds = [e.kind for e in tele.events]
    assert kinds[0] == "solve_start"
    assert kinds[-1] == "solve_end"
    assert kinds[-2] == "counters"
    assert kinds.count("iteration") == result.iterations
    end = tele.events_of("solve_end")[0]
    assert end.converged and end.iterations == result.iterations


def test_counters_event_books_the_solve(system):
    a, b = system
    tele = Telemetry()
    result = conjugate_gradient(a, b, telemetry=tele)
    [counters] = tele.events_of("counters")
    assert counters.counts.matvecs >= result.iterations
    assert counters.counts.total_flops > 0


def test_count_ops_can_be_disabled(system):
    a, b = system
    tele = Telemetry(count_ops=False)
    conjugate_gradient(a, b, telemetry=tele)
    assert tele.events_of("counters") == []
    assert len(tele.events_of("solve_end")) == 1


def test_capture_iterates_replaces_record_iterates(system):
    a, b = system
    tele = Telemetry(capture_iterates=True)
    result = conjugate_gradient(a, b, telemetry=tele)
    # initial iterate plus one per iteration, each an independent copy
    assert len(tele.iterates) == result.iterations + 1
    np.testing.assert_allclose(tele.iterates[-1], result.x)
    assert tele.iterates[-1] is not result.x


def test_on_state_replaces_observer(system):
    a, b = system
    states: list[VRState] = []
    tele = Telemetry(on_state=states.append)
    result = vr_conjugate_gradient(a, b, k=2, recovery="periodic", telemetry=tele)
    # the converging iteration breaks out before the end-of-body state hook
    assert len(states) == result.iterations - 1
    assert all(isinstance(s, VRState) for s in states)
    assert states[0].iteration == 1


def test_phase_timer_emits_on_exit():
    tele = Telemetry()
    with tele.phase("startup"):
        pass
    [phase] = tele.events_of("phase")
    assert phase.name == "startup"
    assert phase.seconds >= 0.0


def test_drift_helper_computes_relative_gap():
    tele = Telemetry()
    tele.drift(5, recurred_rr=1.1, direct_rr=1.0)
    [event] = tele.events_of("drift")
    assert event.drift == pytest.approx(0.1)
    # direct_rr underflowed to zero near machine-zero convergence: the
    # gap must stay FINITE (large) -- inf/nan would poison JSON sinks.
    tele.drift(6, recurred_rr=1.0, direct_rr=0.0)
    drift = tele.events_of("drift")[1].drift
    assert np.isfinite(drift) and drift > 1e300


def test_telemetry_context_manager_closes_sinks(tmp_path):
    path = tmp_path / "events.jsonl"
    with Telemetry(JsonlSink(path)) as tele:
        tele.recovery(1, "replace", "periodic")
    assert json.loads(path.read_text())["kind"] == "recovery"


def test_multiple_sinks_receive_every_event():
    mem1, mem2 = MemorySink(), MemorySink()
    tele = Telemetry(mem1, mem2)
    tele.iteration(1, 0.5)
    assert len(mem1.events) == len(mem2.events) == 1
    assert tele.memory is mem1


def test_vr_stream_has_drift_and_replacement_events(system):
    a, b = system
    tele = Telemetry()
    vr_conjugate_gradient(
        a, b, k=2, recovery="drift", telemetry=tele,
        stop=StoppingCriterion(rtol=1e-10),
    )
    assert tele.events_of("drift"), "drift checks should be narrated"
    start = tele.events_of("solve_start")[0]
    assert start.method == "vr"
    assert start.options["k"] == 2


def test_trace_from_events_rebuilds_pipeline_trace(system):
    a, b = system
    tele = Telemetry()
    result = pipelined_vr_cg(a, b, k=2, telemetry=tele)
    assert result.converged
    trace = trace_from_events(2, tele.events)
    assert trace.launches(), "pipelined solve must record launches"
    assert trace.verify_lookahead()


# ----------------------------------------------------------------------
# one spelling per solver input: the pre-telemetry hooks are gone
# ----------------------------------------------------------------------
def _cheb(a):
    return ChebyshevPolyPrecond(a, (0.1, 8.0), degree=3)


@pytest.mark.parametrize(
    "caller, match",
    [
        (lambda a, b: conjugate_gradient(a, b, record_iterates=[]),
         "record_iterates"),
        (lambda a, b: vr_conjugate_gradient(a, b, k=2, record_iterates=[]),
         "record_iterates"),
        (lambda a, b: vr_conjugate_gradient(a, b, k=2, observer=print),
         "observer"),
        (lambda a, b: pipelined_vr_cg(a, b, k=2, trace=PipelineTrace(k=2)),
         "trace"),
        (lambda a, b: preconditioned_cg(a, b, JacobiPrecond(a)), "positional"),
        (lambda a, b: vr_pcg(a, b, JacobiPrecond(a)), "positional"),
        (lambda a, b: pipelined_vr_pcg(a, b, JacobiPrecond(a)), "positional"),
        (lambda a, b: polynomial_pcg(a, b, _cheb(a)), "positional"),
        (lambda a, b: vr_poly_pcg(a, b, _cheb(a)), "positional"),
    ],
    ids=[
        "cg-record_iterates",
        "vr-record_iterates",
        "vr-observer",
        "pipelined-trace",
        "pcg-positional",
        "vr_pcg-positional",
        "pipelined_vr_pcg-positional",
        "polynomial_pcg-positional",
        "vr_poly_pcg-positional",
    ],
)
def test_removed_hook_spelling_is_type_error(system, caller, match):
    a, b = system
    with pytest.raises(TypeError, match=match):
        caller(a, b)


def test_pcg_keyword_precond_does_not_warn(system):
    a, b = system
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = preconditioned_cg(a, b, precond=JacobiPrecond(a))
    assert result.converged


def test_pcg_rejects_both_and_neither(system):
    a, b = system
    m = JacobiPrecond(a)
    # precond= is the only spelling: a positional preconditioner is a
    # signature error, and so is omitting it.
    with pytest.raises(TypeError, match="positional"):
        preconditioned_cg(a, b, m, precond=m)
    with pytest.raises(TypeError, match="precond"):
        preconditioned_cg(a, b)


# ----------------------------------------------------------------------
# flush-on-raise regression (ISSUE 4 satellite): a solver that raises
# mid-solve must not lose the buffered tail of a JsonlSink, and must
# leave the session balanced for the next solve.
# ----------------------------------------------------------------------
def _raising_solve(a, b, path):
    """Drive UnrecoverableDivergence through the front door with a
    JsonlSink attached; returns the telemetry session."""
    from repro import solve
    from repro.faults import FaultPlan, RecoveryPolicy, ScalarCorruptor

    tele = Telemetry(JsonlSink(path))
    plan = FaultPlan([ScalarCorruptor(at_iteration=5, factor=1e12)], seed=0)
    policy = RecoveryPolicy(max_restarts=0, on_unrecoverable="raise")
    from repro.faults import UnrecoverableDivergence

    with pytest.raises(UnrecoverableDivergence):
        solve(
            a,
            b,
            "vr",
            k=3,
            stop=StoppingCriterion(rtol=1e-8, max_iter=12),
            faults=plan,
            recovery=policy,
            telemetry=tele,
        )
    return tele


def test_raising_solve_does_not_lose_buffered_jsonl_tail(system, tmp_path):
    a, b = system
    path = tmp_path / "events.jsonl"
    tele = _raising_solve(a, b, path)
    # The front door unwound the session: everything emitted before the
    # raise -- including the fault event itself -- is on disk already,
    # without anyone calling close().
    lines = path.read_text().strip().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    assert "solve_start" in kinds
    assert "iteration" in kinds
    assert "fault" in kinds, "the very last pre-raise event must be flushed"
    tele.close()  # release the file handle (warnings-as-errors hygiene)


def test_raising_solve_leaves_session_balanced(system, tmp_path):
    a, b = system
    tele = _raising_solve(a, b, tmp_path / "events.jsonl")
    assert tele.open_solves == 0
    # The session is reusable: a clean follow-up solve brackets correctly.
    result = conjugate_gradient(a, b, telemetry=tele)
    assert result.converged
    assert tele.open_solves == 0
    tele.close()


class TestClampTelemetry:
    def test_clamp_emits_drift_event_with_zero_direct(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        tele.clamp(12, -3.5e-17)
        drifts = [e for e in sink.events if e.kind == "drift"]
        assert len(drifts) == 1
        ev = drifts[0]
        assert ev.iteration == 12
        assert ev.direct_rr == 0.0
        assert ev.recurred_rr == -3.5e-17
        assert ev.drift == pytest.approx(3.5e-17)


def test_ascii_summary_sink_reports_adaptive_window_history(system):
    """An adaptive solve shows the k-history digest row."""
    from repro import solve

    a, b = system
    buf = io.StringIO()
    solve(a, b, method="adaptive-vr", k=4,
          telemetry=Telemetry(AsciiSummarySink(buf)))
    out = buf.getvalue()
    assert "adaptive window" in out
    assert "k 4 ->" in out
    assert "resizes" in out


def test_ascii_summary_sink_adaptive_row_counts_fallbacks():
    from repro.telemetry import ServiceEvent  # noqa: F401  (vocabulary)

    buf = io.StringIO()
    sink = AsciiSummarySink(buf)
    sink.emit(SolveStartEvent(method="adaptive-vr", label="avr", n=16,
                              options={}))
    sink.emit(AdaptiveEvent(iteration=4, action="shrink", trigger="drift",
                            k_old=4, k_new=2))
    sink.emit(AdaptiveEvent(iteration=9, action="fallback", trigger="drift",
                            k_old=2, k_new=1))
    sink.emit(SolveEndEvent(label="avr", converged=True,
                            stop_reason="converged", iterations=12,
                            residual_norm=1e-9, true_residual_norm=1e-9,
                            seconds=0.01))
    out = buf.getvalue()
    assert "k 4 -> 1, 1 resizes, 1 fallback" in out


def test_ascii_summary_sink_reports_service_row():
    """Service narration between solves lands in a service row with the
    dispatch widths, and survives across solve brackets."""
    from repro.telemetry import ServiceEvent

    buf = io.StringIO()
    sink = AsciiSummarySink(buf)
    for j in range(3):
        sink.emit(ServiceEvent(action="admitted", request_id=f"req-{j}",
                               tenant="alice"))
    sink.emit(ServiceEvent(action="shed", request_id="req-9",
                           tenant="bob", detail="queue_full"))
    for j in range(3):
        sink.emit(ServiceEvent(action="dispatch", request_id=f"req-{j}",
                               tenant="alice", detail="width=3"))
    sink.emit(SolveStartEvent(method="cg", label="cg", n=16, options={}))
    sink.emit(SolveEndEvent(label="cg", converged=True,
                            stop_reason="converged", iterations=5,
                            residual_norm=1e-9, true_residual_norm=1e-9,
                            seconds=0.01))
    out = buf.getvalue()
    assert "service" in out
    assert "3 admitted, 1 shed, widths 3/3/3" in out
    # The counters persist: a second solve still reports them.
    buf.truncate(0)
    sink.emit(SolveStartEvent(method="cg", label="cg", n=16, options={}))
    sink.emit(SolveEndEvent(label="cg", converged=True,
                            stop_reason="converged", iterations=5,
                            residual_norm=1e-9, true_residual_norm=1e-9,
                            seconds=0.01))
    assert "3 admitted, 1 shed" in buf.getvalue()


def test_ascii_summary_sink_no_service_row_without_service_events(system):
    a, b = system
    buf = io.StringIO()
    conjugate_gradient(a, b, telemetry=Telemetry(AsciiSummarySink(buf)))
    assert "service" not in buf.getvalue()
