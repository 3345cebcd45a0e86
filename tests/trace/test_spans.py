"""Unit tests for the span recording layer (repro.trace.spans)."""

from __future__ import annotations

import pytest

from repro.trace import PHASE_NAMES, Span, Tracer, build_spans
from repro.trace.spans import _group_iterations  # noqa: F401  (import check)


def test_phase_vocabulary_is_the_documented_six():
    assert PHASE_NAMES == {
        "matvec",
        "local_dot",
        "allreduce_wait",
        "recurrence",
        "axpy",
        "precond",
    }


def test_begin_end_builds_nested_tree():
    t = Tracer()
    t.begin("solve")
    t.begin("startup")
    t.end("startup")
    t.begin("matvec")
    t.end("matvec")
    t.end("solve")
    roots = t.spans(group_iterations=False)
    assert [r.name for r in roots] == ["solve"]
    solve = roots[0]
    assert [c.name for c in solve.children] == ["startup", "matvec"]
    for child in solve.children:
        assert solve.contains(child)
        assert child.seconds >= 0.0


def test_records_are_flat_tuples_and_len_counts_them():
    t = Tracer()
    t.begin("solve")
    t.mark_iteration(1)
    t.end("solve")
    assert len(t) == 3
    tags = [tag for tag, _, _ in t.records]
    assert tags == ["B", "I", "E"]
    t.clear()
    assert len(t) == 0


def test_annotate_attaches_to_innermost_open_span():
    t = Tracer()
    t.begin("solve")
    t.annotate(method="cg", n=64)
    t.begin("allreduce_wait")
    t.annotate(op="allreduce", words=1)
    t.end("allreduce_wait")
    t.end("solve")
    [solve] = t.spans(group_iterations=False)
    assert solve.attrs == {"method": "cg", "n": 64}
    [wait] = solve.find("allreduce_wait")
    assert wait.attrs == {"op": "allreduce", "words": 1}


def test_span_context_manager_closes_on_raise():
    t = Tracer()
    t.begin("solve")
    with pytest.raises(RuntimeError):
        with t.span("matvec"):
            raise RuntimeError("boom")
    t.end("solve")
    [solve] = t.spans(group_iterations=False)
    [mv] = solve.find("matvec")
    assert mv.end >= mv.start


def test_tolerant_end_closes_unclosed_inner_spans():
    t = Tracer()
    t.begin("solve")
    t.begin("matvec")  # never explicitly closed
    t.end("solve")
    [solve] = t.spans(group_iterations=False)
    [mv] = solve.find("matvec")
    assert mv.end == solve.end


def test_aborted_solve_auto_closes_at_last_record():
    t = Tracer()
    t.begin("solve")
    t.begin("local_dot")
    t.end("local_dot")
    # no end("solve"): the solver died mid-run
    [solve] = t.spans(group_iterations=False)
    [ld] = solve.find("local_dot")
    assert solve.end == ld.end


def test_iteration_marks_synthesize_iteration_spans():
    t = Tracer()
    t.begin("solve")
    # Setup work ahead of startup (vr's ||b||) stays a child of solve.
    t.begin("local_dot")
    t.end("local_dot")
    t.begin("startup")
    t.end("startup")
    for it in (1, 2):
        t.begin("matvec")
        t.end("matvec")
        t.begin("axpy")
        t.end("axpy")
        t.mark_iteration(it)
    t.end("solve")
    [solve] = t.spans()
    names = [c.name for c in solve.children]
    assert names == ["local_dot", "startup", "iteration", "iteration"]
    iters = [c for c in solve.children if c.name == "iteration"]
    assert [i.attrs["iteration"] for i in iters] == [1, 2]
    for i in iters:
        kid_names = sorted(c.name for c in i.children)
        assert kid_names == ["axpy", "matvec"]
        for kid in i.children:
            assert i.contains(kid)


def test_phases_within_iteration_do_not_overlap():
    t = Tracer()
    t.begin("solve")
    t.begin("matvec")
    t.end("matvec")
    t.begin("local_dot")
    t.end("local_dot")
    t.mark_iteration(1)
    t.end("solve")
    [solve] = t.spans()
    [iteration] = [c for c in solve.children if c.name == "iteration"]
    kids = sorted(iteration.children, key=lambda s: s.start)
    for first, second in zip(kids, kids[1:]):
        assert first.end <= second.start
    assert sum(k.seconds for k in kids) <= iteration.seconds + 1e-12


def test_trailing_phases_after_last_mark_stay_on_solve():
    t = Tracer()
    t.begin("solve")
    t.begin("matvec")
    t.end("matvec")
    t.mark_iteration(1)
    t.begin("local_dot")  # post-loop drift check, no following mark
    t.end("local_dot")
    t.end("solve")
    [solve] = t.spans()
    names = [c.name for c in solve.children]
    assert names == ["iteration", "local_dot"]


def test_phase_totals_aggregates_seconds_and_counts():
    t = Tracer()
    t.begin("solve")
    for _ in range(3):
        t.begin("axpy")
        t.end("axpy")
    t.end("solve")
    [solve] = t.spans(group_iterations=False)
    totals = solve.phase_totals()
    assert set(totals) == {"axpy"}
    seconds, count = totals["axpy"]
    assert count == 3
    assert seconds >= 0.0


def test_build_spans_on_empty_records_is_empty():
    assert build_spans([]) == []


def test_span_walk_and_find():
    leaf = Span(name="axpy", start=1.0, end=2.0)
    mid = Span(name="iteration", start=0.5, end=2.5, children=[leaf])
    root = Span(name="solve", start=0.0, end=3.0, children=[mid])
    assert [s.name for s in root.walk()] == ["solve", "iteration", "axpy"]
    assert root.find("axpy") == [leaf]
    assert root.contains(mid) and mid.contains(leaf)


def test_dot_spans_carry_their_booking_label():
    # A traced vr solve: each single-dot local_dot span names the booking
    # it timed, and the labels agree with the counters' label totals.
    from collections import Counter

    import numpy as np

    from repro import counting, poisson2d, profile_solve, solve

    a = poisson2d(16)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    tracer = Tracer()
    with counting() as ops:
        solve(a, b, "vr", trace=tracer)
    [solve_span] = tracer.solve_spans()
    labels = Counter(
        span.attrs.get("label")
        for span in solve_span.walk()
        if span.name == "local_dot"
    )
    assert labels["direct_dot"] == ops.labelled("direct_dot") > 0
    assert labels["drift_check_dot"] == ops.labelled("drift_check_dot") > 0
    # The profiler counts the solve's drift checks from those spans.
    report = profile_solve(a, b, method="vr")
    assert report.drift_checks == labels["drift_check_dot"]
