"""Unit tests for the metrics registry, exporters, and MetricsSink."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import poisson2d, solve
from repro.telemetry import Telemetry
from repro.trace import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
def test_counter_goes_up_and_rejects_negative():
    c = Counter({})
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_set_and_set_max():
    g = Gauge({})
    g.set(4.0)
    g.set(2.0)
    assert g.value == 2.0
    g.set_max(7.0)
    g.set_max(1.0)
    assert g.value == 7.0


def test_histogram_buckets_are_cumulative():
    h = Histogram({}, buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0, 0.2):
        h.observe(v)
    cum = h.cumulative()
    assert cum[0] == (1.0, 2)       # 0.5, 0.2
    assert cum[1] == (10.0, 3)      # + 5.0
    le_inf, total = cum[2]
    assert total == 4 and le_inf == float("inf")
    assert h.sum == pytest.approx(55.7)


# ---------------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------------
def test_instruments_survive_concurrent_mutation_exactly():
    # The serve worker pool updates shared instruments from several
    # threads at once; unsynchronized read-modify-write would lose
    # increments and let histogram sum/count drift apart.  Exact totals
    # under a thread hammer are the regression.
    import threading

    registry = MetricsRegistry()
    counter = registry.counter("repro_test_total")
    histogram = registry.histogram("repro_test_seconds", buckets=(1.0, 2.0))
    gauge = registry.gauge("repro_test_peak")
    threads, per_thread = 8, 2000
    start = threading.Barrier(threads)

    def hammer(worker: int) -> None:
        start.wait()
        for i in range(per_thread):
            counter.inc()
            histogram.observe(0.5)
            gauge.set_max(float(worker * per_thread + i))
            # Lazy get-or-create from racing threads must hand every
            # thread the same instrument object.
            registry.counter("repro_test_lazy_total", shard=str(worker % 2)).inc()

    workers = [
        threading.Thread(target=hammer, args=(w,)) for w in range(threads)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    total = threads * per_thread
    assert counter.value == float(total)
    total_sum, count, cumulative = histogram.snapshot()
    assert count == total
    assert total_sum == pytest.approx(0.5 * total)
    assert cumulative[-1] == (float("inf"), total)
    assert gauge.value == float(total - 1)
    lazy = sum(
        registry.counter("repro_test_lazy_total", shard=str(s)).value
        for s in range(2)
    )
    assert lazy == float(total)


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    a = reg.counter("x_total", method="cg")
    b = reg.counter("x_total", method="cg")
    assert a is b
    other = reg.counter("x_total", method="vr")
    assert other is not a


def test_registry_rejects_kind_conflicts_and_bad_names():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(ValueError):
        reg.gauge("x_total")
    with pytest.raises(ValueError):
        reg.counter("bad name")
    with pytest.raises(ValueError):  # a rejected name registers nothing
        reg.counter("bad name")
    with pytest.raises(ValueError):
        reg.counter("")


def test_prometheus_exposition_format():
    reg = MetricsRegistry()
    reg.counter("repro_solves_total", "Completed solves", method="cg").inc(3)
    reg.gauge("repro_residual", method="cg").set(1.5e-9)
    reg.histogram("repro_lat", buckets=(0.1, 1.0), method="cg").observe(0.05)
    text = reg.to_prometheus()
    lines = text.splitlines()
    assert "# HELP repro_solves_total Completed solves" in lines
    assert "# TYPE repro_solves_total counter" in lines
    assert 'repro_solves_total{method="cg"} 3' in lines
    assert "# TYPE repro_lat histogram" in lines
    assert 'repro_lat_bucket{method="cg",le="0.1"} 1' in lines
    assert 'repro_lat_bucket{method="cg",le="+Inf"} 1' in lines
    assert 'repro_lat_count{method="cg"} 1' in lines
    assert text.endswith("\n")


def test_prometheus_escapes_label_values_and_help():
    reg = MetricsRegistry()
    reg.counter("x_total", 'say "hi"\nplease', label='a"b\\c\nd').inc()
    text = reg.to_prometheus()
    assert '# HELP x_total say "hi"\\nplease' in text
    assert 'label="a\\"b\\\\c\\nd"' in text


def test_json_snapshot_round_trips():
    reg = MetricsRegistry()
    reg.counter("x_total", method="cg").inc(2)
    reg.histogram("y", buckets=(1.0,), method="cg").observe(0.5)
    snap = json.loads(reg.dumps())
    assert snap["x_total"]["type"] == "counter"
    [series] = snap["x_total"]["series"]
    assert series == {"labels": {"method": "cg"}, "value": 2.0}
    [hist] = snap["y"]["series"]
    assert hist["count"] == 1
    assert hist["buckets"][-1]["le"] == "+Inf"


# ---------------------------------------------------------------------------
# MetricsSink fed by a real solve
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_system():
    a = poisson2d(8)
    return a, np.ones(a.nrows)


def test_metrics_sink_aggregates_a_cg_solve(small_system):
    a, b = small_system
    sink = MetricsSink()
    result = solve(a, b, method="cg", telemetry=Telemetry(sink))
    assert result.converged
    reg = sink.registry
    iters = reg.counter("repro_iterations_total", method="cg")
    assert iters.value == result.iterations
    lat = reg.histogram("repro_iteration_seconds", method="cg")
    assert lat.count == result.iterations
    assert reg.gauge("repro_solve_iterations", method="cg").value == (
        result.iterations
    )
    solves = reg.counter("repro_solves_total", method="cg", converged="true")
    assert solves.value == 1


def test_metrics_sink_sees_drift_and_reductions(small_system):
    a, b = small_system
    sink = MetricsSink()
    result = solve(a, b, method="vr", k=2, telemetry=Telemetry(sink))
    assert result.converged
    reg = sink.registry
    # vr defaults to the drift-check stabilizer: drift events flow.
    drift = reg.histogram("repro_drift", method="vr")
    assert drift.count > 0
    assert reg.gauge("repro_drift_peak", method="vr").value >= 0.0

    sink2 = MetricsSink()
    result2 = solve(a, b, method="dist-cg", nranks=2, telemetry=Telemetry(sink2))
    assert result2.converged
    reds = sink2.registry.counter(
        "repro_reductions_total", method="dist-cg", op="allreduce"
    )
    assert reds.value > 0
    words = sink2.registry.counter(
        "repro_reduction_words_total", method="dist-cg", op="allreduce"
    )
    assert words.value >= reds.value


def test_metrics_sink_counts_faults_and_recoveries(small_system):
    a, b = small_system
    from repro.faults import FaultPlan, parse_fault_spec

    sink = MetricsSink()
    solve(
        a,
        b,
        method="vr",
        k=2,
        faults=FaultPlan([parse_fault_spec("scalar@3:factor=1e3")]),
        recovery="robust",
        telemetry=Telemetry(sink),
    )
    snap = sink.registry.to_json()
    faults = sum(
        s["value"] for s in snap.get("repro_faults_total", {"series": []})["series"]
    )
    recoveries = sum(
        s["value"]
        for s in snap.get("repro_recoveries_total", {"series": []})["series"]
    )
    assert faults > 0
    assert recoveries > 0


def test_one_sink_accumulates_across_methods(small_system):
    a, b = small_system
    sink = MetricsSink()
    for method in ("cg", "vr"):
        solve(a, b, method=method, telemetry=Telemetry(sink))
    text = sink.registry.to_prometheus()
    assert 'repro_iterations_total{method="cg"}' in text
    assert 'repro_iterations_total{method="vr"}' in text


def test_metrics_sink_keeps_each_threads_solve_label():
    # Two worker threads share one sink.  Thread A opens a cg solve, then
    # thread B opens a vr solve, then A reports its iterations: they must
    # land under cg, not under the method that started last.
    import threading

    from repro.telemetry.events import IterationEvent, SolveStartEvent

    sink = MetricsSink()
    a_started, b_started = threading.Event(), threading.Event()

    def thread_a():
        sink.emit(SolveStartEvent(method="cg", label="cg", n=4))
        a_started.set()
        assert b_started.wait(10)
        for i in range(1, 6):
            sink.emit(IterationEvent(iteration=i, residual_norm=1.0 / i))

    def thread_b():
        assert a_started.wait(10)
        sink.emit(SolveStartEvent(method="vr", label="vr", n=4))
        b_started.set()

    threads = [threading.Thread(target=fn) for fn in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    reg = sink.registry
    assert reg.counter("repro_iterations_total", method="cg").value == 5
    assert reg.counter("repro_iterations_total", method="vr").value == 0


def test_prometheus_nonfinite_samples_use_spec_spellings():
    # Drift gauges can legitimately hold inf/nan; Python's repr of those
    # ("inf"/"nan") is not valid 0.0.4 exposition text.
    reg = MetricsRegistry()
    reg.gauge("repro_pos", "positive overflow").set(float("inf"))
    reg.gauge("repro_neg", "negative overflow").set(float("-inf"))
    reg.gauge("repro_nan", "not a number").set(float("nan"))
    lines = reg.to_prometheus().splitlines()
    assert "repro_pos +Inf" in lines
    assert "repro_neg -Inf" in lines
    assert "repro_nan NaN" in lines
    assert not any("inf " in l or l.endswith("inf") for l in lines)


def test_prometheus_hostile_label_values_regression():
    # One series per hostile class: backslash, double quote, newline,
    # and all three at once -- each must come back escaped per the
    # exposition-format spec (backslash first, or quotes double-escape).
    reg = MetricsRegistry()
    reg.counter("repro_h_total", "hostile labels", tenant="a\\b").inc()
    reg.counter("repro_h_total", "hostile labels", tenant='say "hi"').inc()
    reg.counter("repro_h_total", "hostile labels", tenant="two\nlines").inc()
    reg.counter(
        "repro_h_total", "hostile labels", tenant='\\"\n'
    ).inc()
    text = reg.to_prometheus()
    assert 'tenant="a\\\\b"' in text
    assert 'tenant="say \\"hi\\""' in text
    assert 'tenant="two\\nlines"' in text
    assert 'tenant="\\\\\\"\\n"' in text
    # No raw newline ever lands inside a sample line: every line is
    # either a comment or exactly "name{labels} value".
    for line in text.splitlines():
        assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2


def test_prometheus_hostile_help_text_regression():
    reg = MetricsRegistry()
    reg.counter("repro_hh_total", "first\nsecond \\ slash").inc()
    text = reg.to_prometheus()
    assert "# HELP repro_hh_total first\\nsecond \\\\ slash" in text
