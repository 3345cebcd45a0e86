"""Telemetry overhead budget: <5% with a no-op sink on poisson2d(64).

The telemetry layer's design contract (see ``repro/telemetry/session.py``)
is that instrumentation is cheap enough to leave on: solvers guard every
emission with ``if telemetry is not None``, events are small plain
dataclasses, and a :class:`~repro.telemetry.NullSink` discards them
without I/O.  This file *prices* that contract on the hot path -- the
classical and Van Rosendale solvers on the n = 4096 model problem -- and
fails if the fully instrumented solve (event construction + emission +
the per-solve counter scope) costs more than 5% over the bare solve.

``run()`` extends the same discipline to the :mod:`repro.trace` layer
and emits ``BENCH_telemetry.json``.  The null-sink event stream is
priced against the bare solve (the base contract above); the added
instruments -- :class:`~repro.trace.MetricsSink` aggregation, active
:class:`~repro.trace.Tracer` span recording, the
:class:`~repro.trace.FlightRecorder` ring (production default 256),
the :class:`~repro.trace.HealthMonitor` estimators, and
tracer+metrics combined -- are each priced against the *null-sink
baseline*, i.e. what they add on top of the event stream.  The
``service`` configuration prices what ``repro serve`` runs: the one
session a default ``SolverService(ServiceConfig())`` builds (metrics
sink, flight recorder, health monitor, no streaming sink), built once
and reused across solves, against the *bare* solve.  Null sink, metrics
sink, tracer, flight recorder, health monitor and service each carry
the 5% budget independently; the combined configuration is recorded
informationally (two instruments stack, the budget is per-layer).

Run as a script (``python benchmarks/bench_telemetry_overhead.py``) it
writes ``BENCH_telemetry.json`` at the repository root.

Measurement discipline, because the quantity under test is a ~3 us
per-iteration delta on a ~100 us iteration:

* the two paths are interleaved round-robin and their *minima* compared,
  so machine drift (frequency scaling, background load) cannot land on
  one side of the comparison;
* the GC is disabled during timing, as ``timeit`` does -- collector
  pauses otherwise hit whichever path happens to trip the gen-0
  threshold, usually the allocating (instrumented) one;
* the budget check retries a few independent trials and takes the best:
  noise can only *inflate* an overhead ratio, never deflate it, so the
  minimum over trials is the sound estimator for an upper-bound claim.
  All trials must exceed the budget for the test to fail.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.sparse.generators import poisson2d
from repro.telemetry import NullSink, Telemetry
from repro.util.rng import default_rng

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_telemetry.json"

OVERHEAD_BUDGET = 0.05
ROUNDS = 10
TRIALS = 6
STOP = StoppingCriterion(rtol=1e-8)

# Configurations that must individually meet the 5% budget; the combined
# tracer+metrics configuration is reported but not budget-gated.
BUDGETED_CONFIGS = (
    "null_sink", "metrics_sink", "tracer", "flight_recorder", "health",
    "service",
)


def _one_trial(solve_bare, solve_instrumented, rounds: int = ROUNDS) -> float:
    gc.disable()
    try:
        best_bare = best_inst = float("inf")
        for round_no in range(rounds):
            # Alternate which path runs first so cache/allocator state
            # left by one side never systematically favours the other.
            pair = (solve_bare, solve_instrumented)
            if round_no % 2:
                pair = (solve_instrumented, solve_bare)
            times = {}
            for fn in pair:
                start = time.perf_counter()
                fn()
                times[fn] = time.perf_counter() - start
            best_bare = min(best_bare, times[solve_bare])
            best_inst = min(best_inst, times[solve_instrumented])
    finally:
        gc.enable()
    return best_inst / best_bare - 1.0


def _measure_overhead(
    solve_bare,
    solve_instrumented,
    rounds: int = ROUNDS,
    trials: int = TRIALS,
) -> float:
    """Best overhead ratio over up to ``trials`` independent trials."""
    # Warm both paths (imports, allocator, branch caches) before timing.
    for _ in range(2):
        solve_bare()
        solve_instrumented()
    best = float("inf")
    for _ in range(trials):
        best = min(best, _one_trial(solve_bare, solve_instrumented, rounds))
        if best < OVERHEAD_BUDGET:
            break  # upper bound established; no need to keep sampling
    return best


def test_cg_null_sink_overhead(poisson_overhead_bench):
    """Classical CG: full event stream into a NullSink costs <5%."""
    a, b = poisson_overhead_bench

    def bare():
        return conjugate_gradient(a, b, stop=STOP)

    def instrumented():
        tele = Telemetry(NullSink())
        result = conjugate_gradient(a, b, stop=STOP, telemetry=tele)
        tele.close()
        return result

    assert bare().converged
    overhead = _measure_overhead(bare, instrumented)
    print(f"\ncg telemetry overhead: {overhead:+.2%}")
    assert overhead < OVERHEAD_BUDGET


def test_vr_null_sink_overhead(poisson_overhead_bench):
    """VR CG (drift detector on, the chattiest emitter) costs <5%."""
    a, b = poisson_overhead_bench

    def bare():
        return vr_conjugate_gradient(
            a, b, k=2, recovery="drift", stop=STOP
        )

    def instrumented():
        tele = Telemetry(NullSink())
        result = vr_conjugate_gradient(
            a, b, k=2, recovery="drift", stop=STOP, telemetry=tele
        )
        tele.close()
        return result

    assert bare().converged
    overhead = _measure_overhead(bare, instrumented)
    print(f"\nvr telemetry overhead: {overhead:+.2%}")
    assert overhead < OVERHEAD_BUDGET


def _solvers():
    return {
        "cg": lambda a, b, telemetry: conjugate_gradient(
            a, b, stop=STOP, telemetry=telemetry
        ),
        "vr": lambda a, b, telemetry: vr_conjugate_gradient(
            a, b, k=2, recovery="drift", stop=STOP, telemetry=telemetry
        ),
    }


def _telemetry_factories():
    """``{config: (baseline_name, telemetry_factory)}``.

    ``null_sink`` and ``service`` are priced against the bare solve; the
    added instruments are priced against the null-sink baseline they
    stack on.  The ``service`` factory hands out one session, built the
    way ``repro serve`` builds it, to every solve.
    """
    from repro.serve import ServiceConfig, SolverService
    from repro.trace import FlightRecorder, HealthMonitor, MetricsSink, Tracer

    service = SolverService(ServiceConfig()).telemetry
    return {
        "null_sink": ("bare", lambda: Telemetry(NullSink())),
        "metrics_sink": ("null_sink", lambda: Telemetry(MetricsSink())),
        "tracer": (
            "null_sink",
            lambda: Telemetry(NullSink(), tracer=Tracer()),
        ),
        "flight_recorder": (
            "null_sink",
            lambda: Telemetry(NullSink(), FlightRecorder(ring=256)),
        ),
        "health": (
            "null_sink",
            lambda: Telemetry(NullSink(), health=HealthMonitor()),
        ),
        "tracer+metrics": (
            "null_sink",
            lambda: Telemetry(MetricsSink(), tracer=Tracer()),
        ),
        "service": ("bare", lambda: service),
    }


def run(
    *,
    grid: int = 64,
    rounds: int = ROUNDS,
    trials: int = TRIALS,
    out_path: Path | str = DEFAULT_OUT,
) -> dict:
    """Price every observability configuration and emit the JSON record.

    Smoke-scalable: the tier-1 wrapper calls this with a small ``grid``
    and ``trials=1`` just to exercise the code path; overhead numbers at
    that scale are noise and are recorded, not asserted.
    """
    a = poisson2d(grid)
    b = default_rng(7).standard_normal(a.nrows)
    factories = _telemetry_factories()
    results = []
    for method, solver in _solvers().items():

        def bare(solver=solver):
            return solver(a, b, None)

        def null_baseline(solver=solver, make=factories["null_sink"][1]):
            tele = make()
            out = solver(a, b, tele)
            tele.close()
            return out

        assert bare().converged
        baselines = {"bare": bare, "null_sink": null_baseline}
        for config, (baseline_name, make) in factories.items():

            def instrumented(solver=solver, make=make):
                tele = make()
                out = solver(a, b, tele)
                tele.close()
                return out

            overhead = _measure_overhead(
                baselines[baseline_name], instrumented, rounds, trials
            )
            results.append(
                {
                    "method": method,
                    "config": config,
                    "baseline": baseline_name,
                    "overhead": overhead,
                    "budgeted": config in BUDGETED_CONFIGS,
                    "within_budget": overhead < OVERHEAD_BUDGET,
                }
            )
    payload = {
        "bench": "telemetry_overhead",
        "budget": OVERHEAD_BUDGET,
        "grid": grid,
        "n": a.nrows,
        "results": results,
    }
    Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_run_emits_budget_payload(tmp_path):
    """Full-scale run(): every budgeted configuration meets 5%."""
    out = tmp_path / DEFAULT_OUT.name
    payload = run(out_path=out)
    assert out.exists()
    for record in payload["results"]:
        print(
            f"\n{record['method']:>3} {record['config']:<15} "
            f"vs {record['baseline']:<9} overhead {record['overhead']:+.2%}"
        )
        if record["budgeted"]:
            assert record["within_budget"], (
                f"{record['method']}/{record['config']} overhead "
                f"{record['overhead']:+.2%} exceeds {OVERHEAD_BUDGET:.0%}"
            )


@pytest.mark.parametrize("sink", ["none", "null"])
def test_cg_absolute_timing(benchmark, poisson_overhead_bench, sink):
    """Absolute wall times for the comparison, via pytest-benchmark."""
    a, b = poisson_overhead_bench
    if sink == "none":
        result = benchmark(lambda: conjugate_gradient(a, b, stop=STOP))
    else:
        tele = Telemetry(NullSink())
        result = benchmark(
            lambda: conjugate_gradient(a, b, stop=STOP, telemetry=tele)
        )
    assert result.converged


if __name__ == "__main__":
    for record in run()["results"]:
        print(
            f"{record['method']:>3} {record['config']:<15} "
            f"vs {record['baseline']:<9} overhead {record['overhead']:+.2%}"
        )
