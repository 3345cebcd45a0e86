"""Tier-1 smoke for the ``benchmarks/`` entry points.

The full benchmarks (m up to 64, repeated timing; the fault-rate x
policy sweep) belong to the ``benchmarks/`` run, but their code paths
must not be able to rot silently between benchmark runs: these wrappers
execute the same ``run()`` entry points at smoke scale inside the
ordinary test suite and check the emitted JSON records.

``benchmarks/`` is not a package, so modules are loaded by file path.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path


REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_batched_throughput.py"
FAULT_BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_fault_recovery.py"
FAULT_OUT_PATH = REPO_ROOT / "BENCH_faults.json"
TELEMETRY_BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_telemetry_overhead.py"
BACKEND_BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_backend_kernels.py"
ZOO_BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_operator_zoo.py"


def _load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench_module():
    return _load_by_path("bench_batched_throughput", BENCH_PATH)


def test_bench_batched_smoke_emits_json(tmp_path):
    bench = _load_bench_module()
    out = tmp_path / "BENCH_batched.json"
    payload = bench.run(grid=12, m_values=(4,), repeats=1, out_path=out)

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["bench"] == "batched_throughput"
    assert on_disk["method"] == "cg"

    [record] = on_disk["results"]
    assert record["m"] == 4
    assert record["batched_seconds"] > 0.0
    assert record["looped_seconds"] > 0.0
    assert record["speedup"] > 0.0
    # Identical per-column work in both arms: batching changes the data
    # movement, not the CG trajectories.
    assert record["column_iterations"] == record["looped_iterations"]
    assert record["batched_sweeps"] == max(record["column_iterations"])


def test_bench_fault_recovery_smoke_emits_json(tmp_path):
    bench = _load_by_path("bench_fault_recovery", FAULT_BENCH_PATH)
    out = tmp_path / "BENCH_faults.json"
    payload = bench.run(
        grid=8,
        k=3,
        rates=(0.0, 0.1),
        policies=("none", "robust"),
        trials=2,
        out_path=out,
    )

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["bench"] == "fault_recovery"
    assert on_disk["method"] == "vr"
    assert on_disk["baseline_iterations"] > 0

    cells = {(c["rate"], c["policy"]): c for c in on_disk["results"]}
    assert set(cells) == {(r, p) for r in (0.0, 0.1) for p in ("none", "robust")}
    for cell in cells.values():
        # The honesty promise holds in every cell, faulted or not.
        assert cell["dishonest"] == 0
    # Fault-free cells converge regardless of policy.
    assert cells[(0.0, "none")]["converged"] == 2
    assert cells[(0.0, "robust")]["converged"] == 2
    # At a 10% rate the injectors actually fired.
    assert cells[(0.1, "robust")]["faults_injected"] > 0


def test_bench_telemetry_smoke_emits_json(tmp_path):
    bench = _load_by_path("bench_telemetry_overhead", TELEMETRY_BENCH_PATH)
    out = tmp_path / "BENCH_telemetry.json"
    payload = bench.run(grid=12, rounds=2, trials=1, out_path=out)

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["bench"] == "telemetry_overhead"
    assert on_disk["budget"] == 0.05
    assert on_disk["n"] == 144

    # The full 2-method x 7-configuration grid is present with the right
    # baselines; overhead numbers at smoke scale are noise, so only their
    # type is checked -- the budget assertion lives in the benchmark run.
    grid = {(r["method"], r["config"]): r for r in on_disk["results"]}
    configs = (
        "null_sink", "metrics_sink", "tracer", "flight_recorder",
        "health", "tracer+metrics", "service",
    )
    assert set(grid) == {(m, c) for m in ("cg", "vr") for c in configs}
    for (method, config), record in grid.items():
        assert isinstance(record["overhead"], float)
        expected_baseline = (
            "bare" if config in ("null_sink", "service") else "null_sink"
        )
        assert record["baseline"] == expected_baseline
        assert record["budgeted"] == (config != "tracer+metrics")


def test_bench_operator_zoo_smoke_emits_json(tmp_path):
    bench = _load_by_path("bench_operator_zoo", ZOO_BENCH_PATH)
    out = tmp_path / "BENCH_operators.json"
    payload = bench.run(preset="smoke", out_path=out)

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["bench"] == "operator_zoo"
    assert on_disk["preset"] == "smoke"

    records = {w["name"]: w for w in on_disk["workloads"]}
    # The replay must cover at least 4 workloads including the complex
    # Hermitian normal-equations reconstruction.
    assert len(records) >= 4
    assert records["mri-normal"]["dtype"] == "complex128"
    assert {"elasticity3d", "lowrank-sparse", "poisson-callable"} <= set(records)
    for record in records.values():
        assert record["converged"] is True
        assert record["iterations"] > 0
        assert record["syncs_per_iteration"] >= 0.0
        assert record["wall_seconds"] > 0.0


def test_bench_backend_kernels_smoke_emits_json(tmp_path):
    bench = _load_by_path("bench_backend_kernels", BACKEND_BENCH_PATH)
    out = tmp_path / "BENCH_perf.json"
    # Timing numbers are noise at smoke scale.
    payload = bench.run(grid=24, solve_grid=16, repeats=2, out_path=out)

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["bench"] == "backend_kernels"
    assert on_disk["n"] == 576
    assert on_disk["out_matvec_seconds"] > 0.0
    assert on_disk["allocating_matvec_seconds"] > 0.0
    # The solve path's out= product must stay allocation-free at any scale.
    assert (
        on_disk["out_matvec_allocs"]["peak_bytes"]
        < on_disk["allocating_matvec_allocs"]["peak_bytes"]
    )
    assert on_disk["solve_allocations"]["default"]["max_iteration_bytes"] >= 0


ADAPTIVE_BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_adaptive.py"


def test_bench_adaptive_smoke_emits_json(tmp_path):
    bench = _load_by_path("bench_adaptive", ADAPTIVE_BENCH_PATH)
    out = tmp_path / "BENCH_adaptive.json"
    payload = bench.run(preset="smoke", out_path=out)

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["bench"] == "adaptive_window"
    assert on_disk["workload"] == "lowrank-sparse"

    by_label = {r["label"]: r for r in on_disk["results"]}
    assert set(by_label) == {row[0] for row in bench.ROWS}
    for label, _, _, may_fail in bench.ROWS:
        record = by_label[label]
        if not may_fail:
            assert record["converged"], label
        assert record["iterations"] > 0
        assert record["syncs_per_iteration"] >= 0.0
        assert record["wall_seconds"] > 0.0
    # The adaptive rows expose the controller's trajectory.
    for label in ("adaptive-vr(k0=2)", "adaptive-pipelined-vr(k0=2)"):
        assert by_label[label]["k_history"][0] == 2
    # The headline trade: the converged adaptive eager run blocks less
    # often per iteration than classical CG.
    assert (
        by_label["adaptive-vr(k0=2)"]["syncs_per_iteration"]
        < by_label["cg"]["syncs_per_iteration"]
    )


SERVE_BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_serve_throughput.py"


def test_bench_serve_smoke_emits_json(tmp_path):
    bench = _load_by_path("bench_serve_throughput", SERVE_BENCH_PATH)
    out = tmp_path / "BENCH_serve.json"
    payload = bench.run(
        grid=8, clients=4, repeats=1, out_path=out,
        mixed_grids=(6, 8), mixed_clients_per_op=2, mixed_rounds=2,
        mixed_repeats=1,
    )

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["bench"] == "serve_throughput"

    [record] = on_disk["results"]
    assert record["clients"] == 4
    assert record["coalesced_seconds"] > 0.0
    assert record["sequential_seconds"] > 0.0
    assert record["speedup"] > 0.0
    assert record["coalesced_rps"] > 0.0
    # The burst actually coalesced (the point of the coalesced arm); the
    # smoke does NOT assert the 2x acceptance floor -- that belongs to
    # the full-scale benchmark run, not a shared CI runner.
    assert max(record["coalesce_widths"]) > 1
    assert len(record["iterations"]) == 4

    # The mixed-operator (worker pool vs one-thread pool) scenario
    # emits its record too; again no speedup floor at smoke scale --
    # the bench itself asserts conservation and bit-identical results
    # on every run, including this one.
    mixed = on_disk["mixed_operator"]
    assert mixed["distinct_fingerprints"] == 2
    assert mixed["clients"] == 4
    assert mixed["requests"] == 8
    assert mixed["pool_seconds"] > 0.0
    assert mixed["single_worker_seconds"] > 0.0
    assert mixed["speedup"] > 0.0
    assert mixed["workers"] > 1
    assert sum(mixed["pool_coalesce_widths"].values()) == 8
