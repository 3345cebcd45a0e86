"""Tests of the benchmark's own helpers and a short dry run.

    python3 -m pytest perfbench -q

The dry runs start real solver processes and servers (about two minutes).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- percentile selection ---------------------------------------------------
def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 201)]  # 200 samples
    assert common.tail(values) == (95.0, 190.0, 200)


def test_tail_small_sample_falls_back_to_median_or_nothing():
    assert common.tail([float(i) for i in range(20)]) == (50.0, 9.0, 20)
    assert common.tail([1.0] * 19) is None


def test_tail_ignores_input_order():
    values = [float(i) for i in range(1000)]
    shuffled = values[::-1]
    assert common.tail(shuffled) == common.tail(values) == (99.0, 989.0, 1000)
    assert common.tail_name("tail.latency_s.cg", 99.0) == "tail.latency_s.cg.p99"
    assert common.tail_name("x", 99.9) == "x.p99.9"


# -- /proc/stat steal parser -------------------------------------------------
PROC_STAT = """cpu  219876 0 8097 343153 1216 0 522 15325 40 0
cpu0 112460 0 4700 167668 1109 0 285 8304 0 0
intr 3821496 0 0
"""


def test_steal_parser_reads_aggregate_line():
    total, steal = common.parse_proc_stat(PROC_STAT)
    assert steal == 15325
    assert total == 219876 + 8097 + 343153 + 1216 + 522 + 15325  # guest excluded


def test_steal_fraction_between_two_snapshots():
    assert common.steal_fraction((1000, 10), (1200, 60)) == pytest.approx(0.25)
    assert common.steal_fraction((1000, 10), (1000, 10)) == 0.0
    with pytest.raises(ValueError):
        common.parse_proc_stat("intr 1 2 3\n")


# -- computed bytes ---------------------------------------------------------
def test_matvec_bytes_formula_matches_counted_words_times_eight():
    """The benchmark's own words-per-matvec formula (``layers.probe``
    splits counted words with it) against what ``repro.counting()``
    records for one matvec."""
    import layers
    import repro

    a = repro.poisson2d(8)
    kernels = layers.kernels(a, seed=3)
    assert kernels["matvec_bytes"] == 8 * (2 * a.nnz + 2 * a.nrows)


def test_outside_residual_matches_the_program_matrix():
    import repro

    a = repro.poisson2d(6)
    x = common.rhs(np, 5, 0, a.nrows)
    b = common.rhs(np, 5, 1, a.nrows)
    expected = float(np.linalg.norm(b - a.matvec(x)))
    assert common.laplacian_residual(np, 6, b, x) == pytest.approx(expected, rel=1e-12)


# -- metric names -----------------------------------------------------------
def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert common.METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64
    with pytest.raises(ValueError):
        common.result_line(True, 1, 0, {"bad name": (1.0, "s")})


# -- determinism ------------------------------------------------------------
def test_iteration_mismatch_between_launches_fails_the_run():
    import run

    def launch(iterations):
        return {"latencies": {c: [1.0] for c in common.CLASSES}, "iterations": iterations,
                "attempted": 2, "failed": 0, "failures": [], "wall_s": 1.0,
                "peak_rss_mb": 1.0}

    same = run.merge([launch({"0": [5], "1": [7]}), launch({"0": [5], "1": [7]})])
    assert same["failed"] == 0 and same["mismatches"] == []
    differ = run.merge([launch({"0": [5], "1": [7]}), launch({"0": [5], "1": [8]})])
    assert differ["failed"] == 1 and differ["attempted"] == 4
    assert differ["failures"] == ["op 1: iteration counts differ between launches"]


def test_traced_iteration_mismatch_is_counted():
    import run

    line, differ = run.determinism({"iterations": {"0": [5], "1": [7]}},
                                   {"iterations": {"0": [5], "1": [6]}})
    assert differ == 1 and "MISMATCH at operations ['1']" in line
    line, differ = run.determinism({"iterations": {"0": [5]}}, {"iterations": {"0": [5]}})
    assert differ == 0 and ": ok (" in line


# -- dry runs ---------------------------------------------------------------
def _run(workload: str, trace: int, seed: int = 7) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_dry_run_emits_every_named_metric(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = _run(workload, trace)
        assert code == 0, lines[-5:]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: v["unit"] for name, v in result["metrics"].items()}
        assert got == expected
        assert any(line.startswith("host: ") for line in lines)


def test_counts_repeat_exactly_for_one_seed():
    results = []
    for _ in range(2):
        code, lines = _run("lib-large", 1, seed=11)
        assert code == 0
        text = "\n".join(lines)
        assert "check.determinism.untraced: ok" in text
        assert "check.determinism.traced_vs_untraced: ok" in text
        metrics = json.loads(lines[-1])["metrics"]
        results.append({k: v["value"] for k, v in metrics.items()
                        if k.startswith(("core.iterations.", "core.ops_per_iter.",
                                         "core.replacements.", "core.bytes_per_iter."))})
    assert results[0] == results[1]
    assert len(results[0]) == 11


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "lib-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
