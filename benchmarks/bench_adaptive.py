"""The adaptive-window and predict-and-recompute trade, on the hostile case.

The low-rank-plus-sparse zoo workload is the system that breaks the
fixed-window Van Rosendale solver: without online repair the moment
window drifts past recovery and the pure solver exits with a breakdown
at every fixed ``k``.  This benchmark records what each strategy pays on
that same system:

* pure ``vr`` (``recovery=None``) at fixed ``k = 1`` and
  ``k = 2`` -- the failures the adaptive controller must rescue -- plus
  ``vr`` with the front door's default drift replacement for contrast;
* ``adaptive-vr`` and ``adaptive-pipelined-vr`` from ``k0 = 2`` -- the
  online controller shrinking the window mid-solve (the per-row record
  keeps ``k_history`` and the controller decisions);
* ``pr-cg`` and ``pr-pipe-cg`` -- the predict-and-recompute family's
  one-fused-reduction iteration;
* classical ``cg`` as the two-synchronizations-per-iteration baseline.

Per row the record keeps convergence, iterations, measured blocking
synchronizations per iteration on the critical path, the machine-model
prediction, and wall time -- the sync/iteration trade the adaptive
methods exist to win.

Numbers are written to ``BENCH_adaptive.json`` at the repository root;
``tools/check_bench_regression.py`` gates the ``*_seconds`` leaves
(warn-only) against ``benchmarks/baselines/BENCH_adaptive.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.stopping import StoppingCriterion
from repro.trace import profile_solve
from repro.zoo import zoo_workloads

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_adaptive.json"

WORKLOAD = "lowrank-sparse"

#: (row label, method, options, may_fail) -- may_fail rows record an
#: honest non-convergence instead of aborting the benchmark.
ROWS = (
    ("cg", "cg", {}, False),
    ("vr(k=1,pure)", "vr", {"k": 1, "recovery": None}, True),
    ("vr(k=2,pure)", "vr", {"k": 2, "recovery": None}, True),
    ("vr(k=2,drift-replace)", "vr", {"k": 2}, False),
    ("adaptive-vr(k0=2)", "adaptive-vr", {"k": 2}, False),
    ("adaptive-pipelined-vr(k0=2)", "adaptive-pipelined-vr", {"k": 2}, False),
    ("pr-cg", "pr-cg", {}, False),
    ("pr-pipe-cg", "pr-pipe-cg", {}, False),
)


def _workload(preset: str):
    for w in zoo_workloads():
        if w.name == WORKLOAD:
            return w.build(preset)
    raise LookupError(f"zoo workload {WORKLOAD!r} not found")


def run(
    *,
    preset: str = "full",
    rtol: float = 1e-8,
    max_iter: int = 5000,
    out_path: Path | str | None = DEFAULT_OUT,
) -> dict:
    """Run every row on the hostile workload; return (and write) the record.

    Parameters
    ----------
    preset:
        ``"full"`` for the committed benchmark size, ``"smoke"`` for the
        CI-sized system the tier-1 smoke test runs.
    rtol, max_iter:
        Shared stopping criterion across rows.
    out_path:
        Where to write the JSON record; ``None`` skips writing.
    """
    if preset not in ("smoke", "full"):
        raise ValueError(f"preset must be 'smoke' or 'full', got {preset!r}")
    stop = StoppingCriterion(rtol=rtol, max_iter=max_iter)
    a, b = _workload(preset)

    results = []
    for label, method, options, may_fail in ROWS:
        report = profile_solve(a, b, method, stop=stop, **options)
        if not may_fail:
            assert report.converged, f"row {label!r} failed to converge"
        record = {
            "label": label,
            "method": method,
            "options": options,
            "n": report.n,
            "converged": report.converged,
            "iterations": report.iterations,
            "syncs_per_iteration": round(
                report.blocking_syncs_per_iteration, 4
            ),
            "model_syncs_per_iteration": (
                report.model.syncs_per_iteration
                if report.model is not None
                else None
            ),
            "wall_seconds": report.wall_seconds,
        }
        extras = getattr(report.result, "extras", None) or {}
        if "k_history" in extras:
            record["k_history"] = list(extras["k_history"])
            record["decisions"] = [
                d["action"] for d in extras["adaptive"]["decisions"]
            ]
        results.append(record)

    payload = {
        "bench": "adaptive_window",
        "workload": WORKLOAD,
        "preset": preset,
        "rtol": rtol,
        "results": results,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main() -> None:
    payload = run()
    for r in payload["results"]:
        hist = f" k_history={r['k_history']}" if "k_history" in r else ""
        state = "converged" if r["converged"] else "FAILED"
        print(
            f"{r['label']:28s} {state:9s} iters={r['iterations']:4d} "
            f"syncs/it={r['syncs_per_iteration']:5.2f} "
            f"wall={r['wall_seconds']:.4f}s{hist}"
        )
    print(f"wrote {DEFAULT_OUT}")


if __name__ == "__main__":
    main()
