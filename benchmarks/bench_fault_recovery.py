"""Fault-rate sweep: convergence and honesty under injected faults.

The fault subsystem (:mod:`repro.faults`) makes two promises:

1. **Honesty** -- whatever is injected, a solve never reports
   ``converged=True`` while the true residual misses the tolerance (the
   exit is verified against ``b - A x`` computed with the pristine
   operator).
2. **Recovery** -- with a :class:`~repro.faults.RecoveryPolicy` enabled,
   the solver survives isolated corruptions at a bounded iteration
   overhead instead of silently stagnating or breaking down.

This benchmark sweeps a per-iteration fault rate (scalar corruptions of
the VR moment window plus perturbations of the direct dots) across
recovery policies and records, per (rate, policy) cell over ``trials``
seeded runs: the fraction that converged, the fraction of *dishonest*
exits (must be 0 everywhere -- that is the acceptance assertion), the
mean iteration count of the converged runs, and the total recovery
actions taken.  ``python benchmarks/bench_fault_recovery.py`` writes the
record to ``BENCH_faults.json`` at the repo root.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import solve
from repro.core.stopping import StoppingCriterion
from repro.faults import FaultPlan, PerturbInjector, ScalarCorruptor
from repro.sparse import poisson2d
from repro.util.rng import default_rng

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_faults.json"

DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1)
DEFAULT_POLICIES = ("none", "drift", "verified", "robust")


def _plan(rate: float, seed: int) -> FaultPlan | None:
    if rate <= 0.0:
        return None
    return FaultPlan(
        [
            ScalarCorruptor(rate=rate, factor=1e3, max_fires=None),
            PerturbInjector(site="dot", rate=rate, magnitude=0.5, max_fires=None),
        ],
        seed=seed,
    )


def run(
    *,
    grid: int = 16,
    k: int = 4,
    rates: tuple[float, ...] = DEFAULT_RATES,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    trials: int = 8,
    rtol: float = 1e-8,
    seed: int = 0,
    out_path: Path | str | None = DEFAULT_OUT,
) -> dict:
    """Sweep fault rate x recovery policy; return (and write) the record.

    Every trial reuses the same matrix and right-hand side; only the
    injector streams differ (``seed + trial``), so a cell's spread is the
    fault process, not the problem.
    """
    a = poisson2d(grid)
    n = a.nrows
    b = default_rng(seed).standard_normal(n)
    stop = StoppingCriterion(rtol=rtol)
    threshold = stop.threshold(float((b @ b) ** 0.5))

    baseline = solve(a, b, "vr", k=k, stop=stop)
    assert baseline.converged, "baseline VR-CG must converge fault-free"

    results = []
    for rate in rates:
        for policy in policies:
            converged = dishonest = 0
            iters_when_converged: list[int] = []
            recoveries = {"replace": 0, "restart": 0, "recompute": 0}
            faults_injected = 0
            for trial in range(trials):
                options: dict = {"k": k, "stop": stop}
                plan = _plan(rate, seed + trial)
                if plan is not None:
                    options["faults"] = plan
                if policy != "none":
                    options["recovery"] = policy
                result = solve(a, b, "vr", **options)
                if result.converged:
                    converged += 1
                    iters_when_converged.append(result.iterations)
                    # Honesty per the family-wide verified_exit contract:
                    # a CONVERGED exit may carry recurrence drift up to
                    # 100x the stopping threshold (repro.core.results),
                    # and under an active fault plan the in-loop check
                    # tightens to 1x.  Beyond that, the exit lied.
                    slack = 1.001 if rate > 0.0 else 100.0
                    if result.true_residual_norm > threshold * slack:
                        dishonest += 1
                for action, count in (
                    result.extras.get("recoveries") or {}
                ).items():
                    recoveries[action] += count
                faults_injected += (result.extras.get("faults") or {}).get(
                    "injected", 0
                )
            results.append(
                {
                    "rate": rate,
                    "policy": policy,
                    "trials": trials,
                    "converged": converged,
                    "dishonest": dishonest,
                    "mean_iterations": (
                        sum(iters_when_converged) / len(iters_when_converged)
                        if iters_when_converged
                        else None
                    ),
                    "faults_injected": faults_injected,
                    "recoveries": recoveries,
                }
            )

    payload = {
        "bench": "fault_recovery",
        "method": "vr",
        "operator": f"poisson2d({grid})",
        "n": n,
        "k": k,
        "rtol": rtol,
        "baseline_iterations": int(baseline.iterations),
        "results": results,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_fault_recovery_sweep(tmp_path):
    """Acceptance: zero dishonest exits anywhere; recovery recovers."""
    out = tmp_path / DEFAULT_OUT.name
    payload = run(out_path=out)
    for cell in payload["results"]:
        assert cell["dishonest"] == 0, (
            f"rate={cell['rate']} policy={cell['policy']}: "
            f"{cell['dishonest']} dishonest exit(s)"
        )
    # Fault-free cells must all converge at baseline cost.
    clean = [c for c in payload["results"] if c["rate"] == 0.0]
    for cell in clean:
        assert cell["converged"] == cell["trials"]
    # At the lowest nonzero rate the robust policy must beat no-recovery
    # on converged trials (the subsystem has to buy *something*).
    low = min(c["rate"] for c in payload["results"] if c["rate"] > 0.0)
    by_policy = {
        c["policy"]: c for c in payload["results"] if c["rate"] == low
    }
    assert by_policy["robust"]["converged"] >= by_policy["none"]["converged"]
    assert out.exists()


def main() -> None:
    payload = run()
    print(f"baseline vr iterations: {payload['baseline_iterations']}")
    for cell in payload["results"]:
        mean = cell["mean_iterations"]
        print(
            f"rate={cell['rate']:<5} {cell['policy']:<9} "
            f"converged={cell['converged']}/{cell['trials']} "
            f"dishonest={cell['dishonest']} "
            f"iters={'-' if mean is None else f'{mean:.1f}'} "
            f"faults={cell['faults_injected']} recoveries={cell['recoveries']}"
        )
    print(f"wrote {DEFAULT_OUT}")


if __name__ == "__main__":
    main()
