"""E1 -- Figure 1: principal data movement of the new algorithm.

Reproduces the paper's only figure twice over:

1. *Statically*: :func:`repro.machine.gantt.render_figure1` redraws the
   diagram for the chosen k.
2. *Dynamically*: a pipelined solve is run with telemetry attached and a
   :class:`LaunchLedger` enforcing fan-in latency; the emitted pipeline
   events are rebuilt into a trace, rendered as the diagonal band, and
   checked to match the figure's k-step flow exactly (every consume reads
   the launch exactly k iterations earlier, and no value is read before
   its fan-in completes -- the ledger raises otherwise).
"""

from __future__ import annotations

from repro.core.pipeline import pipelined_vr_cg, trace_from_events
from repro.core.stopping import StoppingCriterion
from repro.experiments.common import ExperimentReport, register
from repro.machine.gantt import render_figure1, render_pipeline_trace
from repro.sparse.generators import poisson2d
from repro.telemetry import Telemetry
from repro.util.rng import default_rng
from repro.util.tables import Table

__all__ = ["run"]


@register("E1")
def run(*, fast: bool = True, k: int = 4) -> ExperimentReport:
    """Regenerate Figure 1 from a measured pipelined solve."""
    grid = 10 if fast else 24
    a = poisson2d(grid)
    b = default_rng(7).standard_normal(a.nrows)
    # The figure reproduces data movement, not deep convergence; on the
    # full-size problem the rtol is set where the drift-free regime of
    # k=4 comfortably reaches (E7b owns the deep-convergence story).
    rtol = 1e-8 if fast else 1e-5
    telemetry = Telemetry()
    # Unrepaired: a drift replacement refills the pipeline and would
    # add launches that are no part of Figure 1's schedule.
    result = pipelined_vr_cg(
        a, b, k=k, stop=StoppingCriterion(rtol=rtol, max_iter=600),
        recovery="none", telemetry=telemetry,
    )
    trace = trace_from_events(k, telemetry.events)

    table = Table(
        ["quantity", "value"],
        title=f"E1: pipelined data movement, k={k}, {a.nrows}x{a.nrows} Poisson",
    )
    launches = trace.launches()
    consumes = trace.consumes()
    table.add("iterations run", result.iterations)
    table.add("launch events", len(launches))
    table.add("consume events", len(consumes))
    table.add("moments per launch", launches[0].count if launches else 0)
    table.add("every consume reads launch k iterations old", trace.verify_lookahead())
    table.add("solver converged", result.converged)

    lookahead_ok = trace.verify_lookahead()
    consumes_expected = max(result.iterations - k, 0)
    counts_ok = len(consumes) in (consumes_expected, consumes_expected + 1)

    findings = [
        "paper (Figure 1): inner products launched at iteration n-k flow "
        "diagonally through the pipeline and are consumed at iteration n.",
        f"measured: {len(consumes)} consumes, every one exactly k={k} "
        f"iterations after its launch: {lookahead_ok}; the LaunchLedger "
        "raised no early-read violations (reads before fan-in completion "
        "are impossible by construction).",
        "rendered diagrams follow below (static redraw + measured trace).",
    ]

    report = ExperimentReport(
        exp_id="E1",
        claim="F1",
        title="Figure 1: principal data movement in the new CG algorithm",
        tables=[table],
        findings=findings,
        passed=lookahead_ok and counts_ok and result.converged,
    )
    # Attach the diagrams as findings so render() shows them.
    report.findings.append("\n" + render_figure1(k))
    report.findings.append("\n" + render_pipeline_trace(trace))
    return report
