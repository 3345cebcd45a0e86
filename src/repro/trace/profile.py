"""Critical-path profiler: where does a live iteration spend its time?

The paper's §3 claim, restated operationally: on a machine where a
length-N fan-in costs ``c·log₂ N``, classical CG blocks on **two**
inner-product reductions per iteration while the restructured form hides
its direct dots behind the k-step moment window and blocks on at most
the drift-check dot.  :func:`profile_solve` measures this on a real run:

1. the solve runs under an actively-recording
   :class:`~repro.trace.spans.Tracer`, giving per-phase wall time
   (``matvec`` / ``local_dot`` / ``allreduce_wait`` / ...);
2. the blocking-synchronization count per iteration is taken from the
   run itself -- ``CommStats.synchronizations_on_critical_path`` for the
   distributed methods, the machine-model critical path plus observed
   drift-check dots for the sequential ones;
3. each blocking synchronization is priced at
   ``CostModel.dot_depth(n) × level_seconds`` (the user's "seconds per
   fan-in level" knob), which combines with the measured compute time
   into the headline **synchronization-blocked fraction**;
4. the same :mod:`repro.machine` DAG that prices step 3 also reports its
   *pure-model* sync fraction, so the empirical number is cross-checked
   against the analytic one in a single report.

``repro profile --method cg`` vs ``--method vr`` is the ISSUE-4
acceptance demonstration: CG's two blocking dots against VR's single
drift check, visible in both the empirical and model columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.trace.metrics import MetricsRegistry, MetricsSink
from repro.trace.spans import Span, Tracer

__all__ = ["PhaseStat", "ModelPrediction", "ProfileReport", "profile_solve"]

#: Methods mapped to their machine-model DAG compilations.  Distributed
#: methods share the DAG of the algorithm they distribute (the machine
#: model abstracts the rank layout away).
_DAG_METHODS = {
    "cg": "cg",
    "three-term": "cg",
    "dist-cg": "cg",
    "vr": "vr-eager",
    "adaptive-vr": "vr-eager",
    "pipelined-vr": "vr-pipelined",
    "adaptive-pipelined-vr": "vr-pipelined",
    "dist-pipelined-vr": "vr-pipelined",
    "cg-cg": "cgcg",
    "dist-cgcg": "cgcg",
    "gv": "gv",
    "pr-cg": "cgcg",
    "pr-pipe-cg": "gv",
    "sstep": "sstep",
    "dist-sstep": "sstep",
}


@dataclass
class PhaseStat:
    """Aggregated wall time of one phase across the whole solve."""

    name: str
    seconds: float
    count: int


@dataclass
class ModelPrediction:
    """Per-iteration critical-path figures from the compiled DAG."""

    per_iteration_depth: float
    sync_depth_per_iteration: float
    syncs_per_iteration: float
    sync_fraction: float


@dataclass
class ProfileReport:
    """Everything :func:`profile_solve` measured and derived.

    ``sync_blocked_fraction`` is the headline: the estimated share of
    iteration time a processor spends blocked on synchronization fan-ins,
    combining measured compute seconds with blocking synchronizations
    priced at ``dot_depth(n) × level_seconds``.  ``model`` carries the
    pure machine-model prediction for the cross-check.
    """

    method: str
    label: str
    n: int
    d: int
    iterations: int
    converged: bool
    wall_seconds: float
    level_seconds: float
    phases: list[PhaseStat]
    drift_checks: int
    blocking_syncs_per_iteration: float
    sync_blocked_seconds: float
    sync_blocked_fraction: float
    model: ModelPrediction | None
    comm: dict[str, Any] | None = None
    reductions: dict[str, int] = field(default_factory=dict)
    faults: int = 0
    recoveries: int = 0
    result: Any = field(default=None, repr=False)
    tracer: Tracer | None = field(default=None, repr=False)
    registry: MetricsRegistry | None = field(default=None, repr=False)

    @property
    def compute_seconds(self) -> float:
        """Measured phase time excluding synchronization waits."""
        return sum(p.seconds for p in self.phases if p.name != "allreduce_wait")

    def render(self) -> str:
        """The ASCII phase-breakdown table the CLI prints."""
        from repro.util.tables import Table

        table = Table(
            ["quantity", "value"],
            title=f"profile: {self.method} (n={self.n}, d={self.d})",
        )
        table.add("iterations", self.iterations)
        table.add("converged", self.converged)
        table.add("wall time [s]", f"{self.wall_seconds:.4f}")
        if self.iterations:
            table.add(
                "wall time / iteration [s]",
                f"{self.wall_seconds / self.iterations:.3e}",
            )
        for phase in self.phases:
            share = phase.seconds / self.wall_seconds if self.wall_seconds else 0.0
            table.add(
                f"phase {phase.name} [s]",
                f"{phase.seconds:.4f} ({share:5.1%}, x{phase.count})",
            )
        if self.drift_checks:
            table.add("drift-check dots", self.drift_checks)
        if self.faults or self.recoveries:
            table.add("faults / recoveries", f"{self.faults} / {self.recoveries}")
        if self.comm is not None:
            table.add(
                "syncs on critical path (comm)",
                self.comm.get("synchronizations_on_critical_path"),
            )
            for key in ("blocking_allreduces", "hidden_allreduces", "forced_waits"):
                if key in self.comm:
                    table.add(f"comm {key}", self.comm[key])
        table.add(
            "blocking syncs / iteration", f"{self.blocking_syncs_per_iteration:.2f}"
        )
        table.add("fan-in level time [s]", f"{self.level_seconds:.1e}")
        table.add("est. sync-blocked time [s]", f"{self.sync_blocked_seconds:.4f}")
        table.add("sync-blocked fraction", f"{self.sync_blocked_fraction:.1%}")
        if self.model is not None:
            table.add(
                "model: depth / iteration", f"{self.model.per_iteration_depth:.1f}"
            )
            table.add(
                "model: sync depth / iteration",
                f"{self.model.sync_depth_per_iteration:.1f}",
            )
            table.add(
                "model: syncs / iteration", f"{self.model.syncs_per_iteration:.2f}"
            )
            table.add("model: sync fraction", f"{self.model.sync_fraction:.1%}")
        return table.render()


class _CollectorSink:
    """Counts the event kinds the report needs, and keeps the outermost
    solve's start options (the window it ran); stores nothing else."""

    def __init__(self) -> None:
        self.drift = 0
        self.faults = 0
        self.recoveries = 0
        self.reductions: dict[str, int] = {}
        self.start_options: dict[str, Any] | None = None

    def emit(self, event: Any) -> None:
        kind = event.kind
        if kind == "drift":
            self.drift += 1
        elif kind == "fault":
            self.faults += 1
        elif kind == "recovery":
            self.recoveries += 1
        elif kind == "reduction":
            self.reductions[event.op] = self.reductions.get(event.op, 0) + 1
        elif kind == "solve_start" and self.start_options is None:
            self.start_options = event.options


def _max_degree(a: Any) -> int:
    """The matvec fan-in width d, with a safe fallback for operators."""
    try:
        from repro.sparse.stats import matrix_stats

        return max(matrix_stats(a, estimate_spectrum=False).max_degree, 1)
    except Exception:
        hook = getattr(a, "max_row_degree", None)
        if callable(hook):
            try:
                return max(int(hook()), 1)
            except Exception:
                pass
        return 5  # the poisson2d stencil width; only scales log d


def _build_model(
    method: str, n: int, d: int, iterations: int, window: dict[str, Any]
) -> ModelPrediction | None:
    """Compile the method's DAG and read sync figures off its critical path.

    ``window`` is the solve's own ``solve_start`` options, so the DAG has
    the look-ahead the solve ran: ``k`` (vr, pipelined-vr), ``k0`` (the
    adaptive methods' starting window) or ``s`` (s-step).
    """
    family = _DAG_METHODS.get(method)
    if family is None:
        return None
    from repro.machine import (
        build_cg_dag,
        build_cgcg_dag,
        build_gv_dag,
        build_sstep_dag,
        build_vr_eager_dag,
        build_vr_pipelined_dag,
    )

    iters = int(max(4, min(iterations or 12, 24)))
    # A b = 0 solve returns before any solver starts, so its start event
    # names no window; price the solvers' default windows then.
    k = int(window.get("k", window.get("k0", 2)))
    s = int(window.get("s", 4))
    if family == "cg":
        graph = build_cg_dag(n, d, iters).graph
        markers = iters
    elif family == "vr-eager":
        graph = build_vr_eager_dag(n, d, k, iters).graph
        markers = iters
    elif family == "vr-pipelined":
        iters = max(iters, 3 * k + 6)
        graph = build_vr_pipelined_dag(n, d, k, iters).graph
        markers = iters
    elif family == "cgcg":
        graph = build_cgcg_dag(n, d, iters).graph
        markers = iters
    elif family == "gv":
        graph = build_gv_dag(n, d, iters).graph
        markers = iters
    else:  # sstep
        outer = max(2, iters // s)
        graph = build_sstep_dag(n, d, s, outer).graph
        markers = outer * s
    total = graph.critical_path_length()
    sync_nodes = [
        node
        for node in graph.critical_path_nodes()
        if node.kind in ("dot", "reduce")
    ]
    sync_depth = sum(node.depth for node in sync_nodes)
    return ModelPrediction(
        per_iteration_depth=total / markers,
        sync_depth_per_iteration=sync_depth / markers,
        syncs_per_iteration=len(sync_nodes) / markers,
        sync_fraction=sync_depth / total if total else 0.0,
    )


def profile_solve(
    a: Any,
    b: np.ndarray,
    method: str = "cg",
    *,
    level_seconds: float = 1e-6,
    registry: MetricsRegistry | None = None,
    telemetry_sinks: tuple[Any, ...] = (),
    **options: Any,
) -> ProfileReport:
    """Run one traced solve and attribute its time to phases.

    Parameters
    ----------
    a, b, method, **options:
        Forwarded to :func:`repro.solve` (``k=``, ``s=``, ``stop=``,
        ``nranks=``, ...).
    level_seconds:
        Wall-clock cost of one fan-in level, used to price blocking
        synchronizations at ``dot_depth(n) × level_seconds``.  The
        default 1 µs/level is a contemporary interconnect hop; the
        *ratio* between methods is level-independent.
    registry:
        Optional :class:`MetricsRegistry` to feed (via a
        :class:`MetricsSink`) alongside the trace.
    telemetry_sinks:
        Extra sinks to attach (e.g. a ``JsonlSink``).
    """
    from repro.machine import CostModel
    from repro.registry import solve
    from repro.telemetry import NullSink, Telemetry

    collector = _CollectorSink()
    sinks: list[Any] = [collector, *telemetry_sinks]
    if registry is not None:
        sinks.append(MetricsSink(registry))
    if not telemetry_sinks:
        sinks.append(NullSink())
    tracer = Tracer()
    telemetry = Telemetry(*sinks, tracer=tracer)
    try:
        result = solve(a, b, method, telemetry=telemetry, **options)
    finally:
        telemetry.close()

    solves = [s for s in tracer.spans() if s.name == "solve"]
    solve_span = solves[-1] if solves else Span("solve", 0.0, 0.0)
    n = int(np.asarray(b).shape[0])
    d = _max_degree(a)
    iterations = int(result.iterations)
    phases = [
        PhaseStat(name, seconds, count)
        for name, (seconds, count) in sorted(
            solve_span.phase_totals().items(), key=lambda kv: -kv[1][0]
        )
    ]
    model = _build_model(
        method, n, d, iterations, collector.start_options or {}
    )

    cm = CostModel()
    comm_stats = (result.extras or {}).get("comm_stats")
    comm: dict[str, Any] | None = None
    if comm_stats is not None:
        comm = {
            "synchronizations_on_critical_path": int(
                comm_stats.synchronizations_on_critical_path()
            ),
            "blocking_allreduces": int(comm_stats.blocking_allreduces),
            "hidden_allreduces": int(comm_stats.hidden_allreduces),
            "forced_waits": int(comm_stats.forced_waits),
        }
    iters_div = max(iterations, 1)
    if comm is not None:
        # Distributed run: the comm layer booked exactly which collectives
        # landed on the critical path.
        syncs_per_iter = comm["synchronizations_on_critical_path"] / iters_div
        sync_depth_per_iter = syncs_per_iter * cm.dot_depth(n)
    elif model is not None:
        # Sequential run: the model supplies the algorithmic blocking
        # dots; observed drift-check dots are extra blocking syncs the
        # steady-state DAG does not carry.
        drift_rate = collector.drift / iters_div
        syncs_per_iter = model.syncs_per_iteration + drift_rate
        sync_depth_per_iter = (
            model.sync_depth_per_iteration + drift_rate * cm.dot_depth(n)
        )
    else:
        # Stationary methods (jacobi, ...): no global synchronization.
        syncs_per_iter = 0.0
        sync_depth_per_iter = 0.0

    sync_blocked = sync_depth_per_iter * level_seconds * iterations
    compute = sum(p.seconds for p in phases if p.name != "allreduce_wait")
    denom = sync_blocked + compute
    return ProfileReport(
        method=method,
        label=result.label,
        n=n,
        d=d,
        iterations=iterations,
        converged=bool(result.converged),
        wall_seconds=solve_span.seconds,
        level_seconds=level_seconds,
        phases=phases,
        drift_checks=collector.drift,
        blocking_syncs_per_iteration=syncs_per_iter,
        sync_blocked_seconds=sync_blocked,
        sync_blocked_fraction=sync_blocked / denom if denom else 0.0,
        model=model,
        comm=comm,
        reductions=dict(collector.reductions),
        faults=collector.faults,
        recoveries=collector.recoveries,
        result=result,
        tracer=tracer,
        registry=registry,
    )
