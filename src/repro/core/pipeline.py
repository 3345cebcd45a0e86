"""The pipelined Van Rosendale iteration and its data-movement trace.

:mod:`repro.core.vr_cg` implements the *eager* refinement of the paper's
Section 5 (scalar recurrences advance the moment window step by step, two
direct inner products per iteration).  This module implements the iteration
the way Section 5 *narrates* it and Figure 1 draws it:

* at iteration ``m``, as soon as ``r^m`` and ``p^m`` exist, **all** the
  inner products ``(r^m, Aⁱr^m)``, ``(r^m, Aⁱp^m)``, ``(p^m, Aⁱp^m)`` are
  *launched* -- on the paper's machine their ``log N`` fan-ins complete
  k iterations later;
* the coefficients of relation (*) are accumulated **in pipelined fashion**
  as each parameter pair ``(λ_s, α_{s+1})`` becomes available -- one banded
  matrix multiply per iteration per in-flight target (constant depth);
* at iteration ``n = m + k``, the arrived moment values are *consumed*:
  the pre-composed coefficient rows are dotted against them (the
  ``log(6k+6)`` summation of claim C7) to produce ``μ₀ⁿ`` -- and, after the
  ratio ``αn = μ₀ⁿ/μ₀ⁿ⁻¹``, the ``σ₁ⁿ`` row and thus ``λn``.

The apparent circularity -- the last composition step is
``T(λ_{n-1}, α_n)`` but ``α_n`` needs ``μ₀ⁿ`` -- is broken by the
structural fact (verified symbolically in the test suite) that the ``μ₀``
row of the composed map does not involve ``α_n``: we extract it with a
placeholder, form the ratio, and only then finalize the ``σ₁`` row.

Every launch and consume is recorded in a :class:`PipelineTrace`, from
which :mod:`repro.experiments.fig1_schedule` re-renders Figure 1.  A
:class:`LaunchLedger` enforces the timing discipline: reading a moment
value before its fan-in would have completed on the paper's machine raises,
so the trace is not merely decorative -- the solver provably never uses a
value earlier than the parallel machine could provide it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.coefficients import (
    mu_index,
    one_step_matrix_numeric,
    sigma_index,
    state_size,
)
from repro.core.moments import window_from_powers
from repro.core.powers import PowerBlock
from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import as_operator, operator_dtype
from repro.util.counters import add_scalar_flops
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import (
    as_1d_typed_array,
    check_square_operator,
    require_positive_int,
)

# Same finite-precision divergence guard as the eager solver
# (repro.core.vr_cg): recurred residual growth beyond this factor over
# max(‖r⁰‖, ‖b‖) is breakdown, not slow progress.
_DIVERGENCE_FACTOR = 1e8

__all__ = [
    "pipelined_vr_cg",
    "PipelineTrace",
    "TraceEvent",
    "LaunchLedger",
    "trace_from_events",
]


@dataclass(frozen=True)
class TraceEvent:
    """One data-movement event in the iteration pipeline.

    Attributes
    ----------
    kind:
        ``"launch"`` (inner products start their fan-ins), ``"consume"``
        (their values enter the (*) summation), or ``"coeff_update"``
        (one pipelined coefficient composition step).
    iteration:
        The iteration at which the event happens.
    source_iteration:
        For consumes/coefficient updates: the iteration whose state the
        event refers to (the launch iteration).
    count:
        Number of scalar values involved (6k+6 moments per launch).
    """

    kind: str
    iteration: int
    source_iteration: int
    count: int


@dataclass
class PipelineTrace:
    """The full launch/consume record of a pipelined solve (Figure 1)."""

    k: int
    events: list[TraceEvent] = field(default_factory=list)

    def launches(self) -> list[TraceEvent]:
        """All launch events, in iteration order."""
        return [e for e in self.events if e.kind == "launch"]

    def consumes(self) -> list[TraceEvent]:
        """All consume events, in iteration order."""
        return [e for e in self.events if e.kind == "consume"]

    def verify_lookahead(self) -> bool:
        """Check every consume reads a launch exactly ``k`` iterations old
        (the diagonal data flow of Figure 1)."""
        return all(
            e.iteration - e.source_iteration == self.k for e in self.consumes()
        )


def trace_from_events(k: int, events: list[Any]) -> PipelineTrace:
    """Rebuild a :class:`PipelineTrace` from telemetry pipeline events.

    Accepts the :class:`~repro.telemetry.PipelineEvent` stream collected by
    a :class:`~repro.telemetry.Telemetry` session (other event kinds are
    ignored), so Figure 1 renders from the telemetry layer without the
    deprecated ``trace=`` kwarg.
    """
    trace = PipelineTrace(k=k)
    for e in events:
        if getattr(e, "kind", None) == "pipeline":
            trace.events.append(
                TraceEvent(e.op, e.iteration, e.source_iteration, e.count)
            )
    return trace


class LaunchLedger:
    """Models inner-product fan-in latency: values launched at iteration
    ``m`` may not be read before iteration ``m + k``.

    The numerical values exist immediately (we are simulating), but
    :meth:`read` refuses to return them early -- turning the paper's timing
    argument into an enforced invariant.
    """

    def __init__(self, k: int) -> None:
        self._k = int(k)
        self._slots: dict[int, np.ndarray] = {}

    def launch(self, iteration: int, values: np.ndarray) -> None:
        """Record values whose fan-ins start at ``iteration``."""
        if iteration in self._slots:
            raise ValueError(f"iteration {iteration} already launched")
        self._slots[iteration] = np.asarray(values, dtype=np.float64)

    def read(self, source_iteration: int, *, at_iteration: int) -> np.ndarray:
        """Fetch values launched at ``source_iteration``; raises if the
        fan-in would not have completed yet (``at < source + k``)."""
        if at_iteration - source_iteration < self._k:
            raise RuntimeError(
                f"inner products launched at iteration {source_iteration} are"
                f" not available at iteration {at_iteration}"
                f" (look-ahead k={self._k})"
            )
        return self._slots[source_iteration]

    def discard_before(self, iteration: int) -> None:
        """Free slots older than ``iteration`` (bounded memory)."""
        for key in [k for k in self._slots if k < iteration]:
            del self._slots[key]


class _CoefficientPipeline:
    """The in-flight composed coefficient matrices, one per future target.

    ``matrices[t]`` accumulates ``T_s ⋯ T_{t-k+1}`` as the steps ``s``
    complete; by iteration ``t`` it covers steps ``t-k+1 .. t-1`` and only
    the final factor ``T_t`` remains (applied at consume time, split into
    the α-free ``μ₀`` row and the full ``σ₁`` row).
    """

    def __init__(self, k: int, w: int) -> None:
        self._k = int(k)
        self._size = state_size(w)
        self._w = w
        self.matrices: dict[int, np.ndarray] = {}

    def open_target(self, t: int) -> None:
        """Begin accumulating for target iteration ``t``."""
        self.matrices[t] = np.eye(self._size)

    def push_step(self, s: int, lam_prev: float, alpha_s: float) -> int:
        """Fold the completed step ``s`` (map ``T(λ_{s-1}, α_s)``) into
        every in-flight target whose span contains it; returns how many
        targets were updated (for the trace)."""
        t_mat = one_step_matrix_numeric(self._w, lam_prev, alpha_s)
        updated = 0
        for t, m in self.matrices.items():
            if t - self._k + 1 <= s <= t - 1:
                self.matrices[t] = t_mat @ m
                add_scalar_flops(6 * self._size * self._size)
                updated += 1
        return updated

    def consume(
        self, t: int, lam_prev: float, state: np.ndarray, mu0_prev: float
    ) -> tuple[float, float, float]:
        """Finish target ``t``: produce ``(μ₀ᵗ, αₜ, σ₁ᵗ)`` from the base
        state ``m^{t-k}``.

        The final factor ``T(λ_{t-1}, α_t)`` is applied in two stages:
        the ``μ₀`` row first with a placeholder ``α`` (it provably does not
        depend on ``α_t``), then -- once ``α_t`` is known from the ratio --
        the ``σ₁`` row with the true value.
        """
        base = self.matrices.pop(t)
        t_placeholder = one_step_matrix_numeric(self._w, lam_prev, 0.0)
        mu_row = t_placeholder[mu_index(self._w, 0)] @ base
        mu0 = float(mu_row @ state)
        add_scalar_flops(2 * self._size)
        alpha_t = mu0 / mu0_prev
        t_full = one_step_matrix_numeric(self._w, lam_prev, alpha_t)
        sigma_row = t_full[sigma_index(self._w, 1)] @ base
        sigma1 = float(sigma_row @ state)
        add_scalar_flops(2 * self._size)
        return mu0, alpha_t, sigma1


def pipelined_vr_cg(
    a: Any,
    b: np.ndarray,
    *,
    k: int = 2,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    faults: Any = None,
    recovery: Any = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
    trace: PipelineTrace | None = None,
    controller: "WindowController | None" = None,
) -> CGResult:
    """Solve ``A x = b`` with the fully pipelined Van Rosendale iteration.

    Semantics follow the paper's Section 5 narration: all moments of
    iteration ``m`` are launched as direct inner products at ``m`` and
    consumed through the pipelined (*) coefficients at ``m + k``.  During
    the first ``k`` iterations (the paper's "initial start up") the scalars
    are taken from the launched values directly -- on the paper's machine
    this is the transient in which the pipeline fills.

    Parameters
    ----------
    a, b, x0, stop:
        As in :func:`repro.core.vr_cg.vr_conjugate_gradient`.
    k:
        Look-ahead depth (``k >= 1``; ``k = 0`` has no pipeline and is the
        eager solver's territory).
    faults:
        Optional :class:`repro.faults.FaultPlan` (or injector(s)).
        Matvec-site injectors corrupt matvec outputs; dot-site injectors
        hit the launched moment values (the launches *are* the direct
        dots here) and the startup-transient front dots; scalar-site
        injectors hit the stacked launch state the (*) coefficients
        later consume -- the deep-pipeline exposure the paper's critics
        (Cools et al.) analyze.
    recovery:
        Optional :class:`repro.faults.RecoveryPolicy` or preset name.
        The pipelined realization cannot patch the in-flight window
        (``verify_every`` is a no-op here): every repair -- periodic or
        drift-triggered replacement, breakdown/divergence restart --
        refills the whole pipeline from the true residual at the current
        iterate, discarding the direction history.  Detectors still run
        (the drift check costs one direct dot per iteration).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hook; every launch,
        consume, and coefficient-update is emitted as a
        :class:`~repro.telemetry.PipelineEvent` (rebuild a
        :class:`PipelineTrace` with :func:`trace_from_events`), plus the
        usual per-iteration events.
    workspace:
        Optional :class:`repro.backend.Workspace`; a per-solve arena is
        made when omitted.  Steady-state iterations allocate zero new
        arrays (the launch/consume scalar machinery is O(k²), not O(n)).
    trace:
        Deprecated; pass ``telemetry=`` and use :func:`trace_from_events`
        instead.  A supplied trace is still filled (with a
        :class:`DeprecationWarning`).
    controller:
        Optional :class:`repro.core.adaptive.WindowController`.  When
        supplied the controller samples the recurred-vs-direct drift gap
        every ``check_every`` iterations and may *resize* the window --
        each resize refills the pipeline at the new ``k`` through the
        same path a residual replacement uses -- or give up
        (``fallback``), in which case the solve returns with its partial
        progress and ``extras["adaptive"]["fell_back"] = True`` so a
        wrapper (:func:`repro.core.adaptive.adaptive_pipelined_vr_cg`)
        can hand the iterate to classical CG.  The controller owns all
        repair decisions, so it cannot be combined with ``recovery=`` or
        ``faults=``.

    Returns
    -------
    CGResult
        With ``label = "pipelined-vr-cg(k=...)"``.
    """
    b_arr = np.asarray(b)
    op = as_operator(a, n=b_arr.shape[0] if b_arr.ndim == 1 else None)
    dtype = operator_dtype(op)
    b = as_1d_typed_array(b, "b", dtype)
    n = check_square_operator(op, b.shape[0])
    k = require_positive_int(k, "k")
    stop = stop or StoppingCriterion()
    if trace is not None and trace.k != k:
        raise ValueError(f"trace.k={trace.k} does not match solver k={k}")
    if trace is not None:
        from repro.telemetry import deprecated_hook

        if telemetry is not None:
            raise ValueError(
                "pipelined_vr_cg() got both telemetry= and the deprecated "
                "trace= hook; pass only telemetry= and rebuild the trace "
                "with trace_from_events"
            )
        deprecated_hook(
            "pipelined_vr_cg(trace=...)",
            "telemetry= with repro.core.pipeline.trace_from_events",
        )

    def _event(kind: str, iteration: int, source_iteration: int, count: int) -> None:
        if trace is not None:
            trace.events.append(TraceEvent(kind, iteration, source_iteration, count))
        if telemetry is not None:
            telemetry.pipeline(kind, iteration, source_iteration, count)

    from repro.backend import Workspace
    from repro.faults import RecoveryPolicy, UnrecoverableDivergence, as_fault_plan

    ws = workspace if workspace is not None else Workspace()
    policy = RecoveryPolicy.from_spec(recovery)
    plan = as_fault_plan(faults)
    if controller is not None and (policy is not None or plan is not None):
        raise ValueError(
            "controller= (adaptive window) owns all repair decisions and "
            "cannot be combined with recovery= or faults="
        )

    x = (
        np.zeros(n, dtype=dtype)
        if x0 is None
        else as_1d_typed_array(x0, "x0", dtype).copy()
    )
    if telemetry is not None:
        # A controller means this run is the engine of the adaptive
        # method; report the name the caller actually asked for.
        method = "pipelined-vr" if controller is None else "adaptive-pipelined-vr"
        label = (
            f"pipelined-vr-cg(k={k})"
            if controller is None
            else f"adaptive-pipelined-vr-cg(k0={k})"
        )
        telemetry.solve_start(method, label, n, k=k)
        telemetry.iterate(x)
    b_norm = norm(b)

    op_true = op
    if plan is not None:
        plan.attach(telemetry)
        op = plan.wrap_operator(op)

    res_norms: list[float] = []
    alphas: list[float] = []
    lambdas: list[float] = []
    recoveries: dict[str, int] = {"replace": 0, "restart": 0, "recompute": 0}
    restarts_used = 0
    iterations = 0
    budget = stop.budget(n)

    def _result(reason: StopReason) -> CGResult:
        # Exit verification bypasses any matvec-site injector: the honesty
        # check must measure the pristine operator.
        true_res = norm(b - op_true.matvec(x))
        reason = verified_exit(reason, true_res, stop.threshold(b_norm))
        if (
            policy is not None
            and policy.on_unrecoverable == "raise"
            and reason is StopReason.BREAKDOWN
            and restarts_used >= policy.max_restarts
        ):
            raise UnrecoverableDivergence(
                f"pipelined-vr-cg(k={k}) broke down after {iterations} "
                f"iterations and {restarts_used} restarts "
                f"(true residual {true_res:.3e})"
            )
        extras: dict[str, Any] = {}
        if plan is not None:
            extras["faults"] = plan.counts()
        if policy is not None:
            extras["recoveries"] = dict(recoveries)
        if controller is not None:
            extras["adaptive"] = controller.snapshot()
            extras["k_history"] = list(controller.k_history)
        result = CGResult(
            x=x,
            converged=reason is StopReason.CONVERGED,
            stop_reason=reason,
            iterations=iterations,
            residual_norms=res_norms,
            alphas=alphas,
            lambdas=lambdas,
            true_residual_norm=true_res,
            label=f"pipelined-vr-cg(k={k})",
            extras=extras,
        )
        if telemetry is not None:
            telemetry.solve_end(result)
        return result

    def _segment(offset: int, budget_left: int) -> tuple[str, str, float]:
        """Run the pipelined iteration from the current ``x`` until it
        converges, exhausts the budget, trips a recovery detector, or
        breaks down.  Each segment owns a fresh pipeline (powers, ledger,
        coefficient matrices); ``offset`` shifts its local iteration
        numbers into the global telemetry/trace timeline, preserving the
        consume-minus-launch == k diagonal within the segment.

        Returns ``(outcome, trigger, gap)`` with outcome one of
        ``converged``/``maxiter``/``replace``/``breakdown``/``divergence``.
        """
        nonlocal iterations
        tracer = telemetry.tracer if telemetry is not None else None
        # Ledger states use the solver's own window parameter; bound per
        # segment so an adaptive resize (outer loop rebinding k) takes
        # effect at the next refill.
        w = k

        # Startup: powers of the current residual and the launch of the
        # segment's iteration-0 moments.
        if plan is not None:
            plan.begin_iteration(offset)
        if tracer is not None:
            tracer.begin("startup")
        powers = PowerBlock.startup(op, b - op.matvec(x), k)
        if tracer is not None:
            tracer.end("startup")
        ledger = LaunchLedger(k)
        pipeline = _CoefficientPipeline(k, w)

        def _launch(local: int) -> np.ndarray:
            if tracer is not None:
                tracer.begin("local_dot")
            window = window_from_powers(k, powers.r_powers, powers.p_powers,
                                        label="pipeline_launch_dot")
            state = window.stacked()
            if plan is not None:
                # The launches ARE the direct dots of this realization, and
                # the stacked values are the recurred-moment state the (*)
                # coefficients will consume k iterations later -- both
                # fault surfaces live here.
                plan.corrupt_dot_batch(state, "pipeline_launch")
                plan.corrupt_state(state, "pipeline_launch")
            if tracer is not None:
                tracer.end("local_dot")
            ledger.launch(local, state)
            _event("launch", offset + local, offset + local, state.size)
            return state

        state0 = _launch(0)
        mu0_cur = float(state0[mu_index(w, 0)])
        sigma1_cur = float(state0[sigma_index(w, 1)])
        if mu0_cur < 0.0 and telemetry is not None:
            telemetry.clamp(iterations, mu0_cur)
        if not res_norms:
            res_norms.append(float(np.sqrt(max(mu0_cur, 0.0))))
        if stop.is_met(float(np.sqrt(max(mu0_cur, 0.0))), b_norm):
            if plan is None or norm(
                b - op_true.matvec(x)
            ) <= stop.threshold(b_norm):
                return ("converged", "", 0.0)
            return ("breakdown", "false_convergence", 0.0)

        for t in range(1, k + 1):
            pipeline.open_target(t)

        since_replacement = 0
        since_ctl = 0
        for step in range(budget_left):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            if sigma1_cur <= 0.0 or mu0_cur <= 0.0:
                return ("breakdown", "breakdown", 0.0)
            lam = mu0_cur / sigma1_cur
            add_scalar_flops(1)
            lambdas.append(lam)
            if tracer is not None:
                tracer.begin("axpy")
            axpy(lam, powers.p, x, out=x, work=ws)
            if tracer is not None:
                tracer.end("axpy")
            iterations += 1
            since_replacement += 1

            # Advance the vector pipeline to iteration n+1.
            if tracer is not None:
                tracer.begin("axpy")
            powers.advance_r(lam, work=ws)
            if tracer is not None:
                tracer.end("axpy")

            target = step + 1
            if target <= k:
                # Startup transient: the coefficient pipeline has not
                # filled; scalars come from the (already launched) direct
                # values of the *current* front -- i.e. computed with zero
                # look-ahead, which is exactly the paper's "initial start
                # up" serialization.
                pipeline.matrices.pop(target, None)  # consumed by the transient
                if tracer is not None:
                    tracer.begin("local_dot")
                window = window_from_powers(k, powers.r_powers, powers.p_powers,
                                            label="startup_front_dot")
                mu0_next = float(window.mu[0])
                if plan is not None:
                    mu0_next = plan.corrupt_dot(mu0_next, "startup_front_mu")
                if tracer is not None:
                    tracer.end("local_dot")
            else:
                if tracer is not None:
                    tracer.begin("recurrence")
                base_state = ledger.read(target - k, at_iteration=target)
                mu0_next, _alpha_pipe, sigma1_next_pipe = pipeline.consume(
                    target, lam, base_state, mu0_cur
                )
                if tracer is not None:
                    tracer.end("recurrence")
                _event("consume", offset + target, offset + target - k,
                       base_state.size)

            if mu0_next < 0.0 and telemetry is not None:
                # The clamp below would otherwise hide the drift: a
                # negative recurred mu0 is finite-precision error, not a
                # residual of 0.
                telemetry.clamp(iterations, mu0_next)
            res_norms.append(float(np.sqrt(max(mu0_next, 0.0))))
            if telemetry is not None:
                telemetry.iteration(
                    iterations, res_norms[-1], lam=lam, recurred_rr=mu0_next
                )
                telemetry.iterate(x)
            if stop.is_met(res_norms[-1], b_norm):
                # A corrupted scalar can fake convergence (a tiny recurred
                # mu0); under injection verify against the true residual
                # before accepting the exit.
                if plan is None or norm(
                    b - op_true.matvec(x)
                ) <= stop.threshold(b_norm):
                    return ("converged", "", 0.0)
                return ("breakdown", "false_convergence", 0.0)
            if mu0_next <= 0.0 or not np.isfinite(mu0_next):
                return ("breakdown", "breakdown", 0.0)
            if res_norms[-1] > _DIVERGENCE_FACTOR * max(res_norms[0], b_norm):
                return ("divergence", "divergence", 0.0)

            alpha_next = mu0_next / mu0_cur
            add_scalar_flops(1)
            alphas.append(alpha_next)

            if tracer is not None:
                tracer.begin("matvec")
            powers.advance_p(op, alpha_next, work=ws)
            if tracer is not None:
                tracer.end("matvec")

            if target <= k:
                if tracer is not None:
                    tracer.begin("local_dot")
                window = window_from_powers(k, powers.r_powers, powers.p_powers,
                                            label="startup_front_dot")
                sigma1_next = float(window.sigma[1])
                if plan is not None:
                    sigma1_next = plan.corrupt_dot(
                        sigma1_next, "startup_front_sigma"
                    )
                state_next = window.stacked()
                if tracer is not None:
                    tracer.end("local_dot")
                # Even during startup the launches happen on schedule so
                # the pipeline fills behind the transient.
                ledger.launch(target, state_next)
                _event("launch", offset + target, offset + target,
                       state_next.size)
            else:
                sigma1_next = sigma1_next_pipe
                _launch(target)

            # Fold the just-completed step into the in-flight coefficients
            # and open the next target.
            if tracer is not None:
                tracer.begin("recurrence")
            updated = pipeline.push_step(target, lam, alpha_next)
            if tracer is not None:
                tracer.end("recurrence")
            if updated:
                _event("coeff_update", offset + target, offset + target, updated)
            pipeline.open_target(target + k)
            ledger.discard_before(target - k + 1)

            mu0_cur = mu0_next
            sigma1_cur = sigma1_next

            # --- recovery detectors (policy-driven) ----------------------
            if policy is not None and policy.drift_tol is not None:
                if tracer is not None:
                    tracer.begin("local_dot")
                rr_direct = dot(powers.r, powers.r, label="drift_check_dot")
                if tracer is not None:
                    tracer.end("local_dot")
                if telemetry is not None:
                    telemetry.drift(iterations, mu0_cur, rr_direct)
                floor = max(
                    stop.threshold(b_norm) ** 2, np.finfo(np.float64).tiny
                )
                if rr_direct > floor:
                    gap = abs(mu0_cur - rr_direct) / rr_direct
                    if gap > policy.drift_tol:
                        return ("replace", "drift", gap)
            if (
                policy is not None
                and policy.replace_every is not None
                and since_replacement >= policy.replace_every
            ):
                return ("replace", "periodic", 0.0)

            # --- adaptive window controller ------------------------------
            if controller is not None:
                since_ctl += 1
                if since_ctl >= controller.config.check_every:
                    since_ctl = 0
                    if tracer is not None:
                        tracer.begin("local_dot")
                    rr_direct = dot(powers.r, powers.r, label="drift_check_dot")
                    if tracer is not None:
                        tracer.end("local_dot")
                    if telemetry is not None:
                        telemetry.drift(iterations, mu0_cur, rr_direct)
                    floor = max(
                        stop.threshold(b_norm) ** 2, np.finfo(np.float64).tiny
                    )
                    if rr_direct > floor:
                        ctl_gap = abs(mu0_cur - rr_direct) / rr_direct
                        action = controller.observe_gap(iterations, ctl_gap)
                        if action == "fallback":
                            return ("fallback", "drift", ctl_gap)
                        if action in ("shrink", "grow", "replace"):
                            return ("resize", action, ctl_gap)

        return ("maxiter", "", 0.0)

    outcome, trigger, gap = _segment(0, budget)
    while True:
        if outcome == "converged":
            return _result(StopReason.CONVERGED)
        if outcome == "maxiter" or iterations >= budget:
            return _result(StopReason.MAX_ITER)
        if outcome == "fallback":
            # The controller gave up on the moment window; the wrapper
            # (adaptive_pipelined_vr_cg) hands the iterate to classical CG.
            return _result(StopReason.BREAKDOWN)
        if outcome == "resize":
            # Controller decision (shrink/grow/replace): refill the whole
            # pipeline at the possibly-new window size -- the same refill
            # path a residual replacement uses.
            k = max(1, controller.k)
            recoveries["replace"] += 1
            if telemetry is not None:
                telemetry.replacement(iterations, "adaptive")
        elif outcome == "replace":
            # The pipelined realization cannot splice a fresh window into
            # the in-flight coefficient chain: replacement refills the
            # whole pipeline from the true residual at the current x
            # (losing the direction history -- a restart in CG terms, the
            # price of the deep pipeline).
            recoveries["replace"] += 1
            if telemetry is not None:
                telemetry.replacement(iterations, trigger)
                telemetry.recovery(iterations, "replace", trigger, gap)
        else:  # breakdown / divergence: spend one bounded restart
            if controller is not None:
                action = controller.observe_breakdown(iterations, trigger)
                if action == "fallback":
                    return _result(StopReason.BREAKDOWN)
                # shrink or floor repair: refill at the controller's k.
                k = max(1, controller.k)
                recoveries["restart"] += 1
                if telemetry is not None:
                    telemetry.recovery(iterations, "restart", trigger)
            else:
                if policy is None or restarts_used >= policy.max_restarts:
                    return _result(StopReason.BREAKDOWN)
                restarts_used += 1
                recoveries["restart"] += 1
                if telemetry is not None:
                    telemetry.recovery(iterations, "restart", trigger)
        outcome, trigger, gap = _segment(iterations, budget - iterations)
