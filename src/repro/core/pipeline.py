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

Every launch and consume is emitted as a telemetry pipeline event;
:func:`trace_from_events` rebuilds the :class:`PipelineTrace` from which
:mod:`repro.experiments.fig1_schedule` re-renders Figure 1.  A
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
from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import _recovery_step
from repro.util.counters import add_scalar_flops, traced
from repro.util.kernels import axpy, dot
from repro.util.validation import require_positive_int

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
    ignored), so Figure 1 renders from the telemetry layer.
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

    @traced("recurrence")
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

    @traced("recurrence")
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
    recovery: Any = "drift",
    telemetry: "Telemetry | None" = None,
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
        :class:`repro.faults.RecoveryPolicy` or preset name; defaults to
        ``"drift"``, and ``None`` or ``"none"`` runs the recurrence
        unrepaired.  Unrepaired, the recurred moments drift until
        ``μ₀`` loses positivity and the solve breaks down on larger
        grids even at ``k=2``, so drift repair is the default, as for
        ``vr``.  The pipelined realization cannot patch the in-flight
        window, so its verify (``verify_every``) is the drift check
        itself, judged at ``verify_rtol``: one direct dot every
        ``verify_every`` iterations, or this iteration's drift gap when
        ``drift_tol`` is armed too.  Every repair -- a drift, verify or
        periodic replacement, a breakdown/divergence restart -- refills
        the whole pipeline from the true residual at the current
        iterate, discarding the direction history: a periodic
        replacement here is a CG restart.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hook; every launch,
        consume, and coefficient-update is emitted as a
        :class:`~repro.telemetry.PipelineEvent` (rebuild a
        :class:`PipelineTrace` with :func:`trace_from_events`), plus the
        usual per-iteration events.  Steady-state iterations draw
        scratch from the run's workspace arena and allocate zero new
        arrays (the launch/consume scalar machinery is O(k²), not O(n)).

    Returns
    -------
    CGResult
        With ``label = "pipelined-vr-cg(k=...)"``.
    """
    k = require_positive_int(k, "k")
    run = SolveRun.open(
        "pipelined-vr",
        f"pipelined-vr-cg(k={k})",
        a,
        b,
        x0=x0,
        stop=stop,
        faults=faults,
        recovery=recovery,
        telemetry=telemetry,
        keep_dtype=True,
        k=k,
    )
    reason, iterations, alphas, lambdas = _pipelined_loop(run, k)
    return run.finish(reason, run.x, iterations, alphas=alphas, lambdas=lambdas)


def _pipelined_loop(
    run: SolveRun, k: int, controller: Any = None
) -> tuple[StopReason, int, list[float], list[float]]:
    """The pipelined iteration of ``run``, starting at look-ahead ``k``.

    Runs segments, each on a freshly filled pipeline, until one
    converges or the budget runs out; every repair refills.  Repairs
    follow the run's recovery policy or, when given, a
    :class:`~repro.core.adaptive.WindowController`, exactly as in
    :func:`repro.core.vr_cg._vr_loop` (refill at the controller's
    window size; stop with ``MAX_ITER`` when it falls back).  Returns
    ``(reason, iterations, alphas, lambdas)``; the iterate is ``run.x``,
    updated in place.
    """
    op, b, x = run.op, run.b, run.x
    ws, plan, telemetry = run.ws, run.plan, run.telemetry

    def _event(kind: str, iteration: int, source_iteration: int, count: int) -> None:
        if telemetry is not None:
            telemetry.pipeline(kind, iteration, source_iteration, count)

    alphas: list[float] = []
    lambdas: list[float] = []
    iterations = 0
    budget = run.stop.budget(b.shape[0])

    def _segment(offset: int, budget_left: int) -> tuple[str, str, float]:
        """Run the pipelined iteration from the current ``x`` until it
        converges, exhausts the budget, trips a recovery detector, or
        breaks down.  Each segment owns a fresh pipeline (powers, ledger,
        coefficient matrices); ``offset`` shifts its local iteration
        numbers into the global telemetry/trace timeline, preserving the
        consume-minus-launch == k diagonal within the segment.

        Returns ``(outcome, trigger, gap)`` with outcome one of
        ``maxiter``/``replace``/``breakdown``, the run's verdict
        (``converged`` or a trigger, see :meth:`SolveRun.verdict`), or
        under a controller ``resize``/``fallback``.
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
            ledger.launch(local, state)
            _event("launch", offset + local, offset + local, state.size)
            return state

        state0 = _launch(0)
        mu0_cur = float(state0[mu_index(w, 0)])
        sigma1_cur = float(state0[sigma_index(w, 1)])
        if mu0_cur < 0.0 and telemetry is not None:
            telemetry.clamp(iterations, mu0_cur)
        if run.start(float(np.sqrt(max(mu0_cur, 0.0))), x):
            return ("converged", "", 0.0)

        for t in range(1, k + 1):
            pipeline.open_target(t)

        since_ctl = 0
        for step in range(budget_left):
            if plan is not None:
                plan.begin_iteration(iterations + 1)
            if sigma1_cur <= 0.0 or mu0_cur <= 0.0:
                return ("breakdown", "breakdown", 0.0)
            lam = mu0_cur / sigma1_cur
            add_scalar_flops(1)
            lambdas.append(lam)
            axpy(lam, powers.p, x, out=x, work=ws)
            iterations += 1

            # Advance the vector pipeline to iteration n+1.
            powers.advance_r(lam, work=ws)

            target = step + 1
            if target <= k:
                # Startup transient: the coefficient pipeline has not
                # filled; scalars come from the (already launched) direct
                # values of the *current* front -- i.e. computed with zero
                # look-ahead, which is exactly the paper's "initial start
                # up" serialization.
                pipeline.matrices.pop(target, None)  # consumed by the transient
                window = window_from_powers(k, powers.r_powers, powers.p_powers,
                                            label="startup_front_dot")
                mu0_next = float(window.mu[0])
                if plan is not None:
                    mu0_next = plan.corrupt_dot(mu0_next, "startup_front_mu")
            else:
                base_state = ledger.read(target - k, at_iteration=target)
                mu0_next, _alpha_pipe, sigma1_next_pipe = pipeline.consume(
                    target, lam, base_state, mu0_cur
                )
                _event("consume", offset + target, offset + target - k,
                       base_state.size)

            if mu0_next < 0.0 and telemetry is not None:
                # The clamp below would otherwise hide the drift: a
                # negative recurred mu0 is finite-precision error, not a
                # residual of 0.
                telemetry.clamp(iterations, mu0_next)
            verdict = run.verdict(
                iterations, float(np.sqrt(max(mu0_next, 0.0))), x, lam=lam,
                recurred_rr=mu0_next,
            )
            if verdict is not None:
                return (verdict, verdict, 0.0)

            alpha_next = mu0_next / mu0_cur
            add_scalar_flops(1)
            alphas.append(alpha_next)

            powers.advance_p(op, alpha_next)

            if target <= k:
                window = window_from_powers(k, powers.r_powers, powers.p_powers,
                                            label="startup_front_dot")
                sigma1_next = float(window.sigma[1])
                if plan is not None:
                    sigma1_next = plan.corrupt_dot(
                        sigma1_next, "startup_front_sigma"
                    )
                state_next = window.stacked()
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
            updated = pipeline.push_step(target, lam, alpha_next)
            if updated:
                _event("coeff_update", offset + target, offset + target, updated)
            pipeline.open_target(target + k)
            ledger.discard_before(target - k + 1)

            mu0_cur = mu0_next
            sigma1_cur = sigma1_next

            # --- recovery detectors (policy-driven) ----------------------
            hit = run.detect(iterations, mu0_cur, powers.r)
            if hit is not None:
                return ("replace", *hit)

            # --- adaptive window controller ------------------------------
            if controller is not None:
                since_ctl += 1
                if since_ctl >= controller.config.check_every:
                    since_ctl = 0
                    rr_direct = dot(powers.r, powers.r, label="drift_check_dot")
                    ctl_gap = run.drift_gap(iterations, mu0_cur, rr_direct)
                    if ctl_gap is not None:
                        action = controller.observe_gap(iterations, ctl_gap)
                        if action == "fallback":
                            return ("fallback", "drift", ctl_gap)
                        if action in ("shrink", "grow", "replace"):
                            return ("resize", action, ctl_gap)

        return ("maxiter", "", 0.0)

    reason = StopReason.CONVERGED
    outcome, trigger, gap = _segment(0, budget)
    while outcome != "converged":
        if outcome in ("maxiter", "fallback") or iterations >= budget:
            # A controller's fallback leaves the rest of the budget to
            # the caller.
            reason = StopReason.MAX_ITER
            break
        if outcome == "replace":
            # The pipelined realization cannot splice a fresh window into
            # the in-flight coefficient chain: replacement refills the
            # whole pipeline from the true residual at the current x
            # (losing the direction history -- a restart in CG terms, the
            # price of the deep pipeline).
            run.book(iterations, "replace", trigger, gap)
        elif outcome != "resize" and not _recovery_step(
            run, controller, iterations, trigger
        ):
            # Breakdown or divergence with no repair left, or a fallback.
            reason = (
                StopReason.BREAKDOWN if controller is None else StopReason.MAX_ITER
            )
            break
        if controller is not None:
            # A controller decision (shrink/grow/replace) or its repair of
            # a breakdown: refill the whole pipeline at its window size --
            # the same refill path a residual replacement uses.
            k = controller.k
        outcome, trigger, gap = _segment(iterations, budget - iterations)
    return reason, iterations, alphas, lambdas
