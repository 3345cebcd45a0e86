"""Van Rosendale's restructured conjugate gradient iteration.

This is the paper's new algorithm (Section 5): classical CG with every
inner product except two per iteration replaced by the scalar moment
recurrences of :mod:`repro.core.moments`, the operand vectors maintained as
the Krylov power block of :mod:`repro.core.powers`, and the CG scalars
``λn, αn+1`` read off the recurred moments.

In exact arithmetic the iterates are *identical* to classical CG -- the
restructuring is purely algebraic -- and the point of the exercise is that
the only length-N reductions left per iteration are two inner products
whose operands exist ``k`` iterations before their results are needed, so
on a parallel machine their ``log N`` fan-in latency overlaps the iteration
pipeline (measured on the machine model in :mod:`repro.machine`).

Finite precision is the honest cost: the recurred ``μ₀`` drifts from the
true ``(r, r)`` as iterations accumulate, increasingly so for large ``k``
(large top moment orders behave like powers of the spectral radius).  The
solver therefore supports periodic *residual replacement* -- rebuilding the
power block and moment window from a fresh ``r = b − Au`` -- which restores
classical-CG-grade accuracy at the price of ``k+2`` extra matvecs per
replacement.  The stability experiment (E7) quantifies the trade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.moments import MomentWindow, initial_window, window_from_powers
from repro.core.powers import PowerBlock
from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import LinearOperator, as_operator, operator_dtype
from repro.util.counters import add_scalar_flops
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import (
    as_1d_typed_array,
    check_square_operator,
    require_nonnegative_int,
)

__all__ = ["vr_conjugate_gradient", "VRState"]

# Recurred residual growth beyond this factor over max(‖r⁰‖, ‖b‖) is
# treated as finite-precision divergence (breakdown), not slow progress.
_DIVERGENCE_FACTOR = 1e8


@dataclass
class VRState:
    """Live state of the Van Rosendale iteration, exposed to observers.

    Attributes
    ----------
    iteration:
        Completed iteration count ``n``.
    window:
        Current :class:`MomentWindow` (moments of ``rⁿ, pⁿ``).
    powers:
        Current :class:`PowerBlock`.
    x:
        Current iterate ``uⁿ``.
    """

    iteration: int
    window: MomentWindow
    powers: PowerBlock
    x: np.ndarray


def _startup(op: LinearOperator, b: np.ndarray, x: np.ndarray, k: int) -> tuple[PowerBlock, MomentWindow]:
    """Run the paper's start-up: build powers of ``r⁰`` and the moment window."""
    r0 = b - op.matvec(x)
    powers = PowerBlock.startup(op, r0, k)
    window = initial_window(k, powers.r_powers)
    return powers, window


def vr_conjugate_gradient(
    a: Any,
    b: np.ndarray,
    *,
    k: int = 2,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    replace_every: int | None = None,
    replace_drift_tol: float | None = None,
    faults: Any = None,
    recovery: Any = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
    observer: Callable[[VRState], None] | None = None,
    record_iterates: list[np.ndarray] | None = None,
) -> CGResult:
    """Solve the SPD system ``A x = b`` by Van Rosendale's restructured CG.

    Parameters
    ----------
    a:
        SPD operator (anything :func:`repro.sparse.as_operator` accepts).
    b:
        Right-hand side.
    k:
        The paper's look-ahead parameter (``k >= 0``).  ``k = 0`` already
        decouples the two classical inner products (the Chronopoulos--Gear
        rediscovery); the paper's headline setting is ``k ≈ log₂ N``.
    x0:
        Initial guess (defaults to zero).
    stop:
        Stopping rule shared with the classical solver.
    replace_every:
        Rebuild the power block and moment window from a fresh true
        residual every this many iterations (residual replacement).
        ``None`` disables replacement -- the paper's pure algorithm.
    replace_drift_tol:
        Adaptive replacement trigger.  The scalar-recurred ``μ₀`` is
        compared against ``(R₀, R₀)`` computed directly from the
        vector-recurred residual (whose first-order recurrence drifts far
        more slowly); when the relative gap exceeds this tolerance a
        replacement is performed.  Costs one extra length-N inner product
        per iteration while enabled -- the *three*-dot variant.  (The
        tempting zero-cost detector ``|ν₀ − μ₀|`` is useless: since
        ``λ = μ₀/σ₁`` is formed from the same recurred values, the
        invariant ``ν₀ = μ₀`` is self-preserving to rounding even while
        both drift from the truth -- measured, see DESIGN.md §6.)
        Composable with ``replace_every``; ``None`` disables it.
    faults:
        Optional :class:`repro.faults.FaultPlan` (or injector / list of
        injectors).  Matvec-site injectors corrupt every matvec output,
        dot-site injectors hit the two direct dots (``mu_top``,
        ``sigma_top``), scalar-site injectors hit the recurred moment
        window.  Fired faults are recorded in
        ``result.extras["faults"]`` and emitted as
        :class:`~repro.telemetry.FaultEvent`\\ s.
    recovery:
        Optional :class:`repro.faults.RecoveryPolicy` (or preset name:
        ``drift``/``periodic``/``verified``/``robust``).  Generalizes
        the two legacy knobs above -- pass either ``recovery=`` or the
        legacy knobs, not both -- and adds verified moment recompute
        (``verify_every``) plus bounded restarts on breakdown or
        divergence.  Recovery actions are counted in
        ``result.extras["recoveries"]`` and emitted as
        :class:`~repro.telemetry.RecoveryEvent`\\ s.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hook: per-iteration
        :class:`~repro.telemetry.IterationEvent` (with the recurred
        ``μ₀``), :class:`~repro.telemetry.DriftEvent` whenever the
        adaptive drift detector computes the recurred-vs-direct gap,
        :class:`~repro.telemetry.ReplacementEvent` on every residual
        replacement, startup/iterate phase timers, iterate capture
        (``capture_iterates=True``), and live-state observation
        (``on_state=...``).
    workspace:
        Optional :class:`repro.backend.Workspace` scratch arena; a fresh
        per-solve one is made when omitted.  Steady-state iterations
        allocate zero new arrays.
    observer:
        Deprecated; pass ``telemetry=Telemetry(on_state=callback)``.
        Still invoked with the :class:`VRState` after every iteration
        (with a :class:`DeprecationWarning`).
    record_iterates:
        Deprecated; pass ``telemetry=Telemetry(capture_iterates=True)``.
        When a list is supplied it is still filled.

    Returns
    -------
    CGResult
        ``residual_norms`` holds the *recurred* ``√μ₀`` values the
        algorithm itself sees; ``true_residual_norm`` is recomputed at
        exit, and their gap is the stability metric.
    """
    b_arr = np.asarray(b)
    op = as_operator(a, n=b_arr.shape[0] if b_arr.ndim == 1 else None)
    dtype = operator_dtype(op)
    b = as_1d_typed_array(b, "b", dtype)
    n = check_square_operator(op, b.shape[0])
    k = require_nonnegative_int(k, "k")
    stop = stop or StoppingCriterion()
    if replace_every is not None and replace_every < 1:
        raise ValueError(f"replace_every must be >= 1, got {replace_every}")
    if replace_drift_tol is not None and replace_drift_tol <= 0:
        raise ValueError(
            f"replace_drift_tol must be positive, got {replace_drift_tol}"
        )
    from repro.backend import Workspace
    from repro.faults import RecoveryPolicy, UnrecoverableDivergence, as_fault_plan

    ws = workspace if workspace is not None else Workspace()
    if recovery is not None and (
        replace_every is not None or replace_drift_tol is not None
    ):
        raise ValueError(
            "pass either recovery= or the legacy replace_every=/"
            "replace_drift_tol= knobs, not both"
        )
    policy = RecoveryPolicy.from_spec(recovery)
    if policy is None and (replace_every is not None or replace_drift_tol is not None):
        # The legacy knobs are exactly the replacement half of a policy
        # (no verified recompute, no restarts -- historical behaviour).
        policy = RecoveryPolicy(
            replace_every=replace_every,
            drift_tol=replace_drift_tol,
            max_restarts=0,
        )
    plan = as_fault_plan(faults)
    if observer is not None or record_iterates is not None:
        from repro.telemetry import deprecated_hook

        if telemetry is not None:
            twin = "observer=" if observer is not None else "record_iterates="
            raise ValueError(
                f"vr_conjugate_gradient() got both telemetry= and the "
                f"deprecated {twin} hook; pass only telemetry="
            )
        if observer is not None:
            deprecated_hook(
                "vr_conjugate_gradient(observer=...)",
                "telemetry=Telemetry(on_state=callback)",
            )
        if record_iterates is not None:
            deprecated_hook(
                "vr_conjugate_gradient(record_iterates=...)",
                "telemetry=Telemetry(capture_iterates=True)",
            )

    x = (
        np.zeros(n, dtype=dtype)
        if x0 is None
        else as_1d_typed_array(x0, "x0", dtype).copy()
    )
    if record_iterates is not None:
        record_iterates.append(x.copy())
    if telemetry is not None:
        telemetry.solve_start(
            "vr",
            f"vr-cg(k={k})",
            n,
            k=k,
            replace_every=replace_every,
            replace_drift_tol=replace_drift_tol,
        )
        telemetry.iterate(x)

    op_true = op
    if plan is not None:
        plan.attach(telemetry)
        op = plan.wrap_operator(op)
    tracer = telemetry.tracer if telemetry is not None else None
    health = telemetry.health if telemetry is not None else None

    b_norm = norm(b)
    if telemetry is not None:
        with telemetry.phase("startup"):
            powers, window = _startup(op, b, x, k)
    else:
        powers, window = _startup(op, b, x, k)

    res_norms = [float(np.sqrt(max(window.rr, 0.0)))]
    alphas: list[float] = []
    lambdas: list[float] = []
    recoveries: dict[str, int] = {"replace": 0, "restart": 0, "recompute": 0}
    restarts_used = 0

    def _result(reason: StopReason, iterations: int) -> CGResult:
        # The exit verification uses the pristine operator: a matvec-site
        # injector must not be able to falsify the honesty check itself.
        true_res = norm(b - op_true.matvec(x))
        reason = verified_exit(reason, true_res, stop.threshold(b_norm))
        if (
            policy is not None
            and policy.on_unrecoverable == "raise"
            and reason is StopReason.BREAKDOWN
            and restarts_used >= policy.max_restarts
        ):
            raise UnrecoverableDivergence(
                f"vr-cg(k={k}) broke down after {iterations} iterations and "
                f"{restarts_used} restarts (true residual {true_res:.3e})"
            )
        extras: dict[str, Any] = {}
        if plan is not None:
            extras["faults"] = plan.counts()
        if policy is not None:
            extras["recoveries"] = dict(recoveries)
        result = CGResult(
            x=x,
            converged=reason is StopReason.CONVERGED,
            stop_reason=reason,
            iterations=iterations,
            residual_norms=res_norms,
            alphas=alphas,
            lambdas=lambdas,
            true_residual_norm=true_res,
            label=f"vr-cg(k={k})",
            extras=extras,
        )
        if telemetry is not None:
            telemetry.solve_end(result)
        return result

    if stop.is_met(res_norms[0], b_norm):
        return _result(StopReason.CONVERGED, 0)

    reason = StopReason.MAX_ITER
    iterations = 0
    since_replacement = 0
    since_verify = 0
    budget = stop.budget(n)

    def _try_restart(trigger: str) -> bool:
        """Spend one restart: rebuild powers/window from the current x."""
        nonlocal powers, window, since_replacement, since_verify, restarts_used
        if policy is None or restarts_used >= policy.max_restarts:
            return False
        restarts_used += 1
        recoveries["restart"] += 1
        powers, window = _startup(op, b, x, k)
        since_replacement = 0
        since_verify = 0
        if telemetry is not None:
            telemetry.recovery(iterations, "restart", trigger)
        return True

    for _ in range(budget):
        if plan is not None:
            plan.begin_iteration(iterations + 1)
        mu0 = window.rr
        sigma1 = window.pap
        if sigma1 <= 0.0 or mu0 <= 0.0:
            # The recurred quadratic forms must stay positive for an SPD
            # system; a sign flip means finite-precision breakdown.
            if _try_restart("breakdown"):
                continue
            reason = StopReason.BREAKDOWN
            break

        lam = window.lam()
        lambdas.append(lam)

        # x update uses the plain direction vector (power 0).
        if tracer is not None:
            tracer.begin("axpy")
        axpy(lam, powers.p, x, out=x, work=ws)
        if tracer is not None:
            tracer.end("axpy")
        iterations += 1
        since_replacement += 1
        if record_iterates is not None:
            record_iterates.append(x.copy())

        # --- advance the residual powers: R_i <- R_i - lam * P_{i+1} ----
        if tracer is not None:
            tracer.begin("axpy")
        powers.advance_r(lam, work=ws)
        if tracer is not None:
            tracer.end("axpy")

        # --- mu recurrence (needs lam only), then the alpha ratio --------
        if tracer is not None:
            tracer.begin("recurrence")
        mu_new = window.advance_mu(lam)
        if tracer is not None:
            tracer.end("recurrence")
        mu0_new = float(mu_new[0])
        if mu0_new < 0.0 and telemetry is not None:
            # The clamp below would otherwise hide the drift: a negative
            # recurred mu0 is finite-precision error, not a residual of 0.
            telemetry.clamp(iterations, mu0_new)
        res_norms.append(float(np.sqrt(max(mu0_new, 0.0))))
        if telemetry is not None:
            telemetry.iteration(
                iterations, res_norms[-1], lam=lam, recurred_rr=mu0_new
            )
            telemetry.iterate(x)
        if stop.is_met(res_norms[-1], b_norm):
            # A corrupted scalar can fake convergence (a tiny recurred
            # mu0); under injection verify against the true residual
            # before accepting the exit.
            if plan is None or norm(
                b - op_true.matvec(x)
            ) <= stop.threshold(b_norm):
                reason = StopReason.CONVERGED
                break
            if _try_restart("false_convergence"):
                continue
            reason = StopReason.BREAKDOWN
            break
        if mu0_new <= 0.0 or not np.isfinite(mu0_new):
            if _try_restart("breakdown"):
                continue
            reason = StopReason.BREAKDOWN
            break
        if res_norms[-1] > _DIVERGENCE_FACTOR * max(res_norms[0], b_norm):
            # The recurred residual exploding far beyond its start is a
            # finite-precision divergence, not slow convergence.
            if _try_restart("divergence"):
                continue
            reason = StopReason.BREAKDOWN
            break
        alpha_next = mu0_new / mu0
        add_scalar_flops(1)
        alphas.append(alpha_next)

        # --- direct dot #1 (top mu) is available now: r^{n+1} powers ----
        # These two direct dots feed only the window TOPS (k iterations
        # from the lambda cycle), so their span is local_dot, not a
        # blocking allreduce_wait -- the paper's hiding claim in span form.
        if tracer is not None:
            tracer.begin("local_dot")
        mu_top = powers.direct_mu_top()
        if plan is not None:
            mu_top = plan.corrupt_dot(mu_top, "mu_top")
        if tracer is not None:
            tracer.end("local_dot")

        # --- advance direction powers (one matvec), then direct dot #2 --
        if tracer is not None:
            tracer.begin("matvec")
        powers.advance_p(op, alpha_next, work=ws)
        if tracer is not None:
            tracer.end("matvec")
            tracer.begin("local_dot")
        sigma_top = powers.direct_sigma_top()
        if plan is not None:
            sigma_top = plan.corrupt_dot(sigma_top, "sigma_top")
        if tracer is not None:
            tracer.end("local_dot")

        # --- scalar window advance --------------------------------------
        if tracer is not None:
            tracer.begin("recurrence")
        window = window.advanced(lam, alpha_next, mu_top, sigma_top, mu_new_body=mu_new)
        if plan is not None:
            plan.corrupt_window(window)
        if tracer is not None:
            tracer.end("recurrence")

        # --- detection: drift, verified recompute, periodic schedule -----
        drift_triggered = False
        drift_gap = 0.0
        check_drift = policy is not None and policy.drift_tol is not None
        # The health monitor gets direct checks on its own cadence even
        # without a recovery policy (observation only, never a repair).
        health_check = (
            not check_drift
            and health is not None
            and health.check_every > 0
            and iterations % health.check_every == 0
        )
        if check_drift or health_check:
            # The drift check IS a blocking dot: its result gates this
            # iteration's replacement decision, so unlike the window-top
            # dots above it cannot be hidden.  The profiler books it as
            # the one synchronization VR still pays per iteration.
            if tracer is not None:
                tracer.begin("local_dot")
            rr_direct = dot(powers.r, powers.r, label="drift_check_dot")
            if tracer is not None:
                tracer.end("local_dot")
            if telemetry is not None:
                telemetry.drift(iterations, window.rr, rr_direct)
            # Near machine-zero convergence the direct (r, r) underflows
            # toward 0 and the relative gap blows up to inf/nan even
            # though the solve is succeeding; below the stopping
            # threshold (squared -- rr is a squared norm) the drift
            # signal is meaningless, so the trigger is skipped there.
            floor = max(
                stop.threshold(b_norm) ** 2, np.finfo(np.float64).tiny
            )
            if check_drift and rr_direct > floor:
                drift_gap = abs(window.rr - rr_direct) / rr_direct
                drift_triggered = drift_gap > policy.drift_tol

        verify_triggered = False
        verify_gap = 0.0
        since_verify += 1
        if (
            policy is not None
            and policy.verify_every is not None
            and since_verify >= policy.verify_every
            and not drift_triggered
        ):
            # Predict-and-recompute: re-derive the whole moment window
            # from direct dots on the current power block and ADOPT it --
            # the recompute is the repair.  Only when the mismatch is so
            # large that the *vectors* must be suspect does it escalate
            # to a full replacement below.
            if tracer is not None:
                tracer.begin("local_dot")
            fresh = window_from_powers(
                k, powers.r_powers, powers.p_powers, label="verify_dot"
            )
            if tracer is not None:
                tracer.end("local_dot")
            scale = max(
                float(np.max(np.abs(fresh.mu))),
                float(np.max(np.abs(fresh.sigma))),
                np.finfo(np.float64).tiny,
            )
            verify_gap = max(
                float(np.max(np.abs(window.mu - fresh.mu))),
                float(np.max(np.abs(window.nu - fresh.nu))),
                float(np.max(np.abs(window.sigma - fresh.sigma))),
            ) / scale
            window = fresh
            since_verify = 0
            recoveries["recompute"] += 1
            if telemetry is not None:
                telemetry.recovery(iterations, "recompute", "verify", verify_gap)
            verify_triggered = verify_gap > policy.verify_rtol

        periodic_due = (
            policy is not None
            and policy.replace_every is not None
            and since_replacement >= policy.replace_every
        )
        if periodic_due or drift_triggered or verify_triggered:
            if drift_triggered:
                trigger, gap = "drift", drift_gap
            elif verify_triggered:
                trigger, gap = "verify", verify_gap
            else:
                trigger, gap = "periodic", 0.0
            recoveries["replace"] += 1
            if telemetry is not None:
                telemetry.replacement(iterations, trigger)
                telemetry.recovery(iterations, "replace", trigger, gap)
            # Recompute the true residual but KEEP the conjugate direction:
            # replacement refreshes finite-precision drift without
            # restarting the Krylov space.
            r_true = b - op.matvec(x)
            powers = PowerBlock.rebuild(op, r_true, powers.p.copy(), k)
            window = window_from_powers(k, powers.r_powers, powers.p_powers)
            # Sanity of the retained direction: CG maintains (r, p) =
            # (r, r); the rebuilt window computes both directly.  A gross
            # violation (e.g. after a transient fault corrupted the
            # trajectory) means p is no longer a valid CG direction and
            # the step formula lam = mu0/sigma1 would not descend --
            # restart the Krylov space from the true residual instead.
            mu0_fresh, nu0_fresh = float(window.mu[0]), float(window.nu[0])
            if abs(nu0_fresh - mu0_fresh) > 0.5 * abs(mu0_fresh):
                powers, window = _startup(op, b, x, k)
                recoveries["restart"] += 1
                if telemetry is not None:
                    telemetry.replacement(iterations, "restart")
                    telemetry.recovery(iterations, "restart", "conjugacy")
            since_replacement = 0
            since_verify = 0

        if observer is not None or (telemetry is not None and telemetry.on_state):
            st = VRState(iteration=iterations, window=window, powers=powers, x=x)
            if observer is not None:
                observer(st)
            if telemetry is not None:
                telemetry.state(st)

    return _result(reason, iterations)
