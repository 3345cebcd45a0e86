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
from math import isfinite
from typing import Any

import numpy as np

from repro.core.moments import MomentWindow, initial_window, window_from_powers
from repro.core.powers import PowerBlock
from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.sparse.linop import LinearOperator
from repro.util.counters import add_scalar_flops
from repro.util.kernels import axpy, dot
from repro.util.validation import require_nonnegative_int

__all__ = ["vr_conjugate_gradient", "VRState"]


@dataclass
class VRState:
    """Live state of the Van Rosendale iteration, for ``on_state`` callbacks.

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
    faults: Any = None,
    recovery: Any = None,
    telemetry: "Telemetry | None" = None,
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
    faults:
        Optional :class:`repro.faults.FaultPlan` (or injector / list of
        injectors).  Matvec-site injectors corrupt every matvec output,
        dot-site injectors hit the two direct dots (``mu_top``,
        ``sigma_top``), scalar-site injectors hit the recurred moment
        window.  Fired faults are recorded in
        ``result.extras["faults"]`` and emitted as
        :class:`~repro.telemetry.FaultEvent`\\ s.
    recovery:
        Optional :class:`repro.faults.RecoveryPolicy` or preset name
        (``drift``/``periodic``/``verified``/``robust``); ``None``, the
        default, runs the paper's pure algorithm.  Residual replacement
        rebuilds the power block and moment window from a fresh true
        residual, keeping the direction: every ``replace_every``
        iterations, or when the recurred ``μ₀`` and a direct
        ``(R₀, R₀)`` of the vector-recurred residual (whose first-order
        recurrence drifts far more slowly) differ by more than
        ``drift_tol`` relative -- one extra length-N inner product per
        iteration, the *three*-dot variant.  (The tempting zero-cost
        detector ``|ν₀ − μ₀|`` is useless: since ``λ = μ₀/σ₁`` is formed
        from the same recurred values, the invariant ``ν₀ = μ₀`` is
        self-preserving to rounding even while both drift from the truth
        -- measured, see DESIGN.md §6.)  ``verify_every`` recomputes the
        whole window from direct dots and adopts it, replacing when the
        mismatch passes ``verify_rtol``; breakdown or divergence spends
        one of ``max_restarts`` restarts.  Repairs are counted in
        ``result.extras["recoveries"]`` and emitted as
        :class:`~repro.telemetry.RecoveryEvent`\\ s.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hook: per-iteration
        :class:`~repro.telemetry.IterationEvent` (with the recurred
        ``μ₀``), :class:`~repro.telemetry.DriftEvent` whenever the
        drift detector computes the recurred-vs-direct gap,
        startup/iterate phase timers, iterate capture
        (``capture_iterates=True``), and live-state observation
        (``on_state=...``).

    Returns
    -------
    CGResult
        ``residual_norms`` holds the *recurred* ``√μ₀`` values the
        algorithm itself sees; ``true_residual_norm`` is recomputed at
        exit, and their gap is the stability metric.  Steady-state
        iterations draw scratch from the run's workspace arena and
        allocate zero new arrays.
    """
    k = require_nonnegative_int(k, "k")
    run = SolveRun.open(
        "vr",
        f"vr-cg(k={k})",
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
    reason, iterations, alphas, lambdas = _vr_loop(run, k)
    return run.finish(reason, run.x, iterations, alphas=alphas, lambdas=lambdas)


def _rebuild(
    op: LinearOperator, b: np.ndarray, x: np.ndarray, p: np.ndarray, k: int
) -> tuple[PowerBlock, MomentWindow, bool]:
    """Residual replacement at window size ``k``, keeping the direction.

    Rebuilds the power block from the true residual ``b − A x`` around a
    copy of ``p`` and recomputes the window from it.  CG maintains
    ``(r, p) = (r, r)``; a gross violation (e.g. after a transient fault
    corrupted the trajectory) means ``p`` is no longer a valid CG
    direction and ``λ = μ₀/σ₁`` would not descend, so the Krylov space
    restarts from the true residual instead.  Returns the powers, the
    window and whether it restarted.
    """
    powers = PowerBlock.rebuild(op, b - op.matvec(x), p.copy(), k)
    window = window_from_powers(k, powers.r_powers, powers.p_powers)
    mu0_fresh, nu0_fresh = float(window.mu[0]), float(window.nu[0])
    if abs(nu0_fresh - mu0_fresh) > 0.5 * abs(mu0_fresh):
        return (*_startup(op, b, x, k), True)
    return powers, window, False


def _recovery_step(
    run: SolveRun, controller: Any, iteration: int, trigger: str
) -> bool:
    """Ask for one restart at a trouble site; ``False`` means stop.

    Without a window controller this spends one restart of the run's
    budget.  With one it reports the trouble as a breakdown, and the
    restart is booked unless the controller falls back.
    """
    if controller is None:
        return run.restart(iteration, trigger)
    if controller.observe_breakdown(iteration, trigger) == "fallback":
        return False
    run.book(iteration, "restart", trigger)
    return True


def _vr_loop(
    run: SolveRun, k: int, controller: Any = None
) -> tuple[StopReason, int, list[float], list[float]]:
    """The eager iteration of ``run``, starting at window size ``k``.

    Repairs follow the run's recovery policy, or a
    :class:`~repro.core.adaptive.WindowController` when one is given: it
    samples the drift gap every ``check_every`` iterations, every repair
    rebuilds at its window size, and when it falls back the loop stops
    with ``MAX_ITER`` so the caller can hand the iterate on.  Returns
    ``(reason, iterations, alphas, lambdas)``; the iterate is ``run.x``,
    updated in place.
    """
    op, b, x = run.op, run.b, run.x
    ws, policy, plan, telemetry = run.ws, run.policy, run.plan, run.telemetry

    if telemetry is not None:
        with telemetry.phase("startup"):
            powers, window = _startup(op, b, x, k)
    else:
        powers, window = _startup(op, b, x, k)

    alphas: list[float] = []
    lambdas: list[float] = []

    if run.start(float(np.sqrt(max(window.rr, 0.0))), x):
        return StopReason.CONVERGED, 0, alphas, lambdas

    # A repair refused by the policy is a breakdown; a controller's
    # fallback leaves the rest of the budget to the caller.
    give_up = StopReason.BREAKDOWN if controller is None else StopReason.MAX_ITER
    reason = StopReason.MAX_ITER
    iterations = 0
    since_check = 0
    budget = run.stop.budget(b.shape[0])

    def _recover(trigger: str) -> bool:
        """One restart: rebuild powers/window from the current x."""
        nonlocal powers, window, k, since_check
        if not _recovery_step(run, controller, iterations, trigger):
            return False
        if controller is not None:
            k = controller.k
        powers, window = _startup(op, b, x, k)
        run.restarted(float(np.sqrt(max(window.rr, 0.0))))
        since_check = 0
        return True

    def _verify() -> float:
        """Predict-and-recompute: re-derive the whole moment window from
        direct dots on the current power block and ADOPT it -- the
        recompute is the repair.  Returns the relative mismatch; a large
        one means the *vectors* are suspect, and the run replaces."""
        nonlocal window
        fresh = window_from_powers(
            k, powers.r_powers, powers.p_powers, label="verify_dot"
        )
        scale = max(
            float(np.max(np.abs(fresh.mu))),
            float(np.max(np.abs(fresh.sigma))),
            np.finfo(np.float64).tiny,
        )
        gap = max(
            float(np.max(np.abs(window.mu - fresh.mu))),
            float(np.max(np.abs(window.nu - fresh.nu))),
            float(np.max(np.abs(window.sigma - fresh.sigma))),
        ) / scale
        window = fresh
        return gap

    for _ in range(budget):
        if plan is not None:
            plan.begin_iteration(iterations + 1)
        mu0 = window.rr
        sigma1 = window.pap
        if sigma1 <= 0.0 or mu0 <= 0.0 or not isfinite(sigma1) or not isfinite(mu0):
            # The recurred quadratic forms must stay positive and finite
            # for an SPD system; anything else is finite-precision
            # breakdown, caught before the step length reaches x.
            if _recover("breakdown"):
                continue
            reason = give_up
            break

        lam = window.lam()
        lambdas.append(lam)

        # x update uses the plain direction vector (power 0).
        axpy(lam, powers.p, x, out=x, work=ws)
        iterations += 1

        # --- advance the residual powers: R_i <- R_i - lam * P_{i+1} ----
        powers.advance_r(lam, work=ws)

        # --- mu recurrence (needs lam only), then the alpha ratio --------
        mu_new = window.advance_mu(lam)
        mu0_new = float(mu_new[0])
        if mu0_new < 0.0 and telemetry is not None:
            # The clamp below would otherwise hide the drift: a negative
            # recurred mu0 is finite-precision error, not a residual of 0.
            telemetry.clamp(iterations, mu0_new)
        verdict = run.verdict(
            iterations, float(np.sqrt(max(mu0_new, 0.0))), x, lam=lam,
            recurred_rr=mu0_new,
        )
        if verdict == "converged":
            reason = StopReason.CONVERGED
            break
        if verdict is not None:
            if _recover(verdict):
                continue
            reason = give_up
            break
        alpha_next = mu0_new / mu0
        add_scalar_flops(1)
        alphas.append(alpha_next)

        # --- direct dot #1 (top mu) is available now: r^{n+1} powers ----
        # These two direct dots feed only the window TOPS (k iterations
        # from the lambda cycle), so their span is local_dot, not a
        # blocking allreduce_wait -- the paper's hiding claim in span form.
        mu_top = powers.direct_mu_top()
        if plan is not None:
            mu_top = plan.corrupt_dot(mu_top, "mu_top")

        # --- advance direction powers (one matvec), then direct dot #2 --
        powers.advance_p(op, alpha_next)
        sigma_top = powers.direct_sigma_top()
        if plan is not None:
            sigma_top = plan.corrupt_dot(sigma_top, "sigma_top")

        # --- scalar window advance --------------------------------------
        window = window.advanced(lam, alpha_next, mu_top, sigma_top, mu_new_body=mu_new)
        if plan is not None:
            plan.corrupt_window(window)

        rebuild = False
        if controller is not None:
            # --- the controller's sampled drift check ---------------------
            since_check += 1
            if since_check >= controller.config.check_every:
                since_check = 0
                rr_direct = dot(powers.r, powers.r, label="drift_check_dot")
                gap = run.drift_gap(iterations, window.rr, rr_direct)
                action = (
                    "hold" if gap is None else controller.observe_gap(iterations, gap)
                )
                if action == "fallback":
                    reason = give_up
                    break
                if action != "hold":
                    # shrink / grow / floor repair: replace at the new k.
                    k = controller.k
                    rebuild = True
        elif policy is not None:
            hit = run.detect(iterations, window.rr, powers.r, _verify)
            if hit is not None:
                run.book(iterations, "replace", *hit)
                rebuild = True
        if rebuild:
            # Recompute the true residual but KEEP the conjugate
            # direction: replacement refreshes finite-precision drift
            # without restarting the Krylov space.
            powers, window, restarted = _rebuild(op, b, x, powers.p, k)
            if restarted:
                run.book(iterations, "restart", "conjugacy")

        if telemetry is not None and telemetry.on_state:
            telemetry.state(
                VRState(iteration=iterations, window=window, powers=powers, x=x)
            )

    return reason, iterations, alphas, lambdas
