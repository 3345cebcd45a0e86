"""Online adaptive window size for the Van Rosendale iteration.

The paper leaves ``k`` -- the look-ahead depth of the moment window -- as
a knob the user must pick, and the stability experiments (E7) show why
that is uncomfortable: the recurred ``μ₀`` drifts faster at larger ``k``,
and the *right* ``k`` depends on the spectrum of the operator, which is
exactly what the user does not know.  This module closes the loop: a
:class:`WindowController` watches the same recurred-vs-direct drift gap
the replacement detectors already compute, and resizes the window
*mid-solve*:

* **shrink** (``k -= 1``) when the gap exceeds ``shrink_tol`` or the
  recurred moments break down -- less look-ahead, slower drift;
* **grow** (``k += 1``) after ``grow_patience`` consecutive calm checks
  with the gap under ``grow_tol`` -- the spectrum turned out benign, so
  buy more latency hiding;
* **replace** at the floor: the window is already minimal, so repair the
  drift (rebuild from the true residual) without changing ``k``;
* **fallback** after ``fallback_after`` consecutive floor repairs: the
  moment machinery is not working on this operator -- hand the current
  iterate to classical CG, which finishes the solve.

Every resize goes through the residual-replacement path: the power block
is rebuilt from a fresh ``r = b − Ax`` at the new ``k`` (keeping the
conjugate direction when it passes the conjugacy sanity check), and the
moment window is recomputed from the rebuilt powers.  Every decision is
recorded in ``k_history``/``decisions`` (surfaced in
``CGResult.extras``) and emitted as a
:class:`~repro.telemetry.AdaptiveEvent`.

Two solver drivers are provided, surfaced in the registry as
``adaptive-vr`` and ``adaptive-pipelined-vr`` (and as the ``k="auto"``
sugar on the plain ``vr``/``pipelined-vr`` methods):

* :func:`adaptive_vr_cg` -- the eager iteration with an in-loop
  controller (window floor ``k = 0``, the Chronopoulos--Gear point);
* :func:`adaptive_pipelined_vr_cg` -- wraps
  :func:`repro.core.pipeline.pipelined_vr_cg`, whose segment/refill
  machinery already rebuilds the whole pipeline per repair (floor
  ``k = 1``: the pipeline needs at least one iteration of look-ahead).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Any

import numpy as np

from repro.core.moments import window_from_powers
from repro.core.powers import PowerBlock
from repro.core.results import CGResult, StopReason, verified_exit
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import _startup
from repro.sparse.linop import as_operator, operator_dtype
from repro.util.counters import add_scalar_flops
from repro.util.kernels import axpy, dot, norm
from repro.util.validation import (
    as_1d_typed_array,
    check_square_operator,
    require_nonnegative_int,
)

__all__ = [
    "ControllerConfig",
    "WindowController",
    "adaptive_vr_cg",
    "adaptive_pipelined_vr_cg",
    "DEFAULT_AUTO_K",
]

# Initial window size for k="auto": deep enough to exercise the moment
# machinery, shallow enough that a hostile spectrum is caught within a
# couple of controller checks.
DEFAULT_AUTO_K = 2

# Same finite-precision divergence guard as the fixed-k solvers.
_DIVERGENCE_FACTOR = 1e8


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs of the adaptive window controller.

    Attributes
    ----------
    k_min, k_max:
        Inclusive window-size bounds.  The eager solver admits
        ``k_min = 0``; the pipelined realization needs ``k_min >= 1``.
    check_every:
        Sample the recurred-vs-direct drift gap every this many
        iterations (each sample costs one direct length-N dot, the same
        price the drift replacement detector pays).
    shrink_tol:
        Relative gap above which the window shrinks (drift is winning).
    grow_tol:
        Relative gap below which a check counts as *calm*; after
        ``grow_patience`` consecutive calm checks the window grows.
        Must be strictly below ``shrink_tol`` (hysteresis band).
    grow_patience:
        Consecutive calm checks required before growing.
    fallback_after:
        Consecutive floor repairs (drift/breakdown at ``k == k_min``)
        tolerated before the controller abandons the moment window and
        falls back to classical CG.
    """

    k_min: int = 0
    k_max: int = 8
    check_every: int = 4
    shrink_tol: float = 1e-6
    grow_tol: float = 1e-12
    grow_patience: int = 4
    fallback_after: int = 3

    def __post_init__(self) -> None:
        require_nonnegative_int(self.k_min, "k_min")
        require_nonnegative_int(self.k_max, "k_max")
        if self.k_min > self.k_max:
            raise ValueError(
                f"k_min={self.k_min} must not exceed k_max={self.k_max}"
            )
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")
        if not 0.0 < self.grow_tol < self.shrink_tol:
            raise ValueError(
                f"need 0 < grow_tol < shrink_tol, got grow_tol={self.grow_tol}"
                f" shrink_tol={self.shrink_tol}"
            )
        if self.grow_patience < 1:
            raise ValueError(
                f"grow_patience must be >= 1, got {self.grow_patience}"
            )
        if self.fallback_after < 1:
            raise ValueError(
                f"fallback_after must be >= 1, got {self.fallback_after}"
            )


class WindowController:
    """Online window-size policy: observe drift, decide shrink/grow/fallback.

    The controller is solver-agnostic: drivers feed it observations
    (:meth:`observe_gap` on every sampled drift check,
    :meth:`observe_breakdown` when the recurred moments go nonpositive
    or nonfinite, :meth:`observe_clamp` when a negative recurred ``μ₀``
    is clamped) and receive back an *action* string; the driver performs
    the mechanical rebuild.  Window moves are always single steps
    (``|Δk| = 1``) bounded to ``[k_min, k_max]`` -- the invariant the
    property tests pin down on ``k_history``.

    Attributes
    ----------
    k:
        Current window size.
    k_history:
        Every window size held, in order (starts with the initial k;
        appended on every change).
    decisions:
        One dict per non-hold decision:
        ``{iteration, action, trigger, k_old, k_new, gap}``.
    fell_back:
        True once the controller has given up on the moment window.
    """

    def __init__(self, k: int, config: ControllerConfig | None = None) -> None:
        self.config = config or ControllerConfig()
        k = require_nonnegative_int(k, "k")
        self.k = min(max(k, self.config.k_min), self.config.k_max)
        self.k_history: list[int] = [self.k]
        self.decisions: list[dict[str, Any]] = []
        self.fell_back = False
        self._calm = 0
        self._floor_strikes = 0
        self._telemetry = None

    def attach(self, telemetry: Any) -> None:
        """Emit an :class:`~repro.telemetry.AdaptiveEvent` per decision."""
        self._telemetry = telemetry

    def observe_gap(self, iteration: int, gap: float) -> str:
        """One sampled drift check: relative recurred-vs-direct gap."""
        cfg = self.config
        if self.fell_back:
            return "fallback"
        if not np.isfinite(gap) or gap > cfg.shrink_tol:
            self._calm = 0
            return self._degrade(iteration, "drift", gap)
        self._floor_strikes = 0
        if gap < cfg.grow_tol:
            self._calm += 1
            if self._calm >= cfg.grow_patience and self.k < cfg.k_max:
                self._calm = 0
                return self._decide(iteration, "grow", "calm", gap, self.k + 1)
        else:
            self._calm = 0
        return "hold"

    def observe_breakdown(self, iteration: int, trigger: str = "breakdown") -> str:
        """The recurred moments went nonpositive/nonfinite."""
        if self.fell_back:
            return "fallback"
        self._calm = 0
        return self._degrade(iteration, trigger or "breakdown", 0.0)

    def observe_clamp(self, iteration: int, mu0: float) -> str:
        """A negative recurred ``μ₀`` was clamped to zero (drift signal)."""
        if self.fell_back:
            return "fallback"
        self._calm = 0
        return self._degrade(iteration, "clamp", abs(float(mu0)))

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly summary for ``CGResult.extras["adaptive"]``."""
        return {
            "k_history": list(self.k_history),
            "decisions": [dict(d) for d in self.decisions],
            "k_final": self.k,
            "fell_back": self.fell_back,
        }

    # -- internals ------------------------------------------------------
    def _degrade(self, iteration: int, trigger: str, gap: float) -> str:
        cfg = self.config
        if self.k > cfg.k_min:
            self._floor_strikes = 0
            return self._decide(iteration, "shrink", trigger, gap, self.k - 1)
        self._floor_strikes += 1
        if self._floor_strikes >= cfg.fallback_after:
            self.fell_back = True
            return self._decide(iteration, "fallback", trigger, gap, self.k)
        return self._decide(iteration, "replace", trigger, gap, self.k)

    def _decide(
        self, iteration: int, action: str, trigger: str, gap: float, k_new: int
    ) -> str:
        k_old = self.k
        self.k = k_new
        if k_new != k_old:
            self.k_history.append(k_new)
        self.decisions.append(
            {
                "iteration": int(iteration),
                "action": action,
                "trigger": trigger,
                "k_old": k_old,
                "k_new": k_new,
                "gap": float(gap),
            }
        )
        if self._telemetry is not None:
            self._telemetry.adaptive(iteration, action, trigger, k_old, k_new, float(gap))
        return action


def _initial_k(k: Any) -> int:
    """Resolve the ``k=`` argument: the literal ``"auto"`` or an int."""
    if isinstance(k, str):
        if k == "auto":
            return DEFAULT_AUTO_K
        raise ValueError(f"k must be an int or the string 'auto', got {k!r}")
    return require_nonnegative_int(k, "k")


def _coerce_controller(
    controller: Any, k0: int, *, k_min_floor: int
) -> WindowController:
    """Build/adjust the controller; enforce the solver's k_min floor."""
    if controller is None:
        controller = WindowController(
            k0, ControllerConfig(k_min=k_min_floor)
        )
    elif isinstance(controller, ControllerConfig):
        controller = WindowController(k0, controller)
    elif not isinstance(controller, WindowController):
        raise TypeError(
            "controller must be a WindowController, a ControllerConfig, or "
            f"None, got {type(controller).__name__}"
        )
    if controller.config.k_min < k_min_floor:
        controller.config = dc_replace(controller.config, k_min=k_min_floor)
        controller.k = max(controller.k, k_min_floor)
        controller.k_history[-1] = controller.k
    return controller


def adaptive_vr_cg(
    a: Any,
    b: np.ndarray,
    *,
    k: Any = "auto",
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    controller: Any = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
) -> CGResult:
    """Eager Van Rosendale CG with an online adaptive window size.

    Runs the iteration of :func:`repro.core.vr_cg.vr_conjugate_gradient`
    with a :class:`WindowController` sampling the recurred-vs-direct
    drift gap every ``check_every`` iterations.  Controller resizes
    rebuild the power block from the true residual at the new ``k``
    (keeping the direction when it passes the conjugacy check); a
    controller *fallback* hands the current iterate to classical CG for
    the remaining budget, and the stitched result reports the combined
    history.

    Parameters
    ----------
    k:
        Initial window size, or ``"auto"`` (= ``DEFAULT_AUTO_K``).
    controller:
        A :class:`WindowController`, a :class:`ControllerConfig`, or
        ``None`` for defaults.
    a, b, x0, stop, telemetry, workspace:
        As in :func:`repro.core.vr_cg.vr_conjugate_gradient`.

    Returns
    -------
    CGResult
        ``extras["k_history"]`` is every window size held;
        ``extras["adaptive"]`` the full controller record (decisions,
        final k, whether the solve fell back to classical CG).
    """
    b_arr = np.asarray(b)
    op = as_operator(a, n=b_arr.shape[0] if b_arr.ndim == 1 else None)
    dtype = operator_dtype(op)
    b = as_1d_typed_array(b, "b", dtype)
    n = check_square_operator(op, b.shape[0])
    stop = stop or StoppingCriterion()
    k0 = _initial_k(k)
    ctl = _coerce_controller(controller, k0, k_min_floor=0)
    ctl.attach(telemetry)
    from repro.backend import Workspace

    ws = workspace if workspace is not None else Workspace()

    x = (
        np.zeros(n, dtype=dtype)
        if x0 is None
        else as_1d_typed_array(x0, "x0", dtype).copy()
    )
    label = f"adaptive-vr-cg(k0={ctl.k})"
    if telemetry is not None:
        telemetry.solve_start("adaptive-vr", label, n, k0=ctl.k)
        telemetry.iterate(x)

    b_norm = norm(b)
    if telemetry is not None:
        with telemetry.phase("startup"):
            powers, window = _startup(op, b, x, ctl.k)
    else:
        powers, window = _startup(op, b, x, ctl.k)

    res_norms = [float(np.sqrt(max(window.rr, 0.0)))]
    alphas: list[float] = []
    lambdas: list[float] = []

    def _result(reason: StopReason, iterations: int) -> CGResult:
        true_res = norm(b - op.matvec(x))
        reason = verified_exit(reason, true_res, stop.threshold(b_norm))
        extras: dict[str, Any] = {
            "k_history": list(ctl.k_history),
            "adaptive": ctl.snapshot(),
        }
        result = CGResult(
            x=x,
            converged=reason is StopReason.CONVERGED,
            stop_reason=reason,
            iterations=iterations,
            residual_norms=res_norms,
            alphas=alphas,
            lambdas=lambdas,
            true_residual_norm=true_res,
            label=label,
            extras=extras,
        )
        if telemetry is not None:
            telemetry.solve_end(result)
        return result

    if stop.is_met(res_norms[0], b_norm):
        return _result(StopReason.CONVERGED, 0)

    reason = StopReason.MAX_ITER
    iterations = 0
    since_check = 0
    budget = stop.budget(n)

    def _repair(trigger_iter: int, *, keep_direction: bool) -> None:
        """Rebuild powers/window at the controller's current k."""
        nonlocal powers, window, since_check
        k_new = ctl.k
        if keep_direction:
            r_true = b - op.matvec(x)
            powers = PowerBlock.rebuild(op, r_true, powers.p.copy(), k_new)
            window = window_from_powers(k_new, powers.r_powers, powers.p_powers)
            if telemetry is not None:
                telemetry.replacement(trigger_iter, "adaptive")
            # Conjugacy sanity of the retained direction (same check as
            # the fixed-k replacement path): a gross violation means p is
            # no longer a descent direction -- restart the Krylov space.
            mu0_fresh, nu0_fresh = float(window.mu[0]), float(window.nu[0])
            if abs(nu0_fresh - mu0_fresh) > 0.5 * abs(mu0_fresh):
                powers, window = _startup(op, b, x, k_new)
                if telemetry is not None:
                    telemetry.replacement(trigger_iter, "restart")
        else:
            powers, window = _startup(op, b, x, k_new)
            if telemetry is not None:
                telemetry.replacement(trigger_iter, "restart")
        since_check = 0

    for _ in range(budget):
        mu0 = window.rr
        sigma1 = window.pap
        if sigma1 <= 0.0 or mu0 <= 0.0 or not np.isfinite(sigma1) or not np.isfinite(mu0):
            if ctl.observe_breakdown(iterations) == "fallback":
                break
            _repair(iterations, keep_direction=False)
            continue

        lam = window.lam()
        lambdas.append(lam)
        axpy(lam, powers.p, x, out=x, work=ws)
        iterations += 1
        powers.advance_r(lam, work=ws)

        mu_new = window.advance_mu(lam)
        mu0_new = float(mu_new[0])
        if mu0_new < 0.0 and telemetry is not None:
            telemetry.clamp(iterations, mu0_new)
        res_norms.append(float(np.sqrt(max(mu0_new, 0.0))))
        if telemetry is not None:
            telemetry.iteration(
                iterations, res_norms[-1], lam=lam, recurred_rr=mu0_new
            )
            telemetry.iterate(x)
        if stop.is_met(res_norms[-1], b_norm):
            reason = StopReason.CONVERGED
            break
        if mu0_new <= 0.0 or not np.isfinite(mu0_new):
            # A clamped-negative mu0 is drift, not convergence: the
            # controller hears the distinction (clamp vs. breakdown).
            if mu0_new < 0.0:
                action = ctl.observe_clamp(iterations, mu0_new)
            else:
                action = ctl.observe_breakdown(iterations)
            if action == "fallback":
                break
            _repair(iterations, keep_direction=False)
            continue
        if res_norms[-1] > _DIVERGENCE_FACTOR * max(res_norms[0], b_norm):
            if ctl.observe_breakdown(iterations, "divergence") == "fallback":
                break
            _repair(iterations, keep_direction=False)
            continue

        alpha_next = mu0_new / mu0
        add_scalar_flops(1)
        alphas.append(alpha_next)
        mu_top = powers.direct_mu_top()
        powers.advance_p(op, alpha_next, work=ws)
        sigma_top = powers.direct_sigma_top()
        window = window.advanced(
            lam, alpha_next, mu_top, sigma_top, mu_new_body=mu_new
        )

        # --- controller drift sampling ---------------------------------
        since_check += 1
        if since_check >= ctl.config.check_every:
            since_check = 0
            rr_direct = dot(powers.r, powers.r, label="drift_check_dot")
            if telemetry is not None:
                telemetry.drift(iterations, window.rr, rr_direct)
            floor = max(stop.threshold(b_norm) ** 2, np.finfo(np.float64).tiny)
            if rr_direct > floor:
                gap = abs(window.rr - rr_direct) / rr_direct
                action = ctl.observe_gap(iterations, gap)
                if action == "fallback":
                    break
                if action in ("shrink", "grow", "replace"):
                    _repair(iterations, keep_direction=True)

    if ctl.fell_back and reason is not StopReason.CONVERGED:
        remaining = budget - iterations
        if remaining > 0:
            from repro.core.standard import conjugate_gradient

            sub = conjugate_gradient(
                op,
                b,
                x0=x,
                stop=dc_replace(stop, max_iter=remaining),
                telemetry=telemetry,
                workspace=ws,
            )
            x = sub.x
            iterations += sub.iterations
            res_norms.extend(sub.residual_norms[1:])
            alphas.extend(sub.alphas)
            lambdas.extend(sub.lambdas)
            reason = sub.stop_reason

    return _result(reason, iterations)


def adaptive_pipelined_vr_cg(
    a: Any,
    b: np.ndarray,
    *,
    k: Any = "auto",
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    controller: Any = None,
    telemetry: "Telemetry | None" = None,
    workspace: Any = None,
) -> CGResult:
    """Pipelined Van Rosendale CG with an online adaptive window size.

    Drives :func:`repro.core.pipeline.pipelined_vr_cg` with a
    :class:`WindowController` (floor ``k_min = 1``: the pipeline needs at
    least one iteration of look-ahead).  Controller resizes refill the
    whole pipeline at the new ``k`` through the solver's segment/refill
    path; on controller fallback the current iterate is handed to
    classical CG for the remaining budget and the histories stitched.
    """
    b_arr = np.asarray(b)
    n = b_arr.shape[0] if b_arr.ndim == 1 else 0
    stop = stop or StoppingCriterion()
    k0 = max(_initial_k(k), 1)
    ctl = _coerce_controller(controller, k0, k_min_floor=1)
    ctl.attach(telemetry)
    from repro.core.pipeline import pipelined_vr_cg

    result = pipelined_vr_cg(
        a,
        b,
        k=ctl.k,
        x0=x0,
        stop=stop,
        telemetry=telemetry,
        workspace=workspace,
        controller=ctl,
    )
    label = f"adaptive-pipelined-vr-cg(k0={k0})"
    if ctl.fell_back and not result.converged:
        n = np.asarray(b).shape[0]
        remaining = stop.budget(n) - result.iterations
        if remaining > 0:
            from repro.core.standard import conjugate_gradient

            sub = conjugate_gradient(
                a,
                b,
                x0=result.x,
                stop=dc_replace(stop, max_iter=remaining),
                telemetry=telemetry,
                workspace=workspace,
            )
            result = CGResult(
                x=sub.x,
                converged=sub.converged,
                stop_reason=sub.stop_reason,
                iterations=result.iterations + sub.iterations,
                residual_norms=result.residual_norms + sub.residual_norms[1:],
                alphas=result.alphas + sub.alphas,
                lambdas=result.lambdas + sub.lambdas,
                true_residual_norm=sub.true_residual_norm,
                label=label,
                extras=dict(result.extras),
            )
    result.label = label
    result.extras["k_history"] = list(ctl.k_history)
    result.extras["adaptive"] = ctl.snapshot()
    return result
