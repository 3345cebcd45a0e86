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

The controller is a repair policy of the two loops that already exist,
surfaced in the registry as two methods:

* ``adaptive-vr`` (:func:`adaptive_vr_cg`) -- the eager loop of
  :mod:`repro.core.vr_cg` (window floor ``k = 0``, the
  Chronopoulos--Gear point);
* ``adaptive-pipelined-vr`` (:func:`adaptive_pipelined_vr_cg`) -- the
  loop of :mod:`repro.core.pipeline`, whose segment/refill machinery
  rebuilds the whole pipeline per repair (floor ``k = 1``: the pipeline
  needs at least one iteration of look-ahead).

Both run inside one solve run; when the controller falls back, classical
CG finishes the solve inside that same run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable

import numpy as np

from repro.core.pipeline import _pipelined_loop
from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.standard import _cg_loop
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import _vr_loop
from repro.util.validation import require_nonnegative_int

__all__ = [
    "ControllerConfig",
    "WindowController",
    "adaptive_vr_cg",
    "adaptive_pipelined_vr_cg",
    "DEFAULT_AUTO_K",
]

# Initial window size of the adaptive methods: deep enough to exercise
# the moment machinery, shallow enough that a hostile spectrum is caught
# within a couple of controller checks.
DEFAULT_AUTO_K = 2


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
    or nonfinite) and receive back an *action* string; the driver performs
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


def _adaptive_solve(
    method: str,
    loop: Callable[..., tuple],
    k_floor: int,
    a: Any,
    b: np.ndarray,
    k: int,
    x0: np.ndarray | None,
    stop: StoppingCriterion | None,
    controller: Any,
    telemetry: "Telemetry | None",
) -> CGResult:
    """Run ``loop`` under a window controller, inside one solve run.

    Opens the run, drives the loop from the controller's starting ``k``
    and, when the controller fell back, runs classical CG's loop on the
    same run for the rest of the budget -- one bracket, one residual
    history, one set of operation counts and one verified exit.
    """
    ctl = _coerce_controller(
        controller, require_nonnegative_int(k, "k"), k_min_floor=k_floor
    )
    ctl.attach(telemetry)
    run = SolveRun.open(
        method, f"{method}-cg(k0={ctl.k})", a, b, x0=x0, stop=stop,
        telemetry=telemetry, keep_dtype=True, k0=ctl.k,
    )
    reason, iterations, alphas, lambdas = loop(run, ctl.k, ctl)
    if (
        ctl.fell_back
        and reason is not StopReason.CONVERGED
        and iterations < run.stop.budget(run.b.shape[0])
    ):
        reason, iterations, cg_alphas, cg_lambdas = _cg_loop(run, iterations)
        alphas += cg_alphas
        lambdas += cg_lambdas
    return run.finish(
        reason,
        run.x,
        iterations,
        alphas=alphas,
        lambdas=lambdas,
        extras={"k_history": list(ctl.k_history), "adaptive": ctl.snapshot()},
    )


def adaptive_vr_cg(
    a: Any,
    b: np.ndarray,
    *,
    k: int = DEFAULT_AUTO_K,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    controller: Any = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Eager Van Rosendale CG with an online adaptive window size.

    Runs the eager loop of :func:`repro.core.vr_cg.vr_conjugate_gradient`
    with a :class:`WindowController` as its repair policy: it samples the
    recurred-vs-direct drift gap every ``check_every`` iterations, and
    each resize rebuilds the power block from the true residual at the
    new ``k`` (keeping the direction when it passes the conjugacy check).
    A controller *fallback* hands the current iterate to classical CG
    for the remaining budget, and the result reports the combined
    history.

    Parameters
    ----------
    k:
        Initial window size (floor ``k = 0``, the Chronopoulos--Gear
        point).
    controller:
        A :class:`WindowController`, a :class:`ControllerConfig`, or
        ``None`` for defaults.
    a, b, x0, stop, telemetry:
        As in :func:`repro.core.vr_cg.vr_conjugate_gradient`.

    Returns
    -------
    CGResult
        ``extras["k_history"]`` is every window size held;
        ``extras["adaptive"]`` the full controller record (decisions,
        final k, whether the solve fell back to classical CG).
    """
    return _adaptive_solve(
        "adaptive-vr", _vr_loop, 0, a, b, k, x0, stop, controller, telemetry
    )


def adaptive_pipelined_vr_cg(
    a: Any,
    b: np.ndarray,
    *,
    k: int = DEFAULT_AUTO_K,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    controller: Any = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Pipelined Van Rosendale CG with an online adaptive window size.

    Runs the loop of :func:`repro.core.pipeline.pipelined_vr_cg` with a
    :class:`WindowController` as its repair policy (floor ``k_min = 1``:
    the pipeline needs at least one iteration of look-ahead).  Each
    resize refills the whole pipeline at the new ``k``; a fallback hands
    the iterate to classical CG as in :func:`adaptive_vr_cg`, whose
    parameters and result this shares.
    """
    return _adaptive_solve(
        "adaptive-pipelined-vr", _pipelined_loop, 1, a, b, k, x0, stop,
        controller, telemetry,
    )
