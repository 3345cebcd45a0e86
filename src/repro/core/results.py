"""Solver result containers and the rule that decides what they mean.

Every solver in :mod:`repro.core` and :mod:`repro.variants` returns a
:class:`CGResult` so experiments can compare algorithms uniformly: the
solution, convergence flag, per-iteration scalar histories (the CG
parameters ``α``/``λ`` the paper's recurrences are built from), and the
residual-norm history.  Every single-RHS solver opens and closes through
a :class:`SolveRun`, whose exit applies :func:`verified_exit` -- so
``converged=True`` means the same thing on every method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isfinite
from typing import Any

import numpy as np

from repro.core.stopping import DIVERGENCE_FACTOR, StoppingCriterion
from repro.sparse.linop import as_operator, operator_dtype
from repro.util.kernels import dot, norm
from repro.util.validation import as_1d_typed_array, check_square_operator

__all__ = ["CGResult", "BatchedResult", "SolveRun", "StopReason", "verified_exit"]


class StopReason(Enum):
    """Why the iteration stopped."""

    CONVERGED = "converged"
    MAX_ITER = "max_iterations"
    BREAKDOWN = "breakdown"


@dataclass
class CGResult:
    """Outcome of a CG-type solve.

    Attributes
    ----------
    x:
        Final iterate.
    converged:
        True when the stopping criterion was met within the budget.
    stop_reason:
        Why the loop exited (converged / budget exhausted / numerical
        breakdown such as a non-positive recurred ``(r, r)``).
    iterations:
        Number of iterations performed (an iteration updates ``x`` once).
    residual_norms:
        ``‖r⁰‖, ‖r¹‖, ...`` as *seen by the algorithm* -- for the Van
        Rosendale solver these come from the recurred moment ``μ₀``, so
        comparing them with ``true_residual_norm`` quantifies the
        finite-precision drift measured in experiment E7.
    alphas, lambdas:
        The CG parameter histories ``α₁, α₂, ...`` and ``λ₀, λ₁, ...``
        (paper notation).  These feed the coefficient pipeline analysis.
    true_residual_norm:
        ``‖b - Ax‖`` recomputed from scratch at exit.
    label:
        Human-readable solver name for experiment tables.
    method:
        The registry name the solve was dispatched under (empty when the
        solver function was called directly rather than through
        :func:`repro.solve`).
    extras:
        Method-specific extra outputs with no uniform slot -- e.g. the
        distributed solvers attach their ``CommStats`` under
        ``"comm_stats"``.  Always present (possibly empty) so downstream
        code can read it unconditionally.
    """

    x: np.ndarray
    converged: bool
    stop_reason: StopReason
    iterations: int
    residual_norms: list[float] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    true_residual_norm: float = float("nan")
    label: str = "cg"
    method: str = ""
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def final_recurred_residual(self) -> float:
        """Last algorithm-visible residual norm."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")

    @property
    def residual_drift(self) -> float:
        """|recurred − true| residual gap at exit (stability metric, E7)."""
        return abs(self.final_recurred_residual - self.true_residual_norm)

    def summary(self) -> str:
        """One-line description for logs and example scripts."""
        return (
            f"{self.label}: {self.stop_reason.value} after "
            f"{self.iterations} iterations, "
            f"final true residual {self.true_residual_norm:.3e}"
        )


@dataclass
class BatchedResult:
    """Outcome of one batched multi-RHS solve (``m`` systems, one sweep).

    Per-column state lives in the ``column_*`` arrays; the scalar
    aggregate properties (``converged``, ``iterations``,
    ``stop_reason``, ``final_recurred_residual``, ``true_residual_norm``)
    summarize the batch under the same names :class:`CGResult` uses, so
    telemetry brackets and reporting code handle both result types.

    Attributes
    ----------
    x:
        Solution block, shape ``(n, m)`` -- column ``j`` solves
        ``A x = B[:, j]``.
    column_converged:
        Boolean array, shape ``(m,)``.
    column_iterations:
        Iterations each column performed before it converged (or the
        batch stopped), shape ``(m,)``.  With deflation these differ --
        a converged column leaves the active set and stops paying.
    stop_reasons:
        Per-column :class:`StopReason`.
    residual_norms:
        Per-column residual-norm histories (algorithm-visible values).
    true_residual_norms:
        ``‖B[:, j] − A x_j‖`` recomputed from scratch at exit.
    label, method:
        As in :class:`CGResult`.
    """

    x: np.ndarray
    column_converged: np.ndarray
    column_iterations: np.ndarray
    stop_reasons: list[StopReason]
    residual_norms: list[list[float]] = field(default_factory=list)
    true_residual_norms: np.ndarray = field(default_factory=lambda: np.array([]))
    label: str = "batched-cg"
    method: str = ""

    @property
    def n(self) -> int:
        """Problem order."""
        return int(self.x.shape[0])

    @property
    def m(self) -> int:
        """Number of right-hand sides in the batch."""
        return int(self.x.shape[1])

    # ------------------------------------------------------------------
    # CGResult-compatible aggregates (telemetry brackets, reporting)
    # ------------------------------------------------------------------
    @property
    def converged(self) -> bool:
        """Whether EVERY column met the stopping criterion."""
        return bool(np.all(self.column_converged))

    @property
    def iterations(self) -> int:
        """Iterations of the slowest column (= solver sweeps performed)."""
        return int(self.column_iterations.max()) if self.m else 0

    @property
    def total_column_iterations(self) -> int:
        """Sum of per-column iteration counts (the deflation saving shows
        up as this being below ``m * iterations``)."""
        return int(self.column_iterations.sum())

    @property
    def stop_reason(self) -> StopReason:
        """Worst column outcome: BREAKDOWN > MAX_ITER > CONVERGED."""
        if any(r is StopReason.BREAKDOWN for r in self.stop_reasons):
            return StopReason.BREAKDOWN
        if any(r is StopReason.MAX_ITER for r in self.stop_reasons):
            return StopReason.MAX_ITER
        return StopReason.CONVERGED

    @property
    def final_recurred_residual(self) -> float:
        """Largest last algorithm-visible residual norm over the columns."""
        finals = [h[-1] for h in self.residual_norms if h]
        return max(finals) if finals else float("nan")

    @property
    def true_residual_norm(self) -> float:
        """Largest per-column true residual at exit."""
        return float(self.true_residual_norms.max()) if self.m else float("nan")

    def column(self, j: int) -> CGResult:
        """Materialize column ``j``'s outcome as a standalone
        :class:`CGResult` (solution copy, per-column histories)."""
        return CGResult(
            x=self.x[:, j].copy(),
            converged=bool(self.column_converged[j]),
            stop_reason=self.stop_reasons[j],
            iterations=int(self.column_iterations[j]),
            residual_norms=list(self.residual_norms[j]),
            true_residual_norm=float(self.true_residual_norms[j]),
            label=f"{self.label}[col {j}]",
            method=self.method,
        )

    def summary(self) -> str:
        """One-line description for logs and the CLI."""
        n_conv = int(np.count_nonzero(self.column_converged))
        return (
            f"{self.label}: {n_conv}/{self.m} columns converged, "
            f"{self.iterations} sweeps "
            f"({self.total_column_iterations} column-iterations), "
            f"max true residual {self.true_residual_norm:.3e}"
        )


def verified_exit(
    reason: StopReason, true_residual: float, threshold: float
) -> StopReason:
    """The family's exit rule: what ``converged=True`` promises.

    A recurrence-based solver's algorithm-visible residual can drift
    below the stopping threshold while the true residual has not -- a
    false convergence any production implementation must catch.  The
    check costs one matvec at exit (already needed for
    ``true_residual_norm``), none per iteration: a CONVERGED exit whose
    true residual exceeds ``100x`` the stopping threshold is downgraded
    to BREAKDOWN.  The converse holds too: a BREAKDOWN exit whose true
    residual already meets the threshold is CONVERGED.  Near the
    tolerance a recurrence's quadratic forms sit at their rounding floor
    (a recurred ``(r, r)`` of ``ε·(r₀, r₀)`` at ``rtol ≈ √ε``), so a
    non-positive one there says nothing about the iterate.
    :meth:`SolveRun.finish` applies the rule to every single-RHS solve
    and the batched exit applies it per column, so every method reports
    convergence under this one rule.
    """
    if reason is StopReason.CONVERGED and true_residual > 100.0 * threshold:
        return StopReason.BREAKDOWN
    if reason is StopReason.BREAKDOWN and true_residual <= threshold:
        return StopReason.CONVERGED
    return reason


class SolveRun:
    """One single-RHS solve, from its opening to its verified exit.

    The rules around the iteration live here once instead of in every
    solver:

    * **opening** (:meth:`open`) -- coerce ``a``/``b``/``x0``, default
      the stopping rule, make the per-solve
      :class:`~repro.backend.Workspace` (:attr:`ws`), resolve the
      ``recovery=`` policy and the ``faults=`` plan (the iteration
      applies the fault-wrapped :attr:`op`; the exit keeps the pristine
      :attr:`op_true`), open the telemetry solve bracket and take
      :attr:`b_norm` from the caller's ``b``;
    * **verdict** -- the residual history (:attr:`residuals`), the start
      residual (:meth:`start`) and one per-iteration verdict
      (:meth:`verdict`): go on, converged, or a trigger
      (``false_convergence``, ``breakdown``, ``divergence``);
    * **repairs** -- every repair is booked once (:meth:`book`): its
      count in :attr:`recoveries`, one ``recovery`` event, and the
      detectors' cadences started afresh; the policy's bounded restarts
      (:meth:`restart`) are shared by every trigger;
    * **residual checks** -- the recurred-vs-direct ``(r, r)`` gap and
      its ``drift`` event (:meth:`drift_gap`), the VR loops'
      per-iteration detectors (:meth:`detect`) and the sampled
      ``b − A x`` check of the vector-recurred solvers
      (:meth:`residual_check`);
    * **exit** (:meth:`finish`) -- recompute ``‖b − A x‖`` on the
      pristine operator, apply :func:`verified_exit`, raise
      :class:`~repro.faults.UnrecoverableDivergence` when the policy
      asks for it, and close the bracket with the :class:`CGResult`.

    A solver keeps only its own work: its step-denominator breakdowns,
    and how a restart, a replacement or a recompute rebuilds.  Telemetry
    observers (a health monitor included) see these checks but never add
    any.  The ``dist-*`` solvers open a run too; they partition and
    communicate around it.
    """

    def __init__(
        self,
        label: str,
        op: Any,
        b: np.ndarray,
        stop: StoppingCriterion,
        *,
        x: np.ndarray | None = None,
        telemetry: Any = None,
        plan: Any = None,
        policy: Any = None,
    ) -> None:
        from repro.backend import Workspace

        self.label = label
        self.op = self.op_true = op
        self.b = b
        self.stop = stop
        self.b_norm = norm(b)
        self.threshold = stop.threshold(self.b_norm)
        self.x = x
        self.telemetry = telemetry
        self.plan = plan
        self.policy = policy
        self.max_restarts = policy.max_restarts if policy is not None else 0
        self.restarts_used = 0
        # The detectors' cadences: iterations since the last replacement
        # or restart, and since the last verify.
        self._since_replace = self._since_verify = 0
        self.recoveries: dict[str, int] = {"replace": 0, "restart": 0, "recompute": 0}
        self.ws = Workspace()
        self.residuals: list[float] = []
        # Rule 3's bounds: set by the first start residual, and the best
        # residual since the last (re)start.
        self._diverged = float("inf")
        self._best = float("inf")

    @classmethod
    def open(
        cls,
        method: str,
        label: str,
        a: Any,
        b: Any,
        *,
        x0: Any = None,
        stop: StoppingCriterion | None = None,
        faults: Any = None,
        recovery: Any = None,
        telemetry: Any = None,
        keep_dtype: bool = False,
        **options: Any,
    ) -> "SolveRun":
        """Coerce the inputs and open the solve bracket.

        ``keep_dtype`` runs in the operator's dtype (complex operators
        stay complex); otherwise the solve runs in float64.  ``method``,
        ``label`` and ``options`` go to the ``solve_start`` event.
        """
        from repro.faults import RecoveryPolicy, as_fault_plan

        if keep_dtype:
            b_arr = np.asarray(b)
            op = as_operator(a, n=b_arr.shape[0] if b_arr.ndim == 1 else None)
            dtype = operator_dtype(op)
        else:
            op = as_operator(a)
            dtype = np.dtype(np.float64)
        b = as_1d_typed_array(b, "b", dtype)
        n = check_square_operator(op, b.shape[0])
        stop = stop or StoppingCriterion()
        policy = RecoveryPolicy.from_spec(recovery)
        plan = as_fault_plan(faults)
        x = (
            np.zeros(n, dtype=dtype)
            if x0 is None
            else as_1d_typed_array(x0, "x0", dtype).copy()
        )
        if telemetry is not None:
            telemetry.solve_start(method, label, n, **options)
            telemetry.iterate(x)
        run = cls(
            label, op, b, stop, x=x, telemetry=telemetry, plan=plan, policy=policy
        )
        if plan is not None:
            plan.attach(telemetry)
            run.op = plan.wrap_operator(op)
        return run

    def start(self, res: float, x: Any) -> bool:
        """Judge a start residual: whether the solve has converged there.

        The solve's first start residual is ``‖r⁰‖``: it opens the
        history and sets rule 3's bound.  A later one (a restart's, a
        pipeline refill's, a hand-off's) is not recorded.  Either way the
        growth guard is judged from here on.  A start residual that meets
        the threshold claims convergence under rule 1 (see
        :meth:`verdict`); a claim the true residual refutes is no
        verdict at all -- the iteration starts, and its residuals are
        judged.
        """
        if not self.residuals:
            self.residuals.append(res)
            self._diverged = DIVERGENCE_FACTOR * max(res, self.b_norm)
        self._best = res
        return res <= self.threshold and self._claim_holds(x)

    def verdict(
        self,
        iteration: int,
        res: float,
        x: Any,
        *,
        lam: float | None = None,
        alpha: float | None = None,
        recurred_rr: float | None = None,
    ) -> str | None:
        """Record one iteration's residual and judge it.

        Appends ``res`` to :attr:`residuals`, emits the ``iteration``
        event (with the loop's ``lam``/``alpha``/``recurred_rr``) and the
        iterate, and answers ``None`` (go on), ``"converged"``, or the
        trigger of the first rule that fires:

        1. ``res ≤ threshold`` claims convergence.  Under a fault plan a
           corrupted scalar can fake it, so the claim must also hold on
           the true residual; otherwise ``"false_convergence"``.
        2. A non-finite ``res`` is ``"breakdown"``.
        3. ``res > DIVERGENCE_FACTOR · max(‖r⁰‖, ‖b‖)`` is
           ``"divergence"``; under a recovery policy that grants
           restarts, so is ``res > 100 ×`` the best residual since the
           last (re)start -- sustained growth is restarted early, before
           it eats the budget.

        The loop spends a restart on a trigger (a window controller's
        repair under one) or ends the solve as BREAKDOWN.
        """
        self.residuals.append(res)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.iteration(
                iteration, res, lam=lam, alpha=alpha, recurred_rr=recurred_rr
            )
            telemetry.iterate(x)
        if res <= self.threshold:
            return "converged" if self._claim_holds(x) else "false_convergence"
        if not isfinite(res):
            return "breakdown"
        if res > self._diverged:
            return "divergence"
        if self.max_restarts:
            if res > 100.0 * self._best:
                return "divergence"
            if res < self._best:
                self._best = res
        return None

    @staticmethod
    def ending(verdict: str) -> StopReason:
        """How a verdict ends the solve when no repair follows:
        ``"converged"`` is CONVERGED, every trigger BREAKDOWN."""
        return StopReason.CONVERGED if verdict == "converged" else StopReason.BREAKDOWN

    def _claim_holds(self, x: Any) -> bool:
        """Rule 1's gate: without a fault plan the recurred residual is
        taken at its word (:meth:`finish` verifies the exit anyway);
        under one the true residual must meet the threshold too (a NaN
        fails the ``<=``)."""
        return self.plan is None or self.true_residual(x) <= self.threshold

    def book(
        self, iteration: int, action: str, trigger: str, gap: float = 0.0
    ) -> None:
        """Book one repair: ``action`` is ``"replace"``, ``"restart"`` or
        ``"recompute"``, ``trigger`` what asked for it.

        Counts it in :attr:`recoveries` and emits its one ``recovery``
        event.  A recompute starts the verify cadence afresh; a
        replacement or a restart starts both cadences afresh.
        """
        self.recoveries[action] += 1
        if self.telemetry is not None:
            self.telemetry.recovery(iteration, action, trigger, gap)
        self._since_verify = 0
        if action != "recompute":
            self._since_replace = 0

    def restart(self, iteration: int, trigger: str) -> bool:
        """Spend one of the policy's restarts; ``False`` when none is left.

        Books the restart; the solver then rebuilds its own state from
        the current iterate and reports the fresh residual
        (:meth:`restarted`).
        """
        if self.policy is None or self.restarts_used >= self.max_restarts:
            return False
        self.restarts_used += 1
        self.book(iteration, "restart", trigger)
        return True

    def restarted(self, res: float) -> None:
        """A restart rebuilt its residual: rule 3's growth guard is judged
        from ``res`` on (the restart's residual is not recorded)."""
        self._best = res

    def true_residual(self, x: Any) -> float:
        """``‖b − A x‖`` on the pristine operator (one matvec)."""
        return norm(self.b - self.op_true.matvec(x))

    def drift_gap(
        self, iteration: int, recurred_rr: float, direct_rr: float
    ) -> float | None:
        """Relative gap between the recurred and the direct ``(r, r)``.

        Emits the ``drift`` event.  Near machine-zero convergence the
        direct ``(r, r)`` underflows toward 0 and the relative gap blows
        up to inf/nan although the solve is succeeding; below the
        stopping threshold (squared -- ``rr`` is a squared norm) the
        signal is meaningless, so the gap is ``None`` there.
        """
        if self.telemetry is not None:
            self.telemetry.drift(iteration, recurred_rr, direct_rr)
        floor = max(self.threshold**2, np.finfo(np.float64).tiny)
        if direct_rr > floor:
            return abs(recurred_rr - direct_rr) / direct_rr
        return None

    def detect(
        self,
        iteration: int,
        recurred_rr: float,
        r: np.ndarray,
        recompute: Any = None,
    ) -> tuple[str, float] | None:
        """Run the policy's per-iteration detectors of the VR loops.

        In order, the first that fires wins:

        1. **drift** (``drift_tol``) -- one direct ``(r, r)`` dot; the
           gap to ``recurred_rr`` (:meth:`drift_gap`) past ``drift_tol``.
        2. **verify** (every ``verify_every`` iterations) -- the eager
           loop passes ``recompute``, which re-derives its moment window
           from direct dots, adopts it and returns the gap (booked here
           as a recompute).  The pipelined loop cannot adopt a window:
           there the verify is the drift check itself, reusing this
           iteration's gap when drift is armed.  Either gap past
           ``verify_rtol`` fires.
        3. **periodic** -- ``replace_every`` iterations since the last
           replacement or restart.

        Returns ``(trigger, gap)`` for the loop to replace (it books the
        replacement), or ``None``.
        """
        policy = self.policy
        if policy is None:
            return None
        self._since_replace += 1
        self._since_verify += 1
        gap = None
        if policy.drift_tol is not None:
            # A blocking dot: its result gates this iteration's repair,
            # so unlike the window-top dots it cannot be hidden.  The
            # profiler books it as the one synchronization VR still pays
            # per iteration.
            gap = self.drift_gap(
                iteration, recurred_rr, dot(r, r, label="drift_check_dot")
            )
            if gap is not None and gap > policy.drift_tol:
                return "drift", gap
        every = policy.verify_every
        if every is not None and self._since_verify >= every:
            self._since_verify = 0
            if recompute is not None:
                gap = recompute()
                self.book(iteration, "recompute", "verify", gap)
            elif policy.drift_tol is None:
                gap = self.drift_gap(
                    iteration, recurred_rr, dot(r, r, label="drift_check_dot")
                )
            if gap is not None and gap > policy.verify_rtol:
                return "verify", gap
        every = policy.replace_every
        if every is not None and self._since_replace >= every:
            return "periodic", 0.0
        return None

    def residual_check(
        self, iteration: int, x: np.ndarray, recurred_rr: float
    ) -> tuple[np.ndarray, float] | None:
        """Sampled residual replacement for the vector-recurred solvers.

        Under a recovery policy, every ``verify_every`` (else
        ``replace_every``, else 5) calls -- the count starts afresh at
        every repair -- recompute ``r = b − A x`` on the iteration's
        operator and compare its ``(r, r)`` with the recurred one
        (:meth:`drift_gap`).  When the gap exceeds ``drift_tol`` (else
        ``verify_rtol``) the replacement is booked and
        ``(r_true, rr_direct)`` is returned: the solver then refreshes
        its own vectors from ``r_true``, keeping its direction.  Returns
        ``None`` otherwise.
        """
        policy = self.policy
        if policy is None:
            return None
        self._since_verify += 1
        if self._since_verify < (policy.verify_every or policy.replace_every or 5):
            return None
        self._since_verify = 0
        r_true = self.b - self.op.matvec(x)
        rr_direct = dot(r_true, r_true, label="drift_check_dot")
        gap = self.drift_gap(iteration, recurred_rr, rr_direct)
        tol = policy.drift_tol if policy.drift_tol is not None else policy.verify_rtol
        if gap is None or not gap > tol:
            return None
        self.book(iteration, "replace", "drift", gap)
        return r_true, rr_direct

    def finish(
        self,
        reason: StopReason,
        x: np.ndarray,
        iterations: int,
        *,
        alphas: list[float] | None = None,
        lambdas: list[float] | None = None,
        label: str | None = None,
        extras: dict[str, Any] | None = None,
    ) -> CGResult:
        """Verify the exit and close the bracket with the result.

        The result's ``residual_norms`` is the run's history
        (:attr:`residuals`).  The true residual is taken on the pristine
        operator, so a matvec-site injector cannot falsify the check
        itself.  ``extras`` gains the fault counts and recovery actions
        when a plan or policy is active.
        """
        from repro.faults import UnrecoverableDivergence

        label = self.label if label is None else label
        true_res = self.true_residual(x)
        reason = verified_exit(reason, true_res, self.threshold)
        if (
            reason is StopReason.BREAKDOWN
            and self.policy is not None
            and self.policy.on_unrecoverable == "raise"
            and self.restarts_used >= self.max_restarts
        ):
            raise UnrecoverableDivergence(
                f"{label} broke down after {iterations} iterations and "
                f"{self.restarts_used} restarts (true residual {true_res:.3e})"
            )
        extras = {} if extras is None else extras
        if self.plan is not None:
            extras["faults"] = self.plan.counts()
        if self.policy is not None:
            extras["recoveries"] = dict(self.recoveries)
        result = CGResult(
            x=x,
            converged=reason is StopReason.CONVERGED,
            stop_reason=reason,
            iterations=iterations,
            residual_norms=self.residuals,
            alphas=[] if alphas is None else alphas,
            lambdas=[] if lambdas is None else lambdas,
            true_residual_norm=true_res,
            label=label,
            extras=extras,
        )
        if self.telemetry is not None:
            self.telemetry.solve_end(result)
        return result
