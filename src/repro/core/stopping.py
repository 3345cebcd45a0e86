"""Stopping criteria for CG-type iterations.

A single small policy object shared by every solver so that cross-algorithm
comparisons (classical CG vs Van Rosendale CG vs the later variants) stop
under *identical* rules -- otherwise iteration-count comparisons would be
meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import require_positive_int

__all__ = ["StoppingCriterion", "DIVERGENCE_FACTOR"]

# A residual grown beyond this factor over ``max(‖r⁰‖, ‖b‖)`` is
# finite-precision divergence, not slow progress: rule 3 of the
# per-iteration verdict every solver loop asks
# (:meth:`repro.core.results.SolveRun.verdict`), on every method, with or
# without a fault plan or a recovery policy.
DIVERGENCE_FACTOR = 1e8


@dataclass(frozen=True)
class StoppingCriterion:
    """Relative-residual stopping rule with an iteration budget.

    The iteration stops successfully when ``‖rⁿ‖ ≤ max(rtol·‖b‖, atol)``,
    and unsuccessfully when ``max_iter`` iterations have been performed.

    Attributes
    ----------
    rtol:
        Relative tolerance against the right-hand-side norm.
    atol:
        Absolute floor for the threshold.  Note this does *not* by
        itself rescue the ``b = 0`` corner: with the default
        ``atol = 0`` the threshold is ``max(rtol·0, 0) = 0`` and
        ``is_met`` can never succeed.  The registry front doors
        (:func:`repro.solve` / :func:`repro.solve_batched`)
        short-circuit ``b = 0`` to the exact answer ``x = 0``
        (converged, zero iterations) before any solver runs.
    max_iter:
        Iteration budget; ``None`` defaults to ``10·n`` at solve time.
    """

    rtol: float = 1e-8
    atol: float = 0.0
    max_iter: int | None = None

    def __post_init__(self) -> None:
        if self.rtol < 0 or self.atol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.rtol == 0 and self.atol == 0:
            raise ValueError("at least one of rtol/atol must be positive")
        if self.max_iter is not None:
            require_positive_int(self.max_iter, "max_iter")

    def threshold(self, b_norm: float) -> float:
        """The absolute residual-norm threshold for this right-hand side."""
        return max(self.rtol * b_norm, self.atol)

    def budget(self, n: int) -> int:
        """Iteration budget for an order-``n`` system."""
        return self.max_iter if self.max_iter is not None else 10 * n

    def is_met(self, residual_norm: float, b_norm: float) -> bool:
        """Whether ``residual_norm`` satisfies the criterion."""
        return residual_norm <= self.threshold(b_norm)

    def with_initial_residual(
        self, b_norm: float, r0_norm: float
    ) -> "StoppingCriterion":
        """A criterion whose threshold is satisfiable for this start.

        The ``b = 0`` corner with a caller-supplied ``x0`` defeats a
        pure-``rtol`` rule: the threshold ``max(rtol·0, 0)`` is exactly 0
        and no positive residual can ever meet it, so the solver runs its
        whole budget toward a target it cannot hit.  When that happens
        (and only then), fall back to an absolute floor scaled off the
        *initial* residual, ``atol = rtol·‖r⁰‖`` -- the same relative
        reduction the caller asked for, measured against the only nonzero
        scale the problem has.  With ``r⁰ = 0`` too the exact solution is
        already in hand and the unchanged criterion accepts it
        (``0 ≤ 0``).
        """
        if self.threshold(b_norm) > 0.0 or r0_norm == 0.0:
            return self
        return replace(self, atol=self.rtol * r0_norm)
