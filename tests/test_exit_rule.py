"""The exit rule: ``converged=True`` means the true residual met its bound.

Every single-RHS solver exits through
:meth:`repro.core.results.SolveRun.finish`, which recomputes
``‖b − A x‖`` and downgrades a convergence claim more than 100x above
the stopping threshold (:func:`repro.core.results.verified_exit`).  The
probe here is one transient operator fault: a matrix-free operator that
perturbs a single early matvec output.  A recurrence that absorbed the
fault can still see its own residual fall below the threshold while the
true residual of the returned ``x`` does not -- and no method may report
that as converged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import poisson2d, solve
from repro.core.stopping import StoppingCriterion
from repro.registry import operator_methods

STOP = StoppingCriterion(rtol=1e-8)


def _perturbed_once(a, at: int = 4):
    """``x -> A x`` with the ``at``-th output shifted once by 1e-3 ‖Ax‖."""
    calls = 0

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += 1
        y = a.matvec(v)
        if calls == at:
            y = y + 1e-3 * np.linalg.norm(y)
        return y

    return matvec


@pytest.mark.parametrize("method", operator_methods())
def test_converged_means_true_residual_within_bound(method):
    a = poisson2d(16)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    result = solve(_perturbed_once(a), b, method, stop=STOP)
    true_res = float(np.linalg.norm(b - a.matvec(result.x)))
    threshold = STOP.threshold(float(np.linalg.norm(b)))
    if result.converged:
        assert true_res <= 100.0 * threshold, (
            f"{method} claims convergence at true residual "
            f"{true_res / threshold:.3g}x the threshold"
        )
