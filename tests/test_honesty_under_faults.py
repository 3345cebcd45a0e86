"""Honesty under injected faults: ``converged=True`` means what it says.

Every fault-capable method judges each residual with
:meth:`repro.core.results.SolveRun.verdict`, whose rule 1 holds a
convergence claim made under a fault plan to the true residual.  So
whatever a seeded plan corrupts -- matvec outputs, direct dots, the
recurred moment window, or a ``dist-*`` method's reductions -- a solve
that reports ``converged=True`` has a true residual within the threshold
taken from the caller's ``‖b‖``.  A fault may cost convergence; it may
not buy a false claim.

A small derandomized sample runs in tier-1; the deep sweep runs under
``-m slow``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core.stopping import StoppingCriterion
from repro.faults import CommFaultInjector, FaultPlan, PerturbInjector, ScalarCorruptor
from repro.registry import available_methods, method_entry
from repro.sparse.generators import poisson2d

FAULT_METHODS = sorted(
    m for m in available_methods() if method_entry(m).supports_faults
)


def _injector(kind: str, rate: float, magnitude: float):
    if kind == "comm":
        return CommFaultInjector(mode="corrupt", rate=rate, magnitude=magnitude)
    if kind == "scalar":
        return ScalarCorruptor(rate=rate, factor=1.0 + magnitude, max_fires=None)
    return PerturbInjector(site=kind, rate=rate, magnitude=abs(magnitude))


def _assert_honest(method, kind, grid, seed, rate, magnitude, recovery):
    a = poisson2d(grid)
    b = np.random.default_rng(seed).standard_normal(a.nrows)
    plan = FaultPlan([_injector(kind, rate, magnitude)], seed=seed)
    options = {} if recovery is None else {"recovery": recovery}
    result = solve(a, b, method, faults=plan, **options)
    threshold = StoppingCriterion().threshold(float(np.linalg.norm(b)))
    if result.converged:
        assert result.true_residual_norm <= threshold, (
            f"{method} under {kind} faults claimed convergence at "
            f"{result.true_residual_norm / threshold:.3g}x the threshold"
        )


@st.composite
def _cases(draw, method):
    entry = method_entry(method)
    kind = draw(
        st.sampled_from(
            ["matvec", "dot", "scalar"] + (["comm"] if entry.distributed else [])
        )
    )
    magnitudes = [-0.99, -0.5, 0.5] if kind == "comm" else [0.5, 10.0, 1e3]
    recoveries = [None, "robust"] if entry.supports_recovery else [None]
    return (
        kind,
        draw(st.integers(8, 16)),
        draw(st.integers(0, 2**16)),
        draw(st.sampled_from([0.02, 0.05, 0.1])),
        draw(st.sampled_from(magnitudes)),
        draw(st.sampled_from(recoveries)),
    )


@pytest.mark.parametrize("method", FAULT_METHODS)
@settings(max_examples=4, derandomize=True, deadline=None)
@given(data=st.data())
def test_converged_claims_hold_under_faults(method, data):
    _assert_honest(method, *data.draw(_cases(method)))


# Comm-corruption runs in which a recurred residual vouched for itself
# before every loop shared the verdict: dist-sstep claimed convergence
# at 8x the threshold, dist-pipelined-vr at 71x and 47x.
@pytest.mark.parametrize(
    "method,grid,seed,magnitude",
    [
        ("dist-sstep", 12, 30, -0.5),
        ("dist-sstep", 16, 1, -0.99),
        ("dist-pipelined-vr", 12, 27, -0.5),
        ("dist-pipelined-vr", 12, 32, 0.5),
    ],
)
def test_comm_corruption_cannot_fake_convergence(method, grid, seed, magnitude):
    _assert_honest(method, "comm", grid, seed, 0.1, magnitude, None)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_converged_claims_hold_under_faults_deep(data):
    method = data.draw(st.sampled_from(FAULT_METHODS))
    _assert_honest(method, *data.draw(_cases(method)))
