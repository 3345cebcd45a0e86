"""Bench E5: counted work (one matvec, two direct dots per iteration).

Also times the real solvers sequentially -- the honest wall-clock cost of
the restructuring on a serial machine (claim C8's 'essentially the same'
has a concrete numpy-level answer here).
"""

from __future__ import annotations

from conftest import run_and_report

from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.experiments.work_accounting import run as run_e5

STOP = StoppingCriterion(rtol=1e-8, max_iter=800)


def test_e5_work_accounting(benchmark):
    """Regenerate the counted work table."""
    run_and_report(benchmark, run_e5)


def test_e5_wallclock_classical(benchmark, poisson_bench):
    """Sequential wall time of classical CG (the baseline)."""
    a, b = poisson_bench
    res = benchmark(lambda: conjugate_gradient(a, b, stop=STOP))
    assert res.converged


def test_e5_wallclock_vr_k2(benchmark, poisson_bench):
    """Sequential wall time of eager VR-CG (k=2) with replacement."""
    a, b = poisson_bench
    res = benchmark(
        lambda: vr_conjugate_gradient(a, b, k=2, stop=STOP, recovery="periodic")
    )
    assert res.converged
