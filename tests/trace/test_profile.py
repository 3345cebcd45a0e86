"""Critical-path profiler: phase attribution and the §3 doubling claim."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MetricsRegistry, poisson2d, profile_solve
from repro.machine import CostModel


@pytest.fixture(scope="module")
def system():
    a = poisson2d(10)
    return a, np.ones(a.nrows)


def test_profile_cg_reports_phases_and_model(system):
    a, b = system
    report = profile_solve(a, b, method="cg")
    assert report.converged
    assert report.method == "cg"
    assert report.iterations > 0
    assert report.wall_seconds > 0.0
    phase_names = {p.name for p in report.phases}
    assert {"matvec", "local_dot", "axpy"} <= phase_names
    for p in report.phases:
        assert p.seconds >= 0.0 and p.count > 0
    assert report.model is not None
    assert report.model.syncs_per_iteration == pytest.approx(2.0)
    assert 0.0 <= report.sync_blocked_fraction <= 1.0


def test_profile_doubling_claim_cg_vs_vr(system):
    """The paper's §3 claim, measured: classical CG blocks on ~2
    reductions per iteration, VR pays only its drift-check dot, so VR's
    sync-blocked fraction is measurably lower.  The fraction divides by
    wall time, so one timing outlier can flip a single pair: compare
    medians over interleaved repeats."""
    a, b = system
    cgs, vrs = [], []
    for _ in range(5):
        cgs.append(profile_solve(a, b, method="cg"))
        vrs.append(profile_solve(a, b, method="vr", k=2))
    cg, vr = cgs[0], vrs[0]
    assert cg.converged and vr.converged
    assert cg.blocking_syncs_per_iteration == pytest.approx(2.0)
    # VR: one drift-check dot per iteration (plus a startup fraction).
    assert vr.blocking_syncs_per_iteration < 1.5
    assert np.median([r.sync_blocked_fraction for r in vrs]) < np.median(
        [r.sync_blocked_fraction for r in cgs]
    )
    # Same ordering in the machine model's prediction (the cross-check).
    assert vr.model.sync_fraction < cg.model.sync_fraction


def test_profile_distributed_uses_measured_comm_stats(system):
    a, b = system
    report = profile_solve(a, b, method="dist-cg", nranks=2)
    assert report.converged
    assert report.comm is not None
    # dist-cg issues exactly 2 blocking allreduces per loop iteration
    # plus the 2 startup norms; per-iteration that lands near 2.
    assert report.blocking_syncs_per_iteration == pytest.approx(2.0, rel=0.3)
    sync_seconds = (
        report.comm["synchronizations_on_critical_path"]
        / report.iterations
        * CostModel().dot_depth(report.n)
        * report.level_seconds
        * report.iterations
    )
    assert report.sync_blocked_seconds == pytest.approx(sync_seconds, rel=1e-9)


def test_profile_pipelined_vr_hides_synchronization(system):
    a, b = system
    cg = profile_solve(a, b, method="dist-cg", nranks=2)
    pvr = profile_solve(a, b, method="dist-pipelined-vr", k=2, nranks=2)
    assert pvr.converged
    # Steady state consumes only ready handles: the startup transient is
    # the only synchronization, so per-iteration syncs collapse.
    assert pvr.blocking_syncs_per_iteration < cg.blocking_syncs_per_iteration
    assert pvr.sync_blocked_fraction < cg.sync_blocked_fraction


def test_profile_render_is_a_table(system):
    a, b = system
    report = profile_solve(a, b, method="vr", k=2)
    text = report.render()
    assert "profile: vr" in text
    assert "phase matvec [s]" in text
    assert "blocking syncs / iteration" in text
    assert "sync-blocked fraction" in text
    assert "model: sync fraction" in text


def test_profile_feeds_registry_and_keeps_tracer(system):
    a, b = system
    registry = MetricsRegistry()
    report = profile_solve(a, b, method="cg", registry=registry)
    assert report.registry is registry
    iters = registry.counter("repro_iterations_total", method="cg")
    assert iters.value == report.iterations
    [solve_span] = report.tracer.solve_spans()
    assert solve_span.attrs["method"] == "cg"


def test_profile_rejects_unknown_method(system):
    a, b = system
    with pytest.raises(ValueError):
        profile_solve(a, b, method="nope")


@pytest.mark.parametrize("method", ["vr", "adaptive-vr"])
def test_profile_models_the_window_the_solve_ran(method):
    """A profile that leaves k to the solver prices the solver's own
    window (k = 2), not a k = 4 one."""
    a = poisson2d(16)
    b = np.ones(a.nrows)
    default = profile_solve(a, b, method=method)
    explicit = profile_solve(a, b, method=method, k=2)
    assert default.model == explicit.model
