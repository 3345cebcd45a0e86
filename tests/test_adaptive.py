"""Adaptive window-size controller and the predict-and-recompute family.

The ISSUE-7 acceptance story: the low-rank zoo workload breaks the pure
fixed ``k = 2`` Van Rosendale solver today; ``adaptive-vr`` starting from
``k = 2`` must converge at ``rtol = 1e-8`` by shrinking the window
online.  Plus the controller's own invariants (unit-step bounded
``k_history``, hysteresis, bounded fallback) as hypothesis properties,
and the equivalence of the predict-and-recompute solvers with classical
CG in exact arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core.adaptive import (
    DEFAULT_AUTO_K,
    ControllerConfig,
    WindowController,
    adaptive_pipelined_vr_cg,
    adaptive_vr_cg,
)
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.faults import BitFlipInjector, FaultPlan
from repro.sparse.generators import poisson2d
from repro.telemetry import MemorySink, Telemetry
from repro.trace import FlightRecorder, HealthMonitor
from repro.util.counters import counting, current_counts
from repro.util.rng import default_rng, spd_test_matrix
from repro.variants import pr_cg, pr_pipe_cg


def _rhs(n: int, seed: int = 0) -> np.ndarray:
    return default_rng(seed).standard_normal(n)


# ----------------------------------------------------------------------
# controller unit behaviour
# ----------------------------------------------------------------------
class TestWindowController:
    def test_shrinks_on_drift(self):
        ctl = WindowController(3, ControllerConfig(check_every=1))
        assert ctl.observe_gap(4, 1e-3) == "shrink"
        assert ctl.k == 2
        assert ctl.k_history == [3, 2]
        assert ctl.decisions[-1]["trigger"] == "drift"

    def test_grows_after_patience_calm_checks(self):
        cfg = ControllerConfig(grow_patience=3, grow_tol=1e-12)
        ctl = WindowController(2, cfg)
        assert ctl.observe_gap(1, 1e-14) == "hold"
        assert ctl.observe_gap(2, 1e-14) == "hold"
        assert ctl.observe_gap(3, 1e-14) == "grow"
        assert ctl.k == 3
        # patience resets after a grow: the next calm check holds again
        assert ctl.observe_gap(4, 1e-14) == "hold"

    def test_moderate_gap_resets_patience(self):
        cfg = ControllerConfig(grow_patience=2, grow_tol=1e-12, shrink_tol=1e-6)
        ctl = WindowController(2, cfg)
        assert ctl.observe_gap(1, 1e-14) == "hold"
        assert ctl.observe_gap(2, 1e-9) == "hold"  # in the hysteresis band
        assert ctl.observe_gap(3, 1e-14) == "hold"  # patience restarted
        assert ctl.k == 2

    def test_floor_repairs_then_fallback(self):
        cfg = ControllerConfig(k_min=1, fallback_after=2)
        ctl = WindowController(1, cfg)
        assert ctl.observe_gap(1, 1.0) == "replace"
        assert ctl.k == 1
        assert ctl.observe_gap(2, 1.0) == "fallback"
        assert ctl.fell_back
        # once fallen back every observation answers fallback
        assert ctl.observe_gap(3, 0.0) == "fallback"
        assert ctl.observe_breakdown(3) == "fallback"

    def test_calm_check_resets_floor_strikes(self):
        cfg = ControllerConfig(k_min=1, fallback_after=2)
        ctl = WindowController(1, cfg)
        assert ctl.observe_gap(1, 1.0) == "replace"
        assert ctl.observe_gap(2, 1e-14) == "hold"
        assert ctl.observe_gap(3, 1.0) == "replace"  # strikes restarted
        assert not ctl.fell_back

    def test_breakdown_and_clamp_degrade(self):
        ctl = WindowController(2, ControllerConfig())
        assert ctl.observe_breakdown(1) == "shrink"
        assert ctl.k == 1
        assert ctl.decisions[-1]["trigger"] == "breakdown"

    def test_initial_k_clamped_to_bounds(self):
        ctl = WindowController(50, ControllerConfig(k_max=4))
        assert ctl.k == 4
        assert ctl.k_history == [4]

    def test_nonfinite_gap_degrades(self):
        ctl = WindowController(2, ControllerConfig())
        assert ctl.observe_gap(1, float("nan")) == "shrink"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(k_min=5, k_max=2)
        with pytest.raises(ValueError):
            ControllerConfig(check_every=0)
        with pytest.raises(ValueError):
            ControllerConfig(grow_tol=1e-3, shrink_tol=1e-6)
        with pytest.raises(ValueError):
            ControllerConfig(fallback_after=0)

    def test_decisions_emitted_as_adaptive_events(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        ctl = WindowController(2, ControllerConfig())
        ctl.attach(tele)
        ctl.observe_gap(7, 1.0)
        events = [e for e in sink.events if e.kind == "adaptive"]
        assert len(events) == 1
        assert events[0].action == "shrink"
        assert events[0].k_old == 2 and events[0].k_new == 1
        assert events[0].iteration == 7


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------
_OBSERVATIONS = st.lists(
    st.one_of(
        st.floats(
            min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
        ),
        st.just("breakdown"),
    ),
    max_size=60,
)


class TestControllerProperties:
    @given(
        k0=st.integers(0, 12),
        k_min=st.integers(0, 3),
        span=st.integers(0, 8),
        obs=_OBSERVATIONS,
    )
    @settings(max_examples=120, deadline=None)
    def test_k_history_unit_steps_and_bounded(self, k0, k_min, span, obs):
        cfg = ControllerConfig(k_min=k_min, k_max=k_min + span)
        ctl = WindowController(k0, cfg)
        for i, ob in enumerate(obs):
            if ob == "breakdown":
                ctl.observe_breakdown(i)
            else:
                ctl.observe_gap(i, ob)
        hist = ctl.k_history
        assert all(cfg.k_min <= k <= cfg.k_max for k in hist)
        assert all(abs(b - a) == 1 for a, b in zip(hist, hist[1:]))
        assert hist[-1] == ctl.k

    @given(obs=_OBSERVATIONS)
    @settings(max_examples=60, deadline=None)
    def test_fallback_is_terminal_and_bounded(self, obs):
        cfg = ControllerConfig(k_min=1, k_max=3, fallback_after=2)
        ctl = WindowController(3, cfg)
        for i, ob in enumerate(obs):
            if ob == "breakdown":
                ctl.observe_breakdown(i)
            else:
                ctl.observe_gap(i, ob)
        if ctl.fell_back:
            # everything after the fallback decision answers fallback
            assert ctl.decisions[-1]["action"] == "fallback"
            assert ctl.observe_gap(99, 0.0) == "fallback"

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_adaptive_matches_dense_oracle(self, seed):
        a = spd_test_matrix(24, cond=50.0, seed=seed)
        b = default_rng(seed + 1).standard_normal(24)
        expected = np.linalg.solve(a, b)
        for fn in (adaptive_vr_cg, adaptive_pipelined_vr_cg):
            res = fn(a, b, stop=StoppingCriterion(rtol=1e-10))
            assert res.converged
            np.testing.assert_allclose(res.x, expected, rtol=1e-6, atol=1e-8)


# ----------------------------------------------------------------------
# solver drivers
# ----------------------------------------------------------------------
class TestAdaptiveSolvers:
    def test_auto_k_defaults(self):
        a = poisson2d(6)
        b = _rhs(a.shape[0])
        res = adaptive_vr_cg(a, b)
        assert res.converged
        assert res.extras["k_history"][0] == DEFAULT_AUTO_K
        assert res.label == f"adaptive-vr-cg(k0={DEFAULT_AUTO_K})"

    def test_registry_methods_expose_history(self):
        a = poisson2d(6)
        b = _rhs(a.shape[0])
        for method in ("adaptive-vr", "adaptive-pipelined-vr"):
            res = solve(a, b, method)
            assert res.converged
            assert res.extras["k_history"]
            snap = res.extras["adaptive"]
            assert snap["k_final"] == res.extras["k_history"][-1]
            assert isinstance(snap["fell_back"], bool)

    def test_adaptive_window_is_its_own_method(self):
        a = poisson2d(6)
        b = _rhs(a.shape[0])
        # k is an integer everywhere; the online choice has one spelling.
        for method in ("vr", "pipelined-vr", "cg"):
            with pytest.raises(ValueError, match="adaptive-pipelined-vr"):
                solve(a, b, method, k="auto")

    def test_k_auto_refuses_fixed_k_knobs(self):
        a = poisson2d(6)
        b = _rhs(a.shape[0])
        # The controller owns every repair: the fixed-k knobs are refused.
        dot_fault = FaultPlan([BitFlipInjector(site="dot", at_iteration=3)])
        for method in ("adaptive-vr", "adaptive-pipelined-vr"):
            with pytest.raises(TypeError, match="replace_every"):
                solve(a, b, method, replace_every=5)
            with pytest.raises(ValueError, match="fault injection"):
                solve(a, b, method, faults=dot_fault)
            with pytest.raises(ValueError, match="recovery"):
                solve(a, b, method, recovery="robust")
            with pytest.raises(ValueError, match="preconditioner"):
                solve(a, b, method, precond="jacobi")

    def test_pipelined_floor_is_one(self):
        a = poisson2d(6)
        b = _rhs(a.shape[0])
        res = adaptive_pipelined_vr_cg(a, b, k=1)
        assert res.converged
        assert all(k >= 1 for k in res.extras["k_history"])

    def test_pipelined_vr_has_no_controller_knob(self):
        from repro.core.pipeline import pipelined_vr_cg

        a = poisson2d(6)
        b = _rhs(a.shape[0])
        ctl = WindowController(2, ControllerConfig(k_min=1))
        with pytest.raises(TypeError, match="controller"):
            pipelined_vr_cg(a, b, k=2, controller=ctl)

    def test_fallback_stitches_classical_cg(self):
        # Force an immediate fallback: floor window, zero tolerance for
        # drift, one strike allowed.
        a = spd_test_matrix(40, cond=1e6, seed=3)
        b = default_rng(4).standard_normal(40)
        cfg = ControllerConfig(
            k_min=0, k_max=0, check_every=1, shrink_tol=1e-30,
            grow_tol=1e-31, fallback_after=1,
        )
        res = adaptive_vr_cg(
            a, b, k=0, controller=cfg, stop=StoppingCriterion(rtol=1e-8)
        )
        assert res.extras["adaptive"]["fell_back"]
        assert res.converged
        # the stitched residual history is contiguous (no resets to ||b||)
        assert res.iterations + 1 >= len(res.residual_norms) - 5

    @pytest.mark.parametrize("fn", [adaptive_vr_cg, adaptive_pipelined_vr_cg])
    def test_fallback_hands_off_inside_the_run(self, fn):
        a = spd_test_matrix(40, cond=1e6, seed=3)
        b = default_rng(4).standard_normal(40)
        cfg = ControllerConfig(
            k_min=1, k_max=1, check_every=1, shrink_tol=1e-30,
            grow_tol=1e-31, fallback_after=1,
        )
        sink = MemorySink()
        recorder = FlightRecorder(ring=64)
        health = HealthMonitor()
        with counting() as caller:
            res = fn(
                a, b, k=1, controller=cfg,
                telemetry=Telemetry(sink, recorder, health=health),
            )
        assert res.extras["adaptive"]["fell_back"] and res.converged
        kinds = [e.kind for e in sink.events]
        # classical CG finishes inside the adaptive bracket: one bracket
        assert kinds.count("solve_start") == 1 and kinds[-1] == "solve_end"
        assert sink.events[-1].label == res.label
        assert sink.events[-1].iterations == res.iterations
        # iterations are numbered on across the hand-off
        numbers = [e.iteration for e in sink.events if e.kind == "iteration"]
        assert numbers == list(range(1, res.iterations + 1))
        # the caller's scope sees the whole solve, hand-off included
        assert caller.dots == sink.events[-2].counts.dots
        assert caller.matvecs == sink.events[-2].counts.matvecs
        assert current_counts() is None
        # one health verdict, for the adaptive solve and all its checks
        (summary,) = health.history
        assert summary.method == sink.events[0].method
        assert summary.method.startswith("adaptive-")
        assert summary.iterations == res.iterations
        assert summary.checks + summary.clamps == kinds.count("drift") > 0
        # the recorder holds every iteration's residual of the result
        bundle = recorder.snapshot("probe")
        assert bundle["residual_norms"] == res.residual_norms[1:]

    def test_adaptive_events_in_solver_telemetry(self):
        wl_a, wl_b = _lowrank_full()
        sink = MemorySink()
        res = adaptive_vr_cg(
            wl_a, wl_b, k=2, stop=StoppingCriterion(rtol=1e-8),
            telemetry=Telemetry(sink),
        )
        assert res.converged
        kinds = {e.kind for e in sink.events}
        assert "adaptive" in kinds
        actions = [e.action for e in sink.events if e.kind == "adaptive"]
        assert "shrink" in actions
        # every decision is reported once, as its adaptive event
        assert len(actions) == len(res.extras["adaptive"]["decisions"])


def _lowrank_full():
    from repro.zoo import zoo_workloads

    wl = [w for w in zoo_workloads() if w.name == "lowrank-sparse"][0]
    return wl.build("full")


# ----------------------------------------------------------------------
# the acceptance story (ISSUE 7)
# ----------------------------------------------------------------------
class TestLowRankAcceptance:
    def test_fixed_k2_fails_today(self):
        a, b = _lowrank_full()
        res = vr_conjugate_gradient(a, b, k=2, stop=StoppingCriterion(rtol=1e-8))
        assert not res.converged

    def test_adaptive_from_k2_converges_by_shrinking(self):
        a, b = _lowrank_full()
        res = adaptive_vr_cg(a, b, k=2, stop=StoppingCriterion(rtol=1e-8))
        assert res.converged
        assert res.stop_reason.value == "converged"
        hist = res.extras["k_history"]
        assert hist[0] == 2
        assert min(hist) < 2  # it shrank online
        actions = [d["action"] for d in res.extras["adaptive"]["decisions"]]
        assert "shrink" in actions

    def test_adaptive_pipelined_from_k2_converges(self):
        a, b = _lowrank_full()
        res = adaptive_pipelined_vr_cg(
            a, b, k=2, stop=StoppingCriterion(rtol=1e-8)
        )
        assert res.converged
        assert all(k >= 1 for k in res.extras["k_history"])


# ----------------------------------------------------------------------
# predict-and-recompute family
# ----------------------------------------------------------------------
class TestPredictRecompute:
    def test_matches_classical_cg_parameters(self):
        a = poisson2d(8)
        b = _rhs(a.shape[0])
        stop = StoppingCriterion(rtol=1e-10)
        ref = conjugate_gradient(a, b, stop=stop)
        for fn in (pr_cg, pr_pipe_cg):
            res = fn(a, b, stop=stop)
            assert res.converged
            np.testing.assert_allclose(res.x, ref.x, rtol=1e-8, atol=1e-12)
            # the step lengths agree with classical CG while both run
            m = min(len(res.lambdas), len(ref.lambdas), 10)
            np.testing.assert_allclose(
                res.lambdas[:m], ref.lambdas[:m], rtol=1e-6
            )

    def test_x0_and_telemetry(self):
        a = poisson2d(6)
        n = a.shape[0]
        b = _rhs(n)
        sink = MemorySink()
        res = pr_cg(
            a, b, x0=np.ones(n), stop=StoppingCriterion(rtol=1e-9),
            telemetry=Telemetry(sink),
        )
        assert res.converged
        its = [e for e in sink.events if e.kind == "iteration"]
        assert len(its) == res.iterations
        # the fused reduction recomputes nu: recurred_rr is always fresh
        assert its[-1].recurred_rr is not None

    def test_registry_and_extras(self):
        a = poisson2d(6)
        b = _rhs(a.shape[0])
        for method in ("pr-cg", "pr-pipe-cg"):
            res = solve(a, b, method, recovery="robust")
            assert res.converged
            assert "recoveries" in res.extras

    def test_breakdown_on_indefinite_matrix_is_honest(self):
        a = np.diag([1.0, -1.0, 2.0, 3.0])
        b = np.ones(4)
        for fn in (pr_cg, pr_pipe_cg):
            res = fn(a, b, stop=StoppingCriterion(rtol=1e-10))
            assert not res.converged
