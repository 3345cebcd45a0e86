"""Fault injection and recovery: determinism, honesty, and the
acceptance contract.

Three promises are pinned here:

1. **Determinism** -- a :class:`~repro.faults.FaultPlan` is reproducible
   from ``(injector specs, seed)``: the same plan against the same solve
   injects the same faults and yields the same trajectory, bit for bit.
2. **Honesty** -- under every fault class, every fault-capable solver
   either converges to a genuinely correct answer or reports
   ``converged=False`` (or raises).  ``converged=True`` with a bad
   solution is the one unacceptable outcome.
3. **Recovery** -- with a :class:`~repro.faults.RecoveryPolicy` enabled,
   a single injected corruption mid-solve costs at most 2x the
   fault-free iteration count (the ISSUE acceptance criterion), and the
   fault/recovery pair shows up in telemetry and ``result.extras``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.core.stopping import StoppingCriterion
from repro.faults import (
    BitFlipInjector,
    CommFaultInjector,
    FaultPlan,
    PerturbInjector,
    RecoveryPolicy,
    ScalarCorruptor,
    UnrecoverableDivergence,
    as_fault_plan,
    parse_fault_spec,
)
from repro.sparse.generators import poisson2d
from repro.telemetry import Telemetry
from repro.util.rng import default_rng

STOP = StoppingCriterion(rtol=1e-8, max_iter=400)


@pytest.fixture(scope="module")
def problem():
    a = poisson2d(10)
    b = default_rng(42).standard_normal(a.nrows)
    return a, b


def _threshold(b):
    return STOP.threshold(float(np.linalg.norm(b)))


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def _plan(self, seed):
        return FaultPlan(
            [
                ScalarCorruptor(rate=0.1, factor=1e3),
                PerturbInjector(site="dot", rate=0.1, magnitude=0.3),
                BitFlipInjector(site="matvec", rate=0.05),
            ],
            seed=seed,
        )

    def test_same_seed_same_faults_same_trajectory(self, problem):
        a, b = problem
        runs = []
        for _ in range(2):
            plan = self._plan(seed=7)
            res = solve(a, b, "vr", k=3, stop=STOP, faults=plan, recovery="robust")
            runs.append((plan.records, res.residual_norms, res.iterations))
        assert runs[0][0] == runs[1][0]
        assert runs[0][0], "the plan must actually have fired"
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_different_seed_different_faults(self, problem):
        a, b = problem
        records = []
        for seed in (1, 2):
            plan = self._plan(seed)
            solve(a, b, "vr", k=3, stop=STOP, faults=plan, recovery="robust")
            records.append(plan.records)
        assert records[0] != records[1]

    def test_independent_streams_adding_injector_preserves_others(self):
        # The first injector's draws must not shift when a second one is
        # armed: streams are spawned, not shared.
        draws = []
        for extra in (False, True):
            injectors = [PerturbInjector(site="dot", rate=0.5)]
            if extra:
                injectors.append(ScalarCorruptor(rate=0.5))
            FaultPlan(injectors, seed=11)
            draws.append([injectors[0].rng.random() for _ in range(8)])
        assert draws[0] == draws[1]

    def test_counts_match_records(self, problem):
        a, b = problem
        plan = self._plan(seed=3)
        solve(a, b, "vr", k=3, stop=STOP, faults=plan, recovery="robust")
        counts = plan.counts()
        assert counts["injected"] == len(plan.records)
        per_site = {}
        for rec in plan.records:
            per_site[rec.site] = per_site.get(rec.site, 0) + 1
        for site, n in per_site.items():
            assert counts[site] == n

    def test_unbound_injector_raises(self):
        inj = PerturbInjector(site="dot", rate=0.5)
        with pytest.raises(RuntimeError, match="not bound"):
            inj.rng

    def test_triggerless_injector_rejected(self):
        with pytest.raises(ValueError, match="no trigger"):
            PerturbInjector(site="dot")

    def test_at_iteration_defaults_to_single_fire(self, problem):
        a, b = problem
        plan = FaultPlan([ScalarCorruptor(at_iteration=5)], seed=0)
        solve(a, b, "vr", k=3, stop=STOP, faults=plan, recovery="robust")
        assert len(plan.records) == 1
        assert plan.records[0].iteration == 5


# ----------------------------------------------------------------------
# coercion and CLI spec grammar
# ----------------------------------------------------------------------
class TestPlanCoercion:
    def test_as_fault_plan_variants(self):
        inj = ScalarCorruptor(at_iteration=2)
        assert as_fault_plan(None) is None
        plan = FaultPlan([inj])
        assert as_fault_plan(plan) is plan
        assert isinstance(as_fault_plan(inj), FaultPlan)
        assert isinstance(as_fault_plan([ScalarCorruptor(at_iteration=2)]), FaultPlan)
        with pytest.raises(TypeError):
            as_fault_plan("scalar@2")

    def test_plan_rejects_non_injectors(self):
        with pytest.raises(TypeError):
            FaultPlan([object()])


class TestParseFaultSpec:
    def test_scalar_spec(self):
        inj = parse_fault_spec("scalar@7:factor=1e3")
        assert isinstance(inj, ScalarCorruptor)
        assert inj.at_iteration == 7
        assert inj.factor == 1e3
        assert inj.max_fires == 1

    def test_bitflip_spec(self):
        inj = parse_fault_spec("bitflip@5:site=dot:bit=52")
        assert isinstance(inj, BitFlipInjector)
        assert inj.site == "dot"
        assert inj.bit == 52

    def test_perturb_rate_spec(self):
        inj = parse_fault_spec("perturb:rate=0.05:mag=1e-3")
        assert isinstance(inj, PerturbInjector)
        assert inj.rate == 0.05
        assert inj.magnitude == 1e-3
        assert inj.max_fires is None

    def test_comm_specs(self):
        drop = parse_fault_spec("comm-drop@6")
        assert isinstance(drop, CommFaultInjector) and drop.mode == "drop"
        delay = parse_fault_spec("comm-delay@3:latency=4")
        assert delay.mode == "delay" and delay.extra_latency == 4
        corrupt = parse_fault_spec("comm-corrupt:rate=0.2:mag=0.5")
        assert corrupt.mode == "corrupt" and corrupt.magnitude == 0.5

    @pytest.mark.parametrize(
        "spec",
        [
            "unknown@3",
            "scalar@x",
            "scalar@3:nope=1",
            "scalar@3:factor",
            "scalar@3:factor=abc",
            "perturb",  # no trigger
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)


# ----------------------------------------------------------------------
# recovery policy
# ----------------------------------------------------------------------
class TestRecoveryPolicy:
    def test_presets(self):
        assert RecoveryPolicy.from_spec(None) is None
        assert RecoveryPolicy.from_spec("none") is None
        assert RecoveryPolicy.from_spec("drift").drift_tol is not None
        assert RecoveryPolicy.from_spec("periodic").replace_every is not None
        assert RecoveryPolicy.from_spec("verified").verify_every is not None
        robust = RecoveryPolicy.from_spec("robust")
        assert robust.drift_tol and robust.verify_every and robust.replace_every
        policy = RecoveryPolicy(drift_tol=1e-5)
        assert RecoveryPolicy.from_spec(policy) is policy
        with pytest.raises(ValueError):
            RecoveryPolicy.from_spec("nonsense")
        with pytest.raises(TypeError):
            RecoveryPolicy.from_spec(3.14)

    def test_vr_rejects_mixing_legacy_and_policy(self, problem):
        a, b = problem
        from repro.core.vr_cg import vr_conjugate_gradient

        # recovery= is the one spelling: the legacy knob is no parameter
        with pytest.raises(TypeError, match="replace_every"):
            vr_conjugate_gradient(
                a, b, k=2, stop=STOP, replace_every=5, recovery="drift"
            )

    def test_on_unrecoverable_raise(self, problem):
        a, b = problem
        plan = FaultPlan(
            [ScalarCorruptor(at_iteration=5, factor=1e12)], seed=0
        )
        policy = RecoveryPolicy(max_restarts=0, on_unrecoverable="raise")
        tight = StoppingCriterion(rtol=1e-8, max_iter=12)
        with pytest.raises(UnrecoverableDivergence):
            solve(a, b, "vr", k=3, stop=tight, faults=plan, recovery=policy)

    def test_dist_pipelined_vr_raises_with_budget_left(self):
        # No restart path: a breakdown is unrecoverable even though the
        # policy still grants its default three restarts.
        a = poisson2d(16)
        b = np.random.default_rng(0).standard_normal(a.nrows)
        plan = FaultPlan(
            [CommFaultInjector(mode="corrupt", magnitude=0.3, at_iteration=9)],
            seed=0,
        )
        policy = RecoveryPolicy(on_unrecoverable="raise")
        assert policy.max_restarts > 0
        with pytest.raises(UnrecoverableDivergence):
            solve(a, b, "dist-pipelined-vr", stop=STOP, faults=plan, recovery=policy)


# ----------------------------------------------------------------------
# one spelling of repair on both VR loops
# ----------------------------------------------------------------------
VR_LOOPS = ("vr", "pipelined-vr")


@pytest.fixture(scope="module")
def drifting():
    """poisson2d(16) at k=4: drift repair converges, the unrepaired
    recurrence breaks down."""
    a = poisson2d(16)
    return a, default_rng(0).standard_normal(a.nrows)


@pytest.mark.parametrize("method", VR_LOOPS)
def test_recovery_none_is_no_repair_at_the_front_door(drifting, method):
    a, b = drifting
    xs = {}
    for spec in (None, "none"):
        tele = Telemetry()
        result = solve(a, b, method, k=4, recovery=spec, telemetry=tele)
        assert not tele.events_of("recovery")
        assert "recoveries" not in result.extras
        xs[spec] = result.x.tobytes()
    assert xs[None] == xs["none"]


@pytest.mark.parametrize("method", VR_LOOPS)
def test_recovery_none_is_no_repair_on_the_cli(drifting, method, tmp_path):
    import json

    from repro.cli import main

    a, b = drifting
    events, out = tmp_path / "run.jsonl", tmp_path / "x.txt"
    main(
        [
            "solve", "--generate", "poisson2d", "--size", "16", "--seed", "0",
            "--method", method, "--k", "4", "--recovery", "none",
            "--telemetry", str(events), "--out", str(out),
        ]
    )
    kinds = {json.loads(line)["kind"] for line in events.read_text().splitlines()}
    assert "recovery" not in kinds
    x = solve(a, b, method, k=4, recovery="none").x
    assert np.loadtxt(out).tobytes() == x.tobytes()


@pytest.mark.parametrize("method", VR_LOOPS)
def test_every_repair_restarts_the_periodic_cadence(drifting, method):
    """A periodic replacement fires ``replace_every`` iterations after the
    previous repair, whatever detector booked that one."""
    a, b = drifting
    every = 10
    tele = Telemetry()
    solve(
        a, b, method, k=4, telemetry=tele,
        recovery=RecoveryPolicy(drift_tol=1e-6, replace_every=every),
    )
    repairs = [e for e in tele.events_of("recovery") if e.action != "recompute"]
    assert repairs
    last = 0
    for event in repairs:
        gap = event.iteration - last
        assert gap == every if event.trigger == "periodic" else gap <= every
        last = event.iteration


def test_verified_repairs_pipelined_vr():
    """The pipeline cannot adopt a recomputed window: its verify is the
    sampled drift check at ``verify_rtol``, and a miss refills."""
    a = poisson2d(32)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    tele = Telemetry()
    result = solve(a, b, "pipelined-vr", recovery="verified", telemetry=tele)
    assert result.converged
    repairs = {(e.action, e.trigger) for e in tele.events_of("recovery")}
    assert ("replace", "verify") in repairs
    threshold = StoppingCriterion().threshold(float(np.linalg.norm(b)))
    assert result.true_residual_norm <= threshold


# ----------------------------------------------------------------------
# the honesty matrix: methods x fault classes
# ----------------------------------------------------------------------
FAULT_CLASSES = {
    "bitflip-matvec": lambda: BitFlipInjector(
        site="matvec", at_iteration=5, bit=62
    ),
    "bitflip-dot": lambda: BitFlipInjector(site="dot", at_iteration=5, bit=60),
    "perturb-dot": lambda: PerturbInjector(
        site="dot", at_iteration=5, magnitude=0.5
    ),
    "scalar": lambda: ScalarCorruptor(at_iteration=5, factor=1e3),
}

METHODS = {
    "cg": {},
    "vr": {"k": 3},
    "pipelined-vr": {"k": 2},
    "cg-cg": {},
    "gv": {},
    "pr-cg": {},
    "pr-pipe-cg": {},
}


@pytest.mark.parametrize("fault_name", sorted(FAULT_CLASSES))
@pytest.mark.parametrize("method", sorted(METHODS))
class TestHonestyMatrix:
    def test_never_lies_without_recovery(self, problem, method, fault_name):
        a, b = problem
        plan = FaultPlan([FAULT_CLASSES[fault_name]()], seed=13)
        result = solve(a, b, method, stop=STOP, faults=plan, **METHODS[method])
        if result.converged:
            assert result.true_residual_norm <= _threshold(b) * (1 + 1e-12)
        assert result.extras["faults"]["injected"] >= 0

    def test_recovers_with_robust_policy(self, problem, method, fault_name):
        a, b = problem
        if fault_name == "scalar" and method not in ("vr", "pipelined-vr"):
            pytest.skip("scalar site exists only in the moment-recurrence solvers")
        plan = FaultPlan([FAULT_CLASSES[fault_name]()], seed=13)
        result = solve(
            a, b, method, stop=STOP, faults=plan,
            recovery="robust", **METHODS[method],
        )
        assert result.converged, (
            f"{method} under {fault_name}: {result.stop_reason} after "
            f"{result.iterations} iterations "
            f"(true residual {result.true_residual_norm:.3e})"
        )
        assert result.true_residual_norm <= _threshold(b) * (1 + 1e-12)
        assert "recoveries" in result.extras


# ----------------------------------------------------------------------
# ISSUE acceptance criterion
# ----------------------------------------------------------------------
class TestAcceptanceCriterion:
    """VR-CG at k=4 under one injected scalar corruption mid-solve."""

    K = 4

    def _baseline(self, a, b):
        return solve(a, b, "vr", k=self.K, stop=STOP, recovery="drift")

    def test_recovery_converges_within_2x_baseline(self, problem):
        a, b = problem
        baseline = self._baseline(a, b)
        assert baseline.converged

        mid = baseline.iterations // 2
        telemetry = Telemetry(count_ops=False)
        plan = FaultPlan([ScalarCorruptor(at_iteration=mid, factor=1e3)], seed=1)
        result = solve(
            a, b, "vr", k=self.K, stop=STOP,
            faults=plan, recovery="robust", telemetry=telemetry,
        )
        assert result.converged
        assert result.true_residual_norm <= _threshold(b)
        assert result.iterations <= 2 * baseline.iterations, (
            f"recovery cost {result.iterations} iterations vs baseline "
            f"{baseline.iterations}"
        )
        # the fault and its recovery are both first-class telemetry
        faults = telemetry.memory.of_kind("fault")
        assert len(faults) == 1 and faults[0].iteration == mid
        assert telemetry.memory.of_kind("recovery"), "no RecoveryEvent emitted"
        assert result.extras["faults"]["injected"] == 1
        assert sum(result.extras["recoveries"].values()) >= 1

    def test_no_recovery_is_honestly_unconverged(self, problem):
        a, b = problem
        baseline = self._baseline(a, b)
        mid = baseline.iterations // 2
        plan = FaultPlan([ScalarCorruptor(at_iteration=mid, factor=1e3)], seed=1)
        capped = StoppingCriterion(rtol=1e-8, max_iter=2 * baseline.iterations)
        result = solve(
            a, b, "vr", k=self.K, stop=capped,
            faults=plan, recovery=None,
        )
        assert not result.converged


# ----------------------------------------------------------------------
# comm faults on the distributed pipelined solver
# ----------------------------------------------------------------------
# divergence guards
# ----------------------------------------------------------------------
# A matvec-perturbing plan per method under which its guard has to act:
# cg-cg and gv blow up in one step (the hard DIVERGENCE_FACTOR guard);
# pr-cg and pr-pipe-cg grow gradually over ~100 iterations under a
# 4%-rate plan and a one-restart raising policy (the sustained-growth
# guard -- at the guard-less commit pr-pipe-cg climbed to a recurred
# residual of 2.3e9 and raised after 296 iterations).
_ONE_RESTART = RecoveryPolicy(
    drift_tol=1e-6, verify_every=5, replace_every=25, max_restarts=1,
    on_unrecoverable="raise",
)
GUARD_CASES = {
    "cg-cg": (dict(magnitude=1e6, rate=1.0), 0, "robust"),
    "gv": (dict(magnitude=1e4, rate=0.2), 3, "robust"),
    "pr-cg": (dict(rate=0.04), 4, _ONE_RESTART),
    "pr-pipe-cg": (dict(rate=0.04), 5, _ONE_RESTART),
}


@pytest.fixture(scope="module")
def guard_problem():
    a = poisson2d(16)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    return a, b


def _guarded_run(a, b, method):
    injector, seed, recovery = GUARD_CASES[method]
    plan = FaultPlan([PerturbInjector(site="matvec", **injector)], seed=seed)
    tele = Telemetry()
    try:
        result = solve(a, b, method, faults=plan, recovery=recovery, telemetry=tele)
    except UnrecoverableDivergence:
        result = None
    return result, tele


class TestDivergenceGuards:
    @pytest.mark.parametrize("method", sorted(GUARD_CASES))
    def test_guard_fires_well_before_the_budget(self, guard_problem, method):
        a, b = guard_problem
        result, tele = _guarded_run(a, b, method)
        restarts = [
            e.iteration for e in tele.events_of("recovery")
            if e.trigger == "divergence"
        ]
        assert restarts, "no divergence restart fired"
        budget = StoppingCriterion().budget(a.nrows)
        iterations = len(tele.events_of("iteration"))
        assert restarts[0] < budget // 20
        # The run ends -- converged, or an honest breakdown (raised under
        # the one-restart policy) -- instead of eating the budget.
        assert iterations < budget // 10
        if result is not None and not result.converged:
            assert result.stop_reason.value == "breakdown"

    @pytest.mark.parametrize("method", ["pr-cg", "pr-pipe-cg"])
    def test_sustained_growth_restarts_before_the_residual_explodes(
        self, guard_problem, method
    ):
        a, b = guard_problem
        _, tele = _guarded_run(a, b, method)
        first = next(
            e.iteration for e in tele.events_of("recovery")
            if e.trigger == "divergence"
        )
        norms = [
            e.residual_norm for e in tele.events_of("iteration")
            if e.iteration <= first
        ]
        # 100x the best residual so far, far below the hard 1e8 guard.
        assert max(norms) < 1e3 * np.linalg.norm(b)

    @pytest.mark.parametrize("method", sorted(GUARD_CASES))
    def test_fault_free_solves_never_trip_a_guard(self, guard_problem, method):
        a, b = guard_problem
        tele = Telemetry()
        result = solve(a, b, method, recovery="robust", telemetry=tele)
        assert result.converged
        assert not [
            e for e in tele.events_of("recovery") if e.trigger == "divergence"
        ]


# ----------------------------------------------------------------------
class TestCommFaults:
    def test_drop_recovers_via_blocking_recompute(self, problem):
        a, b = problem
        from repro.distributed.solvers import distributed_pipelined_vr

        baseline, _ = distributed_pipelined_vr(a, b, k=3, stop=STOP)
        assert baseline.converged

        plan = FaultPlan([CommFaultInjector(mode="drop", at_iteration=6)], seed=7)
        result, comm = distributed_pipelined_vr(
            a, b, k=3, stop=STOP, faults=plan, recovery="robust"
        )
        assert result.converged
        assert result.iterations <= 2 * baseline.iterations
        assert result.extras["recoveries"]["recompute"] >= 1
        assert comm.stats.dropped_reductions == 1
        comm.assert_drained()

    def test_drop_without_recovery_breaks_down_honestly(self, problem):
        a, b = problem
        from repro.core.results import StopReason
        from repro.distributed.solvers import distributed_pipelined_vr

        plan = FaultPlan([CommFaultInjector(mode="drop", at_iteration=6)], seed=7)
        result, comm = distributed_pipelined_vr(a, b, k=3, stop=STOP, faults=plan)
        assert not result.converged
        assert result.stop_reason is StopReason.BREAKDOWN
        assert comm.stats.dropped_reductions == 1
        comm.assert_drained()

    def test_delay_forces_waits_but_still_converges(self, problem):
        a, b = problem
        from repro.distributed.solvers import distributed_pipelined_vr

        plan = FaultPlan(
            [CommFaultInjector(mode="delay", at_iteration=6, extra_latency=3)],
            seed=5,
        )
        result, comm = distributed_pipelined_vr(a, b, k=3, stop=STOP, faults=plan)
        assert result.converged
        assert comm.stats.forced_waits >= 1

    def test_corrupt_blocking_solvers_stay_honest(self, problem):
        a, b = problem
        for method in ("dist-cg", "dist-cgcg"):
            plan = FaultPlan(
                [CommFaultInjector(mode="corrupt", at_iteration=4, magnitude=10.0)],
                seed=5,
            )
            result = solve(a, b, method, stop=STOP, faults=plan)
            if result.converged:
                assert result.true_residual_norm <= _threshold(b) * (1 + 1e-12)
            assert result.extras["faults"]["injected"] == 1


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCLI:
    def test_inject_and_recover_exit_zero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "solve", "--generate", "poisson2d", "--size", "10",
                "--method", "vr", "--k", "4",
                "--inject-fault", "scalar@7:factor=1e3",
                "--fault-seed", "1", "--recovery", "robust",
            ]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_bad_spec_is_a_usage_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "solve", "--generate", "poisson2d", "--size", "10",
                    "--method", "vr", "--inject-fault", "bogus@2",
                ]
            )

    def test_batched_rejects_faults(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="rhs-count"):
            main(
                [
                    "solve", "--generate", "poisson2d", "--size", "10",
                    "--method", "cg", "--rhs-count", "2",
                    "--inject-fault", "perturb@2",
                ]
            )
