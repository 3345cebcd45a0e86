"""Tests for :mod:`repro.registry` -- the ``repro.solve`` front door.

Pins the API contract: every registered method solves the model problem
through the same call, stamps ``result.method``, routes preconditioners
(string names and instances) to the right driver, and fails loudly for
unknown names or unsupported combinations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Telemetry, available_methods, poisson2d, solve
from repro.core.results import CGResult
from repro.core.stopping import StoppingCriterion
from repro.distributed.comm import CommStats
from repro.faults import PerturbInjector
from repro.registry import SolverEntry, method_entry, register

EXPECTED_METHODS = {
    "cg",
    "vr",
    "pipelined-vr",
    "three-term",
    "cg-cg",
    "gv",
    "sstep",
    "chebyshev",
    "jacobi",
    "gauss-seidel",
    "sor",
    "richardson",
    "dist-cg",
    "dist-cgcg",
    "dist-sstep",
    "dist-pipelined-vr",
    "adaptive-vr",
    "adaptive-pipelined-vr",
    "pr-cg",
    "pr-pipe-cg",
}


@pytest.fixture(scope="module")
def system():
    a = poisson2d(16)
    b = np.ones(a.nrows)
    return a, b


def test_available_methods_sorted_and_complete():
    methods = available_methods()
    assert methods == sorted(methods)
    assert set(methods) == EXPECTED_METHODS


@pytest.mark.parametrize("method", sorted(EXPECTED_METHODS))
def test_every_method_solves_poisson(system, method):
    a, b = system
    stop = StoppingCriterion(rtol=1e-7)
    result = solve(a, b, method, stop=stop)
    assert isinstance(result, CGResult)
    assert result.converged, f"{method} did not converge: {result.summary()}"
    assert result.method == method
    b_norm = float(np.linalg.norm(b))
    assert result.true_residual_norm <= 1e-5 * b_norm
    entry = method_entry(method)
    if entry.distributed:
        assert isinstance(result.extras["comm_stats"], CommStats)
    else:
        assert "comm_stats" not in result.extras


def test_unknown_method_lists_available(system):
    a, b = system
    with pytest.raises(ValueError, match="unknown method 'qmr'.*dist-cg"):
        solve(a, b, "qmr")


@pytest.mark.parametrize(
    "precond", ["identity", "jacobi", "ssor", "ic0", "chebyshev"]
)
def test_cg_precond_strings(system, precond):
    a, b = system
    result = solve(a, b, "cg", precond=precond, stop=StoppingCriterion(rtol=1e-8))
    assert result.converged
    assert result.method == "cg"
    assert result.true_residual_norm <= 1e-6 * float(np.linalg.norm(b))


def test_cg_precond_instance(system):
    a, b = system
    from repro.precond import JacobiPrecond

    result = solve(a, b, "cg", precond=JacobiPrecond(a))
    assert result.converged
    assert result.method == "cg"


@pytest.mark.parametrize("precond", ["ssor", "chebyshev"])
def test_vr_precond_strings(system, precond):
    a, b = system
    result = solve(a, b, "vr", precond=precond, stop=StoppingCriterion(rtol=1e-8))
    assert result.converged
    assert result.method == "vr"


@pytest.mark.parametrize("precond", ["ssor", "chebyshev"])
def test_vr_precond_takes_recovery(system, precond):
    """The preconditioned vr drivers take ``recovery=`` as the plain loop
    does: a drift preset repairs the inner iteration on ``Ã``, and an
    explicit ``None`` runs it unrepaired."""
    a, b = system
    tele = Telemetry()
    result = solve(a, b, "vr", precond=precond, recovery="drift", telemetry=tele)
    assert result.converged
    assert tele.events_of("drift")
    result = solve(a, b, "vr", precond=precond, recovery=None)
    assert "recoveries" not in result.extras


@pytest.mark.parametrize(
    "method, options",
    [
        ("cg", {"recovery": "drift"}),
        ("pipelined-vr", {"recovery": "drift"}),
        ("vr", {"faults": [PerturbInjector(site="dot", at_iteration=2)]}),
    ],
    ids=["cg-recovery", "pipelined-vr-recovery", "vr-faults"],
)
def test_precond_refuses_what_its_driver_cannot_take(system, method, options):
    """With a preconditioner only vr takes ``recovery=``, and no
    driver takes ``faults=``."""
    a, b = system
    with pytest.raises(ValueError, match="preconditioned drivers"):
        solve(a, b, method, precond="jacobi", **options)


#: (method, precond) paths beyond the plain one of every method.
PRECOND_PATHS = [
    ("cg", "jacobi"),
    ("cg", "chebyshev"),
    ("vr", "jacobi"),
    ("vr", "chebyshev"),
    ("pipelined-vr", "jacobi"),
]
#: Paths whose runner repairs by default, where ``recovery=None`` is the
#: unrepaired run that ``recovery="none"`` also asks for.
REPAIRED_BY_DEFAULT = {("vr", None), ("vr", "jacobi"), ("vr", "chebyshev"),
                       ("pipelined-vr", None)}


@pytest.mark.parametrize(
    "method, precond",
    [(m, None) for m in sorted(EXPECTED_METHODS)] + PRECOND_PATHS,
)
def test_explicit_none_means_none_on_every_path(method, precond):
    """``faults=None`` and ``recovery=None`` are accepted on every method
    and preconditioned driver, and solve exactly as the call that asks
    for no faults and no repair."""
    a = poisson2d(8)
    b = np.random.default_rng(5).standard_normal(a.nrows)
    plain = solve(a, b, method, precond=precond)
    assert solve(a, b, method, precond=precond, faults=None).x.tobytes() == plain.x.tobytes()
    unrepaired = (
        solve(a, b, method, precond=precond, recovery="none")
        if (method, precond) in REPAIRED_BY_DEFAULT
        else plain
    )
    result = solve(a, b, method, precond=precond, recovery=None)
    assert result.x.tobytes() == unrepaired.x.tobytes()
    assert result.iterations == unrepaired.iterations


def test_solve_batched_accepts_explicit_nones():
    from repro import solve_batched

    a = poisson2d(8)
    b_block = np.random.default_rng(5).standard_normal((a.nrows, 3))
    plain = solve_batched(a, b_block).x.tobytes()
    assert solve_batched(a, b_block, faults=None).x.tobytes() == plain
    assert solve_batched(a, b_block, recovery=None).x.tobytes() == plain
    with pytest.raises(ValueError, match="batched solves do not support"):
        solve_batched(a, b_block, recovery="drift")


def test_precond_rejected_for_non_supporting_method(system):
    a, b = system
    with pytest.raises(ValueError, match="does not accept a preconditioner"):
        solve(a, b, "gv", precond="jacobi")


def test_unknown_precond_string(system):
    a, b = system
    with pytest.raises(ValueError, match="unknown preconditioner"):
        solve(a, b, "cg", precond="multigrid")


def test_method_entry_metadata():
    assert method_entry("vr").supports_precond
    assert not method_entry("vr").distributed
    assert method_entry("dist-cg").distributed
    assert not method_entry("gv").supports_precond
    assert isinstance(method_entry("cg"), SolverEntry)
    for name in available_methods():
        assert method_entry(name).description
    with pytest.raises(ValueError, match="unknown method"):
        method_entry("nope")


def test_register_duplicate_name_rejected():
    with pytest.raises(ValueError, match="already registered"):

        @register("cg", "a second classical CG")
        def _dup(a, b, *, precond, telemetry, **options):  # pragma: no cover
            raise AssertionError


def test_solve_brackets_telemetry(system):
    a, b = system
    tele = Telemetry()
    result = solve(a, b, "vr", k=2, telemetry=tele)
    assert result.converged
    starts = tele.events_of("solve_start")
    ends = tele.events_of("solve_end")
    assert len(starts) == 1 and len(ends) == 1
    assert starts[0].method == "vr"
    assert tele.events[0] is starts[0]
    assert tele.events[-1] is ends[0]
    assert len(tele.events_of("iteration")) == result.iterations


def test_trace_takes_only_a_tracer(system):
    from repro.core.pipeline import PipelineTrace

    a, b = system
    with pytest.raises(TypeError, match=r"repro\.trace\.Tracer"):
        solve(a, b, "pipelined-vr", trace=PipelineTrace(2))


def test_dist_methods_accept_nranks(system):
    a, b = system
    result = solve(a, b, "dist-cgcg", nranks=3)
    assert result.converged
    stats = result.extras["comm_stats"]
    assert stats.blocking_allreduces > 0


def test_vr_default_stabilization_can_be_disabled(system):
    """vr defaults to the ``drift`` preset; ``recovery=None`` explicitly
    opts out of the default."""
    a, b = system
    stop = StoppingCriterion(rtol=1e-7)
    tele = Telemetry()
    result = solve(a, b, "vr", telemetry=tele, stop=stop)
    assert tele.events_of("drift")
    assert result.extras["recoveries"] == solve(
        a, b, "vr", recovery="drift", stop=stop
    ).extras["recoveries"]

    tele2 = Telemetry()
    result = solve(a, b, "vr", recovery=None, telemetry=tele2, stop=stop)
    assert "recoveries" not in result.extras
    assert not tele2.events_of("drift")


# ----------------------------------------------------------------------
# b = 0 short-circuit (ISSUE 2 satellite: uniform zero-RHS contract)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", sorted(EXPECTED_METHODS))
def test_zero_rhs_short_circuits_every_method(system, method):
    """``b = 0`` has the exact solution ``x = 0``: every registered method
    must return it in ZERO iterations from the shared front door, rather
    than dividing by a zero norm inside its own loop."""
    a, _ = system
    result = solve(a, np.zeros(a.nrows), method)
    assert result.converged
    assert result.iterations == 0
    assert np.all(result.x == 0.0)
    assert result.residual_norms == [0.0]
    assert result.true_residual_norm == 0.0
    assert result.method == method
    assert "(b=0)" in result.label


def test_zero_rhs_still_brackets_telemetry(system):
    a, _ = system
    tele = Telemetry()
    result = solve(a, np.zeros(a.nrows), "cg", telemetry=tele)
    assert result.iterations == 0
    assert len(tele.events_of("solve_start")) == 1
    assert len(tele.events_of("solve_end")) == 1


def test_zero_rhs_with_nonzero_x0_is_not_short_circuited(system):
    """The short-circuit answers ``x = 0`` -- it must not fire when the
    caller supplies an ``x0`` that the solver would have to undo."""
    a, _ = system
    x0 = np.ones(a.nrows)
    result = solve(a, np.zeros(a.nrows), "cg", x0=x0)
    assert result.converged
    assert result.iterations > 0
    np.testing.assert_allclose(result.x, 0.0, atol=1e-7)


def test_effective_stop_mirrors_the_front_door(system):
    """:func:`repro.registry.effective_stop` must report the criterion a
    solve with those options actually runs under -- the caller-supplied
    rule when one is given, the family default when absent, and the
    ``b = 0`` threshold rescue when an initial guess disables the
    short-circuit."""
    from repro.registry import effective_stop

    a, b = system
    custom = StoppingCriterion(rtol=1e-4)
    assert effective_stop(a, b, {"stop": custom}) is custom
    assert effective_stop(a, b, {}) == StoppingCriterion()
    assert effective_stop(a, b, {"stop": None}) == StoppingCriterion()
    # A nonzero threshold never triggers the rescue, x0 or not.
    assert effective_stop(a, b, {"stop": custom, "x0": np.ones(a.nrows)}) is custom
    # The b=0 + x0 corner: the resolved criterion is exactly the rescued
    # rule the front door rewrites options["stop"] to.
    zero = np.zeros(a.nrows)
    x0 = np.ones(a.nrows)
    resolved = effective_stop(a, zero, {"stop": custom, "x0": x0})
    r0_norm = float(np.linalg.norm(zero - a.matvec(x0)))
    assert resolved == custom.with_initial_residual(0.0, r0_norm)
    assert resolved.threshold(0.0) > 0.0


def test_effective_stop_reduces_like_the_solver_and_books_nothing():
    """Above the BLAS cut the rescue's ``‖r⁰‖`` is the kernels' own
    reduction, booked as no dot; malformed ``b`` or ``x0`` falls through
    to the caller's criterion for the solver to diagnose."""
    from repro.registry import effective_stop
    from repro.util.counters import counting
    from repro.util.kernels import BLAS_DOT_MAX, inner

    a = poisson2d(104)
    assert a.nrows > BLAS_DOT_MAX
    zero, x0 = np.zeros(a.nrows), np.ones(a.nrows)
    custom = StoppingCriterion(rtol=1e-4)
    with counting() as c:
        resolved = effective_stop(a, zero, {"stop": custom, "x0": x0})
    assert c.dots == 0
    r0 = zero - a.matvec(x0)
    assert resolved == custom.with_initial_residual(0.0, float(np.sqrt(inner(r0, r0))))
    for b, guess in [(np.zeros((a.nrows, 2)), x0), (zero, np.ones(3)),
                     (["b"] * a.nrows, x0)]:
        assert effective_stop(a, b, {"stop": custom, "x0": guess}) is custom


# ----------------------------------------------------------------------
# batched capability flag + solve_batched routing
# ----------------------------------------------------------------------
def test_batched_methods_listing():
    from repro.registry import batched_methods

    assert batched_methods() == ["cg"]
    for name in batched_methods():
        assert method_entry(name).batched
    assert not method_entry("gv").batched
    assert not method_entry("sstep").batched


@pytest.mark.parametrize("method", ["cg"])
def test_solve_batched_routes_and_stamps(system, method):
    from repro import solve_batched

    a, _ = system
    b_block = np.ones((a.nrows, 3))
    result = solve_batched(a, b_block, method, stop=StoppingCriterion(rtol=1e-7))
    assert result.converged
    assert result.method == method
    assert result.m == 3
    assert result.x.shape == (a.nrows, 3)


def test_solve_batched_rejects_non_batched_method(system):
    from repro import solve_batched

    a, _ = system
    with pytest.raises(ValueError, match="no batched multi-RHS path.*batched methods: cg"):
        solve_batched(a, np.ones((a.nrows, 2)), "gv")


def test_solve_batched_unknown_method(system):
    from repro import solve_batched

    a, _ = system
    with pytest.raises(ValueError, match="unknown method"):
        solve_batched(a, np.ones((a.nrows, 2)), "qmr")
