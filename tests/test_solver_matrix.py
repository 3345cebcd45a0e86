"""Conformance matrix: every solver × every problem class.

The cross-product sweep a release gate runs: all ten solver entry points
against four structurally different SPD problem classes, each checked
for convergence to the true solution.  Slow drifting configurations get
their documented stabilizers (replacement / Chebyshev basis) -- the
matrix encodes the *supported* way to run each solver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import pipelined_vr_cg
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.faults import RecoveryPolicy
from repro.precond import (
    ChebyshevPolyPrecond,
    JacobiPrecond,
    SSORPrecond,
    polynomial_pcg,
    preconditioned_cg,
    vr_pcg,
)
from repro.sparse.csr import from_dense
from repro.sparse.generators import anisotropic2d, banded_spd, poisson2d, poisson3d
from repro.sparse.stats import estimate_extreme_eigenvalues
from repro.util.rng import default_rng, spd_test_matrix
from repro.variants import (
    chronopoulos_gear_cg,
    ghysels_vanroose_cg,
    sstep_cg,
    three_term_cg,
)

STOP = StoppingCriterion(rtol=1e-7, max_iter=4000)

PROBLEMS = {
    "poisson2d": lambda: poisson2d(9),
    "poisson3d": lambda: poisson3d(4),
    "banded": lambda: banded_spd(90, 4, seed=17),
    "dense": lambda: from_dense(spd_test_matrix(70, cond=150.0, seed=18)),
}

SOLVERS = {
    "cg": lambda a, b: conjugate_gradient(a, b, stop=STOP),
    "three-term": lambda a, b: three_term_cg(a, b, stop=STOP),
    "cg-cg": lambda a, b: chronopoulos_gear_cg(a, b, stop=STOP),
    "gv": lambda a, b: ghysels_vanroose_cg(a, b, stop=STOP),
    "sstep-cheb": lambda a, b: sstep_cg(
        a, b, s=4, basis="chebyshev",
        spectrum_bounds=_bounds(a), stop=STOP,
    ),
    "vr-adaptive": lambda a, b: vr_conjugate_gradient(
        a, b, k=2, stop=STOP, recovery="drift"
    ),
    "vr-periodic": lambda a, b: vr_conjugate_gradient(
        a, b, k=3, stop=STOP, recovery=RecoveryPolicy(replace_every=6)
    ),
    "pipelined-vr": lambda a, b: pipelined_vr_cg(a, b, k=2, stop=STOP),
    "pcg-jacobi": lambda a, b: preconditioned_cg(a, b, precond=JacobiPrecond(a), stop=STOP),
    "vr-pcg-ssor": lambda a, b: vr_pcg(
        a, b, precond=SSORPrecond(a, omega=1.1), k=2, stop=STOP,
        recovery=RecoveryPolicy(replace_every=6),
    ),
    "poly-pcg": lambda a, b: polynomial_pcg(
        a, b, precond=ChebyshevPolyPrecond(a, _bounds(a), degree=3), stop=STOP
    ),
}

def _bounds(a) -> tuple[float, float]:
    # computed fresh per call: cheap at these sizes, and caching by id()
    # would risk stale entries after garbage collection reuses addresses
    lo, hi = estimate_extreme_eigenvalues(a)
    return (0.95 * lo, 1.05 * hi)


@pytest.mark.parametrize("problem_name", sorted(PROBLEMS))
@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_solver_on_problem(problem_name, solver_name):
    a = PROBLEMS[problem_name]()
    # NB: builtins hash() is salted per process -- use a stable seed
    seed = sum(ord(c) for c in problem_name)
    b = default_rng(seed).standard_normal(a.nrows)
    result = SOLVERS[solver_name](a, b)
    assert result.converged, (
        f"{solver_name} on {problem_name}: {result.summary()}"
    )
    residual = np.linalg.norm(a.matvec(result.x) - b) / np.linalg.norm(b)
    assert residual < 1e-4, (
        f"{solver_name} on {problem_name}: relative residual {residual:.2e}"
    )


# ---------------------------------------------------------------------------
# Registry-wide differential matrix: every method the registry exposes,
# checked against a dense direct solve of the same system.  Unlike the
# hand-curated SOLVERS table above, this sweep enumerates the registry at
# collection time, so a newly registered method is tested the moment it
# exists -- there is no list to forget to update.
# ---------------------------------------------------------------------------

from repro import solve, solve_batched  # noqa: E402
from repro.registry import available_methods, batched_methods  # noqa: E402

# Stationary methods converge linearly with a contraction factor near one
# on these problems; they need a much larger sweep budget and only reach
# a looser tolerance in reasonable time.
_STATIONARY = {"jacobi", "gauss-seidel", "sor", "richardson", "chebyshev"}

_DIFF_PROBLEMS = {
    "poisson2d": lambda: poisson2d(8),
    "banded": lambda: banded_spd(72, 3, seed=29),
}


def _oracle(a, b):
    return np.linalg.solve(a.todense(), b)


@pytest.mark.parametrize("problem_name", sorted(_DIFF_PROBLEMS))
@pytest.mark.parametrize("method", available_methods())
def test_registry_method_matches_direct_solve(method, problem_name):
    a = _DIFF_PROBLEMS[problem_name]()
    seed = sum(ord(c) for c in problem_name) + 101
    b = default_rng(seed).standard_normal(a.nrows)
    x_star = _oracle(a, b)
    rtol = 1e-6 if method in _STATIONARY else 1e-8
    stop = StoppingCriterion(rtol=rtol, max_iter=50_000)
    result = solve(a, b, method=method, stop=stop)
    assert result.converged, f"{method} on {problem_name}: {result.summary()}"
    xscale = max(np.linalg.norm(x_star), 1.0)
    err = np.linalg.norm(result.x - x_star) / xscale
    # Solution error amplifies the residual tolerance by cond(A); these
    # problems sit at cond <= ~1e2.
    assert err < 1e4 * rtol, (
        f"{method} on {problem_name}: solution error {err:.2e}"
    )
    # The reported true residual is the recomputed one, and the exit rule
    # held: within 100x the stopping threshold on every method.
    true_res = np.linalg.norm(b - a.matvec(result.x))
    np.testing.assert_allclose(result.true_residual_norm, true_res, rtol=1e-6)
    assert true_res <= 100.0 * stop.threshold(np.linalg.norm(b)), (
        f"{method} on {problem_name}: true residual {true_res:.2e}"
    )


# ---------------------------------------------------------------------------
# Operator-form differential matrix: every operator-capable method must
# produce the SAME solve whether the system arrives as the assembled
# CSRMatrix, as `as_operator(csr)` (front-door passthrough), as a wrapped
# callable closing over the same matrix, or as a DenseOperator.  The first
# three share bit-identical arithmetic (the wrapper adds dispatch, not
# math) so their iterate histories and telemetry counters must be equal;
# the dense form reorders the matvec arithmetic and is held to counter
# parity plus a solution tolerance.
# ---------------------------------------------------------------------------

from repro.registry import operator_methods  # noqa: E402
from repro.sparse.linop import CallableOperator, DenseOperator, as_operator  # noqa: E402
from repro.util import counting  # noqa: E402


def _operator_stop(method):
    if method in _STATIONARY:
        return StoppingCriterion(rtol=1e-6, max_iter=50_000)
    return StoppingCriterion(rtol=1e-8, max_iter=5000)


@pytest.mark.parametrize("method", operator_methods())
def test_operator_forms_match_assembled(method):
    a = poisson2d(8)
    b = default_rng(313).standard_normal(a.nrows)
    stop = _operator_stop(method)

    with counting() as base_counts:
        base = solve(a, b, method=method, stop=stop)
    assert base.converged

    # Front-door passthrough and a counted=False callable closing over
    # the same matrix run the identical arithmetic: bit-for-bit iterates.
    wrapped = CallableOperator(a.nrows, a.matvec, nnz=a.nnz, counted=False)
    for label, form in (
        ("as_operator(csr)", as_operator(a)),
        ("CallableOperator", wrapped),
    ):
        with counting() as counts:
            result = solve(form, b, method=method, stop=stop)
        assert result.converged, f"{method} via {label}"
        assert result.iterations == base.iterations, f"{method} via {label}"
        assert np.array_equal(result.x, base.x), f"{method} via {label}"
        assert result.residual_norms == base.residual_norms, (
            f"{method} via {label}"
        )
        assert (counts.dots, counts.axpys, counts.matvecs, counts.reductions) == (
            base_counts.dots,
            base_counts.axpys,
            base_counts.matvecs,
            base_counts.reductions,
        ), f"{method} via {label}: telemetry counters diverged"

    # DenseOperator: different matvec arithmetic (BLAS ordering), same
    # mathematics -- counter parity is method-shape-dependent only when
    # iteration counts agree, so hold it to solution agreement.
    dense = DenseOperator(a.todense())
    result = solve(dense, b, method=method, stop=stop)
    assert result.converged, f"{method} via DenseOperator"
    xscale = max(np.linalg.norm(base.x), 1.0)
    tol = 1e-4 if method in _STATIONARY else 1e-6
    assert np.linalg.norm(result.x - base.x) / xscale < tol, (
        f"{method} via DenseOperator"
    )


def test_complex_hermitian_normal_equations_match_dense_oracle():
    """The MRI normal-equations workload: complex Hermitian positive
    definite, solved matrix-free -- checked against a dense oracle built
    by applying the operator to the identity."""
    from repro.zoo import mri_normal_system

    a, b, _ = mri_normal_system(8, accel=2.0, shift=0.05, seed=5)
    n = a.shape[0]
    dense = np.column_stack(
        [a.matvec(e) for e in np.eye(n, dtype=np.complex128)]
    )
    herm_err = np.abs(dense - dense.conj().T).max()
    assert herm_err < 1e-12
    assert np.linalg.eigvalsh(dense).min() > 0.0
    x_star = np.linalg.solve(dense, b)
    stop = StoppingCriterion(rtol=1e-10, max_iter=2000)
    for method in ("cg", "vr", "pipelined-vr"):
        result = solve(a, b, method=method, stop=stop)
        assert result.converged, f"{method}: {result.summary()}"
        assert result.x.dtype == np.complex128
        err = np.linalg.norm(result.x - x_star) / np.linalg.norm(x_star)
        assert err < 1e-6, f"{method}: solution error {err:.2e}"


@pytest.mark.parametrize("method", batched_methods())
def test_batched_single_column_matches_direct_solve(method):
    """The m=1 degenerate block must agree with the oracle too -- the
    batched code paths (fused reductions, deflation bookkeeping) are
    live even for a single right-hand side."""
    a = poisson2d(8)
    b = default_rng(211).standard_normal(a.nrows)
    x_star = _oracle(a, b)
    stop = StoppingCriterion(rtol=1e-8, max_iter=5000)
    result = solve_batched(a, b[:, None], method, stop=stop)
    assert result.x.shape == (a.nrows, 1)
    assert bool(result.column_converged[0])
    xscale = max(np.linalg.norm(x_star), 1.0)
    err = np.linalg.norm(result.x[:, 0] - x_star) / xscale
    assert err < 1e-4, f"batched {method} m=1: solution error {err:.2e}"
