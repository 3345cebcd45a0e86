"""Stationary iterative methods (the paper's bibliography baseline).

The paper cites Adams [1982], *Iterative Algorithms for Large Sparse
Linear Systems on Parallel Computers* -- the era's survey of exactly
these methods and their parallel structure.  They complete the baseline
picture:

* **Jacobi / weighted Jacobi / Richardson**: fully parallel (depth
  ``log d`` per sweep, no reductions except convergence checks) but
  converge like ``ρ(iteration matrix)ⁿ`` -- typically far more sweeps
  than CG needs iterations.
* **Gauss--Seidel / SOR**: better spectra, but each sweep is a
  triangular-solve-shaped chain (depth Θ(n) on the paper's machine) --
  the same tension E9 quantifies for SSOR preconditioning.

Each solver returns the shared :class:`CGResult`, with convergence
checked every ``check_every`` sweeps (the only reductions the parallel
methods perform).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.sparse.csr import CSRMatrix
from repro.sparse.trisolve import solve_lower
from repro.util.counters import add_axpy
from repro.util.kernels import norm
from repro.util.validation import (
    as_1d_float_array,
    check_square_operator,
    require_positive_int,
)

__all__ = ["jacobi_solve", "gauss_seidel_solve", "sor_solve", "richardson_solve"]


def _stationary_loop(
    a,
    b: np.ndarray,
    x0: np.ndarray | None,
    correction: Callable[[np.ndarray], np.ndarray],
    stop: StoppingCriterion | None,
    check_every: int,
    label: str,
    telemetry=None,
) -> CGResult:
    """Shared loop: apply ``x <- x + correction(r)`` until converged."""
    run = SolveRun.open(
        label.split("(")[0], label, a, b, x0=x0, stop=stop, telemetry=telemetry,
        check_every=check_every,
    )
    op, b, x = run.op, run.b, run.x
    r = b - op.matvec(x)
    reason = StopReason.MAX_ITER
    iterations = 0
    if run.start(norm(r), x):
        reason = StopReason.CONVERGED
    else:
        budget = run.stop.budget(b.shape[0])
        while iterations < budget:
            delta = correction(r)
            tracer = add_axpy(b.shape[0])
            x = x + delta
            if tracer is not None:
                tracer.end("axpy")
            iterations += 1
            r = b - op.matvec(x)
            if iterations % check_every == 0 or iterations >= budget:
                verdict = run.verdict(iterations, norm(r), x)
                if verdict is not None:
                    reason = run.ending(verdict)
                    break
    return run.finish(reason, x, iterations)


def jacobi_solve(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    omega: float = 1.0,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    check_every: int = 5,
    telemetry: Any = None,
) -> CGResult:
    """(Weighted) Jacobi: ``x += ω D⁻¹ r`` -- the fully parallel sweep.

    ``omega < 1`` damps (useful as a smoother and for matrices where
    plain Jacobi diverges); convergence requires ``ρ(I − ωD⁻¹A) < 1``.
    """
    b = as_1d_float_array(b, "b")
    check_square_operator(a, b.shape[0])
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise ValueError("Jacobi requires a strictly positive diagonal")
    if omega <= 0:
        raise ValueError("omega must be positive")
    inv_diag = omega / diag
    return _stationary_loop(
        a, b, x0, lambda r: inv_diag * r, stop,
        require_positive_int(check_every, "check_every"),
        f"jacobi(omega={omega})", telemetry,
    )


def richardson_solve(
    a: Any,
    b: np.ndarray,
    *,
    step: float,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    check_every: int = 5,
    telemetry: Any = None,
) -> CGResult:
    """Richardson iteration ``x += step·r`` (converges for
    ``0 < step < 2/λmax``; optimal at ``2/(λmin+λmax)``)."""
    if step <= 0:
        raise ValueError("step must be positive")
    return _stationary_loop(
        a, b, x0, lambda r: step * r, stop,
        require_positive_int(check_every, "check_every"),
        f"richardson(step={step:.3g})", telemetry,
    )


def sor_solve(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    omega: float = 1.0,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    check_every: int = 5,
    telemetry: Any = None,
) -> CGResult:
    """SOR: ``(D/ω + L) Δ = r`` -- one forward substitution per sweep.

    ``omega = 1`` is Gauss--Seidel.  Converges for SPD A and
    ``0 < ω < 2``.  Each sweep is a depth-Θ(n) chain on the paper's
    machine (the parallelism price of its better spectrum).
    """
    b = as_1d_float_array(b, "b")
    check_square_operator(a, b.shape[0])
    if not 0.0 < omega < 2.0:
        raise ValueError(f"omega must lie in (0, 2), got {omega}")
    diag = a.diagonal()
    if np.any(diag <= 0):
        raise ValueError("SOR requires a strictly positive diagonal")

    # (D/omega + L): strictly lower part of A plus the scaled diagonal.
    from repro.sparse.coo import COOBuilder

    strict_lower = a.lower_triangle(strict=True)
    builder = COOBuilder(a.nrows, a.ncols)
    if strict_lower.nnz:
        row_of = np.repeat(
            np.arange(strict_lower.nrows), np.diff(strict_lower.indptr)
        )
        builder.add_batch(row_of, strict_lower.indices, strict_lower.data)
    idx = np.arange(a.nrows, dtype=np.int64)
    builder.add_batch(idx, idx, diag / omega)
    sweep_matrix = builder.to_csr()
    return _stationary_loop(
        a, b, x0, lambda r: solve_lower(sweep_matrix, r), stop,
        require_positive_int(check_every, "check_every"),
        f"sor(omega={omega})", telemetry,
    )


def gauss_seidel_solve(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    check_every: int = 5,
    telemetry: Any = None,
) -> CGResult:
    """Gauss--Seidel = SOR with ``ω = 1``."""
    return sor_solve(
        a, b, omega=1.0, x0=x0, stop=stop, check_every=check_every,
        telemetry=telemetry,
    )
