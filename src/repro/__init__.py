"""repro -- reproduction of Van Rosendale (1983).

*Minimizing Inner Product Data Dependencies in Conjugate Gradient
Iteration* (ICASE report 83-36 / NASA CR-172178, presented at ICPP 1983)
restructures conjugate gradient iteration so the ``log N`` fan-in latency
of its inner products overlaps the iteration pipeline, reducing the
per-iteration parallel time from ``Θ(log N)`` to ``Θ(log log N)``.

This package implements the complete system:

* the restructured solvers (:func:`repro.vr_conjugate_gradient` eager
  form, :func:`repro.pipelined_vr_cg` pipelined form) and the classical
  baseline (:func:`repro.conjugate_gradient`);
* the moment-recurrence algebra, including the composed relation (*) with
  numeric and symbolic coefficients;
* a from-scratch sparse linear algebra substrate (CSR/ELL formats, model
  problem generators, MatrixMarket I/O);
* preconditioners (Jacobi, SSOR, IC(0)) with a split application that
  keeps the preconditioned operator SPD so the restructuring applies
  unchanged;
* the historical successor variants (three-term CG, Chronopoulos--Gear,
  Ghysels--Vanroose pipelined CG) as baselines;
* a data-flow machine model that *measures* the paper's parallel-time
  claims as task-DAG depths;
* the experiment harness regenerating every claim and the paper's
  Figure 1 (see DESIGN.md / EXPERIMENTS.md).

Quickstart::

    import numpy as np
    from repro import Telemetry, poisson2d, solve

    a = poisson2d(32)                      # 1024 x 1024 SPD system
    b = np.ones(a.nrows)
    tele = Telemetry()
    result = solve(a, b, method="vr", k=3, telemetry=tele)
    print(result.summary())
    print(len(tele.events_of("iteration")), "iteration events")

:func:`repro.solve` dispatches through :mod:`repro.registry`; the
individual solver functions remain importable for direct use.
"""

from repro.backend import (
    SetupCache,
    Workspace,
    clear_setup_cache,
    resolve_backend,
    setup_cache,
)
from repro.core import (
    BatchedResult,
    CGResult,
    PipelineTrace,
    StopReason,
    StoppingCriterion,
    batched_cg,
    conjugate_gradient,
    pipelined_vr_cg,
    star_coefficients_numeric,
    star_coefficients_symbolic,
    vr_conjugate_gradient,
)
from repro.registry import (
    available_methods,
    batched_methods,
    operator_methods,
    solve,
    solve_batched,
)
from repro.serve import ServiceConfig, SolverService
from repro.sparse import (
    CSRMatrix,
    NormalOperator,
    anisotropic2d,
    as_operator,
    banded_spd,
    from_dense,
    poisson1d,
    poisson2d,
    poisson3d,
    read_matrix_market,
    write_matrix_market,
)
from repro.telemetry import Telemetry
from repro.trace import (
    MetricsRegistry,
    MetricsSink,
    Span,
    Tracer,
    profile_solve,
)
from repro.util import counting

__version__ = "1.0.0"

__all__ = [
    "solve",
    "solve_batched",
    "SetupCache",
    "Workspace",
    "clear_setup_cache",
    "resolve_backend",
    "setup_cache",
    "available_methods",
    "batched_methods",
    "operator_methods",
    "ServiceConfig",
    "SolverService",
    "Telemetry",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "MetricsSink",
    "profile_solve",
    "BatchedResult",
    "CGResult",
    "PipelineTrace",
    "StopReason",
    "StoppingCriterion",
    "batched_cg",
    "conjugate_gradient",
    "pipelined_vr_cg",
    "star_coefficients_numeric",
    "star_coefficients_symbolic",
    "vr_conjugate_gradient",
    "CSRMatrix",
    "NormalOperator",
    "anisotropic2d",
    "as_operator",
    "banded_spd",
    "from_dense",
    "poisson1d",
    "poisson2d",
    "poisson3d",
    "read_matrix_market",
    "write_matrix_market",
    "counting",
    "__version__",
]
