"""The paper's algorithms: classical CG and its Van Rosendale restructuring.

Module map (mirrors the derivation in DESIGN.md):

* :mod:`repro.core.standard` -- the Section 2 baseline (classical
  Hestenes--Stiefel CG in the paper's exact formulation).
* :mod:`repro.core.moments` -- the moment window ``μ/ν/σ`` and its
  one-step scalar recurrences; the window widths realize claim C6's "only
  two inner products computed directly".
* :mod:`repro.core.powers` -- the Krylov power blocks and the vector
  recurrences of claim C5 (one matvec per iteration).
* :mod:`repro.core.vr_cg` -- the eager restructured solver (the paper's
  new algorithm with the two-direct-dot refinement), plus residual
  replacement for finite-precision control.
* :mod:`repro.core.coefficients` -- the composed k-step relation (*) of
  Section 4, built numerically and symbolically (claim C3/C4 machinery).
* :mod:`repro.core.pipeline` -- the fully pipelined iteration as Figure 1
  draws it: launch at ``n-k``, pipelined coefficient composition, consume
  at ``n``, with an enforced timing ledger.
* :mod:`repro.core.stopping` / :mod:`repro.core.results` -- shared policy
  and result containers.
"""

from repro.core.coefficients import (
    StarCoefficients,
    composed_numeric,
    composed_symbolic,
    star_coefficients_numeric,
    star_coefficients_symbolic,
)
from repro.core.convergence import (
    a_norm_error_history,
    cg_error_bound,
    check_against_bound,
    iterations_for_tolerance,
)
from repro.core.krylov import (
    basis_condition,
    chebyshev_basis,
    gram_matrix,
    monomial_basis,
    newton_basis,
)
from repro.core.lanczos import (
    estimate_spectrum_via_cg,
    lanczos_tridiagonal,
    ritz_values,
)
from repro.core.moments import (
    MomentWindow,
    direct_moment,
    initial_window,
    window_from_powers,
)
from repro.core.batched import batched_cg
from repro.core.pipeline import LaunchLedger, PipelineTrace, TraceEvent, pipelined_vr_cg
from repro.core.powers import PowerBlock
from repro.core.results import BatchedResult, CGResult, StopReason
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import VRState, vr_conjugate_gradient

__all__ = [
    "a_norm_error_history",
    "cg_error_bound",
    "check_against_bound",
    "iterations_for_tolerance",
    "basis_condition",
    "chebyshev_basis",
    "gram_matrix",
    "monomial_basis",
    "newton_basis",
    "estimate_spectrum_via_cg",
    "lanczos_tridiagonal",
    "ritz_values",
    "StarCoefficients",
    "composed_numeric",
    "composed_symbolic",
    "star_coefficients_numeric",
    "star_coefficients_symbolic",
    "MomentWindow",
    "direct_moment",
    "initial_window",
    "window_from_powers",
    "LaunchLedger",
    "PipelineTrace",
    "TraceEvent",
    "pipelined_vr_cg",
    "PowerBlock",
    "BatchedResult",
    "CGResult",
    "StopReason",
    "batched_cg",
    "conjugate_gradient",
    "StoppingCriterion",
    "VRState",
    "vr_conjugate_gradient",
]
