"""Chebyshev polynomial preconditioning.

The preconditioner the machine model actually likes: ``M⁻¹ = p(A)`` where
``p`` approximates ``1/λ`` on an enclosing spectrum interval.  Its
application is ``degree`` chained matvecs -- depth ``q(1 + log d)``,
independent of N, fully parallel -- so unlike the triangular
preconditioners it composes with the paper's restructuring without
destroying the depth story (priced in :mod:`repro.machine.pcg_dag`,
validated in E9's depth table).

``apply(r)`` runs ``degree`` steps of the Chebyshev semi-iteration for
``Az = r`` from ``z = 0``, producing ``p(A)r`` with
``p(λ) = (1 − q(λ))/λ`` and ``q`` the scaled-shifted Chebyshev residual
polynomial; ``|q| < 1`` on the interval makes ``p`` strictly positive
there, so M is SPD whenever the bounds enclose the spectrum.

Because ``p(A)`` commutes with A, the preconditioned system needs no
triangular split: ``Ã = A·p(A)`` is itself SPD (product of commuting SPD
matrices), and ``Ã x = p(A) b`` has the *original* solution x.  So any
solver in this package -- including the Van Rosendale machinery --
preconditions polynomially by just running on
:meth:`ChebyshevPolyPrecond.preconditioned_operator` with the transformed
right-hand side; :func:`polynomial_pcg` and :func:`vr_poly_pcg` wrap the
bookkeeping.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.sparse.linop import CallableOperator, LinearOperator, as_operator
from repro.util.counters import add_axpy
from repro.util.kernels import norm
from repro.util.validation import as_1d_float_array, require_positive_int

__all__ = ["ChebyshevPolyPrecond", "polynomial_pcg", "vr_poly_pcg"]


class ChebyshevPolyPrecond:
    """Degree-q Chebyshev polynomial preconditioner for an SPD operator.

    Parameters
    ----------
    a:
        The SPD operator (anything :func:`repro.sparse.as_operator` takes).
    bounds:
        Enclosing spectrum estimates ``(λmin, λmax)`` -- e.g. from
        :func:`repro.core.lanczos.estimate_spectrum_via_cg` or Gershgorin.
    degree:
        Chebyshev steps (= matvecs) per application.
    """

    def __init__(
        self, a: Any, bounds: tuple[float, float], *, degree: int = 4
    ) -> None:
        self._op = as_operator(a)
        lam_min, lam_max = float(bounds[0]), float(bounds[1])
        if not (0.0 < lam_min < lam_max < float("inf")):
            raise ValueError(
                f"bounds must satisfy 0 < lam_min < lam_max, got {bounds}"
            )
        self._degree = require_positive_int(degree, "degree")
        self._theta = 0.5 * (lam_max + lam_min)  # interval center
        self._delta = 0.5 * (lam_max - lam_min)  # interval half-width

    @property
    def degree(self) -> int:
        """Chebyshev steps (= matvecs) per application."""
        return self._degree

    @property
    def operator(self) -> LinearOperator:
        """The wrapped SPD operator A."""
        return self._op

    def apply(self, r: np.ndarray) -> np.ndarray:
        """``M⁻¹ r = p(A) r`` -- the Chebyshev semi-iteration on ``Az = r``.

        Saad, *Iterative Methods for Sparse Linear Systems*, Alg. 12.1,
        specialized to ``z⁰ = 0``.
        """
        r = np.asarray(r, dtype=np.float64)
        theta, delta = self._theta, self._delta
        sigma1 = theta / delta
        rho = 1.0 / sigma1
        tracer = add_axpy(r.size, flops_per_entry=2)
        d = r / theta
        z = d.copy()
        if tracer is not None:
            tracer.end("axpy")
        for _ in range(1, self._degree):
            rho_next = 1.0 / (2.0 * sigma1 - rho)
            resid = r - self._op.matvec(z)
            tracer = add_axpy(r.size, flops_per_entry=6)
            d = rho_next * rho * d + (2.0 * rho_next / delta) * resid
            z += d
            if tracer is not None:
                tracer.end("axpy")
            rho = rho_next
        return z

    def preconditioned_operator(self) -> CallableOperator:
        """The SPD operator ``Ã = A·p(A)`` (commuting-polynomial trick).

        ``Ã x = p(A) b`` has the same solution as ``A x = b``; feed this
        operator and the transformed right-hand side to any solver.
        """
        n = self._op.shape[0]
        get_degree = getattr(self._op, "max_row_degree", None)
        row_degree = get_degree() if callable(get_degree) else n

        def _matvec(x: np.ndarray) -> np.ndarray:
            return self._op.matvec(self.apply(x))

        return CallableOperator(n, _matvec, row_degree=row_degree)


def polynomial_pcg(
    a: Any,
    b: np.ndarray,
    *,
    precond: ChebyshevPolyPrecond,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: Any = None,
) -> CGResult:
    """Classical CG on ``A·p(A) x = p(A) b`` (polynomial PCG).

    Telemetry events describe the inner iteration on ``Ã``.
    """
    return _poly_solve(
        conjugate_gradient, a, b, precond, x0, stop, "poly-pcg",
        telemetry=telemetry,
    )


def vr_poly_pcg(
    a: Any,
    b: np.ndarray,
    *,
    precond: ChebyshevPolyPrecond,
    k: int = 2,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    recovery: Any = None,
    telemetry: Any = None,
) -> CGResult:
    """Van Rosendale CG on the polynomially preconditioned operator.

    The commuting trick means the VR recurrences apply verbatim -- the
    operator is explicitly SPD and no split factor exists or is needed.
    Telemetry events describe the inner iteration on ``Ã``, and
    ``recovery`` (as in :func:`~repro.core.vr_cg.vr_conjugate_gradient`)
    repairs it.
    """
    return _poly_solve(
        vr_conjugate_gradient,
        a,
        b,
        precond,
        x0,
        stop,
        f"vr-poly-pcg(k={k})",
        k=k,
        recovery=recovery,
        telemetry=telemetry,
    )


def _poly_solve(solver, a, b, m, x0, stop, label, **kwargs) -> CGResult:
    op = as_operator(a)
    b = as_1d_float_array(b, "b")
    a_tilde = m.preconditioned_operator()
    b_tilde = m.apply(b)
    result = solver(a_tilde, b_tilde, x0=x0, stop=stop, **kwargs)
    # the solution needs no back-transform; recompute the TRUE residual in
    # the original system
    result.true_residual_norm = norm(b - op.matvec(result.x))
    result.label = label
    return result
