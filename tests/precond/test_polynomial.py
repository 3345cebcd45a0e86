"""Unit tests for the Chebyshev polynomial preconditioner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lanczos import estimate_spectrum_via_cg
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.faults import RecoveryPolicy
from repro.precond.polynomial import (
    ChebyshevPolyPrecond,
    polynomial_pcg,
    vr_poly_pcg,
)
from repro.sparse.generators import anisotropic2d, poisson1d, poisson2d
from repro.sparse.stats import estimate_extreme_eigenvalues
from repro.util.counters import counting
from repro.util.rng import default_rng

STOP = StoppingCriterion(rtol=1e-8, max_iter=4000)


@pytest.fixture
def problem():
    a = anisotropic2d(12, epsilon=0.1)
    b = default_rng(31).standard_normal(a.nrows)
    lo, hi = estimate_extreme_eigenvalues(a)
    return a, b, (0.9 * lo, 1.1 * hi)


class TestApply:
    def test_is_polynomial_in_a(self, problem):
        """apply is linear and commutes with A (a polynomial in A)."""
        a, b, bounds = problem
        m = ChebyshevPolyPrecond(a, bounds, degree=3)
        x = default_rng(1).standard_normal(a.nrows)
        y = default_rng(2).standard_normal(a.nrows)
        # linearity
        np.testing.assert_allclose(
            m.apply(2.0 * x + y), 2.0 * m.apply(x) + m.apply(y), rtol=1e-10
        )
        # commutes with A
        np.testing.assert_allclose(
            m.apply(a.matvec(x)), a.matvec(m.apply(x)), rtol=1e-9, atol=1e-12
        )

    def test_degree_one_is_scaled_identity(self, problem):
        a, b, bounds = problem
        m = ChebyshevPolyPrecond(a, bounds, degree=1)
        theta = 0.5 * (bounds[0] + bounds[1])
        x = default_rng(3).standard_normal(a.nrows)
        np.testing.assert_allclose(m.apply(x), x / theta, rtol=1e-12)

    def test_spd(self, problem):
        """p(A) must be SPD when the bounds enclose the spectrum."""
        a, _, bounds = problem
        m = ChebyshevPolyPrecond(a, bounds, degree=4)
        n = a.nrows
        mat = np.array([m.apply(e) for e in np.eye(n)]).T
        np.testing.assert_allclose(mat, mat.T, atol=1e-10)
        assert np.linalg.eigvalsh(mat).min() > 0

    def test_approximates_inverse_with_degree(self):
        """Higher degree -> p(A) closer to A^{-1} in relative action.

        Chebyshev converges at rate ~(sqrt(k)-1)/(sqrt(k)+1) per degree;
        the small path graph (cond ~ 48) makes degree 10 land below 10%.
        """
        a = poisson1d(10)
        w = np.linalg.eigvalsh(a.todense())
        bounds = (float(w[0]), float(w[-1]))
        x = default_rng(4).standard_normal(10)
        target = np.linalg.solve(a.todense(), x)

        def err(deg):
            m = ChebyshevPolyPrecond(a, bounds, degree=deg)
            return np.linalg.norm(m.apply(x) - target) / np.linalg.norm(target)

        errs = [err(d) for d in (1, 3, 6, 10)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 0.1

    def test_matvec_budget(self, problem):
        a, _, bounds = problem
        m = ChebyshevPolyPrecond(a, bounds, degree=5)
        with counting() as c:
            m.apply(np.ones(a.nrows))
        assert c.matvecs == 4  # degree - 1 residual evaluations

    def test_bad_bounds(self, problem):
        a, _, _ = problem
        for bad in [(0.0, 1.0), (2.0, 1.0), (1.0, float("inf"))]:
            with pytest.raises(ValueError):
                ChebyshevPolyPrecond(a, bad)


class TestSolvers:
    def test_reduces_iterations(self, problem):
        a, b, bounds = problem
        ref = conjugate_gradient(a, b, stop=STOP)
        m = ChebyshevPolyPrecond(a, bounds, degree=4)
        res = polynomial_pcg(a, b, precond=m, stop=STOP)
        assert res.converged
        assert res.iterations < ref.iterations / 2
        assert res.true_residual_norm < 1e-5

    def test_vr_parity(self, problem):
        a, b, bounds = problem
        m = ChebyshevPolyPrecond(a, bounds, degree=4)
        ref = polynomial_pcg(a, b, precond=m, stop=STOP)
        res = vr_poly_pcg(
            a, b, precond=m, k=2, stop=STOP, recovery=RecoveryPolicy(replace_every=8)
        )
        assert res.converged
        assert abs(res.iterations - ref.iterations) <= 2
        np.testing.assert_allclose(res.x, ref.x, atol=1e-5)

    def test_preconditioned_operator_spd_spectrum(self, problem):
        """A p(A) has positive spectrum (the trick's soundness)."""
        a, _, bounds = problem
        m = ChebyshevPolyPrecond(a, bounds, degree=3)
        tilde = m.preconditioned_operator()
        n = a.nrows
        mat = np.array([tilde.matvec(e) for e in np.eye(n)]).T
        np.testing.assert_allclose(mat, mat.T, atol=1e-9)
        assert np.linalg.eigvalsh(mat).min() > 0

    def test_cg_estimated_bounds_work(self):
        a = poisson2d(10)
        b = default_rng(5).standard_normal(a.nrows)
        bounds = estimate_spectrum_via_cg(a, b, iterations=10)
        m = ChebyshevPolyPrecond(a, bounds, degree=4)
        res = polynomial_pcg(a, b, precond=m, stop=STOP)
        assert res.converged

    def test_labels(self, problem):
        a, b, bounds = problem
        m = ChebyshevPolyPrecond(a, bounds, degree=2)
        assert polynomial_pcg(a, b, precond=m, stop=STOP).label == "poly-pcg"
        assert (
            vr_poly_pcg(
                a, b, precond=m, k=1, stop=STOP,
                recovery=RecoveryPolicy(replace_every=8),
            ).label
            == "vr-poly-pcg(k=1)"
        )
