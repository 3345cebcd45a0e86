"""Failure injection: the solvers must fail loudly, never silently.

Every public solver is fed hostile inputs -- NaNs, indefinite and
singular matrices, shape mismatches, adversarial operators -- and must
either raise a clear ValueError at the door or return a result honestly
flagged as not converged.  A solver that returns ``converged=True`` with
a garbage solution is the one unacceptable outcome; these tests pin that
contract for the whole family.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import pipelined_vr_cg
from repro.core.standard import conjugate_gradient
from repro.core.stopping import StoppingCriterion
from repro.core.vr_cg import vr_conjugate_gradient
from repro.faults import RecoveryPolicy
from repro.precond import ICholPrecond, JacobiPrecond, SSORPrecond, preconditioned_cg
from repro.sparse.csr import from_dense
from repro.sparse.linop import CallableOperator
from repro.telemetry import Telemetry
from repro.util.rng import default_rng, spd_test_matrix
from repro.variants import (
    chronopoulos_gear_cg,
    ghysels_vanroose_cg,
    sstep_cg,
    three_term_cg,
)

STOP = StoppingCriterion(rtol=1e-8, max_iter=200)

ALL_SOLVERS = [
    ("cg", lambda a, b: conjugate_gradient(a, b, stop=STOP)),
    ("vr", lambda a, b: vr_conjugate_gradient(a, b, k=2, stop=STOP)),
    ("pipelined-vr", lambda a, b: pipelined_vr_cg(a, b, k=2, stop=STOP)),
    ("three-term", lambda a, b: three_term_cg(a, b, stop=STOP)),
    ("cg-cg", lambda a, b: chronopoulos_gear_cg(a, b, stop=STOP)),
    ("gv", lambda a, b: ghysels_vanroose_cg(a, b, stop=STOP)),
    ("sstep", lambda a, b: sstep_cg(a, b, s=3, stop=STOP)),
]


@pytest.mark.parametrize("name,solver", ALL_SOLVERS)
class TestHostileInputs:
    def test_nan_rhs_rejected(self, name, solver):
        a = spd_test_matrix(8)
        b = np.ones(8)
        b[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solver(a, b)

    def test_inf_rhs_rejected(self, name, solver):
        a = spd_test_matrix(8)
        b = np.full(8, np.inf)
        with pytest.raises(ValueError):
            solver(a, b)

    def test_shape_mismatch_rejected(self, name, solver):
        with pytest.raises(ValueError):
            solver(spd_test_matrix(8), np.ones(5))

    def test_rectangular_operator_rejected(self, name, solver):
        with pytest.raises(ValueError):
            solver(np.ones((4, 6)), np.ones(4))

    def test_indefinite_matrix_never_false_converges(self, name, solver):
        a = np.diag([1.0, 2.0, -3.0, 4.0])
        b = np.ones(4)
        result = solver(a, b)
        if result.converged:
            # some variants CAN solve an indefinite diagonal system by
            # luck of the Krylov space; the answer must then be genuine
            np.testing.assert_allclose(a @ result.x, b, atol=1e-4)

    def test_singular_matrix_never_false_converges(self, name, solver):
        a = np.diag([1.0, 2.0, 0.0, 4.0])
        b = np.array([1.0, 1.0, 1.0, 1.0])  # inconsistent in the null dir
        result = solver(a, b)
        assert not result.converged or np.allclose(
            a @ result.x, b, atol=1e-4
        )

    def test_nan_matrix_surfaces(self, name, solver):
        a = spd_test_matrix(6).copy()
        a[2, 2] = np.nan
        a[2, :] = np.nan
        a[:, 2] = np.nan
        result_or_error: object
        try:
            result = solver(a, b=np.ones(6))
        except (ValueError, FloatingPointError):
            return  # raising is fine
        assert not result.converged  # silent success is not


class TestAdversarialOperators:
    def test_nonsymmetric_operator_flagged_or_survived(self):
        """The solvers assume symmetry; a non-symmetric operator must not
        produce converged=True with a wrong answer."""
        rng = default_rng(5)
        a = rng.standard_normal((10, 10)) + 10 * np.eye(10)  # PD, not sym
        b = rng.standard_normal(10)
        res = vr_conjugate_gradient(a, b, k=1, stop=STOP)
        if res.converged:
            np.testing.assert_allclose(a @ res.x, b, atol=1e-3)

    def test_operator_returning_wrong_shape(self):
        op = CallableOperator(6, lambda x: x[:3])
        with pytest.raises((ValueError, IndexError)):
            conjugate_gradient(op, np.ones(6), stop=STOP)

    def test_operator_returning_nans(self):
        op = CallableOperator(6, lambda x: np.full(6, np.nan))
        res = conjugate_gradient(op, np.ones(6), stop=STOP)
        assert not res.converged


class TestPreconditionerFailures:
    def test_jacobi_zero_diagonal(self):
        a = from_dense(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError):
            JacobiPrecond(a)

    def test_ssor_bad_omega(self):
        a = from_dense(np.eye(3))
        with pytest.raises(ValueError):
            SSORPrecond(a, omega=2.0)

    def test_ic0_indefinite_reports(self):
        # strongly indefinite: even shifted retries give up eventually
        a = from_dense(np.diag([1.0, -50.0, 1.0]))
        with pytest.raises(ValueError):
            ICholPrecond(a, max_tries=2)

    def test_pcg_with_broken_preconditioner(self):
        class BadPrecond:
            def apply(self, r):
                return np.full_like(r, np.nan)

        a = spd_test_matrix(6)
        res = preconditioned_cg(a, np.ones(6), precond=BadPrecond(), stop=STOP)
        assert not res.converged


class TestSoftErrorRecovery:
    """Transient fault injection: corrupt the recurred moment state
    mid-solve through the telemetry state hook and check the detection
    story."""

    @staticmethod
    def _solve_with_corruption(drift_tol):
        from repro.core.vr_cg import VRState
        from repro.sparse.generators import poisson2d
        from repro.util.rng import default_rng

        a = poisson2d(10)
        b = default_rng(99).standard_normal(a.nrows)
        hit = {"done": False}

        def corrupt(state: VRState):
            if state.iteration == 5 and not hit["done"]:
                # a "bit flip": scale one recurred moment by 1000
                state.window.mu[0] *= 1000.0
                hit["done"] = True

        res = vr_conjugate_gradient(
            a, b, k=2,
            stop=StoppingCriterion(rtol=1e-8, max_iter=400),
            telemetry=Telemetry(on_state=corrupt, count_ops=False),
            recovery=None if drift_tol is None else RecoveryPolicy(drift_tol=drift_tol),
        )
        return res, hit["done"]

    def test_undetected_corruption_never_false_converges(self):
        res, injected = self._solve_with_corruption(drift_tol=None)
        assert injected
        # without detection the solver may fail -- but must not lie
        if res.converged:
            assert res.true_residual_norm < 1e-4

    def test_drift_detector_recovers(self):
        res, injected = self._solve_with_corruption(drift_tol=1e-4)
        assert injected
        assert res.converged
        assert res.true_residual_norm < 1e-4


class TestBudgetExhaustion:
    @pytest.mark.parametrize("name,solver", ALL_SOLVERS)
    def test_one_iteration_budget_is_honest(self, name, solver):
        a = spd_test_matrix(20, cond=1000.0, seed=9)
        b = default_rng(10).standard_normal(20)
        tight = StoppingCriterion(rtol=1e-14, max_iter=1)
        runner = {
            "cg": lambda: conjugate_gradient(a, b, stop=tight),
            "vr": lambda: vr_conjugate_gradient(a, b, k=2, stop=tight),
            "pipelined-vr": lambda: pipelined_vr_cg(a, b, k=2, stop=tight),
            "three-term": lambda: three_term_cg(a, b, stop=tight),
            "cg-cg": lambda: chronopoulos_gear_cg(a, b, stop=tight),
            "gv": lambda: ghysels_vanroose_cg(a, b, stop=tight),
            "sstep": lambda: sstep_cg(a, b, s=3, stop=tight),
        }[name]
        res = runner()
        assert not res.converged
        assert res.iterations <= 3  # sstep rounds up to one outer block
