"""Unit tests for the operator protocol and adapters."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.csr import from_dense
from repro.sparse.linop import (
    CallableOperator,
    DenseOperator,
    LinearOperator,
    as_operator,
    block_matvec,
)
from repro.util.counters import counting


class TestDenseOperator:
    def test_matvec(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0]])
        op = DenseOperator(a)
        np.testing.assert_allclose(op.matvec(np.array([1.0, 1.0])), [2.0, 3.0])

    def test_shape_and_degree(self):
        op = DenseOperator(np.eye(4))
        assert op.shape == (4, 4)
        assert op.max_row_degree() == 4

    def test_counted(self):
        op = DenseOperator(np.eye(3))
        with counting() as c:
            op @ np.ones(3)
        assert c.matvecs == 1

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            DenseOperator(np.ones((2, 3)))


class TestCallableOperator:
    def test_wraps_function(self):
        op = CallableOperator(3, lambda x: 2.0 * x, row_degree=1)
        np.testing.assert_allclose(op.matvec(np.ones(3)), 2.0 * np.ones(3))
        assert op.shape == (3, 3)
        assert op.max_row_degree() == 1

    def test_default_degree_dense(self):
        op = CallableOperator(5, lambda x: x)
        assert op.max_row_degree() == 5

    def test_satisfies_protocol(self):
        op = CallableOperator(2, lambda x: x)
        assert isinstance(op, LinearOperator)


class TestAsOperator:
    def test_ndarray(self):
        op = as_operator(np.eye(2))
        assert isinstance(op, DenseOperator)

    def test_csr_passthrough(self):
        a = from_dense(np.eye(2))
        assert as_operator(a) is a

    def test_scipy_sparse(self):
        s = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        op = as_operator(s)
        np.testing.assert_allclose(op.matvec(np.array([1.0, 1.0])), [3.0, 3.0])
        assert op.max_row_degree() == 2

    def test_scipy_counted(self):
        s = sp.identity(4, format="csr")
        op = as_operator(s)
        with counting() as c:
            op.matvec(np.ones(4))
        assert c.matvecs == 1

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_operator("not an operator")

    def test_rejects_rectangular_scipy(self):
        with pytest.raises(ValueError):
            as_operator(sp.csr_matrix(np.ones((2, 3))))


class TestDenseOperatorNonFinite:
    """Non-finite matrix entries raise a diagnosis, never a RuntimeWarning."""

    def _bad_op(self):
        a = np.eye(4)
        a[1, 2] = np.inf
        a[3, 0] = np.nan
        return DenseOperator(a)

    def test_bad_entries_raise_not_warn(self):
        op = self._bad_op()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite entr"):
                op.matvec(np.ones(4))

    def test_error_counts_bad_entries(self):
        op = self._bad_op()
        with pytest.raises(ValueError, match="2 non-finite entries"):
            op.matvec(np.ones(4))

    def test_matmat_diagnosed_too(self):
        op = self._bad_op()
        with pytest.raises(ValueError, match="non-finite entr"):
            op.matmat(np.ones((4, 2)))

    def test_nonfinite_input_propagates_silently(self):
        # a diverging solve's nan vector is the solver's business, not ours
        op = DenseOperator(np.eye(3))
        x = np.array([1.0, np.nan, 1.0])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = op.matvec(x)
        assert np.isnan(y[1])

    def test_finite_matrix_skips_check_cheaply(self):
        op = DenseOperator(np.eye(3))
        np.testing.assert_allclose(op.matvec(np.ones(3)), np.ones(3))


class TestBlockMatvecDispatch:
    """``block_matvec`` picks the ``matmat`` call form from its signature,
    by the same cached rule as ``matvec_into`` -- never by trial calls."""

    def test_raising_matmat_is_entered_once(self):
        class Raising:
            shape = (2, 2)
            calls = 0

            def matvec(self, x):  # pragma: no cover - never applied here
                return x

            def matmat(self, x, out=None, work=None):
                Raising.calls += 1
                raise TypeError("bad operand inside the product")

        x = np.ones((2, 3))
        with pytest.raises(TypeError, match="bad operand"):
            block_matvec(Raising(), x, out=np.empty((2, 3)), work=np.empty(6))
        assert Raising.calls == 1

    def test_out_only_matmat_fills_out(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = np.arange(6.0).reshape(2, 3)
        out = np.empty((2, 3))
        got = block_matvec(DenseOperator(a), x, out=out, work=np.empty(6))
        assert got is out
        np.testing.assert_allclose(out, a @ x)
