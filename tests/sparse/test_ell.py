"""Unit tests for the ELLPACK format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.csr import from_dense
from repro.sparse.ell import ELLMatrix, csr_to_ell
from repro.sparse.linop import as_operator
from repro.util.counters import counting
from repro.util.rng import default_rng


def random_dense(n, m, density, seed):
    rng = default_rng(seed)
    a = rng.standard_normal((n, m))
    return np.where(rng.uniform(size=(n, m)) < density, a, 0.0)


class TestConversion:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.floats(0, 1), st.integers(0, 999))
    def test_round_trip(self, n, m, density, seed):
        dense = random_dense(n, m, density, seed)
        csr = from_dense(dense)
        ell = csr_to_ell(csr)
        np.testing.assert_allclose(ell.to_csr().todense(), dense, atol=1e-12)

    def test_width_is_max_degree(self):
        dense = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        ell = csr_to_ell(from_dense(dense))
        assert ell.width == 3
        assert ell.max_row_degree() == 3

    def test_empty(self):
        ell = csr_to_ell(from_dense(np.zeros((2, 2))))
        assert ell.width == 0
        op = as_operator(ell)
        np.testing.assert_array_equal(op.matvec(np.ones(2)), np.zeros(2))


class TestMatvec:
    """An ELL matrix has no product of its own: ``as_operator`` hands
    out its CSR, and that product is what a solve applies."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10), st.floats(0, 1), st.integers(0, 999))
    def test_matches_dense(self, n, density, seed):
        # Square: an operator is; test_round_trip covers rectangular ELL.
        dense = random_dense(n, n, density, seed)
        op = as_operator(csr_to_ell(from_dense(dense)))
        x = default_rng(seed + 1).standard_normal(n)
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=1e-9)

    def test_counted(self):
        op = as_operator(csr_to_ell(from_dense(np.eye(4))))
        with counting() as c:
            op @ np.ones(4)
        assert c.matvecs == 1

    def test_wrong_shape(self):
        op = as_operator(csr_to_ell(from_dense(np.eye(3))))
        with pytest.raises(ValueError):
            op.matvec(np.ones(5))

    def test_converted_once(self):
        ell = csr_to_ell(from_dense(np.eye(3)))
        op = as_operator(ell)
        assert op is ell.to_csr()
        assert as_operator(ell) is op


class TestValidation:
    def test_bad_plane_shapes(self):
        with pytest.raises(ValueError):
            ELLMatrix(2, 2, np.zeros((3, 1), dtype=np.int64), np.zeros((3, 1)))

    def test_mismatched_planes(self):
        with pytest.raises(ValueError):
            ELLMatrix(2, 2, np.zeros((2, 1), dtype=np.int64), np.zeros((2, 2)))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            ELLMatrix(2, 2, np.full((2, 1), 7, dtype=np.int64), np.ones((2, 1)))
