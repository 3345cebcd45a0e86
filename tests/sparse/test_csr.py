"""Unit and property tests for the CSR matrix format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

from repro.sparse.csr import CSRMatrix, as_csr, diag_matrix, from_dense, identity
from repro.sparse.ell import csr_to_ell
from repro.util.counters import counting
from repro.util.rng import default_rng


def random_dense(n: int, m: int, density: float, seed: int) -> np.ndarray:
    rng = default_rng(seed)
    a = rng.standard_normal((n, m))
    mask = rng.uniform(size=(n, m)) < density
    return np.where(mask, a, 0.0)


DENSE_CASES = st.tuples(
    st.integers(1, 12),  # rows
    st.integers(1, 12),  # cols
    st.floats(0.0, 1.0),  # density
    st.integers(0, 10_000),  # seed
)


class TestConstruction:
    def test_from_dense_roundtrip(self):
        a = np.array([[1.0, 0.0], [2.0, 3.0]])
        np.testing.assert_array_equal(from_dense(a).todense(), a)

    def test_identity(self):
        np.testing.assert_array_equal(identity(3).todense(), np.eye(3))

    def test_diag_matrix(self):
        d = diag_matrix(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(d.todense(), np.diag([1.0, 2.0]))

    def test_empty_matrix(self):
        a = from_dense(np.zeros((3, 3)))
        assert a.nnz == 0
        np.testing.assert_array_equal(a.matvec(np.ones(3)), np.zeros(3))
        # A stale out buffer is overwritten, not accumulated into.
        out = np.full(3, 5.0)
        a.matvec(np.ones(3), out=out)
        np.testing.assert_array_equal(out, a.to_scipy() @ np.ones(3))
        block = np.full((3, 2), 5.0)
        a.matmat(np.ones((3, 2)), out=block)
        np.testing.assert_array_equal(block, np.zeros((3, 2)))
        # An empty column block: m = 0.
        none = np.empty((3, 0))
        assert a.matmat(np.empty((3, 0)), out=none) is none
        assert from_dense(np.eye(3)).matmat(np.empty((3, 0))).shape == (3, 0)

    def test_bad_indptr_shape(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_decreasing_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError, match="column"):
            CSRMatrix(1, 1, np.array([0, 1]), np.array([5]), np.array([1.0]))

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            CSRMatrix(
                1, 3, np.array([0, 2]), np.array([2, 0]), np.array([1.0, 1.0])
            )

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            CSRMatrix(
                1, 3, np.array([0, 2]), np.array([1, 1]), np.array([1.0, 1.0])
            )

    def test_empty_leading_row_ok(self):
        a = CSRMatrix(2, 2, np.array([0, 0, 1]), np.array([1]), np.array([4.0]))
        np.testing.assert_array_equal(a.todense(), [[0.0, 0.0], [0.0, 4.0]])

    def test_drop_small(self):
        a = from_dense(np.array([[1e-14, 1.0], [0.5, 2.0]]))
        b = a.drop_small(1e-12)
        assert b.nnz == 3


class TestAsCsr:
    def test_csr_and_ell(self):
        a = from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert as_csr(a) is a
        ell = csr_to_ell(a)
        assert as_csr(ell) is ell.to_csr()
        np.testing.assert_array_equal(as_csr(ell).todense(), a.todense())

    def test_ndarray(self):
        dense = np.array([[1.0, 0.0], [2.0, 3.0]])
        np.testing.assert_array_equal(as_csr(dense).todense(), dense)

    def test_scipy_non_canonical_is_canonicalized(self):
        import scipy.sparse as sp

        # Row 1 holds unsorted columns and a duplicate (1, 0) entry.
        indices = np.array([0, 1, 0, 0])
        raw = sp.csr_matrix(
            (np.array([4.0, 1.0, 2.0, 3.0]), indices, np.array([0, 1, 4])),
            shape=(2, 2),
        )
        got = as_csr(raw)
        np.testing.assert_array_equal(got.indices, [0, 0, 1])
        np.testing.assert_array_equal(got.todense(), [[4.0, 0.0], [5.0, 1.0]])
        np.testing.assert_array_equal(raw.indices, indices)  # caller's intact
        np.testing.assert_array_equal(as_csr(raw.tocoo()).todense(), got.todense())

    def test_complex_refused(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError, match="complex"):
            as_csr(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="complex"):
            as_csr(sp.eye(2, dtype=complex))

    def test_operator_refused(self):
        with pytest.raises(TypeError, match="not an assembled matrix"):
            as_csr(lambda x: x)


class TestMatvec:
    @settings(max_examples=60, deadline=None)
    @given(DENSE_CASES)
    def test_matches_dense(self, case):
        n, m, density, seed = case
        dense = random_dense(n, m, density, seed)
        x = default_rng(seed + 1).standard_normal(m)
        csr = from_dense(dense)
        np.testing.assert_allclose(csr.matvec(x), dense @ x, atol=1e-10)
        # Each row sums left to right, exactly as scipy's product does.
        ref = csr.to_scipy()
        np.testing.assert_array_equal(csr.matvec(x), ref @ x)
        block = default_rng(seed + 3).standard_normal((m, 3))
        np.testing.assert_array_equal(csr.matmat(block), ref @ block)

    def test_matmul_operator(self):
        a = from_dense(np.array([[2.0]]))
        np.testing.assert_allclose(a @ np.array([3.0]), [6.0])

    def test_out_buffer(self):
        a = from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = np.empty(2)
        res = a.matvec(np.array([1.0, 1.0]), out=out)
        assert res is out
        np.testing.assert_allclose(out, [3.0, 7.0])
        block = np.empty((2, 2))
        x = np.array([[1.0, 0.5], [1.0, -2.0]])
        assert a.matmat(x, out=block) is block
        np.testing.assert_array_equal(block, a.to_scipy() @ x)
        # Strided x and out: the result lands in the view and nowhere else.
        a = from_dense(random_dense(5, 4, 0.6, 11))
        ref = a.to_scipy()
        xs = default_rng(12).standard_normal(8)
        backing = np.full(10, 7.0)
        a.matvec(xs[::2], out=backing[::2])
        np.testing.assert_array_equal(backing[::2], ref @ xs[::2])
        np.testing.assert_array_equal(backing[1::2], 7.0)
        xb = np.asfortranarray(default_rng(13).standard_normal((4, 3)))
        wide = np.full((5, 5), 7.0)
        a.matmat(xb, out=wide[:, 1:4])
        np.testing.assert_array_equal(wide[:, 1:4], ref @ xb)
        np.testing.assert_array_equal(wide[:, [0, 4]], 7.0)

    def test_one_column_block_is_a_matvec(self):
        # A one-column block runs the single-vector kernel: matvec's
        # bits, booked as the one-column matmat it is.
        a = from_dense(random_dense(40, 40, 0.2, 21))
        x = default_rng(22).standard_normal(40)
        with counting() as vec:
            want = a.matvec(x)
        with counting() as block:
            got = a.matmat(x[:, None])
        assert got.shape == (40, 1)
        assert got.tobytes() == want.tobytes()
        assert block.snapshot() == vec.snapshot()
        # A strided column in, a strided column out.
        xs = default_rng(23).standard_normal((40, 3))
        wide = np.full((40, 3), 7.0)
        a.matmat(xs[:, 1:2], out=wide[:, 1:2])
        assert wide[:, 1].tobytes() == a.matvec(xs[:, 1].copy()).tobytes()
        np.testing.assert_array_equal(wide[:, [0, 2]], 7.0)

    def test_compiled_kernel_contract(self):
        """Pin scipy's private in-place CSR kernels, which the products
        call: argument order, and ``y += A·x`` (not ``y = A·x``).  Small
        integers keep every sum exact, whatever the order."""
        a = from_dense(np.array([[2.0, 0.0, -1.0], [0.0, 3.0, 0.0],
                                 [0.0, 0.0, 0.0], [1.0, 4.0, 5.0]]))
        ref = a.to_scipy()
        x = np.array([1.0, -2.0, 3.0])
        y = np.ones(4)
        _sparsetools.csr_matvec(4, 3, a.indptr, a.indices, a.data, x, y)
        np.testing.assert_array_equal(y, ref @ x + 1.0)
        xb = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 1.0]])
        yb = np.ones((4, 2))
        _sparsetools.csr_matvecs(4, 3, 2, a.indptr, a.indices, a.data, xb, yb)
        np.testing.assert_array_equal(yb, ref @ xb + 1.0)

    def test_out_alias_rejected(self):
        a = identity(2)
        x = np.ones(2)
        with pytest.raises(ValueError, match="alias"):
            a.matvec(x, out=x)

    def test_wrong_shape_rejected(self):
        a = identity(3)
        with pytest.raises(ValueError):
            a.matvec(np.ones(4))

    def test_empty_rows(self):
        dense = np.array([[0.0, 0.0], [1.0, 0.0]])
        a = from_dense(dense)
        x = np.array([2.0, 3.0])
        np.testing.assert_allclose(a.matvec(x), [0.0, 2.0])
        out = np.full(2, 9.0)
        np.testing.assert_array_equal(a.matvec(x, out=out), a.to_scipy() @ x)

    def test_counted(self):
        a = identity(5)
        with counting() as c:
            a.matvec(np.ones(5))
        assert c.matvecs == 1

    @settings(max_examples=40, deadline=None)
    @given(DENSE_CASES)
    def test_rmatvec_matches_dense(self, case):
        n, m, density, seed = case
        dense = random_dense(n, m, density, seed)
        y = default_rng(seed + 2).standard_normal(n)
        csr = from_dense(dense)
        np.testing.assert_allclose(csr.rmatvec(y), dense.T @ y, atol=1e-10)


class TestStructure:
    def test_diagonal(self):
        dense = np.array([[1.0, 2.0], [0.0, 5.0]])
        np.testing.assert_array_equal(from_dense(dense).diagonal(), [1.0, 5.0])

    def test_diagonal_missing_entries(self):
        dense = np.array([[0.0, 2.0], [3.0, 0.0]])
        np.testing.assert_array_equal(from_dense(dense).diagonal(), [0.0, 0.0])

    def test_row_degrees(self):
        dense = np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(from_dense(dense).row_degrees(), [2, 1])

    def test_max_row_degree(self):
        dense = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert from_dense(dense).max_row_degree() == 2

    def test_is_symmetric_true(self):
        dense = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert from_dense(dense).is_symmetric()

    def test_is_symmetric_false(self):
        dense = np.array([[2.0, 1.0], [0.0, 2.0]])
        assert not from_dense(dense).is_symmetric()

    def test_rectangular_not_symmetric(self):
        assert not from_dense(np.ones((2, 3))).is_symmetric()


class TestTransforms:
    @settings(max_examples=40, deadline=None)
    @given(DENSE_CASES)
    def test_transpose(self, case):
        n, m, density, seed = case
        dense = random_dense(n, m, density, seed)
        np.testing.assert_array_equal(from_dense(dense).transpose().todense(), dense.T)

    def test_scaled(self):
        a = from_dense(np.array([[2.0]]))
        assert a.scaled(3.0).todense()[0, 0] == 6.0

    def test_symmetric_diagonal_scale(self):
        dense = np.array([[4.0, 2.0], [2.0, 9.0]])
        d = np.array([0.5, 1.0 / 3.0])
        expected = np.diag(d) @ dense @ np.diag(d)
        got = from_dense(dense).symmetric_diagonal_scale(d).todense()
        np.testing.assert_allclose(got, expected)

    def test_add_scaled_identity_inserts_diagonal(self):
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])
        shifted = from_dense(dense).add_scaled_identity(2.0)
        np.testing.assert_allclose(shifted.todense(), dense + 2.0 * np.eye(2))

    def test_triangles(self):
        dense = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = from_dense(dense)
        np.testing.assert_array_equal(a.lower_triangle().todense(), np.tril(dense))
        np.testing.assert_array_equal(a.upper_triangle().todense(), np.triu(dense))
        np.testing.assert_array_equal(
            a.lower_triangle(strict=True).todense(), np.tril(dense, -1)
        )
        np.testing.assert_array_equal(
            a.upper_triangle(strict=True).todense(), np.triu(dense, 1)
        )

    def test_to_scipy_round_trip(self):
        dense = random_dense(6, 6, 0.4, 3)
        s = from_dense(dense).to_scipy()
        np.testing.assert_allclose(s.toarray(), dense)
