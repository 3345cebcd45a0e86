"""The matrix-free operator front door: coercion, refusals, and the zoo.

``repro.solve`` accepts anything :func:`repro.sparse.as_operator` can
coerce -- assembled matrices, scipy sparse, bare callables, and arbitrary
objects satisfying the :class:`~repro.sparse.LinearOperator` protocol.
These tests pin the whole contract: the coercion table, every boundary
``ValueError`` message, the registry capability flags and their refusal
text, setup-cache behaviour for (un)fingerprintable operators, telemetry
through wrapped operators, and the operator zoo's mathematics.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import NormalOperator, as_operator, solve, solve_batched
from repro.backend.cache import SetupCache, matrix_fingerprint
from repro.core.stopping import StoppingCriterion
from repro.registry import method_entry, operator_methods
from repro.sparse.csr import CSRMatrix
from repro.sparse.generators import poisson2d
from repro.sparse.linop import CallableOperator, DenseOperator, operator_dtype
from repro.trace import Tracer
from repro.util import counting
from repro.util.rng import default_rng

STOP = StoppingCriterion(rtol=1e-8, max_iter=2000)


def _tridiag_apply(x: np.ndarray) -> np.ndarray:
    y = 2.0 * x
    y[:-1] -= x[1:]
    y[1:] -= x[:-1]
    return y


# ---------------------------------------------------------------------------
# The coercion table
# ---------------------------------------------------------------------------
class TestAsOperator:
    def test_csr_passes_through_unchanged(self):
        a = poisson2d(6)
        assert as_operator(a) is a

    def test_protocol_object_passes_through_unchanged(self):
        op = CallableOperator(8, _tridiag_apply)
        assert as_operator(op) is op

    def test_ndarray_becomes_dense_operator(self):
        a = np.eye(5)
        op = as_operator(a)
        assert isinstance(op, DenseOperator)
        assert op.shape == (5, 5)

    def test_scipy_sparse_becomes_counted_callable(self):
        a = sp.diags([2.0] * 6).tocsr()
        op = as_operator(a)
        assert isinstance(op, CallableOperator)
        with counting() as c:
            y = op.matvec(np.ones(6))
        assert np.allclose(y, 2.0)
        assert c.matvecs == 1  # scipy books nothing itself; the wrapper does

    def test_bare_callable_with_n(self):
        op = as_operator(_tridiag_apply, n=12)
        assert op.shape == (12, 12)
        with counting() as c:
            op.matvec(np.ones(12))
        assert c.matvecs == 1

    def test_complex_dtype_flows_through(self):
        op = CallableOperator(4, lambda x: 2.0 * x, dtype=np.complex128)
        assert operator_dtype(op) == np.dtype(np.complex128)
        assert operator_dtype(poisson2d(3)) == np.dtype(np.float64)


# ---------------------------------------------------------------------------
# Boundary errors: one clear ValueError each, at the front door
# ---------------------------------------------------------------------------
class TestBoundaryErrors:
    def test_nonsquare_array_raises(self):
        with pytest.raises(ValueError, match="must be square"):
            as_operator(np.ones((3, 4)))

    def test_nonsquare_scipy_raises(self):
        with pytest.raises(ValueError, match="must be square"):
            as_operator(sp.random(3, 5, density=0.5, format="csr"))

    def test_shape_without_matvec_raises(self):
        class Shaped:
            shape = (4, 4)

        with pytest.raises(ValueError, match="no matvec"):
            as_operator(Shaped())

    def test_bare_callable_without_n_raises(self):
        with pytest.raises(ValueError, match="bare callable has no shape"):
            as_operator(_tridiag_apply)

    def test_uninterpretable_object_raises_typeerror(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            as_operator(object())

    def test_dimension_mismatch_raises_at_solve(self):
        op = CallableOperator(8, _tridiag_apply)
        with pytest.raises(ValueError):
            solve(op, np.ones(9), method="cg", stop=STOP)

    def test_complex_b_real_operator_raises(self):
        with pytest.raises(ValueError, match="operator is real"):
            solve(
                _tridiag_apply,
                np.ones(6, dtype=np.complex128) * (1 + 1j),
                method="cg",
                stop=STOP,
            )


# ---------------------------------------------------------------------------
# Registry capability flags and refusals
# ---------------------------------------------------------------------------
class TestRegistryCapabilities:
    def test_operator_methods_cover_the_core_family(self):
        methods = operator_methods()
        assert {"cg", "vr", "pipelined-vr", "cg-cg", "gv", "three-term"} <= set(
            methods
        )
        for name in methods:
            assert method_entry(name).supports_operator

    def test_structure_requiring_methods_refuse_with_nearest(self):
        b = np.ones(8)
        for method, nearest in (
            ("sstep", "cg-cg"),
            ("jacobi", "richardson"),
            ("dist-cg", "cg"),
        ):
            with pytest.raises(ValueError) as exc:
                solve(_tridiag_apply, b, method=method, stop=STOP)
            msg = str(exc.value)
            assert "matrix-free operator" in msg
            assert nearest in msg

    def test_string_precond_refused_for_operators(self):
        with pytest.raises(ValueError, match="assembled matrix"):
            solve(_tridiag_apply, np.ones(8), method="cg", precond="jacobi")
        # identity has nothing to factor; it stays allowed.
        result = solve(
            _tridiag_apply, np.ones(8), method="cg", precond="identity", stop=STOP
        )
        assert result.converged

    def test_batched_accepts_operators_on_capable_methods(self):
        a = poisson2d(6)
        wrapped = CallableOperator(a.nrows, a.matvec, nnz=a.nnz)
        rhs = default_rng(3).standard_normal((a.nrows, 3))
        result = solve_batched(wrapped, rhs, "cg", stop=STOP)
        assert all(result.column_converged)

    def test_batched_refuses_complex_operators(self):
        op = CallableOperator(6, lambda x: 2.0 * x, dtype=np.complex128)
        with pytest.raises(ValueError, match="float64 only"):
            solve_batched(op, np.ones((6, 2)), "cg", stop=STOP)


# ---------------------------------------------------------------------------
# Solving through the front door: telemetry, tracing, faults, zero RHS
# ---------------------------------------------------------------------------
class TestOperatorSolves:
    @pytest.mark.parametrize("method", ["cg", "vr", "pipelined-vr"])
    def test_bare_callable_full_telemetry(self, method):
        n = 48
        b = default_rng(5).standard_normal(n)
        tracer = Tracer()
        with counting() as counts:
            result = solve(_tridiag_apply, b, method=method, stop=STOP, trace=tracer)
        assert result.converged
        assert result.true_residual_norm < 1e-6 * np.linalg.norm(b)
        assert counts.matvecs >= result.iterations  # the wrapper books
        assert counts.dots > 0
        solve_spans = [s for s in tracer.spans() if s.name == "solve"]
        assert len(solve_spans) == 1
        assert solve_spans[0].children  # iterations recorded under it

    def test_faults_wrap_operators_generically(self):
        from repro.faults import PerturbInjector

        n = 64
        b = default_rng(9).standard_normal(n)
        result = solve(
            CallableOperator(n, _tridiag_apply),
            b,
            method="cg",
            stop=STOP,
            faults=PerturbInjector(site="matvec", rate=0.05, max_fires=3),
            recovery="robust",
        )
        assert result.converged

    def test_zero_rhs_short_circuit_preserves_complex_dtype(self):
        op = CallableOperator(6, lambda x: 2.0 * x, dtype=np.complex128)
        result = solve(op, np.zeros(6), method="cg")
        assert result.converged and result.iterations == 0
        assert result.x.dtype == np.complex128

    def test_scipy_matrix_solves_like_csr(self):
        a = poisson2d(8)
        scipy_a = sp.csr_matrix(
            (a.data, a.indices, a.indptr), shape=(a.nrows, a.ncols)
        )
        b = default_rng(11).standard_normal(a.nrows)
        r_csr = solve(a, b, method="cg", stop=STOP)
        r_scipy = solve(scipy_a, b, method="cg", stop=STOP)
        assert r_scipy.converged
        assert r_scipy.iterations == r_csr.iterations
        assert np.allclose(r_scipy.x, r_csr.x, atol=1e-12)


# ---------------------------------------------------------------------------
# Setup cache: opt-in fingerprint() hook, silent bypass otherwise
# ---------------------------------------------------------------------------
class TestSetupCacheOperators:
    def test_unfingerprintable_operator_bypasses_silently(self):
        cache = SetupCache(maxsize=4)
        op = CallableOperator(8, _tridiag_apply)
        assert matrix_fingerprint(op) is None
        built = []
        for _ in range(2):
            cache.get_or_build(
                "precond", matrix_fingerprint(op), (), lambda: built.append(1)
            )
        assert len(built) == 2  # never cached, never errored
        assert cache.stats()["skipped"] == 2
        assert cache.stats()["entries"] == 0

    def test_fingerprint_hook_enables_caching(self):
        class Fingerprinted:
            shape = (8, 8)

            def matvec(self, x):
                return 2.0 * x

            def fingerprint(self):
                return ("doubling", 8)

        op = Fingerprinted()
        fp = matrix_fingerprint(op)
        assert fp == ("operator", (8, 8), ("doubling", 8))
        cache = SetupCache(maxsize=4)
        first = cache.get_or_build("precond", fp, (), lambda: object())
        second = cache.get_or_build("precond", fp, (), lambda: object())
        assert first is second
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "skipped": 0,
            "entries": 1,
        }

    def test_normal_operator_propagates_encoding_fingerprint(self):
        from repro.zoo import CartesianEncoding, sensitivity_map, undersampling_mask

        enc = CartesianEncoding(undersampling_mask(6, seed=1), sensitivity_map(6))
        a = NormalOperator(enc, shift=0.1)
        fp = a.fingerprint()
        assert fp is not None and fp[0] == "normal"
        assert matrix_fingerprint(a) is not None


# ---------------------------------------------------------------------------
# The operator zoo's mathematics
# ---------------------------------------------------------------------------
class TestZoo:
    def test_edge_list_laplacian_matches_networkx_free_construction(self):
        from repro.zoo import edge_list_laplacian

        edges = np.array([[0, 1], [1, 2], [2, 0], [2, 3]])
        a = edge_list_laplacian(edges, weights=[1.0, 2.0, 3.0, 4.0], shift=0.5)
        assert isinstance(a, CSRMatrix)
        dense = a.todense()
        assert np.allclose(dense, dense.T)
        # Row sums of D - W are zero; the shift survives on the diagonal.
        assert np.allclose(dense.sum(axis=1), 0.5)
        assert np.linalg.eigvalsh(dense).min() > 0.0

    def test_edge_list_validation(self):
        from repro.zoo import edge_list_laplacian

        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            edge_list_laplacian(np.ones((3, 3), dtype=int))
        with pytest.raises(ValueError, match="positive"):
            edge_list_laplacian(np.array([[0, 1]]), weights=[-1.0])
        with pytest.raises(ValueError, match="exceeds"):
            edge_list_laplacian(np.array([[0, 5]]), n=3)

    def test_elasticity_is_symmetric_positive_definite(self):
        from repro.zoo import Elasticity3D

        op = Elasticity3D(4, 3, 3, lam=2.0, mu=0.5)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(op.shape[0])
            y = rng.standard_normal(op.shape[0])
            # Symmetry: <Ax, y> == <x, Ay>; definiteness: <Ax, x> > 0.
            assert np.dot(op.matvec(x), y) == pytest.approx(
                np.dot(x, op.matvec(y)), rel=1e-12
            )
            assert np.dot(op.matvec(x), x) > 0.0

    def test_lowrank_matches_dense_assembly(self):
        from repro.zoo import LowRankPlusSparse

        a = poisson2d(5)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((a.nrows, 3))
        op = LowRankPlusSparse(a, u, weight=0.7)
        dense = a.todense() + 0.7 * (u @ u.T)
        x = rng.standard_normal(a.nrows)
        assert np.allclose(op.matvec(x), dense @ x)

    def test_mri_encoding_adjoint_is_exact(self):
        from repro.zoo import CartesianEncoding, sensitivity_map, undersampling_mask

        g = 8
        enc = CartesianEncoding(undersampling_mask(g, seed=2), sensitivity_map(g))
        rng = np.random.default_rng(3)
        x = rng.standard_normal(g * g) + 1j * rng.standard_normal(g * g)
        y = rng.standard_normal(g * g) + 1j * rng.standard_normal(g * g)
        assert np.vdot(y, enc.matvec(x)) == pytest.approx(
            np.vdot(enc.rmatvec(y), x), rel=1e-12
        )

    def test_normal_operator_validation(self):
        class NoAdjoint:
            shape = (4, 4)

            def matvec(self, x):
                return x

        with pytest.raises(ValueError, match="rmatvec"):
            NormalOperator(NoAdjoint())
        with pytest.raises(ValueError, match="2-D shape"):
            NormalOperator(_tridiag_apply)

    def test_every_zoo_workload_solves_through_the_front_door(self):
        from repro.zoo import zoo_workloads

        names = set()
        for w in zoo_workloads():
            a, b = w.build("smoke")
            result = solve(
                a,
                b,
                method=w.method,
                stop=StoppingCriterion(rtol=1e-8, max_iter=3000),
                **w.options,
            )
            assert result.converged, f"workload {w.name}"
            names.add(w.name)
        assert len(names) >= 4
