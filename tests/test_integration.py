"""Cross-module integration tests.

End-to-end flows a downstream user would run: public-API solves on
generated problems, I/O round trips feeding solvers, machine-model numbers
consistent with counted work, and the package-level re-exports.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

import repro
from repro import (
    StoppingCriterion,
    conjugate_gradient,
    counting,
    pipelined_vr_cg,
    poisson2d,
    vr_conjugate_gradient,
)
from repro.faults import RecoveryPolicy
from repro.machine import build_cg_dag, measure_cg_depth
from repro.sparse import read_matrix_market, write_matrix_market
from repro.util.rng import default_rng


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_flow(self):
        """The README quickstart, as a test."""
        a = poisson2d(16)
        b = np.ones(a.nrows)
        result = vr_conjugate_gradient(a, b, k=3, recovery="periodic")
        assert result.converged
        assert "vr-cg(k=3)" in result.summary()


class TestEndToEnd:
    def test_mmio_to_solver(self):
        """Write a generated matrix to MatrixMarket, read it back, solve."""
        a = poisson2d(8)
        buf = io.StringIO()
        write_matrix_market(a, buf, symmetric=True)
        buf.seek(0)
        a2 = read_matrix_market(buf)
        b = default_rng(1).standard_normal(a.nrows)
        res1 = conjugate_gradient(a, b)
        res2 = conjugate_gradient(a2, b)
        assert res1.iterations == res2.iterations
        np.testing.assert_allclose(res1.x, res2.x, rtol=1e-12)

    def test_three_solvers_one_answer(self):
        a = poisson2d(12)
        b = default_rng(2).standard_normal(a.nrows)
        stop = StoppingCriterion(rtol=1e-9, max_iter=500)
        xs = [
            conjugate_gradient(a, b, stop=stop).x,
            vr_conjugate_gradient(
                a, b, k=2, stop=stop, recovery=RecoveryPolicy(replace_every=6)
            ).x,
            pipelined_vr_cg(a, b, k=2, stop=stop).x,
        ]
        np.testing.assert_allclose(xs[1], xs[0], atol=1e-6)
        np.testing.assert_allclose(xs[2], xs[0], atol=1e-6)

    def test_machine_model_consistent_with_counted_work(self):
        """The compiled CG DAG's work must match what the real solver
        actually executes per iteration (same cost algebra)."""
        a = poisson2d(10)  # n=100, nnz=460
        n, nnz = a.nrows, a.nnz
        b = default_rng(3).standard_normal(n)
        stop = StoppingCriterion(rtol=1e-30, max_iter=10)  # exactly 10 iters
        with counting() as c:
            conjugate_gradient(a, b, stop=stop)
        dag = build_cg_dag(n, a.max_row_degree(), 10, nnz=nnz)
        dag_work = dag.graph.work_by_kind()
        # matvec work: DAG has startup + 10 iterations; solver adds one
        # exit true-residual matvec
        assert dag_work["spmv"] == (2 * nnz - n) * 11
        assert c.matvec_flops == (2 * nnz - n) * 12

    def test_depth_measurement_reasonable_constants(self):
        m = measure_cg_depth(2**16, 5)
        # 2 log N + log d + small constants
        assert 2 * 16 <= m.per_iteration <= 2 * 16 + 15


class TestExamplesAreRunnable:
    """The examples/ scripts must at least import and define main()."""

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart",
            "poisson2d_study",
            "parallel_depth_study",
            "stability_study",
            "pipeline_visualization",
            "family_study",
            "processor_study",
            "spectrum_study",
            "heat_equation",
        ],
    )
    def test_example_has_main(self, script):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "examples" / f"{script}.py"
        assert path.exists(), f"missing example {path}"
        spec = importlib.util.spec_from_file_location(script, path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert hasattr(mod, "main")
