"""Unit tests for the operation counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.counters import (
    OpCounts,
    add_axpy,
    add_dot,
    add_matvec,
    add_scalar_flops,
    counting,
    current_counts,
    reset_counts,
)


class TestScoping:
    def test_no_scope_by_default(self):
        reset_counts()
        assert current_counts() is None

    def test_scope_enter_exit(self):
        with counting() as c:
            assert current_counts() is c
        assert current_counts() is None

    def test_nested_scopes_both_count(self):
        with counting() as outer:
            add_dot(10)
            with counting() as inner:
                add_dot(10)
            add_dot(10)
        assert inner.dots == 1
        assert outer.dots == 3

    def test_inner_scope_isolated_from_outer_history(self):
        with counting() as outer:
            add_dot(5)
            with counting() as inner:
                pass
        assert inner.dots == 0
        assert outer.dots == 1

    def test_exception_pops_scope(self):
        with pytest.raises(RuntimeError):
            with counting():
                raise RuntimeError("boom")
        assert current_counts() is None

    def test_solve_bracket_pops_its_own_scope(self):
        # The telemetry bracket's scope opens with the same (zero) totals
        # as the caller's; closing it must not remove the caller's.
        from repro import solve
        from repro.sparse.generators import poisson2d
        from repro.telemetry import NullSink, Telemetry

        a = poisson2d(8)
        b = np.ones(a.shape[0])
        with counting() as bare:
            solve(a, b, "cg")
            add_dot(b.size)
        with counting() as traced:
            solve(a, b, "cg", telemetry=Telemetry(NullSink()))
            add_dot(b.size)
        assert traced.dots == bare.dots
        assert traced.matvecs == bare.matvecs
        assert current_counts() is None


class TestBooking:
    def test_dot_flops(self):
        with counting() as c:
            add_dot(100)
        assert c.dots == 1
        assert c.dot_flops == 199

    def test_dot_zero_length(self):
        with counting() as c:
            add_dot(0)
        assert c.dot_flops == 0

    def test_axpy_flops(self):
        with counting() as c:
            add_axpy(50)
            add_axpy(50, flops_per_entry=3)
        assert c.axpys == 2
        assert c.axpy_flops == 100 + 150

    def test_matvec_flops(self):
        with counting() as c:
            add_matvec(500, 100)
        assert c.matvecs == 1
        assert c.matvec_flops == 900

    def test_scalar_flops(self):
        with counting() as c:
            add_scalar_flops(7)
        assert c.scalar_flops == 7
        assert c.total_flops == 7
        assert c.vector_flops == 0

    def test_labels(self):
        with counting() as c:
            add_dot(10, label="direct_dot")
            add_dot(10, label="direct_dot")
            add_dot(10)
        assert c.labelled("direct_dot") == 2
        assert c.labelled("missing") == 0

    def test_total_and_vector_flops(self):
        with counting() as c:
            add_dot(10)  # 19
            add_axpy(10)  # 20
            add_matvec(30, 10)  # 50
            add_scalar_flops(5)
        assert c.vector_flops == 19 + 20 + 50
        assert c.total_flops == c.vector_flops + 5


class TestArithmetic:
    def test_snapshot_independent(self):
        with counting() as c:
            add_dot(10)
            snap = c.snapshot()
            add_dot(10)
        assert snap.dots == 1
        assert c.dots == 2

    def test_subtraction(self):
        with counting() as c:
            add_dot(10, label="x")
            before = c.snapshot()
            add_dot(10, label="x")
            add_axpy(5)
        diff = c - before
        assert diff.dots == 1
        assert diff.axpys == 1
        assert diff.labelled("x") == 1

    def test_default_instance_zero(self):
        c = OpCounts()
        assert c.total_flops == 0
        assert c.labelled("anything") == 0
