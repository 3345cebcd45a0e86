"""Unit tests for the instrumented vector kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import Workspace
from repro.util.counters import counting
from repro.util.kernels import axpby, axpy, dot, norm, scale

VEC = arrays(
    np.float64,
    st.integers(1, 40),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)

#: ``work=`` as the aliased updates accept it: nothing, a caller-owned
#: scratch array, or a Workspace whose scratch slot the kernel draws.
WORK_KINDS = {
    "none": lambda n: None,
    "array": lambda n: np.empty(n),
    "workspace": lambda n: Workspace(),
}
with_work = pytest.mark.parametrize("work_kind", list(WORK_KINDS))


class TestDot:
    def test_matches_numpy(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([4.0, 5.0, 6.0])
        assert dot(x, y) == pytest.approx(32.0)

    def test_counted(self):
        with counting() as c:
            dot(np.ones(8), np.ones(8))
        assert c.dots == 1

    def test_label_forwarded(self):
        with counting() as c:
            dot(np.ones(4), np.ones(4), label="tagged")
        assert c.labelled("tagged") == 1

    @given(VEC)
    def test_norm_is_sqrt_self_dot(self, x):
        assert norm(x) == pytest.approx(float(np.linalg.norm(x)), rel=1e-12, abs=1e-300)


class TestAxpy:
    def test_allocating_form(self):
        x, y = np.array([1.0, 2.0]), np.array([10.0, 20.0])
        out = axpy(3.0, x, y)
        np.testing.assert_allclose(out, [13.0, 26.0])
        assert out is not x and out is not y

    @with_work
    def test_out_aliases_y(self, work_kind):
        x = np.array([1.0, 2.0])
        y = np.array([10.0, 20.0])
        res = axpy(3.0, x, y, out=y, work=WORK_KINDS[work_kind](2))
        assert res is y
        np.testing.assert_allclose(y, [13.0, 26.0])
        np.testing.assert_allclose(x, [1.0, 2.0])  # untouched

    @with_work
    def test_out_aliases_x(self, work_kind):
        x = np.array([1.0, 2.0])
        y = np.array([10.0, 20.0])
        res = axpy(3.0, x, y, out=x, work=WORK_KINDS[work_kind](2))
        assert res is x
        np.testing.assert_allclose(x, [13.0, 26.0])

    def test_out_fresh_buffer(self):
        x = np.array([1.0, 2.0])
        y = np.array([10.0, 20.0])
        out = np.empty(2)
        axpy(-1.0, x, y, out=out)
        np.testing.assert_allclose(out, [9.0, 18.0])

    def test_counted(self):
        with counting() as c:
            axpy(1.0, np.ones(16), np.ones(16))
        assert c.axpys == 1
        assert c.axpy_flops == 32


class TestAxpby:
    def test_values(self):
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        np.testing.assert_allclose(axpby(2.0, x, 3.0, y), [2.0, 3.0])

    @with_work
    def test_out_aliases_y(self, work_kind):
        x = np.array([1.0, 1.0])
        y = np.array([2.0, 2.0])
        axpby(1.0, x, 2.0, y, out=y, work=WORK_KINDS[work_kind](2))
        np.testing.assert_allclose(y, [5.0, 5.0])

    def test_out_fresh(self):
        x = np.array([1.0, 1.0])
        y = np.array([2.0, 2.0])
        out = np.empty(2)
        axpby(1.0, x, 2.0, y, out=out)
        np.testing.assert_allclose(out, [5.0, 5.0])


def test_complex_updates_draw_complex_scratch():
    # The Workspace scratch slot takes the operands' dtype: numpy refuses
    # to store a complex a*x into a float64 slot.
    ws = Workspace()
    x = np.array([1 + 2j, -1j])
    y0 = np.array([3 + 0j, 1 + 1j])
    y = y0.copy()
    axpy(2.0, x, y, out=y, work=ws)
    np.testing.assert_allclose(y, 2.0 * x + y0)
    v = x.copy()
    axpby(2.0, v, -1.0, y0, out=v, work=ws)
    np.testing.assert_allclose(v, 2.0 * x - y0)
    # One complex128 slot of length 2, drawn once and reused once.
    assert ws.stats() == {"hits": 1, "misses": 1, "slots": 1, "nbytes": 32}


class TestScale:
    def test_values(self):
        np.testing.assert_allclose(scale(2.0, np.array([1.0, -3.0])), [2.0, -6.0])

    def test_in_place(self):
        x = np.array([1.0, 2.0])
        scale(0.5, x, out=x)
        np.testing.assert_allclose(x, [0.5, 1.0])


@given(VEC, st.floats(-100, 100, allow_nan=False))
def test_axpy_property(x, a):
    y = np.ones_like(x)
    np.testing.assert_allclose(axpy(a, x, y), a * x + 1.0, rtol=1e-12, atol=1e-9)
