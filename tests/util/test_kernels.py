"""Unit tests for the instrumented vector kernels."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import Workspace
from repro.util.counters import counting
from repro.util.kernels import (
    BLAS_DOT_MAX,
    FOLD_WIDTH,
    axpby,
    axpy,
    block_aypx,
    block_dot,
    block_step,
    block_sweeps,
    dot,
    inner,
    norm,
    scale,
)

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


def _pair(n, complex_=False):
    x, y, xi, yi = np.random.default_rng(n).standard_normal((4, n))
    return (x + 1j * xi, y + 1j * yi) if complex_ else (x, y)


class TestThreadRule:
    """Dots up to :data:`BLAS_DOT_MAX` entries are BLAS's, on the calling
    thread; longer ones are ``np.einsum``'s, which sums in one order at
    any BLAS thread count."""

    @pytest.mark.parametrize("n", [1, 1024, BLAS_DOT_MAX])
    def test_up_to_the_cut_is_bitwise_blas(self, n):
        x, y = _pair(n)
        assert dot(x, y) == float(np.dot(x, y))
        assert norm(x) == float(np.sqrt(np.dot(x, x)))
        z, w = _pair(n, complex_=True)
        assert dot(z, w) == float(np.vdot(z, w).real)

    @pytest.mark.parametrize("n", [BLAS_DOT_MAX + 1, 16_384])
    def test_above_the_cut_is_bitwise_einsum(self, n):
        x, y = _pair(n)
        assert dot(x, y) == float(np.einsum("i,i->", x, y))
        assert inner(x, y) == dot(x, y)
        assert norm(x) == float(np.sqrt(np.einsum("i,i->", x, x)))

    @pytest.mark.parametrize("kinds", ["cc", "cr", "rc"])
    def test_complex_above_the_cut_matches_vdot_and_allocates_no_vector(self, kinds):
        n = 4 * BLAS_DOT_MAX
        z, w = _pair(n, complex_=True)
        x = z if kinds[0] == "c" else z.real.copy()
        y = w if kinds[1] == "c" else w.real.copy()
        expected = float(np.vdot(x, y).real)
        tracemalloc.start()
        try:
            floor, _ = tracemalloc.get_traced_memory()
            value = dot(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(expected, rel=1e-12)
        assert peak - floor < n  # under one byte per entry: no vector


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


# ----------------------------------------------------------------------
# block kernels: folded (n/t, t·m) views against per-column references
# ----------------------------------------------------------------------
#: 576 and 16,384 fold (t > 1 whenever m > 1); 1,021 is prime, so t = 1.
FOLD_N = (576, 1021, 16384)
FOLD_M = (1, 2, 3, 8, 64)
fold_shapes = pytest.mark.parametrize(
    "n, m", [(n, m) for n in FOLD_N for m in FOLD_M]
)


def _blocks(n, m, count):
    rng = np.random.default_rng([n, m])
    return [rng.standard_normal((n, m)) for _ in range(count)] + [
        rng.uniform(0.5, 2.0, m)
    ]


def _booked(c):
    return (c.dots, c.reductions, c.axpys, c.axpy_flops, c.words_moved)


@fold_shapes
def test_block_dot_matches_column_dots(n, m):
    x, y, _ = _blocks(n, m, 2)
    with counting() as c:
        got = block_dot(x, y)
    want = np.array([np.dot(x[:, j], y[:, j]) for j in range(m)])
    # Relative to Σ|xᵢyᵢ|, the scale of a dot's rounding error: a column
    # whose products cancel has no meaningful error relative to its value.
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(x * y).sum(axis=0))
    # One fused reduction of m dots, as booked before the fold.
    assert _booked(c) == (m, 1, 0, 0, 2 * n * m)


@fold_shapes
def test_block_step_matches_column_updates(n, m):
    p, ap, x0, r0, lam = _blocks(n, m, 4)
    x, r = x0.copy(), r0.copy()
    with counting() as c:
        block_step(lam, p, ap, x, r, work=Workspace())
    # Elementwise the fold changes nothing: the same products and sums.
    for j in range(m):
        np.testing.assert_array_equal(x[:, j], x0[:, j] + lam[j] * p[:, j])
        np.testing.assert_array_equal(r[:, j], r0[:, j] - lam[j] * ap[:, j])
    assert _booked(c) == (0, 0, 1, 4 * n * m, 3 * n * m)


@fold_shapes
def test_block_aypx_matches_column_updates(n, m):
    r, p0, alpha = _blocks(n, m, 2)
    p = p0.copy()
    with counting() as c:
        block_aypx(alpha, r, p, work=Workspace())
    for j in range(m):
        np.testing.assert_array_equal(p[:, j], r[:, j] + alpha[j] * p0[:, j])
    assert _booked(c) == (0, 0, 1, 2 * n * m, 3 * n * m)


def test_block_kernels_without_workspace_or_c_order():
    # No workspace: the kernels allocate their scratch.  F-ordered
    # operands have no folded view and run unfolded (t = 1).
    n, m = 576, 4
    p, ap, x0, r0, lam = _blocks(n, m, 4)
    want_x, want_r = x0 + lam * p, r0 - lam * ap
    for order in ("C", "F"):
        x, r = np.array(x0, order=order), np.array(r0, order=order)
        pf = np.array(p, order=order)
        block_step(lam, pf, np.array(ap, order=order), x, r)
        np.testing.assert_array_equal(x, want_x)
        np.testing.assert_array_equal(r, want_r)
        np.testing.assert_allclose(
            block_dot(pf, x), np.einsum("ij,ij->j", p, want_x), rtol=1e-13
        )
        block_aypx(lam, r, pf)
        np.testing.assert_array_equal(pf, want_r + lam * p)


def test_block_kernels_reuse_their_workspace_slots():
    n, m = 16384, 2
    p, ap, x, r, lam = _blocks(n, m, 4)
    ws = Workspace()
    block_step(lam, p, ap, x, r, work=ws)
    block_aypx(lam, r, p, work=ws)
    held = ws.stats()
    for _ in range(3):
        block_step(lam, p, ap, x, r, work=ws)
        block_aypx(lam, r, p, work=ws)
    assert ws.stats()["misses"] == held["misses"]
    assert ws.stats()["nbytes"] == held["nbytes"]


def test_block_sweeps_scope_is_restored():
    # The scope shrinks numpy's ufunc buffer for the folded rows and
    # leaves the caller's numpy state as it found it.
    before = (np.getbufsize(), np.geterr())
    with block_sweeps():
        assert np.getbufsize() == FOLD_WIDTH
        assert np.geterr() == before[1]
    assert (np.getbufsize(), np.geterr()) == before
    with pytest.raises(RuntimeError), block_sweeps():
        raise RuntimeError("a sweep that fails")
    assert (np.getbufsize(), np.geterr()) == before
