"""Instrumented vector kernels -- the repository's one kernel layer.

Every solver in this repository performs its length-N vector arithmetic
by calling these functions directly, and applies its operator through
:func:`repro.sparse.linop.matvec_into` / :func:`~repro.sparse.linop.
block_matvec`.  The wrappers are deliberately thin -- each is a single
vectorized numpy call -- but each books exactly one entry on the ambient
:mod:`repro.util.counters` scope per call, which is what lets the
work-accounting experiments *measure* the paper's Section 6 claims (one
matvec and two direct inner products per iteration, unchanged sequential
complexity) instead of trusting them.  The booking also opens the call's
``local_dot`` / ``axpy`` phase span on a traced solve; the kernel ends it
when its arithmetic is done.

Following the HPC guide idioms, the update kernels offer ``out=`` and
``work=`` arguments so steady-state solver loops allocate nothing per
iteration.

Every kernel runs on the calling thread, so a solve uses one core and
sums in the same order whatever the BLAS thread count: :func:`dot`
hands only vectors of at most :data:`BLAS_DOT_MAX` entries to BLAS,
which keeps those on the calling thread.  The module changes no BLAS
setting of the process.

The block kernels (:func:`block_dot`, :func:`block_step`,
:func:`block_aypx`) work on C-contiguous ``(n, m)`` column blocks with a
scalar per column.  numpy cannot coalesce a per-column scalar into one
flat loop, so on the plain ``(n, m)`` shape it runs ``n`` inner loops
only ``m`` wide.  Each block kernel therefore *folds* its operands: it
views them as ``(n/t, t·m)`` rows, with ``t`` the largest divisor of
``n`` such that ``t·m`` stays within :data:`FOLD_WIDTH`, and tiles the
``m`` scalars ``t`` times to match.  Every product and sum of the
updates is the unfolded one; only the order in which :func:`block_dot`
sums a column changes.  A sweep loop runs inside :func:`block_sweeps`,
which keeps numpy from buffering the folded rows.  A one-column block
is already one flat loop: it is not folded, and the update kernels take
its scalar as a scalar rather than broadcast a one-element array.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Iterator

import numpy as np

from repro.util.counters import add_axpy, add_block_dot, add_dot

__all__ = [
    "dot",
    "norm",
    "inner",
    "axpy",
    "axpby",
    "scale",
    "block_dot",
    "block_norms",
    "block_step",
    "block_aypx",
    "block_sweeps",
]

#: Widest folded row of a block kernel, in elements (4 KiB of float64);
#: also the ufunc buffer size inside :func:`block_sweeps`.  Of 64, 256
#: and 512, 512 was fastest: whole batched cg solves took 1.05-1.20x as
#: long at 64 and 1.00-1.11x at 256 (medians of 11 interleaved rounds
#: on a 2-vCPU x86_64 host, numpy 2.4, at (n, m) = (16,384, 2),
#: (16,384, 8), (1,024, 8) and ELL (576, 4 / 16 / 64)).
FOLD_WIDTH = 512

#: Longest vector whose inner product :func:`inner` hands to numpy's
#: BLAS (``np.dot``, ``np.vdot``).  numpy's bundled OpenBLAS runs ``ddot``
#: on the calling thread up to this length and on every BLAS thread
#: above it: CPU time per wall second of a hot loop read 1.00 at
#: n = 10,000 and 1.99 at n = 10,001 (2-vCPU x86_64 host, numpy 2.4.6,
#: OpenBLAS 0.3.31).  A second thread cannot pay for itself on a
#: reduction this short (a dot of 16,384 to 102,400 entries takes
#: 4-15 µs, a hand-off to another thread and back 18-38 µs), yet it
#: doubled a poisson2d(128) cg solve's CPU time, slowed it, and summed
#: in an order that followed the BLAS thread count.  Longer vectors are
#: therefore summed by ``np.einsum``, which never leaves the calling
#: thread.
BLAS_DOT_MAX = 10_000


def _scratch(work: Any, x: np.ndarray) -> np.ndarray | None:
    """Resolve a ``work=`` argument to a scratch array (or ``None``).

    ``work`` may be a :class:`repro.backend.Workspace` (duck-typed via its
    ``scratch`` method, so this module needs no backend import), whose
    anonymous scratch slot is drawn in ``x``'s shape and dtype, or a
    caller-supplied array used as is.
    """
    if work is None:
        return None
    scratch = getattr(work, "scratch", None)
    if callable(scratch):
        return scratch(x.shape, x.dtype)
    return work


def dot(x: np.ndarray, y: np.ndarray, *, label: str | None = None) -> float:
    """Instrumented inner product ``⟨x, y⟩`` (conjugating the left factor).

    For real operands this is exactly ``xᵀy``.  For complex operands it
    returns ``Re(xᴴy)`` -- the Hermitian form every CG quantity reduces
    to: on a Hermitian operator all the moments ``(r, Aⁱr)``, ``(r, Aⁱp)``,
    ``(p, Aⁱp)`` are real to rounding, so the solvers' scalar recurrences
    stay in float64 even when the vectors are complex.

    Parameters
    ----------
    x, y:
        One-dimensional arrays of equal length.
    label:
        Optional free-form tag booked on the ambient counter; the Van
        Rosendale solver tags its two per-iteration direct products with
        ``"direct_dot"`` so experiment E5 can count exactly those.
    """
    tracer = add_dot(x.shape[0], label=label)
    value = inner(x, y)
    if tracer is not None:
        tracer.end("local_dot")
    return value


def norm(x: np.ndarray) -> float:
    """Instrumented Euclidean norm (booked as one inner product)."""
    return float(np.sqrt(dot(x, x)))


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """``⟨x, y⟩`` as :func:`dot` computes it, on the calling thread, with
    nothing booked: for work outside a solve, such as the front door's
    look at ``b``.

    Up to :data:`BLAS_DOT_MAX` entries this is ``np.dot`` (real) or
    ``np.vdot(x, y).real`` (complex).  Above it the sum is
    ``np.einsum("i,i->")``; a complex operand contributes its ``.real``
    and ``.imag`` views, so no temporary vector is made.
    """
    is_complex = np.iscomplexobj(x) or np.iscomplexobj(y)
    if x.shape[0] <= BLAS_DOT_MAX:
        return float(np.vdot(x, y).real) if is_complex else float(np.dot(x, y))
    if not is_complex:
        return float(np.einsum("i,i->", x, y))
    # Re(xᴴy) = Σ Re x·Re y + Im x·Im y; a real operand has no Im part.
    value = np.einsum("i,i->", x.real, y.real)
    if np.iscomplexobj(x) and np.iscomplexobj(y):
        value += np.einsum("i,i->", x.imag, y.imag)
    return float(value)


@lru_cache(maxsize=256)
def _fold_rows(n: int, m: int) -> int:
    """The fold factor ``t`` of an ``(n, m)`` block: the largest divisor
    of ``n`` with ``t·m <= FOLD_WIDTH``.  One column is already one flat
    loop, and a prime ``n`` has no divisor to fold by: ``t = 1``."""
    if m <= 1:
        return 1
    for t in range(min(FOLD_WIDTH // m, n), 1, -1):
        if n % t == 0:
            return t
    return 1


def _fold_factor(n: int, m: int, *blocks: np.ndarray) -> int:
    """``t`` for same-shape ``(n, m)`` blocks; 1 unless every block is
    C-contiguous, since only those have ``(n/t, t·m)`` views that share
    their data."""
    t = _fold_rows(n, m)
    if t > 1:
        for b in blocks:
            if not b.flags.c_contiguous:
                return 1
    return t


@lru_cache(maxsize=64)
def _ones(t: int) -> np.ndarray:
    """A read-only vector of ``t`` ones (sums the partial rows)."""
    ones = np.ones(t)
    ones.flags.writeable = False
    return ones


def _slot(work: Any, name: str, shape: tuple[int, ...], dtype: Any) -> np.ndarray:
    """The ``work`` Workspace's ``name`` slot, or a fresh array without one."""
    if work is None:
        return np.empty(shape, dtype=dtype)
    return work.get(name, shape, dtype)


def _tiled(a: np.ndarray, t: int, work: Any) -> np.ndarray:
    """The per-column scalars ``a`` repeated ``t`` times: one folded row."""
    tile = _slot(work, "block_scalars", (t, a.shape[0]), a.dtype)
    tile[...] = a
    return tile.reshape(-1)


@contextmanager
def block_sweeps() -> Iterator[None]:
    """Scope a solver's sweep loop so the block updates run unbuffered.

    numpy streams a broadcast operand -- the tiled per-column scalars --
    through an iteration buffer of ``np.getbufsize()`` elements (8192 by
    default, 64 KiB of float64, allocated on every call) whenever a row
    holds at most half of that, which every folded row does.  Inside
    this scope the buffer holds :data:`FOLD_WIDTH` elements, so folded
    rows longer than half of it skip it: no allocation, and at
    (256, 512) and (16, 512) rows an in-place scale-and-add took 148
    against 177 µs and 6.2 against 8.2 µs (medians on a 2-vCPU x86_64
    host, numpy 2.4).  numpy keeps the setting per thread (and, from
    numpy 2, per context); leaving the scope, by an exception too, sets
    back the size it found.
    """
    old = np.setbufsize(FOLD_WIDTH)
    try:
        yield
    finally:
        np.setbufsize(old)


def block_dot(x: np.ndarray, y: np.ndarray, *, label: str | None = None) -> np.ndarray:
    """Fused column-wise inner products of two ``(n, m)`` blocks.

    Returns the length-``m`` vector ``[x₀ᵀy₀, ..., x_{m-1}ᵀy_{m-1}]``.
    All ``m`` products ride a single reduction launch (booked via
    :func:`repro.util.counters.add_block_dot`): on a parallel machine
    this is ONE allreduce of ``m`` words, not ``m`` allreduces of one --
    the accounting heart of the batched multi-RHS solvers.  Folded real
    blocks reduce to ``t`` partial rows, which are then summed.
    """
    n, m = x.shape
    tracer = add_block_dot(n, m, label=label)
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        value = np.einsum("ij,ij->j", np.conj(x), y).real
    else:
        t = 1 if m == 1 else _fold_factor(n, m, x, y)
        if t == 1:
            value = np.einsum("ij,ij->j", x, y)
        else:
            partial = np.einsum(
                "ij,ij->j", x.reshape(n // t, t * m), y.reshape(n // t, t * m)
            )
            # A ones-vector product sums the t rows in a third of the
            # time np.add.reduce's set-up takes at these sizes.
            value = np.dot(_ones(t), partial.reshape(t, m))
    if tracer is not None:
        tracer.end("local_dot")
    return value


def block_norms(x: np.ndarray, *, label: str | None = None) -> np.ndarray:
    """Column Euclidean norms of an ``(n, m)`` block (one fused reduction)."""
    return np.sqrt(block_dot(x, x, label=label))


def block_step(
    lam: np.ndarray,
    p: np.ndarray,
    ap: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    work: Any = None,
) -> None:
    """CG's step on ``(n, m)`` blocks, in place: ``x += λ∘p`` and
    ``r −= λ∘ap``, with ``λ`` one step length per column.

    Booked as one vector update of 4 flops per entry over ``n·m``
    entries (the two updates share the step).  ``work`` is a
    :class:`repro.backend.Workspace`: its scratch slot holds ``λ∘p`` and
    ``λ∘ap`` in turn and its ``"block_scalars"`` slot the tiled ``λ``,
    so inside :func:`block_sweeps` a call allocates no array; without a
    workspace the kernel allocates both.  ``x`` and ``r`` must not alias
    ``p``, ``ap`` or each other.
    """
    tracer = add_axpy(p.size, flops_per_entry=4)
    n, m = p.shape
    if m == 1:
        lam = lam[0]  # a scalar: one flat loop with no broadcast operand
    else:
        t = _fold_factor(n, m, p, ap, x, r)
        if t > 1:
            shape = (n // t, t * m)
            p, ap, x, r = p.reshape(shape), ap.reshape(shape), x.reshape(shape), r.reshape(shape)
            lam = _tiled(lam, t, work)
    scratch = _slot(work, "scratch", p.shape, p.dtype)
    np.multiply(p, lam, out=scratch)
    x += scratch
    np.multiply(ap, lam, out=scratch)
    r -= scratch
    if tracer is not None:
        tracer.end("axpy")


def block_aypx(
    alpha: np.ndarray, r: np.ndarray, p: np.ndarray, work: Any = None
) -> None:
    """CG's direction update on ``(n, m)`` blocks, in place:
    ``p = r + α∘p``, with ``α`` one scalar per column.

    Booked as one vector update over ``n·m`` entries.  ``work`` is a
    :class:`repro.backend.Workspace` whose ``"block_scalars"`` slot
    holds the tiled ``α`` (allocated per call without one).  ``p`` must
    not alias ``r``.
    """
    tracer = add_axpy(p.size)
    n, m = p.shape
    if m == 1:
        alpha = alpha[0]
    else:
        t = _fold_factor(n, m, r, p)
        if t > 1:
            shape = (n // t, t * m)
            r, p = r.reshape(shape), p.reshape(shape)
            alpha = _tiled(alpha, t, work)
    p *= alpha
    p += r
    if tracer is not None:
        tracer.end("axpy")


def axpy(
    a: float,
    x: np.ndarray,
    y: np.ndarray,
    out: np.ndarray | None = None,
    work: Any = None,
) -> np.ndarray:
    """Return ``a*x + y``; writes into ``out`` when provided.

    Supported aliasings (all produce the mathematically exact result):

    * ``out is y`` -- the classical in-place update ``y += a*x``.
      Allocation-free only when ``work`` (a same-shape scratch array or a
      :class:`repro.backend.Workspace`) is supplied; without it numpy
      materializes the ``a*x`` temporary.
    * ``out is x`` -- the direction update ``x = a*x + y``.  Always
      allocation-free (scale in place, then add).
    * ``out`` distinct from both -- always allocation-free.

    ``work`` must not alias ``x``, ``y``, or ``out``; solver loops pass
    their :class:`repro.backend.Workspace`, whose scratch slot takes
    ``x``'s dtype, so steady-state iterations allocate nothing.
    """
    tracer = add_axpy(x.shape[0])
    if out is None:
        out = a * x + y
    elif out is y:
        work = _scratch(work, x)
        if work is None:
            out += a * x
        else:
            np.multiply(x, a, out=work)
            out += work
    else:
        np.multiply(x, a, out=out)
        out += y
    if tracer is not None:
        tracer.end("axpy")
    return out


def axpby(
    a: float,
    x: np.ndarray,
    b: float,
    y: np.ndarray,
    out: np.ndarray | None = None,
    work: Any = None,
) -> np.ndarray:
    """Return ``a*x + b*y``; writes into ``out`` when provided.

    Supported aliasings:

    * ``out is x is y`` -- degenerates to ``out *= (a + b)``,
      allocation-free.
    * ``out is y`` (only) -- scale ``y`` by ``b`` in place, then add
      ``a*x``; allocation-free when ``work`` is supplied.
    * ``out is x`` (only) -- scale ``x`` by ``a`` in place, then add
      ``b*y``; allocation-free when ``work`` is supplied.  (Without
      ``work`` this branch used to *silently* allocate the ``b*y``
      temporary every call -- the workspace closes that hole.)
    * ``out`` distinct from both -- same story as ``out is x``.

    ``work`` (an array or a :class:`repro.backend.Workspace`, as in
    :func:`axpy`) must not alias any of the other operands.
    """
    tracer = add_axpy(x.shape[0], flops_per_entry=3)
    if out is None:
        out = a * x + b * y
    elif out is x and out is y:
        out *= a + b
    elif out is y:
        work = _scratch(work, x)
        out *= b
        if work is None:
            out += a * x
        else:
            np.multiply(x, a, out=work)
            out += work
    else:
        work = _scratch(work, x)
        np.multiply(x, a, out=out)
        if work is None:
            out += b * y
        else:
            np.multiply(y, b, out=work)
            out += work
    if tracer is not None:
        tracer.end("axpy")
    return out


def scale(a: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Return ``a*x``; writes into ``out`` when provided.

    ``out`` may alias ``x`` (in-place rescale); always allocation-free
    with ``out`` supplied.
    """
    tracer = add_axpy(x.shape[0], flops_per_entry=1)
    if out is None:
        out = a * x
    else:
        np.multiply(x, a, out=out)
    if tracer is not None:
        tracer.end("axpy")
    return out
