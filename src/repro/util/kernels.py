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
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.util.counters import add_axpy, add_block_dot, add_dot

__all__ = ["dot", "norm", "axpy", "axpby", "scale", "block_dot", "block_norms"]


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
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        value = float(np.vdot(x, y).real)
    else:
        value = float(np.dot(x, y))
    if tracer is not None:
        tracer.end("local_dot")
    return value


def norm(x: np.ndarray) -> float:
    """Instrumented Euclidean norm (booked as one inner product)."""
    return float(np.sqrt(dot(x, x)))


def block_dot(x: np.ndarray, y: np.ndarray, *, label: str | None = None) -> np.ndarray:
    """Fused column-wise inner products of two ``(n, m)`` blocks.

    Returns the length-``m`` vector ``[x₀ᵀy₀, ..., x_{m-1}ᵀy_{m-1}]``.
    All ``m`` products ride a single reduction launch (booked via
    :func:`repro.util.counters.add_block_dot`): on a parallel machine
    this is ONE allreduce of ``m`` words, not ``m`` allreduces of one --
    the accounting heart of the batched multi-RHS solvers.
    """
    n, m = x.shape
    tracer = add_block_dot(n, m, label=label)
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        value = np.einsum("ij,ij->j", np.conj(x), y).real
    else:
        value = np.einsum("ij,ij->j", x, y)
    if tracer is not None:
        tracer.end("local_dot")
    return value


def block_norms(x: np.ndarray, *, label: str | None = None) -> np.ndarray:
    """Column Euclidean norms of an ``(n, m)`` block (one fused reduction)."""
    return np.sqrt(block_dot(x, x, label=label))


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
