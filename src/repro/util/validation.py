"""Argument validation shared across the public API.

These helpers centralize the error messages users see, so every solver and
generator fails the same way for the same misuse.  They are intentionally
strict: the solvers in :mod:`repro.core` are numerical kernels and silent
shape coercion there hides real bugs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "as_1d_float_array",
    "as_1d_typed_array",
    "as_2d_float_array",
    "check_out_array",
    "check_square_operator",
    "require_positive_int",
    "require_nonnegative_int",
]


def check_out_array(
    out: Any, shape: tuple[int, ...], name: str = "out"
) -> np.ndarray:
    """Validate a caller-supplied output buffer up front.

    The sparse kernels write results through scipy's compiled CSR
    kernels and ``np.einsum(..., out=)``.  There a wrong-dtype buffer
    fails with a terse casting error, and the CSR kernel fills only the
    first ``nrows`` entries of a too-long one without complaint; this
    check turns both into a clear ``ValueError`` at the API boundary
    instead.
    """
    if not isinstance(out, np.ndarray):
        raise ValueError(
            f"{name} must be a numpy array, got {type(out).__name__}"
        )
    if out.shape != tuple(shape):
        raise ValueError(
            f"{name} must have shape {tuple(shape)}, got {out.shape}"
        )
    if out.dtype != np.float64:
        raise ValueError(
            f"{name} must have dtype float64, got {out.dtype}"
        )
    return out


def as_1d_typed_array(
    x: Any, name: str = "array", dtype: np.dtype | type = np.float64
) -> np.ndarray:
    """Coerce ``x`` to a contiguous 1-D array of ``dtype``, validating shape.

    The dtype-aware sibling of :func:`as_1d_float_array`, used by the
    solvers when the operator declares a complex dtype.  Complex input
    against a real target dtype raises (silently discarding imaginary
    parts hides real bugs); real input promotes to a complex target.
    """
    dt = np.dtype(dtype)
    arr = np.asarray(x)
    if np.iscomplexobj(arr) and dt.kind != "c":
        raise ValueError(
            f"{name} is complex but the operator is real (dtype {dt}); "
            "pass a complex operator (its dtype attribute decides) or a "
            f"real {name}"
        )
    arr = np.asarray(arr, dtype=dt)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def as_1d_float_array(x: Any, name: str = "array") -> np.ndarray:
    """Coerce ``x`` to a contiguous 1-D float64 array, validating shape."""
    return as_1d_typed_array(x, name, np.float64)


def as_2d_float_array(x: Any, name: str = "array") -> np.ndarray:
    """Coerce ``x`` to a contiguous 2-D float64 array (an ``(n, m)`` block).

    A 1-D vector is accepted and promoted to a single-column block, so
    the batched entry points degrade gracefully to ``m = 1``.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(
            f"{name} must be an (n, m) column block, got shape {arr.shape}"
        )
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def check_square_operator(op: Any, n: int | None = None) -> int:
    """Validate that ``op`` exposes a square ``shape`` and return its size.

    Accepts anything with a ``shape`` attribute of the form ``(m, m)`` --
    our own CSR matrices, dense numpy arrays, scipy sparse matrices, or
    the abstract operators in :mod:`repro.precond.base`.
    """
    shape = getattr(op, "shape", None)
    if shape is None or len(shape) != 2:
        raise TypeError(f"operator must expose a 2-D shape, got {shape!r}")
    rows, cols = shape
    if rows != cols:
        raise ValueError(f"operator must be square, got shape {shape}")
    if n is not None and rows != n:
        raise ValueError(
            f"operator size {rows} does not match vector length {n}"
        )
    return int(rows)


def require_positive_int(value: Any, name: str) -> int:
    """Validate ``value`` as a strictly positive integer and return it."""
    ivalue = int(value)
    if ivalue != value or ivalue <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return ivalue


def require_nonnegative_int(value: Any, name: str) -> int:
    """Validate ``value`` as a non-negative integer and return it."""
    ivalue = int(value)
    if ivalue != value or ivalue < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return ivalue
