"""Abstract linear operator protocol -- the stack's public operator contract.

The Van Rosendale machinery in :mod:`repro.core` only ever touches the
matrix through ``Av``: a square ``shape``, a ``matvec``, and (for the
machine model) a ``max_row_degree`` are all it needs.  This module defines
that contract and the coercion every front door goes through:

=====================================  =====================================
you pass                               :func:`as_operator` produces
=====================================  =====================================
:class:`~repro.sparse.csr.CSRMatrix`   the matrix itself (unchanged)
:class:`~repro.sparse.ell.ELLMatrix`   its CSR, converted once
``numpy.ndarray`` (square, 2-D)        :class:`DenseOperator`
scipy sparse matrix                    counted :class:`CallableOperator`
bare callable ``x -> Ax``              counted :class:`CallableOperator`
                                       (needs ``n=``; ``solve()`` infers
                                       it from ``b``)
any object with ``shape`` + ``matvec`` the object itself (unchanged)
=====================================  =====================================

Optional protocol extensions the stack honours when present:

* ``dtype`` -- declares a complex operator (``complex128``); the solvers
  switch their vectors and their ``vdot``-based inner products over.
  Absent means float64.
* ``matmat(X)`` -- fused multi-column application for the batched paths.
* ``rmatvec(y)`` -- the adjoint ``Aᴴy``, required by
  :class:`NormalOperator` for rectangular encodings.
* ``max_row_degree()`` -- row degree for the machine model's depth
  accounting (dense assumed otherwise).
* ``fingerprint()`` -- an opt-in content key for the
  :class:`repro.backend.SetupCache`; unfingerprintable operators bypass
  the cache silently.

Implicitly-defined operators such as the symmetrically preconditioned
``E⁻¹AE⁻ᵀ`` from :mod:`repro.precond` and the workload operators in
:mod:`repro.zoo` all ride this protocol -- the solvers never know the
difference.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.sparse.csr import as_csr
from repro.sparse.ell import ELLMatrix
from repro.util.counters import add_matmat, add_matvec

__all__ = [
    "LinearOperator",
    "CallableOperator",
    "DenseOperator",
    "NormalOperator",
    "as_operator",
    "operator_dtype",
    "block_matvec",
    "matvec_into",
]


@runtime_checkable
class LinearOperator(Protocol):
    """Anything with a square ``shape`` and a ``matvec``."""

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, n)`` operator dimensions."""
        ...

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to a vector."""
        ...


def operator_dtype(op: Any) -> np.dtype:
    """The vector dtype a solve against ``op`` runs in.

    Operators declare complex arithmetic through a ``dtype`` attribute;
    anything without one (our CSR matrices, plain wrappers) is
    float64.  The result is always one of the two solver dtypes --
    ``float64`` or ``complex128`` -- so lower-precision operators are
    promoted rather than propagated.
    """
    dt = getattr(op, "dtype", None)
    if dt is None:
        return np.dtype(np.float64)
    dt = np.dtype(dt)
    return np.dtype(np.complex128) if dt.kind == "c" else np.dtype(np.float64)


class CallableOperator:
    """Wrap a plain function ``x -> Ax`` as a :class:`LinearOperator`.

    Parameters
    ----------
    n:
        Operator dimension.
    fn:
        The matvec implementation.
    row_degree:
        Value reported by :meth:`max_row_degree`; used only by the machine
        model's depth accounting.  Defaults to ``n`` (dense).
    nnz:
        Nonzeros booked per application on the operation counter.
    dtype:
        Vector dtype the wrapped function operates in (``float64``
        default; pass ``complex128`` for complex pipelines).
    counted:
        When true, each :meth:`matvec` books one matvec of ``nnz``
        nonzeros on the ambient counter.  Defaults to False: wrappers
        built around our own instrumented kernels (the split
        preconditioner, the polynomial trick) already book inside ``fn``
        and must not double-count.  :func:`as_operator` turns it on for
        bare callables and scipy matrices, which book nothing themselves.
    """

    def __init__(
        self,
        n: int,
        fn: Callable[[np.ndarray], np.ndarray],
        *,
        row_degree: int | None = None,
        nnz: int | None = None,
        dtype: np.dtype | type = np.float64,
        counted: bool = False,
    ) -> None:
        self._n = int(n)
        self._fn = fn
        self._row_degree = int(row_degree) if row_degree is not None else int(n)
        self._nnz = int(nnz) if nnz is not None else int(n) * self._row_degree
        dt = np.dtype(dtype)
        self._dtype = np.dtype(np.complex128) if dt.kind == "c" else np.dtype(np.float64)
        self._counted = bool(counted)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, n)``."""
        return (self._n, self._n)

    @property
    def dtype(self) -> np.dtype:
        """Vector dtype the wrapped function operates in."""
        return self._dtype

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the wrapped function (booking one matvec when counted)."""
        tracer = add_matvec(self._nnz, self._n) if self._counted else None
        y = np.asarray(self._fn(np.asarray(x, dtype=self._dtype)), dtype=self._dtype)
        if tracer is not None:
            tracer.end("matvec")
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def max_row_degree(self) -> int:
        """Declared row degree for depth modelling."""
        return self._row_degree


class DenseOperator:
    """A dense symmetric/Hermitian matrix as a counted operator.

    Real input is held as float64, complex input as complex128 -- the
    operator's ``dtype`` is what flips the solvers into complex mode.
    """

    def __init__(self, a: np.ndarray) -> None:
        a = np.asarray(a)
        dt = np.complex128 if np.iscomplexobj(a) else np.float64
        a = np.asarray(a, dtype=dt)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        self._a = a
        self._entries_finite = bool(np.isfinite(a).all())

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, n)``."""
        return self._a.shape

    @property
    def dtype(self) -> np.dtype:
        """float64 for real matrices, complex128 for complex ones."""
        return self._a.dtype

    @property
    def array(self) -> np.ndarray:
        """The underlying dense array (read-only view semantics by courtesy)."""
        return self._a

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ x`` with counter booking (dense row degree = n).

        ``out`` (matching dtype, shape ``(n,)``, not aliasing ``x``) makes
        the product allocation-free.
        """
        n = self._a.shape[0]
        x = np.asarray(x)
        if not np.iscomplexobj(x) and not np.iscomplexobj(self._a):
            x = np.asarray(x, dtype=np.float64)
        if out is not None and out is x:
            raise ValueError("out must not alias x")
        tracer = add_matvec(n * n, n)
        # inf * 0 and nan propagation inside the BLAS product would leak
        # RuntimeWarnings to stderr; the finiteness check below is the
        # diagnosis, so the elementwise warnings carry no extra signal.
        with np.errstate(invalid="ignore", over="ignore"):
            if out is None:
                y = self._a @ x
            else:
                np.matmul(self._a, x, out=out)
                y = out
        if tracer is not None:
            tracer.end("matvec")
        self._diagnose_nonfinite(y, x)
        return y

    def _diagnose_nonfinite(self, y: np.ndarray, x: np.ndarray) -> None:
        """Raise a clear error when non-finite *matrix entries* poison an
        otherwise-finite product.

        A non-finite output from a finite input and non-finite ``A`` can
        only mean the matrix is the culprit -- name it.  A non-finite
        output fed by a non-finite ``x`` (an honestly diverging solve) is
        returned untouched: the solvers' divergence guards and verified
        exits own that case, and raising here would turn an honest
        non-converged result into a crash.
        """
        if self._entries_finite or np.isfinite(y).all():
            return
        if np.isfinite(x).all():
            bad = int(np.size(self._a) - np.count_nonzero(np.isfinite(self._a)))
            raise ValueError(
                f"DenseOperator matrix has {bad} non-finite entr"
                f"{'y' if bad == 1 else 'ies'} (nan/inf); the product is "
                "non-finite for a finite input vector"
            )

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``A @ X`` for an ``(n, m)`` block: one pass over the matrix."""
        x = np.asarray(x)
        if not np.iscomplexobj(x) and not np.iscomplexobj(self._a):
            x = np.asarray(x, dtype=np.float64)
        n = self._a.shape[0]
        tracer = add_matmat(n * n, n, x.shape[1])
        with np.errstate(invalid="ignore", over="ignore"):
            if out is None:
                y = self._a @ x
            else:
                np.matmul(self._a, x, out=out)
                y = out
        if tracer is not None:
            tracer.end("matvec")
        self._diagnose_nonfinite(y, x)
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def max_row_degree(self) -> int:
        """Dense: every row has n entries."""
        return self._a.shape[0]


class NormalOperator:
    """The normal-equations operator ``EᴴE + shift·I`` of an encoding ``E``.

    ``E`` may be rectangular (``(m, n)``) and complex -- the canonical
    case is an MRI encoding pipeline (see :mod:`repro.zoo.mri`) where
    ``E = mask ∘ FFT`` and the reconstruction solves ``(EᴴE)ρ = Eᴴm``.
    The composition is Hermitian positive semi-definite by construction;
    a positive ``shift`` (Tikhonov term) makes it definite, which is what
    CG requires when ``E`` has a nontrivial null space (undersampling).

    ``E`` must provide ``shape``, ``matvec`` (``x -> Ex``), and
    ``rmatvec`` (``y -> Eᴴy``).  A ``fingerprint()`` hook on ``E``
    propagates so setup caching keeps working through the composition.
    """

    def __init__(self, e: Any, *, shift: float = 0.0) -> None:
        shape = getattr(e, "shape", None)
        if shape is None or len(shape) != 2:
            raise ValueError(
                f"NormalOperator needs an encoding with a 2-D shape, got {shape!r}"
            )
        if not callable(getattr(e, "matvec", None)) or not callable(
            getattr(e, "rmatvec", None)
        ):
            raise ValueError(
                "NormalOperator needs an encoding with both matvec (Ex) and "
                "rmatvec (E^H y); got "
                f"{type(e).__name__} without "
                f"{'matvec' if not callable(getattr(e, 'matvec', None)) else 'rmatvec'}"
            )
        if shift < 0.0:
            raise ValueError(f"shift must be >= 0, got {shift}")
        self._e = e
        self._shift = float(shift)
        self._n = int(shape[1])
        self._dtype = operator_dtype(e)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, n)`` where ``n`` is the encoding's column count."""
        return (self._n, self._n)

    @property
    def dtype(self) -> np.dtype:
        """Inherited from the encoding (complex encodings stay complex)."""
        return self._dtype

    @property
    def shift(self) -> float:
        """The Tikhonov regularization weight."""
        return self._shift

    @property
    def encoding(self) -> Any:
        """The wrapped encoding operator ``E``."""
        return self._e

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``EᴴE x + shift·x``."""
        x = np.asarray(x, dtype=self._dtype)
        y = np.asarray(self._e.rmatvec(self._e.matvec(x)), dtype=self._dtype)
        if self._shift:
            y = y + self._shift * x
        return y

    def rhs(self, measurements: np.ndarray) -> np.ndarray:
        """The normal-equations right-hand side ``b = Eᴴm``."""
        return np.asarray(self._e.rmatvec(measurements), dtype=self._dtype)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def max_row_degree(self) -> int:
        """The composition is dense in general."""
        return self._n

    def fingerprint(self) -> tuple | None:
        """Delegate to the encoding's hook; ``None`` bypasses the cache."""
        hook = getattr(self._e, "fingerprint", None)
        if not callable(hook):
            return None
        inner = hook()
        if inner is None:
            return None
        return ("normal", self.shape, self._shift, inner)


#: Per-(operator type, method): whether ``matvec`` / ``matmat`` takes
#: ``out=`` (CSR's compiled kernel, :class:`DenseOperator`) or is a plain
#: ``method(x)``.  Looked up once per type via ``inspect.signature`` so the
#: steady-state dispatch is a dict hit, not reflection -- and never a
#: trial call, which would re-run a product whose body raised TypeError.
_OUT_SUPPORT: dict[tuple[type, str], bool] = {}


def _takes_out(op: Any, method: str) -> bool:
    key = (type(op), method)
    takes = _OUT_SUPPORT.get(key)
    if takes is None:
        import inspect

        try:
            params = inspect.signature(getattr(key[0], method)).parameters
        except (TypeError, ValueError, AttributeError):
            params = {}
        takes = _OUT_SUPPORT[key] = "out" in params
    return takes


def matvec_into(
    op: LinearOperator,
    x: np.ndarray,
    out: np.ndarray,
    work: Any = None,
) -> np.ndarray:
    """Apply ``op`` to ``x``, writing the result into ``out``.

    An ``out=``-aware ``matvec`` (:class:`~repro.sparse.csr.CSRMatrix`,
    :class:`DenseOperator`) writes straight into ``out``; a plain one
    (callable wrappers, fault-wrapped operators) is copied in, so every
    :class:`LinearOperator` works and capable ones stay allocation-free.
    ``work`` is unused: it survives only because the benchmark harness
    calls ``matvec_into(op, x, out, work=ws)`` (``perfbench/layers.py``);
    a later benchmark change may drop it.
    """
    if _takes_out(op, "matvec"):
        return op.matvec(x, out=out)
    y = op.matvec(x)
    if y is not out:
        np.copyto(out, y)
    return out


def block_matvec(
    op: LinearOperator,
    x: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``op`` to every column of an ``(n, m)`` block at once.

    Dispatches to the operator's own fused ``matmat`` when it has one
    (:class:`~repro.sparse.csr.CSRMatrix`, :class:`DenseOperator` -- one
    matrix traversal for all columns); otherwise falls back to a column
    loop of ``matvec`` calls, so any :class:`LinearOperator` works under
    the batched solvers, just without the locality win.  ``out`` lets
    steady-state solver loops reuse one result block; a ``matmat``
    without ``out=`` (by the same cached signature rule as
    :func:`matvec_into`) still works -- the result is copied in.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected an (n, m) column block, got shape {x.shape}")
    matmat = getattr(op, "matmat", None)
    if callable(matmat):
        if out is None:
            return np.asarray(matmat(x))
        if _takes_out(op, "matmat"):
            return matmat(x, out=out)
        out[:] = matmat(x)
        return out
    if out is not None:
        y = out
    else:
        y = np.empty(
            (op.shape[0], x.shape[1]),
            dtype=np.promote_types(x.dtype, operator_dtype(op)),
        )
    for j in range(x.shape[1]):
        y[:, j] = op.matvec(x[:, j])
    return y


def as_operator(a: Any, *, n: int | None = None) -> LinearOperator:
    """Coerce ``a`` into a :class:`LinearOperator` (the front-door contract).

    Accepts our CSR matrices and any object already satisfying the
    protocol (returned unchanged -- existing ``solve(csr, b)`` calls are
    bit-for-bit untouched), ELL matrices (their CSR, converted once per
    instance), dense numpy arrays (wrapped in :class:`DenseOperator`),
    scipy sparse matrices and bare callables ``x -> Ax`` (wrapped in a
    counted :class:`CallableOperator`).

    Parameters
    ----------
    a:
        The operator in any accepted form.
    n:
        Dimension hint, required only for bare callables (a function has
        no ``shape``); ``solve()`` passes ``len(b)``.  For every other
        form a mismatch between ``n`` and the operator's own shape
        raises.

    Raises
    ------
    ValueError
        For a non-square shape, a shape/``n`` mismatch, an object that
        has a ``shape`` but no ``matvec``, or a bare callable without
        ``n`` -- each with a message naming the specific defect.
    TypeError
        For objects that are not interpretable as an operator at all.
    """
    from repro.util.validation import check_square_operator

    if isinstance(a, ELLMatrix):
        a = as_csr(a)
    if isinstance(a, np.ndarray):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(
                f"operator must be square, got array of shape {a.shape}"
            )
        op = DenseOperator(a)
        check_square_operator(op, n)
        return op
    try:
        import scipy.sparse as sp

        if sp.issparse(a):
            if a.shape[0] != a.shape[1]:
                raise ValueError(
                    f"operator must be square, got shape {tuple(a.shape)}"
                )
            csr = a.tocsr()
            degree = int(np.diff(csr.indptr).max()) if csr.nnz else 0
            op = CallableOperator(
                csr.shape[0],
                lambda x, _csr=csr: _csr @ x,
                row_degree=degree,
                nnz=csr.nnz,
                dtype=csr.dtype,
                counted=True,
            )
            check_square_operator(op, n)
            return op
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        pass
    if hasattr(a, "shape"):
        if not callable(getattr(a, "matvec", None)):
            raise ValueError(
                f"{type(a).__name__} has a shape but no matvec(x) method; "
                "a LinearOperator needs a square shape and matvec "
                "(optionally dtype, matmat, rmatvec, max_row_degree, "
                "fingerprint)"
            )
        check_square_operator(a, n)
        return a
    if callable(a):
        if n is None:
            raise ValueError(
                "a bare callable has no shape; pass it through solve(A, b) "
                "(the dimension is inferred from b) or wrap it explicitly: "
                "CallableOperator(n, fn)"
            )
        return CallableOperator(int(n), a, counted=True)
    raise TypeError(f"cannot interpret {type(a).__name__} as a linear operator")
