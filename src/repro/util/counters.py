"""Thread-local operation counting.

The paper's Section 6 makes three quantitative work claims about the
restructured algorithm (one matrix--vector product per iteration, two
directly-computed inner products per iteration, and sequential flop count
essentially equal to classical CG).  Rather than asserting these in prose we
*measure* them: every vector kernel in :mod:`repro.util.kernels` and every
sparse matvec in :mod:`repro.sparse` reports into the ambient
:class:`OpCounts` instance, and the work-accounting experiment (E5) simply
reads the totals.

Counting is scoped with the :func:`counting` context manager so that nested
measurements (e.g. a benchmark around a solver around a preconditioner) do
not double-book: each ``with counting() as c:`` block gets a fresh counter
pushed onto a thread-local stack, and *all* counters on the stack are
incremented, so an outer scope still sees work done inside inner scopes.

The same thread-local carries the solve's span tracer (set by
:class:`repro.telemetry.Telemetry`'s solve brackets), so each booking
also opens its phase span -- ``local_dot``, ``axpy`` or ``matvec`` --
and returns the tracer (``None`` when untraced) for the booking site to
end the span when its arithmetic is done.  Work that is not one booking
records its span with :func:`traced` or :func:`record_instant`.  Phase
spans never nest.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator

__all__ = [
    "OpCounts",
    "counting",
    "current_counts",
    "reset_counts",
    "push_scope",
    "pop_scope",
    "swap_tracer",
    "traced",
    "record_instant",
    "add_dot",
    "add_block_dot",
    "add_axpy",
    "add_matvec",
    "add_matmat",
    "add_scalar_flops",
]


@dataclass
class OpCounts:
    """Totals of the primitive operations executed inside a counting scope.

    Attributes
    ----------
    dots:
        Number of full-length inner products computed *directly* (i.e. by an
        actual reduction over vector entries, as opposed to values obtained
        through the scalar recurrences).
    dot_flops:
        Floating point operations spent in those inner products
        (``2n - 1`` per length-``n`` dot).
    axpys:
        Number of vector update kernels (``axpy``/``axpby``/``scale``).
    axpy_flops:
        Flops spent in vector updates.
    matvecs:
        Number of (sparse) matrix--vector products.
    matvec_flops:
        Flops spent in matrix--vector products (``2 nnz - nrows`` for CSR).
    scalar_flops:
        Flops spent on scalar work -- notably the moment recurrences of the
        Van Rosendale algorithm.  Kept separate because the paper's claim C8
        is that the *vector* work is unchanged while the scalar overhead is
        O(k) per iteration.
    reductions:
        Global reduction *launches* (fan-in trees started): every direct
        inner product or norm counts one, a distributed one (the per-rank
        partials of :class:`~repro.distributed.BlockVector`) included.
        This is the quantity the paper minimizes per iteration; how the
        simulated communicator fuses and hides those reductions is its
        own accounting (:class:`~repro.distributed.comm.CommStats`).
    words_moved:
        Estimated vector words streamed through memory by the counted
        kernels (reads + writes): ``2n`` per dot, ``3n`` per vector
        update, ``2·nnz + 2·nrows`` per CSR matvec.  Together with the
        flop totals this gives the arithmetic-intensity view of a solve.
    """

    dots: int = 0
    dot_flops: int = 0
    axpys: int = 0
    axpy_flops: int = 0
    matvecs: int = 0
    matvec_flops: int = 0
    scalar_flops: int = 0
    reductions: int = 0
    words_moved: int = 0
    _labels: dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def total_flops(self) -> int:
        """All floating point operations booked in this scope."""
        return (
            self.dot_flops + self.axpy_flops + self.matvec_flops + self.scalar_flops
        )

    @property
    def vector_flops(self) -> int:
        """Flops on length-N data only (excludes scalar recurrence work)."""
        return self.dot_flops + self.axpy_flops + self.matvec_flops

    @property
    def bytes_moved(self) -> int:
        """``words_moved`` in bytes (8 bytes per float64 word)."""
        return 8 * self.words_moved

    def labelled(self, label: str) -> int:
        """Return the count booked under ``label`` (0 if never booked)."""
        return self._labels.get(label, 0)

    def book_label(self, label: str, amount: int = 1) -> None:
        """Increment a free-form named counter (e.g. ``"direct_dot"``)."""
        self._labels[label] = self._labels.get(label, 0) + amount

    def snapshot(self) -> "OpCounts":
        """Return an independent copy of the current totals."""
        copy = OpCounts(
            dots=self.dots,
            dot_flops=self.dot_flops,
            axpys=self.axpys,
            axpy_flops=self.axpy_flops,
            matvecs=self.matvecs,
            matvec_flops=self.matvec_flops,
            scalar_flops=self.scalar_flops,
            reductions=self.reductions,
            words_moved=self.words_moved,
        )
        copy._labels = dict(self._labels)
        return copy

    def __sub__(self, other: "OpCounts") -> "OpCounts":
        diff = OpCounts()
        for f in fields(OpCounts):
            if f.name == "_labels":
                continue
            setattr(diff, f.name, getattr(self, f.name) - getattr(other, f.name))
        diff._labels = {
            k: self._labels.get(k, 0) - other._labels.get(k, 0)
            for k in set(self._labels) | set(other._labels)
        }
        return diff


class _CounterStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[OpCounts] = []
        #: Tracer the bookings open phase spans on; ``None`` when the
        #: solve is untraced or a :func:`traced` span is already open.
        self.tracer: Any = None


_STACK = _CounterStack()


@contextmanager
def counting() -> Iterator[OpCounts]:
    """Push a fresh :class:`OpCounts` scope; yields the live counter.

    Example
    -------
    >>> from repro.util import counting, dot
    >>> import numpy as np
    >>> with counting() as c:
    ...     _ = dot(np.ones(8), np.ones(8))
    >>> c.dots
    1
    """
    counter = push_scope()
    try:
        yield counter
    finally:
        pop_scope(counter)


def push_scope() -> OpCounts:
    """Push a fresh counting scope without a ``with`` block.

    The non-context-manager form of :func:`counting`, used by
    :class:`repro.telemetry.Telemetry` whose solve brackets do not nest
    lexically.  Pair every push with :func:`pop_scope`.
    """
    counter = OpCounts()
    _STACK.stack.append(counter)
    return counter


def pop_scope(counter: OpCounts) -> OpCounts:
    """Remove ``counter`` from the active stack and return it.

    Matches by identity: two scopes with equal totals are still two
    scopes, and removing the wrong one would leave ``counter`` booking
    every later operation.
    """
    stack = _STACK.stack
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] is counter:
            del stack[i]
            break
    return counter


def current_counts() -> OpCounts | None:
    """The innermost active counter, or ``None`` outside any scope."""
    return _STACK.stack[-1] if _STACK.stack else None


def reset_counts() -> None:
    """Drop every counting scope and the tracer (test isolation helper)."""
    _STACK.stack.clear()
    _STACK.tracer = None


def swap_tracer(tracer: Any) -> Any:
    """Make ``tracer`` the one this thread's bookings record spans on.

    Returns the previous tracer; a solve bracket passes it back here when
    it closes, so nested solves restore the outer solve's tracer.
    """
    previous = _STACK.tracer
    _STACK.tracer = tracer
    return previous


def record_instant(phase: str, **attrs: Any) -> None:
    """Record a zero-width ``phase`` span carrying ``attrs``, if traced.

    For events with no wall time of their own: the simulated
    communicator's collectives, whose cost is in the attributes.
    """
    tracer = _STACK.tracer
    if tracer is not None:
        tracer.begin(phase)
        tracer.annotate(**attrs)
        tracer.end(phase)


def traced(phase: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorate a function whose whole call is one ``phase`` span.

    For work that is not a single booking: the moment recurrences, the
    rank-parallel arithmetic of the distributed vectors, a fused batch
    of dots.  Bookings inside the call still count but open no spans of
    their own, so phase spans never nest.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local = _STACK
            tracer = local.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            tracer.begin(phase)
            local.tracer = None
            try:
                return fn(*args, **kwargs)
            finally:
                local.tracer = tracer
                tracer.end(phase)

        return wrapper

    return decorate


# The add_* functions below run on every kernel invocation of every
# solver, inside or outside a counting scope, so they are written for the
# fast path: one thread-local read for the tracer, bail out on an empty
# stack before any arithmetic, and hoist the per-op quantities out of the
# (almost always length-1) scope loop.  The span-opening ones return the
# tracer (or ``None``); the caller ends the span, named below, after its
# arithmetic.

_DOT_SPAN = "local_dot"
_AXPY_SPAN = "axpy"
_MATVEC_SPAN = "matvec"


def add_dot(n: int, label: str | None = None, m: int = 1) -> Any:
    """Book ``m`` inner products over length-``n`` vectors in ONE
    reduction launch (the ``log N`` fan-in tree the paper is about).

    With ``m > 1`` this is the batched multi-RHS accounting: ``m``
    length-``n`` dots whose fan-in tree starts once with an ``m``-word
    payload -- ``reductions`` grows by 1, not ``m``, which is exactly
    the amortization the block solvers claim.  Opens a ``local_dot``
    span, annotated with the booking ``label`` when there is one.
    """
    tracer = _STACK.tracer
    if tracer is not None:
        tracer.begin(_DOT_SPAN)
        if label is not None:
            tracer.annotate(label=label)
    stack = _STACK.stack
    if not stack:
        return tracer
    flops = max(2 * n - 1, 0) * m
    words = 2 * n * m
    for c in stack:
        c.dots += m
        c.dot_flops += flops
        c.reductions += 1
        c.words_moved += words
        if label is not None:
            c.book_label(label)
    return tracer


def add_block_dot(n: int, m: int, label: str | None = None) -> Any:
    """Book ``m`` column inner products fused into one reduction launch."""
    return add_dot(n, label, m)


def add_axpy(n: int, flops_per_entry: int = 2) -> Any:
    """Book one vector-update kernel over length-``n`` vectors (opens an
    ``axpy`` span)."""
    tracer = _STACK.tracer
    if tracer is not None:
        tracer.begin(_AXPY_SPAN)
    stack = _STACK.stack
    if not stack:
        return tracer
    flops = flops_per_entry * n
    words = 3 * n
    for c in stack:
        c.axpys += 1
        c.axpy_flops += flops
        c.words_moved += words
    return tracer


def add_matvec(nnz: int, nrows: int, label: str | None = None, m: int = 1) -> Any:
    """Book one sparse matrix--vector product with ``nnz`` nonzeros.

    With ``m > 1``, one matrix--block product ``A @ X``: ``m`` matvecs'
    flops, but the matrix is streamed through memory ONCE for all
    columns -- the operator-reuse win of block solving (``2·nnz`` matrix
    words + ``2·nrows·m`` vector words instead of ``m``-fold matrix
    traffic).  Opens a ``matvec`` span.
    """
    tracer = _STACK.tracer
    if tracer is not None:
        tracer.begin(_MATVEC_SPAN)
    stack = _STACK.stack
    if not stack:
        return tracer
    flops = max(2 * nnz - nrows, 0) * m
    words = 2 * nnz + 2 * nrows * m
    for c in stack:
        c.matvecs += m
        c.matvec_flops += flops
        c.words_moved += words
        if label is not None:
            c.book_label(label)
    return tracer


def add_matmat(nnz: int, nrows: int, m: int, label: str | None = None) -> Any:
    """Book one sparse matrix--block product ``A @ X`` with ``m`` columns."""
    return add_matvec(nnz, nrows, label, m)


def add_scalar_flops(flops: int) -> None:
    """Book scalar (length-independent) floating point work."""
    for c in _STACK.stack:
        c.scalar_flops += flops
