"""Per-solve workspace arena: a named, shape/dtype-keyed buffer pool.

Steady-state solver loops must allocate **zero** new arrays per iteration
(the allocation-discipline contract tested by
``tests/test_allocation_discipline.py``).  Everything a loop needs beyond
its own state vectors -- the matvec result, the elementwise kernels'
temporaries, the power-block scratch -- is drawn from a
:class:`Workspace`: the first request for a slot allocates it, every
later request with the same name and dtype reuses the buffer
(reallocating only if the requested shape changed, which is what the
batched solvers' deflation does on purpose).

A workspace is *per solve*: each solve's
:class:`~repro.core.results.SolveRun` (and each batched solve) makes its
own, so concurrent solves never share buffers.  The kernels' ``work=``
arguments take one directly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """A pool of preallocated scratch arrays keyed by name and dtype.

    Slots are identified by a string name; the shape is checked on every
    :meth:`get` and the buffer is reallocated when it changed.  Buffers
    are returned *uninitialized* (``np.empty`` semantics) -- callers own
    the contents.
    """

    __slots__ = ("_buffers", "hits", "misses")

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self,
        name: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Return the buffer for ``name``, (re)allocating on first use or
        shape change.  Contents are undefined on a miss and *stale* (the
        previous user's data) on a hit."""
        dt = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        key = (name, dt)
        buf = self._buffers.get(key)
        # A hit on a tuple shape returns before normalizing it: the block
        # kernels draw their slots several times per sweep.
        if buf is not None and type(shape) is tuple and buf.shape == shape:
            self.hits += 1
            return buf
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=dt)
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    def scratch(self, shape: int | tuple[int, ...], dtype: np.dtype | type = np.float64) -> np.ndarray:
        """The anonymous scratch slot (for one-shot kernel temporaries)."""
        return self.get("scratch", shape, dtype)

    def clear(self) -> None:
        """Drop every buffer (and reset the hit/miss statistics)."""
        self._buffers.clear()
        self.hits = 0
        self.misses = 0

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def slots(self) -> tuple[str, ...]:
        """The names of the currently allocated slots (sorted)."""
        return tuple(sorted({name for name, _ in self._buffers}))

    def stats(self) -> dict[str, int]:
        """Pool statistics: ``{"hits", "misses", "slots", "nbytes"}``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "slots": len(self._buffers),
            "nbytes": self.nbytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace(slots={len(self._buffers)}, nbytes={self.nbytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )
