"""Cross-request warm-start cache for the solver service.

Chen & Carson's predict-and-recompute line of work (PAPERS.md) is built
on a simple observation: converged solver state is *reusable* across
near-identical solves.  The serve layer sees exactly that traffic shape
-- dashboards re-requesting the same right-hand side, retry storms,
parameter sweeps that repeat a column -- so the service keeps a small
LRU of **converged solutions**, keyed by everything that must match for
the cached vector to be a valid initial guess:

* the request's **compat key** (operator fingerprint, method, dtype,
  problem size, stopping criterion and options; only methods that take
  ``x0`` and do not run over the simulated communicator have one), and
* a ``blake2b`` digest of the right-hand side's bytes.

On a hit the service seeds ``x0`` with the cached solution.  The guard
rail comes from Cools et al.'s attainable-accuracy analysis (PAPERS.md):
inherited ``x0`` error is exactly the kind of drift a recurred residual
hides, so a warm hit is served only when the solve converged -- and
``converged`` is the solver's exit rule, the directly computed true
residual checked against the request's threshold
(:meth:`repro.core.results.SolveRun.finish`).  An unconverged warm
solve falls back to a cold start and drops the entry.

The cache itself stays deliberately dumb: bytes-exact matching only.  A
"near" RHS (same operator, slightly different b) misses and solves cold
-- a wrong seed can only cost iterations, but a wrong *hit* would cost
correctness, and this module is on the correctness side of the line.

Thread safety: lookups and stores happen on worker-pool threads while
``/status`` reads the stats from the event loop, so every mutation runs
under one lock.  Entries store defensive copies in both directions.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

__all__ = ["WarmStartCache"]


def _rhs_digest(b: np.ndarray) -> bytes:
    """Content digest of a right-hand side (bytes-exact, shape-aware)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(b.shape).encode())
    h.update(str(b.dtype).encode())
    arr = np.ascontiguousarray(b)
    h.update(arr.tobytes())
    return h.digest()


class _Entry:
    """One cached converged solution plus the metadata that validates it."""

    __slots__ = ("x", "n", "dtype")

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self.n = int(x.shape[0]) if x.ndim == 1 else -1
        self.dtype = str(x.dtype)


class WarmStartCache:
    """Bounded LRU of converged solutions, keyed by (compat key, RHS digest).

    ``capacity`` is the entry count bound (each entry holds one length-n
    float vector); ``capacity == 0`` disables the cache entirely --
    every lookup misses, every store is dropped -- so a single code path
    serves both configurations.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError(f"warm-start capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple[Any, bytes], _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.rejected = 0
        self.poisoned = 0
        self.evicted = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, key: Any, b: np.ndarray) -> np.ndarray | None:
        """A validated copy of the cached solution for ``(key, b)``.

        A present-but-invalid entry (wrong shape or dtype for this
        right-hand side -- a fingerprint collision or a poisoned store)
        is dropped and counted as ``poisoned``; the caller simply solves
        cold.  Misses and hits are counted; hits refresh LRU recency.
        """
        if not self.enabled:
            return None
        full = (key, _rhs_digest(b))
        with self._lock:
            entry = self._entries.get(full)
            if entry is None:
                self.misses += 1
                return None
            x = entry.x
            if (
                not isinstance(x, np.ndarray)
                or x.ndim != 1
                or x.shape != b.shape
                or str(x.dtype) != str(b.dtype)
                or not np.isfinite(x).all()
            ):
                del self._entries[full]
                self.poisoned += 1
                self.misses += 1
                return None
            self._entries.move_to_end(full)
            self.hits += 1
            return np.array(x, copy=True)

    def store(self, key: Any, b: np.ndarray, x: np.ndarray) -> None:
        """Cache a converged solution (a defensive copy) under ``(key, b)``."""
        if not self.enabled:
            return
        full = (key, _rhs_digest(b))
        entry = _Entry(np.array(x, copy=True))
        with self._lock:
            self._entries[full] = entry
            self._entries.move_to_end(full)
            self.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evicted += 1

    def reject(self, key: Any, b: np.ndarray) -> None:
        """A warm-started solve did not converge under the exit rule.

        Drops the seed that produced it (it earned no trust) and counts
        the rejection; the caller re-solves cold.
        """
        full = (key, _rhs_digest(b))
        with self._lock:
            self._entries.pop(full, None)
            self.rejected += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counter snapshot for ``/status`` and the metrics registry."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "rejected": self.rejected,
                "poisoned": self.poisoned,
                "evicted": self.evicted,
            }
