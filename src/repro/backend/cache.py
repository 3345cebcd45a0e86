"""Solver setup cache keyed by matrix fingerprint.

Repeated ``solve()`` calls against the same operator -- the production
traffic pattern the ROADMAP targets -- re-pay setup work that depends
only on the matrix: preconditioner factorizations (IC(0), SSOR splits,
Chebyshev spectral bounds) and the matrix-powers ghost-structure
analysis.  This module memoizes those builds behind a content
fingerprint: ``(format, shape, nnz, digest)`` where the digest covers
the actual index/value bytes, so two *structurally identical* matrices
hit the same entry and any numerical change misses it.

The fingerprint is cached on our immutable matrix classes after the
first computation (hashing is O(nnz), the builds it saves are much
larger but the hash itself should also be paid once).  Objects the
module cannot fingerprint safely (arbitrary operators, callables) simply
bypass the cache -- correctness never depends on a hit.

A process-global :class:`SetupCache` (bounded LRU) serves the registry;
tests and long-lived services can swap or clear it via
:func:`setup_cache` / :func:`clear_setup_cache`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from threading import Lock
from typing import Any, Callable, Hashable, Iterator

import numpy as np

__all__ = [
    "SetupCache",
    "matrix_fingerprint",
    "setup_cache",
    "clear_setup_cache",
    "set_setup_cache",
    "swapped_setup_cache",
]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).view(np.uint8).reshape(-1))
    return h.hexdigest()


def matrix_fingerprint(a: Any) -> tuple | None:
    """Content fingerprint of a matrix, or ``None`` when uncacheable.

    The tuple is ``("csr", shape, nnz, digest)`` for our sparse formats
    (an ELL matrix keys as its CSR form) and ``("dense", shape, size,
    digest)`` for numpy arrays.  Immutable matrix instances memoize their
    fingerprint after the first call.

    Matrix-free operators opt in through a ``fingerprint()`` method
    returning any hashable key (or ``None`` to decline); operators
    without one -- bare callables, ad-hoc pipelines -- return ``None``
    here, which makes every cache lookup a silent bypass (counted in
    :meth:`SetupCache.stats` under ``"skipped"``) rather than an error.
    """
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.ell import ELLMatrix
    from repro.sparse.linop import DenseOperator

    if isinstance(a, ELLMatrix):
        a = a.to_csr()  # an ELL matrix runs on its CSR, so it shares its key
    if isinstance(a, CSRMatrix):
        cached = a.__dict__.get("_fingerprint")
        if cached is None:
            cached = ("csr", a.shape, a.nnz, _digest(a.indptr, a.indices, a.data))
            object.__setattr__(a, "_fingerprint", cached)
        return cached
    if isinstance(a, DenseOperator):
        return ("dense", a.array.shape, a.array.size, _digest(a.array))
    if isinstance(a, np.ndarray):
        return ("dense", a.shape, a.size, _digest(a))
    hook = getattr(a, "fingerprint", None)
    if callable(hook):
        key = hook()
        if key is None:
            return None
        return ("operator", tuple(getattr(a, "shape", ())), key)
    return None


class SetupCache:
    """A bounded LRU cache of matrix-dependent setup artifacts.

    Entries are keyed by ``(kind, fingerprint, extra)`` where ``kind``
    names the artifact family (``"precond"``, ``"matrix_powers"``),
    ``fingerprint`` comes from :func:`matrix_fingerprint`, and ``extra``
    carries any non-matrix parameters of the build (preconditioner spec,
    power depth, ...).
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.skipped = 0

    def get_or_build(
        self,
        kind: str,
        fingerprint: tuple | None,
        extra: Hashable,
        builder: Callable[[], Any],
    ) -> Any:
        """Return the cached artifact, building (and storing) on a miss.

        A ``None`` fingerprint bypasses the cache entirely: the builder
        runs, nothing is stored, and the ``skipped`` statistic ticks --
        unfingerprintable operators never error, they just never hit.
        """
        if fingerprint is None:
            with self._lock:
                self.skipped += 1
            return builder()
        key = (kind, fingerprint, extra)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
        # Build outside the lock: builders can be expensive and reentrant.
        value = builder()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.skipped = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """``{"hits", "misses", "evictions", "skipped", "entries"}``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "skipped": self.skipped,
            "entries": len(self._entries),
        }


_GLOBAL_CACHE = SetupCache()


def setup_cache() -> SetupCache:
    """The process-global setup cache used by the solver front door."""
    return _GLOBAL_CACHE


def clear_setup_cache() -> None:
    """Clear the process-global setup cache (tests; memory pressure)."""
    _GLOBAL_CACHE.clear()


def set_setup_cache(cache: SetupCache) -> SetupCache:
    """Replace the process-global setup cache; returns the previous one.

    Long-lived services can install a larger (or separately monitored)
    cache; tests can install a throwaway so their hit/miss assertions
    cannot observe -- or poison -- another test's state.
    """
    global _GLOBAL_CACHE
    if not isinstance(cache, SetupCache):
        raise TypeError(f"expected a SetupCache, got {type(cache).__name__}")
    previous = _GLOBAL_CACHE
    _GLOBAL_CACHE = cache
    return previous


@contextmanager
def swapped_setup_cache(cache: SetupCache | None = None) -> Iterator[SetupCache]:
    """Run a block under a swapped-in setup cache, restoring on exit.

    With no argument a fresh empty :class:`SetupCache` is installed --
    the per-test isolation fixture in ``tests/conftest.py`` uses exactly
    this, so cache-stat assertions are immune to test reordering.
    """
    inner = cache if cache is not None else SetupCache()
    previous = set_setup_cache(inner)
    try:
        yield inner
    finally:
        set_setup_cache(previous)

