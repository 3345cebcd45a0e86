"""Workspace arena and setup cache (`repro.backend`).

Two pieces, one goal -- make the per-iteration critical path cost what
the hardware charges and nothing more:

* :class:`Workspace` -- a per-solve, shape/dtype-keyed buffer pool, so
  steady-state iterations allocate zero new arrays.
* :class:`SetupCache` -- memoizes matrix-dependent setup (ELL
  conversion, preconditioner factorizations, matrix-powers structure)
  across repeated ``solve()`` calls, keyed by a content fingerprint.

The kernels themselves live in :mod:`repro.util.kernels`; solvers call
them, and :func:`repro.sparse.linop.matvec_into`, directly.
"""

from __future__ import annotations

from types import ModuleType

from repro.backend.cache import (
    SetupCache,
    cached_ell,
    clear_setup_cache,
    matrix_fingerprint,
    set_setup_cache,
    setup_cache,
    swapped_setup_cache,
)
from repro.backend.workspace import Workspace
from repro.util import kernels

__all__ = [
    "Workspace",
    "SetupCache",
    "setup_cache",
    "clear_setup_cache",
    "set_setup_cache",
    "swapped_setup_cache",
    "matrix_fingerprint",
    "cached_ell",
    "resolve_backend",
]


def resolve_backend(spec: None = None) -> ModuleType:
    """Return the kernel module, :mod:`repro.util.kernels`.

    There is no kernel backend to choose: every solver calls
    :mod:`repro.util.kernels` directly.  This function survives only
    because the benchmark harness in ``perfbench/`` times ``dot`` and
    ``axpy`` through ``resolve_backend(None)``; a later benchmark change
    may drop it.  Any argument other than ``None`` raises
    :class:`ValueError`.
    """
    if spec is not None:
        raise ValueError(
            f"kernel backends were removed (got {spec!r}); solvers call "
            "repro.util.kernels directly, so pass nothing"
        )
    return kernels
