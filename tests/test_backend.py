"""The workspace arena and setup cache (:mod:`repro.backend`).

Covers:

* :func:`resolve_backend` -- all that is left of kernel-backend selection;
* the :class:`Workspace` arena -- buffer reuse, shape re-keying, stats;
* the :class:`SetupCache` -- fingerprint keying, hits, LRU eviction;
* the :func:`repro.solve` front door, which takes no caller arena.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    SetupCache,
    Workspace,
    clear_setup_cache,
    matrix_fingerprint,
    resolve_backend,
    setup_cache,
)
from repro.sparse.generators import poisson2d
from repro.util import kernels


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_resolve_none_defaults_to_reference(self):
        # The kernel module is the only kernel layer; any request for a
        # named backend is refused.
        assert resolve_backend(None) is kernels
        with pytest.raises(ValueError, match="kernel backends were removed"):
            resolve_backend("reference")


# ----------------------------------------------------------------------
# workspace arena
# ----------------------------------------------------------------------
class TestWorkspace:
    def test_same_slot_reuses_buffer(self):
        ws = Workspace()
        a = ws.get("v", 8)
        b = ws.get("v", 8)
        assert a is b
        stats = ws.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_shape_change_reallocates(self):
        ws = Workspace()
        a = ws.get("v", 8)
        b = ws.get("v", 16)
        assert a is not b and b.shape == (16,)
        assert ws.misses == 2

    def test_distinct_slots_distinct_buffers(self):
        ws = Workspace()
        assert ws.get("a", 8) is not ws.get("b", 8)

    def test_dtype_keys_are_separate(self):
        ws = Workspace()
        f = ws.get("v", 8)
        i = ws.get("v", 8, dtype=np.int64)
        assert f.dtype == np.float64 and i.dtype == np.int64
        assert f is not i

    def test_nbytes_and_clear(self):
        ws = Workspace()
        ws.get("v", 100)
        assert ws.nbytes == 800
        ws.clear()
        assert ws.nbytes == 0 and len(ws.slots) == 0


# ----------------------------------------------------------------------
# setup cache
# ----------------------------------------------------------------------
class TestSetupCache:
    def test_hit_on_identical_matrix(self):
        cache = SetupCache()
        a = poisson2d(8)
        fp = matrix_fingerprint(a)
        builds = []
        for _ in range(3):
            cache.get_or_build("ell", fp, (), lambda: builds.append(1) or "built")
        assert len(builds) == 1
        assert cache.stats()["hits"] == 2

    def test_fingerprint_distinguishes_values(self):
        a = poisson2d(8)
        b = poisson2d(8)
        assert matrix_fingerprint(a) == matrix_fingerprint(b)
        c = poisson2d(10)
        assert matrix_fingerprint(a) != matrix_fingerprint(c)

    def test_fingerprint_memoized_on_instance(self):
        a = poisson2d(8)
        assert matrix_fingerprint(a) is matrix_fingerprint(a)

    def test_unknown_type_bypasses_cache(self):
        cache = SetupCache()
        builds = []
        for _ in range(2):
            cache.get_or_build(
                "x", matrix_fingerprint(object()), (), lambda: builds.append(1)
            )
        assert len(builds) == 2
        assert cache.stats()["entries"] == 0

    def test_lru_eviction(self):
        cache = SetupCache(maxsize=2)
        a, b, c = poisson2d(4), poisson2d(6), poisson2d(8)
        for m in (a, b, c):
            cache.get_or_build("k", matrix_fingerprint(m), (), lambda: m.nnz)
        assert cache.stats()["evictions"] == 1
        # a (the oldest) was evicted; b and c still hit.
        hits_before = cache.stats()["hits"]
        cache.get_or_build("k", matrix_fingerprint(c), (), lambda: 0)
        assert cache.stats()["hits"] == hits_before + 1

    def test_global_cache_clear(self):
        clear_setup_cache()
        a = poisson2d(6)
        setup_cache().get_or_build("t", matrix_fingerprint(a), (), lambda: 1)
        assert setup_cache().stats()["entries"] == 1
        clear_setup_cache()
        assert setup_cache().stats()["entries"] == 0


# ----------------------------------------------------------------------
# front-door integration
# ----------------------------------------------------------------------
class TestSolveIntegration:
    def test_solve_refuses_workspace_keyword(self):
        from repro import solve

        # Each solve makes its own arena; there is no caller knob.
        a = poisson2d(12)
        b = np.ones(a.nrows)
        with pytest.raises(TypeError, match="workspace"):
            solve(a, b, "cg", workspace=Workspace())

    def test_backend_capable_methods_agree(self):
        from repro import solve

        a = poisson2d(12)
        b = np.ones(a.nrows)
        expect = np.linalg.solve(
            np.array([[a.matvec(e) for e in np.eye(a.nrows)]][0]).T, b
        )
        for method in ("cg", "vr", "pipelined-vr", "three-term", "cg-cg", "gv"):
            got = solve(a, b, method=method)
            assert got.converged, method
            np.testing.assert_allclose(got.x, expect, rtol=1e-6, atol=1e-8)

    def test_repeated_solves_share_precond_setup(self):
        from repro import solve

        clear_setup_cache()
        a = poisson2d(12)
        b = np.ones(a.nrows)
        solve(a, b, method="cg", precond="jacobi")
        before = setup_cache().stats()["hits"]
        solve(a, b, method="cg", precond="jacobi")
        assert setup_cache().stats()["hits"] == before + 1
        clear_setup_cache()
