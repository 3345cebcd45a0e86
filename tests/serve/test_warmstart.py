"""Warm-start honesty: verified hits, poisoned-entry fallback, parity.

The cross-request warm start is a correctness-critical cache: a wrong
*miss* costs iterations, a wrong *hit* would cost a wrong answer.  These
tests pin the honesty contract from both ends:

* a warm-started response reaches the same independently-verified true
  residual a cold start does (differential);
* a warm hit is served only when the warm solve converged under the
  solver's exit rule -- an unconverged one is rejected and re-solved
  cold (the exit rule itself is pinned registry-wide in
  ``tests/test_exit_rule.py``);
* poisoned cache entries (wrong shape, wrong dtype, non-finite values
  -- a fingerprint collision or a corrupted store) fall back cold
  instead of erroring;
* batched dispatches store converged columns but never consume seeds,
  preserving the bit-identical-to-direct-batched guarantee.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.results import StopReason
from repro.core.stopping import StoppingCriterion
from repro.serve import ServiceConfig, SolveRequest, SolverService
from repro.serve.warmstart import WarmStartCache
from repro.sparse import poisson2d

A = poisson2d(6)
N = A.nrows
STOP = StoppingCriterion(rtol=1e-8)


def rhs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(N)


def true_residual(b: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(b - A.matvec(np.asarray(x))))


class TestCacheUnit:
    def test_lookup_roundtrip_and_lru(self):
        cache = WarmStartCache(capacity=2)
        b0, b1, b2 = rhs(0), rhs(1), rhs(2)
        x = np.ones(N)
        cache.store("k", b0, x)
        cache.store("k", b1, x)
        assert np.array_equal(cache.lookup("k", b0), x)
        cache.store("k", b2, x)  # evicts b1 (b0 was refreshed by the hit)
        assert cache.lookup("k", b1) is None
        assert np.array_equal(cache.lookup("k", b0), x)
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evicted"] == 1
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_copies_isolate_cache_from_caller(self):
        cache = WarmStartCache()
        b, x = rhs(0), np.ones(N)
        cache.store("k", b, x)
        x[:] = 7.0  # mutating the stored array must not reach the cache
        out = cache.lookup("k", b)
        assert np.array_equal(out, np.ones(N))
        out[:] = 9.0  # nor may mutating a returned hit
        assert np.array_equal(cache.lookup("k", b), np.ones(N))

    def test_key_includes_rhs_bytes_and_compat_key(self):
        cache = WarmStartCache()
        b = rhs(0)
        cache.store("k", b, np.ones(N))
        assert cache.lookup("other-key", b) is None
        assert cache.lookup("k", b + 1e-16) is None  # bytes-exact only
        assert cache.lookup("k", b) is not None

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones(N + 1),                      # wrong shape
            np.ones(N, dtype=np.float32),        # wrong dtype
            np.full(N, np.nan),                  # non-finite values
            np.ones((N, 1)),                     # wrong rank
        ],
        ids=["shape", "dtype", "nonfinite", "rank"],
    )
    def test_poisoned_entries_are_dropped_not_served(self, bad):
        cache = WarmStartCache()
        b = rhs(0)
        cache.store("k", b, bad)
        assert cache.lookup("k", b) is None
        assert cache.stats()["poisoned"] == 1
        assert len(cache) == 0  # dropped, not retried forever

    def test_reject_drops_the_entry(self):
        cache = WarmStartCache()
        b = rhs(0)
        cache.store("k", b, np.ones(N))
        cache.reject("k", b)
        assert len(cache) == 0
        assert cache.stats()["rejected"] == 1

    def test_capacity_zero_disables(self):
        cache = WarmStartCache(capacity=0)
        assert not cache.enabled
        cache.store("k", rhs(0), np.ones(N))
        assert len(cache) == 0
        assert cache.lookup("k", rhs(0)) is None
        assert cache.stats()["misses"] == 0  # disabled, not "missing"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            WarmStartCache(capacity=-1)


def run(coro):
    return asyncio.run(coro)


class TestServiceWarmStart:
    def test_repeat_solve_warm_starts_and_matches_cold(self):
        b = rhs(3)

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                cold = await svc.submit(SolveRequest(a=A, b=b, stop=STOP))
                warm = await svc.submit(SolveRequest(a=A, b=b, stop=STOP))
            return svc, cold, warm

        svc, cold, warm = run(main())
        assert cold.ok and not cold.warm_started
        assert warm.ok and warm.warm_started
        assert cold.result.converged and warm.result.converged
        # Differential honesty: the warm answer satisfies the SAME
        # independently recomputed true-residual bound the cold one does.
        threshold = STOP.threshold(float(np.linalg.norm(b)))
        assert true_residual(b, cold.result.x) <= threshold
        assert true_residual(b, warm.result.x) <= 100.0 * threshold
        # Seeding from the converged answer cannot cost iterations.
        assert warm.result.iterations <= cold.result.iterations
        stats = svc.warmstart.stats()
        assert stats["stores"] == 1 and stats["hits"] == 1

    def test_failed_verification_falls_back_cold(self, monkeypatch):
        import repro.registry as registry

        b = rhs(5)
        real_solve = registry.solve

        def unconverged_when_warm(*args, **kwargs):
            # Seeded solves come back as if their true residual had
            # missed the exit rule's bound.
            result = real_solve(*args, **kwargs)
            if kwargs.get("x0") is not None:
                result.converged = False
                result.stop_reason = StopReason.BREAKDOWN
            return result

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                await svc.submit(SolveRequest(a=A, b=b))
                assert len(svc.warmstart) == 1
                # Every warm solve now fails its exit rule: the service
                # must answer from a cold start and drop the seed.
                monkeypatch.setattr(registry, "solve", unconverged_when_warm)
                warm = await svc.submit(SolveRequest(a=A, b=b))
            return svc, warm

        svc, warm = run(main())
        assert warm.ok and not warm.warm_started
        assert warm.result.converged
        stats = svc.warmstart.stats()
        assert stats["rejected"] == 1
        # The untrusted seed is gone; the entry present is the fresh
        # cold solve's own converged answer, re-stored on the way out.
        assert stats["stores"] == 2 and stats["entries"] == 1

    def test_poisoned_cache_entry_solves_cold_not_error(self):
        b = rhs(6)

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                await svc.submit(SolveRequest(a=A, b=b))
                # Corrupt the stored solution in place: wrong shape, as a
                # fingerprint collision would produce.
                [entry] = svc.warmstart._entries.values()
                entry.x = np.ones(N + 3)
                after = await svc.submit(SolveRequest(a=A, b=b))
            return svc, after

        svc, after = run(main())
        assert after.ok and not after.warm_started
        assert after.result.converged
        assert svc.warmstart.stats()["poisoned"] == 1
        assert svc.errors == 0

    def test_nonfinite_seed_solves_cold_not_error(self):
        b = rhs(7)

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                await svc.submit(SolveRequest(a=A, b=b))
                [entry] = svc.warmstart._entries.values()
                entry.x = np.full(N, np.nan)  # right shape, poison values
                after = await svc.submit(SolveRequest(a=A, b=b))
            return svc, after

        svc, after = run(main())
        # solve() refuses a non-finite x0 outright; the cache validation
        # catches it first and the request is served cold regardless.
        assert after.ok and not after.warm_started
        assert after.result.converged
        assert svc.errors == 0

    def test_batched_dispatch_stores_but_never_consumes(self):
        b = rhs(8)

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                # Prime the cache via a width-1 solve...
                pre = await svc.submit(SolveRequest(a=A, b=b))
                # ...then coalesce two requests, one repeating b exactly.
                r1, r2 = await asyncio.gather(
                    svc.submit(SolveRequest(a=A, b=b)),
                    svc.submit(SolveRequest(a=A, b=rhs(9))),
                )
                # A later single repeat of the sibling's b warm-starts
                # from the column the batch stored.
                single = await svc.submit(SolveRequest(a=A, b=rhs(9)))
            return svc, pre, r1, r2, single

        svc, pre, r1, r2, single = run(main())
        assert r1.coalesce_width == 2 and r2.coalesce_width == 2
        # Coalesced members never consume seeds, even on a cache hit --
        # injecting x0 would break bit-identical-to-direct-batched.
        assert not r1.warm_started and not r2.warm_started
        assert single.ok and single.warm_started

    def test_batched_results_stay_bit_identical_with_warm_cache(self):
        from repro import solve_batched as direct_batched

        bs = [rhs(10), rhs(11), rhs(12)]

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                # Prime the cache with every column, then coalesce all
                # three: the batch must ignore the seeds entirely.
                for b in bs:
                    await svc.submit(SolveRequest(a=A, b=b))
                return await asyncio.gather(
                    *(svc.submit(SolveRequest(a=A, b=b)) for b in bs)
                )

        responses = run(main())
        assert [r.coalesce_width for r in responses] == [3, 3, 3]
        reference = direct_batched(A, np.stack(bs, axis=1), "cg")
        for j, response in enumerate(responses):
            assert np.array_equal(response.result.x, reference.column(j).x)

    def test_x0_option_and_unwarmstartable_methods_bypass(self):
        b = rhs(13)

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                await svc.submit(SolveRequest(a=A, b=b))
                explicit = await svc.submit(
                    SolveRequest(a=A, b=b, options={"x0": np.zeros(N)})
                )
                sstep = [
                    await svc.submit(SolveRequest(a=A, b=b, method="sstep"))
                    for _ in range(2)
                ]
                three_term = [
                    await svc.submit(
                        SolveRequest(a=A, b=b, method="three-term")
                    )
                    for _ in range(2)
                ]
            return svc, explicit, sstep, three_term

        svc, explicit, sstep, three_term = run(main())
        # A caller-supplied x0 wins unconditionally; a method outside
        # warmstartable_methods() (sstep takes no x0) never touches the
        # cache, while any x0-capable method warm-starts a repeat.
        assert explicit.ok and not explicit.warm_started
        assert all(r.ok and not r.warm_started for r in sstep)
        assert three_term[0].ok and not three_term[0].warm_started
        assert three_term[1].ok and three_term[1].warm_started

    def test_repeated_vr_request_warm_starts(self):
        b = rhs(16)

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                cold = await svc.submit(SolveRequest(a=A, b=b, method="vr"))
                warm = await svc.submit(SolveRequest(a=A, b=b, method="vr"))
            return svc, cold, warm

        svc, cold, warm = run(main())
        assert cold.ok and not cold.warm_started
        assert warm.ok and warm.warm_started
        assert warm.result.converged
        assert warm.result.iterations <= cold.result.iterations
        assert svc.warmstart.stats()["hits"] == 1

    def test_capacity_zero_service_never_warm_starts(self):
        b = rhs(14)

        async def main():
            config = ServiceConfig(warm_start=0)
            async with SolverService(config) as svc:
                first = await svc.submit(SolveRequest(a=A, b=b))
                second = await svc.submit(SolveRequest(a=A, b=b))
            return svc, first, second

        svc, first, second = run(main())
        assert first.ok and second.ok
        assert not first.warm_started and not second.warm_started
        assert len(svc.warmstart) == 0

    def test_warmstart_metrics_exported(self):
        b = rhs(15)

        async def main():
            async with SolverService(ServiceConfig()) as svc:
                await svc.submit(SolveRequest(a=A, b=b))
                await svc.submit(SolveRequest(a=A, b=b))
            return svc

        svc = run(main())
        text = svc.metrics.to_prometheus()
        assert 'repro_serve_warmstart_total{outcome="stored"} 1' in text
        assert 'repro_serve_warmstart_total{outcome="hit"} 1' in text
