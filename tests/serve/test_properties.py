"""Property tests over request interleavings.

Hypothesis drives randomized workloads -- mixed methods, tenants, queue
bounds, duplicate ids -- through the deterministically-scheduled service
and checks the invariants that make the front door trustworthy:

* **conservation**: every submission is accounted for exactly once,
  ``submitted == served + shed + errors + deduped`` -- nothing lost,
  nothing answered twice;
* **bounded queue**: the admitted-but-undispatched depth never exceeds
  ``max_queue_depth``, no matter the arrival pattern;
* **idempotency**: concurrent duplicates of one request id produce one
  solve and identical responses;
* **planning is a partition**: every request appears in exactly one
  dispatch group, groups are key-homogeneous and never over-wide.

The systems run tiny (8x8 Poisson) so hundreds of examples stay cheap.
"""

from __future__ import annotations

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServiceConfig, SolveRequest, SolverService
from repro.serve.coalescer import plan_batches
from repro.sparse import poisson1d

A = poisson1d(8)
N = A.nrows

# One workload entry: (method-or-single marker, tenant).
ENTRIES = st.tuples(
    st.sampled_from(["cg", "vr", "single"]),
    st.sampled_from(["alice", "bob"]),
)


def build_request(index: int, spec: tuple[str, str]) -> SolveRequest:
    kind, tenant = spec
    b = np.random.default_rng(index).standard_normal(N)
    if kind == "single":
        # x0 forces the single-solve path through the same queue.
        return SolveRequest(
            a=A, b=b, method="cg", tenant=tenant,
            options={"x0": np.zeros(N)},
        )
    return SolveRequest(a=A, b=b, method=kind, tenant=tenant)


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(ENTRIES, min_size=1, max_size=10),
    max_queue_depth=st.integers(min_value=1, max_value=8),
    max_width=st.integers(min_value=1, max_value=8),
    workers=st.sampled_from([1, 4]),
)
def test_conservation_and_bounded_queue(
    specs, max_queue_depth, max_width, workers
):
    # A one-thread pool and a four-thread pool: the invariants must
    # hold identically at every worker count.
    requests = [build_request(i, spec) for i, spec in enumerate(specs)]

    async def main():
        config = ServiceConfig(
            max_queue_depth=max_queue_depth,
            max_coalesce_width=max_width,
            workers=workers,
        )
        async with SolverService(config) as svc:
            # Every submission reaches its terminal pre-dispatch state
            # (on its lane's backlog, or already shed) in one event-loop
            # step, before any lane runner plans.
            responses = await asyncio.gather(*(svc.submit(r) for r in requests))
        return svc, responses

    svc, responses = asyncio.run(main())

    # Conservation: exactly one response per submission, every
    # submission in exactly one counter.
    assert len(responses) == len(requests)
    assert svc.submitted == len(requests)
    assert svc.submitted == svc.served + svc.shed + svc.errors + svc.deduped
    assert svc.errors == 0
    # Responses answer the requests they were asked about.
    for request, response in zip(requests, responses):
        assert response.request_id == request.request_id
        assert response.status in ("ok", "shed")
    # The queue bound held at every instant (peak is tracked at
    # admission time, the only place depth grows).
    assert svc.peak_queue_depth <= max_queue_depth
    # Coalesce width never exceeded the configured cap.
    assert all(r.coalesce_width <= max_width for r in responses)
    # Served responses carry a real solver result (whether a given
    # trajectory converges is the solver's contract, not the service's).
    for response in responses:
        if response.ok:
            assert response.result is not None
            assert response.result.iterations >= 0
            assert np.all(np.isfinite(response.result.x))


@settings(max_examples=15, deadline=None)
@given(duplicates=st.integers(min_value=2, max_value=6))
def test_concurrent_duplicate_ids_are_idempotent(duplicates):
    request = SolveRequest(
        a=A, b=np.ones(N), method="cg", request_id="req-idem"
    )

    async def main():
        async with SolverService() as svc:
            responses = await asyncio.gather(
                *(svc.submit(request) for _ in range(duplicates))
            )
        return svc, responses

    svc, responses = asyncio.run(main())
    # One solve ran; every duplicate rode it and saw the same response.
    assert svc.served == 1
    assert svc.deduped == duplicates - 1
    assert all(r is responses[0] for r in responses)
    assert responses[0].ok
    assert svc.submitted == svc.served + svc.shed + svc.errors + svc.deduped


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        min_size=0,
        max_size=30,
    ),
    max_width=st.integers(min_value=1, max_value=8),
)
def test_plan_batches_is_a_partition(keys, max_width):
    items = list(enumerate(keys))  # unique items carrying their key
    plan = plan_batches(items, key=lambda t: t[1], max_width=max_width)
    flat = [item for group in plan for item in group]
    # Partition: every item exactly once.
    assert sorted(flat) == sorted(items)
    for group in plan:
        assert 1 <= len(group) <= max_width
        group_keys = {k for _, k in group}
        # Key-homogeneous, and None never shares a group.
        assert len(group_keys) == 1
        if None in group_keys:
            assert len(group) == 1
    # Within-group arrival order is preserved.
    for group in plan:
        indices = [i for i, _ in group]
        assert indices == sorted(indices)
