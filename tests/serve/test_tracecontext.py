"""Request-correlated tracing through the service (the tentpole wire).

The differential claim: a coalesced dispatch runs ONE solve, yet every
iteration event, JSONL line, and span it produces can be attributed
back to the member requests -- batch trace id on the unit of work, a
member table mapping right-hand-side columns to request ids and
tenants.  The members are admitted in one event-loop step, so they
coalesce deterministically; no assertion depends on a race.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.serve import SolveRequest, SolverService
from repro.sparse import poisson2d
from repro.telemetry import JsonlSink, Telemetry
from repro.trace import Tracer

A = poisson2d(6)
N = A.nrows


def rhs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(N)


def run_coalesced(telemetry, tenants=("alice", "bob", "alice")):
    """Drive one 3-wide coalesced dispatch; returns the responses."""
    async def main():
        async with SolverService(telemetry=telemetry) as svc:
            return await asyncio.gather(
                *(
                    svc.submit(
                        SolveRequest(
                            a=A, b=rhs(j), tenant=tenant,
                            request_id=f"req-trace-{j}",
                        )
                    )
                    for j, tenant in enumerate(tenants)
                )
            )

    return asyncio.run(main())


def test_coalesced_solve_events_carry_batch_attribution():
    tele = Telemetry(tracer=Tracer())
    responses = run_coalesced(tele)
    assert [r.coalesce_width for r in responses] == [3, 3, 3]

    iterations = tele.events_of("iteration")
    assert iterations, "the batched solve narrated"
    payloads = [e.to_payload() for e in iterations]
    batch_ids = {p.get("trace_id") for p in payloads}
    assert len(batch_ids) == 1
    batch_id = batch_ids.pop()
    assert batch_id.startswith("batch-")

    # The member table maps every column back to its request + tenant.
    members = payloads[0]["members"]
    assert members == [
        ["req-trace-0", "req-trace-0", "alice", 0],
        ["req-trace-1", "req-trace-1", "bob", 1],
        ["req-trace-2", "req-trace-2", "alice", 2],
    ]
    assert payloads[0]["tenant"] == "batch"  # mixed tenants

    # Solve bracket events carry the same attribution as iterations.
    for kind in ("solve_start", "solve_end"):
        [event] = tele.events_of(kind)
        assert event.to_payload()["trace_id"] == batch_id

    # Service events are stamped per-request (event-loop side).
    service = [e.to_payload() for e in tele.events_of("service")]
    assert service, "admission decisions narrated"
    for payload in service:
        assert payload["trace_id"] == payload["request_id"]
        assert payload["tenant"] in ("alice", "bob")
    admitted = [p for p in service if p["action"] == "admitted"]
    assert {p["trace_id"] for p in admitted} == {
        "req-trace-0", "req-trace-1", "req-trace-2"
    }

    # The dispatch span adopted the batch trace id and its annotations.
    [span] = [
        s for s in tele.tracer.spans() if s.name == "request_batch"
    ]
    assert span.trace_id == batch_id
    assert span.attrs["width"] == 3
    assert span.attrs["tenants"] == "alice,bob"
    assert "req-trace-1" in span.attrs["request_ids"]
    assert span.span_id is not None
    # The inner solve span inherits the batch trace id.
    [solve_span] = span.find("solve")
    assert solve_span.trace_id == batch_id
    assert solve_span.parent_id == span.span_id


def test_jsonl_stream_is_greppable_by_request(tmp_path):
    path = tmp_path / "serve.jsonl"
    with Telemetry(JsonlSink(path)) as tele:
        run_coalesced(tele)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines, "the stream was written"

    # Every solver-side line carries the batch id + member table; the
    # grep story: filtering by a request id finds both its service
    # events AND the batched solve lines it rode.
    iter_lines = [l for l in lines if l["kind"] == "iteration"]
    assert iter_lines
    for line in iter_lines:
        assert line["trace_id"].startswith("batch-")
        assert ["req-trace-1", "req-trace-1", "bob", 1] in line["members"]

    hits = [
        l for l in lines
        if l.get("request_id") == "req-trace-1"
        or any("req-trace-1" in m for m in l.get("members", []))
    ]
    kinds = {l["kind"] for l in hits}
    assert "service" in kinds and "iteration" in kinds


def test_single_request_trace_id_is_the_request_id():
    tele = Telemetry(tracer=Tracer())

    async def main():
        async with SolverService(telemetry=tele) as svc:
            return await svc.submit(
                SolveRequest(a=A, b=rhs(0), tenant="carol",
                             request_id="req-solo")
            )

    response = asyncio.run(main())
    assert response.ok and response.coalesce_width == 1
    payloads = [e.to_payload() for e in tele.events_of("iteration")]
    assert payloads
    assert all(p["trace_id"] == "req-solo" for p in payloads)
    assert all(p["tenant"] == "carol" for p in payloads)
    [span] = [s for s in tele.tracer.spans() if s.name == "request"]
    assert span.trace_id == "req-solo"
    assert span.attrs["width"] == 1


def test_same_tenant_batch_keeps_the_tenant_name():
    tele = Telemetry()
    run_coalesced(tele, tenants=("dave", "dave", "dave"))
    payloads = [e.to_payload() for e in tele.events_of("iteration")]
    assert all(p["tenant"] == "dave" for p in payloads)


def test_worker_context_is_popped_between_dispatches():
    tele = Telemetry()

    async def main():
        async with SolverService(telemetry=tele) as svc:
            await svc.submit(SolveRequest(a=A, b=rhs(0), request_id="req-a"))
            await svc.submit(SolveRequest(a=A, b=rhs(1), request_id="req-b"))

    asyncio.run(main())
    by_trace: dict[str, int] = {}
    for event in tele.events_of("iteration"):
        tid = event.to_payload()["trace_id"]
        by_trace[tid] = by_trace.get(tid, 0) + 1
    # Two dispatches, two distinct attributions -- no context leaked
    # from the first solve into the second.
    assert set(by_trace) == {"req-a", "req-b"}
    assert all(count > 0 for count in by_trace.values())
