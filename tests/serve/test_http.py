"""The stdlib-asyncio HTTP front: routes, status mapping, end-to-end.

Every test binds an ephemeral port (``port=0``) and speaks raw
HTTP/1.1 over :func:`asyncio.open_connection` -- no client library, so
what is tested is exactly what ``curl`` would see.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np

from repro.serve import (
    HttpFrontend,
    ServiceConfig,
    SolverService,
    run_server,
)
from repro.sparse import poisson2d

from tests.serve.helpers import FakeClock, GatedOperator, reached, settle

A = poisson2d(6)
N = A.nrows


async def http(host, port, method, path, payload=None):
    """One raw HTTP/1.1 exchange; returns (status, parsed-or-text body)."""
    reader, writer = await asyncio.open_connection(host, port)
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header, _, tail = raw.decode().partition("\r\n\r\n")
    status = int(header.split()[1])
    content_type = ""
    for line in header.split("\r\n")[1:]:
        if line.lower().startswith("content-type:"):
            content_type = line.split(":", 1)[1].strip()
    if content_type.startswith("application/json"):
        return status, json.loads(tail)
    return status, tail


def service(**config_kwargs) -> SolverService:
    svc = SolverService(ServiceConfig(**config_kwargs))
    svc.register_operator("poisson", A)
    return svc


def test_solve_roundtrip():
    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            return await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N, "return_x": True},
            )

    status, body = asyncio.run(main())
    assert status == 200
    assert body["status"] == "ok"
    assert body["converged"] is True
    assert body["method"] == "cg"
    assert body["iterations"] > 0
    assert body["trace_id"] == body["request_id"]
    # The returned x actually solves the system.
    x = np.asarray(body["x"])
    assert np.linalg.norm(A.matvec(x) - np.ones(N)) <= 1e-6


def test_solve_echoes_identity_and_stopping():
    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            return await http(
                host, port, "POST", "/solve",
                {
                    "operator": "poisson",
                    "b": [1.0] * N,
                    "method": "vr",
                    "tenant": "alice",
                    "request_id": "req-http-1",
                    "rtol": 1e-6,
                    "max_iter": 3,
                },
            )

    status, body = asyncio.run(main())
    assert status == 200
    assert body["request_id"] == "req-http-1"
    assert body["tenant"] == "alice"
    assert body["method"] == "vr"
    assert body["iterations"] <= 3  # max_iter honored
    assert body["converged"] is False


def test_healthz_and_metrics():
    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N},
            )
            health = await http(host, port, "GET", "/healthz")
            metrics = await http(host, port, "GET", "/metrics")
        return health, metrics

    (hstatus, health), (mstatus, metrics) = asyncio.run(main())
    assert hstatus == 200
    assert health["status"] == "ok"
    assert health["served"] == 1
    assert health["operators"] == ["poisson"]
    assert mstatus == 200
    assert 'repro_serve_requests_total{status="ok"} 1' in metrics


def test_client_errors():
    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            results = {}
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n"
                b"Connection: close\r\n\r\nnot json!"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            results["bad_json"] = int(raw.decode().split()[1])
            results["no_operator"] = (await http(
                host, port, "POST", "/solve", {"b": [1.0] * N}
            ))[0]
            results["unknown_operator"] = (await http(
                host, port, "POST", "/solve",
                {"operator": "nope", "b": [1.0] * N},
            ))[0]
            results["missing_b"] = (await http(
                host, port, "POST", "/solve", {"operator": "poisson"}
            ))[0]
            results["wrong_length"] = (await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0, 2.0]},
            ))[0]
            results["bad_route"] = (await http(host, port, "GET", "/nope"))[0]
            results["bad_method"] = (await http(host, port, "GET", "/solve"))[0]
        return results

    results = asyncio.run(main())
    assert results["bad_json"] == 400
    assert results["no_operator"] == 400
    assert results["unknown_operator"] == 404
    assert results["missing_b"] == 400
    assert results["wrong_length"] == 400
    assert results["bad_route"] == 404
    assert results["bad_method"] == 405


async def raw_exchange(host, port, head: bytes, body: bytes = b""):
    """Send hand-written request bytes, half-close, return (status, json).

    The half-close turns a server that waits for an unsent body into an
    immediate EOF rather than a hang."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(head + body)
    writer.write_eof()
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header, _, tail = raw.decode().partition("\r\n\r\n")
    return int(header.split()[1]), json.loads(tail)


def solve_head(content_length: str) -> bytes:
    return (
        "POST /solve HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {content_length}\r\nConnection: close\r\n\r\n"
    ).encode("latin1")


def test_malformed_content_length_is_400():
    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            return [
                await raw_exchange(host, port, solve_head(value))
                for value in ("abc", "-5", "1e3", "", "²")
            ]

    for status, body in asyncio.run(main()):
        assert status == 400
        assert "Content-Length" in body["error"]


def test_oversized_body_is_413_before_it_is_read():
    # The cap is the widest admissible /solve_batched body: as many
    # columns as max_queue_depth, plus an x0, against the largest
    # registered operator.
    padded = json.dumps({"operator": "poisson", "b": [1.0] * N}).encode()
    padded = padded.ljust(100_000)

    async def main():
        async with HttpFrontend(service(max_queue_depth=2), port=0) as front:
            host, port = front.address
            # 1 GB declared, nothing sent: answered without reading.
            huge = await raw_exchange(host, port, solve_head(str(10**9)))
            over = await raw_exchange(host, port, solve_head(str(len(padded))))
            front.service.register_operator("big", poisson2d(40))
            within = await raw_exchange(
                host, port, solve_head(str(len(padded))), padded
            )
        return huge, over, within

    huge, over, within = asyncio.run(main())
    assert huge[0] == 413 and "limit" in huge[1]["error"]
    assert over[0] == 413
    assert within[0] == 200 and within[1]["status"] == "ok"


def test_pretty_printed_full_width_batch_is_read():
    # max_queue_depth columns, indented JSON, 24-character float reprs:
    # about 38 bytes per entry, all of it under the cap.
    a = poisson2d(32)
    bs = np.random.default_rng(3).standard_normal((16, a.nrows)) * 1e100
    body = json.dumps(
        {"operator": "big", "bs": bs.tolist()}, indent=4
    ).encode()

    async def main():
        svc = SolverService(ServiceConfig(max_queue_depth=16))
        svc.register_operator("big", a)
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address
            head = solve_head(str(len(body))).replace(
                b"/solve ", b"/solve_batched "
            )
            return await raw_exchange(host, port, head, body)

    status, out = asyncio.run(main())
    assert len(body) > 16 * a.nrows * 36
    assert status == 200 and out["count"] == 16


def test_matrix_free_operator_lifts_the_body_cap():
    # A bare callable has no row count, so no cap can be derived for
    # it: its bodies are read whatever their size.
    padded = json.dumps({"operator": "matfree", "b": [1.0] * N}).encode()
    padded = padded.ljust(100_000)

    async def main():
        svc = service(max_queue_depth=1)
        svc.register_operator("matfree", lambda x: A.matvec(x))
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address
            return await raw_exchange(
                host, port, solve_head(str(len(padded))), padded
            )

    status, out = asyncio.run(main())
    assert status == 200 and out["status"] == "ok"


def test_early_413_reaches_a_client_that_sends_its_body_first():
    # Like most client libraries, this client writes its whole body
    # before it reads.  The body is far over the cap and larger than
    # the socket buffers, so the server must keep reading (and
    # dropping) it after the 413 for the client's write to finish.
    body = b" " * (16 * 1024 * 1024)

    async def main():
        async with HttpFrontend(service(max_queue_depth=1), port=0) as front:
            host, port = front.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(solve_head(str(len(body))) + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw

    header, _, tail = asyncio.run(main()).decode().partition("\r\n\r\n")
    assert int(header.split()[1]) == 413
    assert "limit" in json.loads(tail)["error"]


def test_rate_limited_maps_to_429():
    clock = FakeClock()

    async def main():
        svc = service(tenant_rate=1.0, tenant_burst=1.0, clock=clock)
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address
            first = await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N},
            )
            second = await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N},
            )
        return first, second

    (s1, _), (s2, body2) = asyncio.run(main())
    assert s1 == 200
    assert s2 == 429
    assert body2["status"] == "shed"
    assert body2["reason"] == "rate_limited"


def test_draining_maps_to_503():
    async def main():
        svc = service()
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address
            await svc.drain()  # service drains; the socket is still up
            status, body = await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N},
            )
            health = (await http(host, port, "GET", "/healthz"))[1]
        return status, body, health

    status, body, health = asyncio.run(main())
    assert status == 503
    assert body["reason"] == "draining"
    assert health["status"] == "draining"


def test_concurrent_http_requests_coalesce():
    hold, started = threading.Event(), threading.Event()

    async def main():
        svc = service()
        svc.register_operator(
            "held", GatedOperator("held", hold=hold, started=started)
        )
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address

            def post(j):
                return asyncio.create_task(http(
                    host, port, "POST", "/solve",
                    {"operator": "held", "b": list(np.eye(N)[j])},
                ))

            # The first solve holds the lane; the four clients that
            # arrive meanwhile park on its backlog.
            first = post(0)
            await reached(started)
            tasks = [post(j) for j in range(1, 5)]
            await settle(lambda: svc.queue_depth == 4)
            hold.set()
            await first
            return await asyncio.gather(*tasks)

    results = asyncio.run(main())
    assert all(status == 200 for status, _ in results)
    # Four independent HTTP clients rode one batched solve.
    assert [body["coalesce_width"] for _, body in results] == [4, 4, 4, 4]


def test_run_server_lifecycle():
    async def main():
        svc = service()
        ready = asyncio.Event()
        shutdown = asyncio.Event()
        server = asyncio.create_task(
            run_server(svc, port=0, ready=ready, shutdown=shutdown)
        )
        await ready.wait()
        # The CLI path binds a fixed port; under ready/shutdown events
        # the service is reachable until shutdown is set.
        assert not server.done()
        shutdown.set()
        await server
        return svc

    svc = asyncio.run(main())
    assert svc.draining


def test_status_route_reports_the_operational_snapshot():
    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N, "tenant": "alice"},
            )
            return await http(host, port, "GET", "/status")

    status, body = asyncio.run(main())
    assert status == 200
    assert body["served"] == 1 and body["queue_depth"] == 0
    assert body["operators"] == ["poisson"]
    [outcome] = body["recent"]
    assert outcome["tenant"] == "alice" and outcome["status"] == "ok"
    assert outcome["trace_id"] == outcome["request_id"]
    assert body["health"]["solves"] == 1
    assert body["postmortems_written"] == []


def test_healthz_detail_inlines_the_health_summary():
    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N},
            )
            plain = await http(host, port, "GET", "/healthz")
            detail = await http(host, port, "GET", "/healthz?detail=1")
        return plain, detail

    (pstatus, plain), (dstatus, detail) = asyncio.run(main())
    assert pstatus == dstatus == 200
    # The one-word assessment is always there; the full summary only
    # behind ?detail=1.
    assert plain["numerical_status"] == "ok"
    assert "health" not in plain
    assert detail["health"]["solves"] == 1
    assert detail["health"]["recent"][0]["converged"] is True


def test_metrics_route_exports_tenant_series():
    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N, "tenant": "alice"},
            )
            return await http(host, port, "GET", "/metrics")

    status, text = asyncio.run(main())
    assert status == 200
    assert (
        'repro_serve_tenant_requests_total{status="ok",tenant="alice"} 1'
        in text
    )


def test_solve_batched_roundtrip_matches_direct():
    from repro import solve_batched as direct_batched

    bs = [list(np.eye(N)[j]) for j in range(4)]

    async def main():
        async with HttpFrontend(service(), port=0) as front:
            host, port = front.address
            return await http(
                host, port, "POST", "/solve_batched",
                {"operator": "poisson", "bs": bs, "return_x": True},
            )

    status, body = asyncio.run(main())
    assert status == 200
    assert body["status"] == "ok"
    assert body["count"] == 4
    # One atomic admission: all four columns rode ONE fused dispatch.
    assert [r["coalesce_width"] for r in body["results"]] == [4] * 4
    assert all(r["converged"] for r in body["results"])
    # Bit-identical to calling solve_batched directly.
    reference = direct_batched(A, np.asarray(bs, dtype=np.float64).T, "cg")
    for j, record in enumerate(body["results"]):
        assert np.array_equal(np.asarray(record["x"]), reference.column(j).x)


def test_solve_batched_validation_and_status_mapping():
    async def main():
        svc = service()
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address
            results = {}
            results["missing_bs"] = await http(
                host, port, "POST", "/solve_batched", {"operator": "poisson"}
            )
            results["empty_bs"] = await http(
                host, port, "POST", "/solve_batched",
                {"operator": "poisson", "bs": []},
            )
            results["ragged_row"] = await http(
                host, port, "POST", "/solve_batched",
                {"operator": "poisson", "bs": [[1.0] * N, [1.0, 2.0]]},
            )
            results["unknown_operator"] = await http(
                host, port, "POST", "/solve_batched",
                {"operator": "nope", "bs": [[1.0] * N]},
            )
            results["bad_method_verb"] = await http(
                host, port, "GET", "/solve_batched"
            )
            # Per-column solver failure maps the aggregate to 500, with
            # each column's record carrying the reason.
            results["solver_error"] = await http(
                host, port, "POST", "/solve_batched",
                {
                    "operator": "poisson",
                    "bs": [[1.0] * N],
                    "options": {"bogus_option": True},
                },
            )
        return results

    results = asyncio.run(main())
    assert results["missing_bs"][0] == 400
    assert results["empty_bs"][0] == 400
    assert results["ragged_row"][0] == 400
    assert results["unknown_operator"][0] == 404
    assert results["bad_method_verb"][0] == 405
    status, body = results["solver_error"]
    assert status == 500
    assert body["status"] == "error"
    assert body["results"][0]["status"] == "error"
    assert body["results"][0]["reason"]


def test_solve_batched_shed_columns_map_to_shed_status():
    clock = FakeClock()

    async def main():
        # burst=2: the third column sheds individually while its two
        # siblings are served.
        svc = service(tenant_rate=1.0, tenant_burst=2.0, clock=clock)
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address
            return await http(
                host, port, "POST", "/solve_batched",
                {"operator": "poisson", "bs": [[1.0] * N] * 3},
            )

    status, body = asyncio.run(main())
    assert status == 429
    assert body["status"] == "shed"
    statuses = [r["status"] for r in body["results"]]
    assert statuses.count("ok") == 2 and statuses.count("shed") == 1
    shed = next(r for r in body["results"] if r["status"] == "shed")
    assert shed["reason"] == "rate_limited"


def test_solve_batched_client_request_id_names_batch_not_columns():
    # Regression: a batch payload carrying a client request_id must NOT
    # copy it into every column -- identical ids would make columns
    # 2..N dedup onto column 1's in-flight future and silently answer
    # different right-hand sides with column 1's solution.
    bs = [list(np.eye(N)[0]), list(np.eye(N)[1])]

    async def main():
        svc = service()
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address
            ok = await http(
                host, port, "POST", "/solve_batched",
                {
                    "operator": "poisson",
                    "bs": bs,
                    "request_id": "req-batch-7",
                    "return_x": True,
                },
            )
            bad = await http(
                host, port, "POST", "/solve_batched",
                {"operator": "poisson", "bs": bs, "request_id": ""},
            )
        return svc, ok, bad

    svc, (status, body), (bad_status, _) = asyncio.run(main())
    assert status == 200
    assert body["status"] == "ok"
    assert body["request_id"] == "req-batch-7"  # batch id echoed
    # Per-column ids are derived from the batch id, in column order.
    assert [r["request_id"] for r in body["results"]] == [
        "req-batch-7-0", "req-batch-7-1"
    ]
    # No column rode another's future: distinct right-hand sides got
    # distinct solutions and the dedup counter never ticked.
    assert svc.deduped == 0
    x0, x1 = (np.asarray(r["x"]) for r in body["results"])
    assert not np.array_equal(x0, x1)
    assert np.linalg.norm(A.matvec(x0) - np.asarray(bs[0])) <= 1e-6
    assert np.linalg.norm(A.matvec(x1) - np.asarray(bs[1])) <= 1e-6
    # The batch id is validated exactly like /solve's request_id.
    assert bad_status == 400


def test_solve_reports_warm_started():
    async def main():
        svc = service()
        async with HttpFrontend(svc, port=0) as front:
            host, port = front.address
            first = await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N},
            )
            second = await http(
                host, port, "POST", "/solve",
                {"operator": "poisson", "b": [1.0] * N},
            )
        return first, second

    (s1, b1), (s2, b2) = asyncio.run(main())
    assert s1 == s2 == 200
    assert b1["warm_started"] is False
    assert b2["warm_started"] is True
    assert b2["converged"] is True
