"""A thin stdlib-asyncio HTTP front over :class:`SolverService`.

Four routes, JSON bodies, no third-party dependencies:

* ``POST /solve`` -- submit one solve against a server-registered
  operator; blocks until the response (served, shed, or error) and maps
  the outcome to an HTTP status (200 ok, 429 rate-limited, 503
  queue-full/draining, 500 solver error);
* ``POST /solve_batched`` -- submit a block of right-hand sides against
  one operator in a single round trip; the block is admitted atomically
  so compatible ``cg`` columns coalesce into one fused batched solve
  (columns of other methods run one by one), and the body carries one
  result record per column (the aggregate HTTP status is the worst
  per-column outcome: any error 500, else any shed 429/503, else 200);
* ``GET /healthz`` -- liveness + queue/served/shed counters as JSON;
  ``GET /healthz?detail=1`` additionally inlines the numerical-health
  summary from the session's
  :class:`~repro.trace.HealthMonitor` (status, worst recent solve,
  per-solve digests);
* ``GET /status`` -- the full operational snapshot
  (:meth:`SolverService.status`): queue depth and peak, per-tenant
  token buckets, recent request outcomes with trace ids, postmortem
  bundles written, health summaries;
* ``GET /metrics`` -- the service's
  :class:`~repro.trace.MetricsRegistry` in Prometheus text exposition
  format (0.0.4), scrapeable by any Prometheus.

The protocol support is deliberately minimal (HTTP/1.1, one request per
connection, ``Connection: close``): the front exists so ``curl`` and
load generators can hit the service, not to replace a real edge proxy.
A body is read only when its ``Content-Length`` is a plain decimal
(else 400) no larger than the widest admissible ``/solve_batched`` body
(else 413, before any of it is read, then a lingering close).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any
from urllib.parse import parse_qs

import numpy as np

from repro.core.stopping import StoppingCriterion
from repro.serve.service import SolveRequest, SolverService

__all__ = ["HttpFrontend", "run_server"]

_STATUS_LINES = {
    200: "200 OK",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    413: "413 Content Too Large",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}

#: Shed reason -> HTTP status: rate limiting is the client's fault (429),
#: queue pressure and drain are the server's state (503).
_SHED_STATUS = {"rate_limited": 429, "queue_full": 503, "draining": 503}

#: Body-size cap terms: JSON text per vector entry (a float64 repr,
#: ``-1.2345678901234567e-300``, is at most 24 bytes; the rest covers
#: its separator and pretty-printing indentation) and an allowance for
#: everything else in a body.
_BYTES_PER_ENTRY = 64
_BODY_OVERHEAD = 64 * 1024

#: How long an early 400/413 reply keeps discarding the unread body.
_LINGER_SECONDS = 2.0


class _BadRequest(Exception):
    """Client-side request problem; the message goes into the 400 body."""


class HttpFrontend:
    """Serve a :class:`SolverService` over HTTP on ``host:port``.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as :attr:`address` after :meth:`start`.
    """

    def __init__(
        self, service: SolverService, host: str = "127.0.0.1", port: int = 8780
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    async def aclose(self) -> None:
        """Stop accepting, then drain the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()

    async def __aenter__(self) -> "HttpFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # protocol plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._handle_request(reader)
        except Exception:  # noqa: BLE001 -- a broken socket must not kill the loop
            status, content_type, body = _json(500, {"error": "internal error"})
        try:
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {_STATUS_LINES[status]}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin1")
                + payload
            )
            await writer.drain()
            if status in (400, 413):
                # Lingering close (RFC 9112 section 9.6): closing with
                # request bytes unread makes the kernel reset the
                # connection, which can destroy this reply before the
                # client reads it.  Half-close, then drop input until
                # the client closes or the linger time is up.
                writer.write_eof()
                await asyncio.wait_for(_drop_input(reader), _LINGER_SECONDS)
        except (ConnectionError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, str, str]:
        request_line = (await reader.readline()).decode("latin1").strip()
        if not request_line:
            return _json(400, {"error": "empty request"})
        parts = request_line.split()
        if len(parts) < 2:
            return _json(
                400, {"error": f"malformed request line: {request_line!r}"}
            )
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            return _json(400, {"error": f"malformed Content-Length: {declared!r}"})
        length, limit = int(declared), self._body_limit()
        if limit is not None and length > limit:
            return _json(413, {
                "error": f"body of {length} bytes exceeds the {limit}-byte limit"
            })
        body = await reader.readexactly(length) if length > 0 else b""
        return await self._route(method, path, body)

    def _body_limit(self) -> int | None:
        """Largest body worth reading: a ``/solve_batched`` block as
        wide as the queue bound (wider blocks shed their extra columns)
        plus an ``x0`` option, against the largest registered operator.
        ``None`` (no cap) while an operator without a row count, such
        as a matrix-free callable, is registered."""
        service = self.service
        rows = [_nrows(service.operator(name)) for name in service.operators]
        if not all(rows):
            return None
        vectors = service.config.max_queue_depth + 1
        return vectors * max(rows, default=0) * _BYTES_PER_ENTRY + _BODY_OVERHEAD

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, str]:
        path, _, query = path.partition("?")
        params = parse_qs(query) if query else {}
        if path == "/healthz" and method == "GET":
            detail = params.get("detail", ["0"])[-1].lower()
            return _json(
                200, self._health(detail=detail not in ("", "0", "false"))
            )
        if path == "/status" and method == "GET":
            return _json(200, self.service.status())
        if path == "/metrics" and method == "GET":
            return (
                200,
                "text/plain; version=0.0.4",
                self.service.metrics.to_prometheus(),
            )
        if path in ("/solve", "/solve_batched"):
            if method != "POST":
                return _json(405, {"error": f"POST {path}"})
            handler = self._solve if path == "/solve" else self._solve_batched
            try:
                return await handler(body)
            except _BadRequest as exc:
                return _json(400, {"error": str(exc)})
            except KeyError as exc:
                return _json(404, {"error": str(exc).strip("'\"")})
        return _json(404, {"error": f"no route {method} {path}"})

    def _health(self, *, detail: bool = False) -> dict[str, Any]:
        service = self.service
        out: dict[str, Any] = {
            "status": "draining" if service.draining else "ok",
            "queue_depth": service.queue_depth,
            "submitted": service.submitted,
            "served": service.served,
            "shed": service.shed,
            "errors": service.errors,
            "operators": service.operators,
        }
        # Liveness stays liveness, but the numerical assessment is worth
        # one word even without ?detail=1.
        monitor = service.telemetry.health
        out["numerical_status"] = monitor.status
        if detail:
            out["health"] = monitor.summary()
        return out

    # ------------------------------------------------------------------
    # the solve route
    # ------------------------------------------------------------------
    async def _solve(self, body: bytes) -> tuple[int, str, str]:
        payload = self._parse_payload(body)
        a = self.service.operator(self._operator_name(payload))  # KeyError -> 404
        request = self._build_request(payload, a)
        response = await self.service.submit(request)
        out = self._response_record(
            response, return_x=bool(payload.get("return_x", False))
        )
        if response.shed:
            return _json(_SHED_STATUS.get(response.reason, 503), out)
        return _json(500 if response.status == "error" else 200, out)

    async def _solve_batched(self, body: bytes) -> tuple[int, str, str]:
        """One operator, many right-hand sides, one atomic admission.

        The per-column records mirror ``POST /solve`` responses exactly;
        the aggregate HTTP status is the worst column outcome so load
        generators and retry loops can branch on the status line alone.

        A caller-supplied ``request_id`` names the *batch*: each column
        gets the derived id ``{request_id}-{i}``.  Copying the one id
        into every column verbatim would make columns 2..N dedup onto
        column 1's in-flight future (``request_id`` is the idempotency
        key) and silently answer different right-hand sides with column
        1's solution.
        """
        payload = self._parse_payload(body)
        a = self.service.operator(self._operator_name(payload))  # KeyError -> 404
        bs_raw = payload.get("bs")
        if not isinstance(bs_raw, list) or not bs_raw:
            raise _BadRequest(
                '"bs" (list of right-hand-side rows) is required'
            )
        batch_id = payload.get("request_id")
        if batch_id is not None and (
            not isinstance(batch_id, str) or not batch_id
        ):
            raise _BadRequest('"request_id" must be a non-empty string')
        requests = []
        for i, row in enumerate(bs_raw):
            if not isinstance(row, list) or not row:
                raise _BadRequest(f'"bs"[{i}] must be a non-empty JSON array')
            column = {**payload, "b": row}
            if batch_id is not None:
                column["request_id"] = f"{batch_id}-{i}"
            requests.append(self._build_request(column, a))
        return_x = bool(payload.get("return_x", False))
        responses = await self.service.submit_batched(requests)
        results = [self._response_record(r, return_x=return_x) for r in responses]
        status = 200
        aggregate = "ok"
        for response in responses:
            if response.status == "error":
                status, aggregate = 500, "error"
                break
            if response.shed and status == 200:
                status = _SHED_STATUS.get(response.reason, 503)
                aggregate = "shed"
        out = {"status": aggregate, "count": len(results), "results": results}
        if batch_id is not None:
            out["request_id"] = batch_id
        return _json(status, out)

    def _parse_payload(self, body: bytes) -> dict[str, Any]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("body must be a JSON object")
        return payload

    def _operator_name(self, payload: dict[str, Any]) -> str:
        operator_name = payload.get("operator")
        if not isinstance(operator_name, str):
            raise _BadRequest('"operator" (registered operator name) is required')
        return operator_name

    def _response_record(
        self, response: Any, *, return_x: bool = False
    ) -> dict[str, Any]:
        """The JSON record for one served/shed/errored response."""
        out: dict[str, Any] = {
            "request_id": response.request_id,
            "trace_id": response.trace_id,
            "tenant": response.tenant,
            "status": response.status,
            "coalesce_width": response.coalesce_width,
            "queue_seconds": response.queue_seconds,
        }
        if response.shed or response.status == "error":
            out["reason"] = response.reason
            return out
        result = response.result
        out.update(
            {
                "method": result.method,
                "converged": bool(result.converged),
                "stop_reason": result.stop_reason.value,
                "iterations": int(result.iterations),
                "true_residual_norm": float(result.true_residual_norm),
                "warm_started": bool(response.warm_started),
            }
        )
        if return_x:
            out["x"] = [float(v) for v in np.asarray(result.x)]
        return out

    def _build_request(self, payload: dict[str, Any], a: Any) -> SolveRequest:
        b_raw = payload.get("b")
        if not isinstance(b_raw, list) or not b_raw:
            raise _BadRequest('"b" (right-hand side as a JSON array) is required')
        try:
            b = np.asarray(b_raw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(f'"b" is not numeric: {exc}') from None
        if b.ndim != 1:
            raise _BadRequest('"b" must be a flat array')
        n = _nrows(a)
        if n and b.shape[0] != n:
            raise _BadRequest(
                f'"b" has {b.shape[0]} entries, operator has {n} rows'
            )
        method = payload.get("method", "cg")
        if not isinstance(method, str):
            raise _BadRequest('"method" must be a string')
        stop = None
        if "rtol" in payload or "max_iter" in payload:
            try:
                stop = StoppingCriterion(
                    rtol=float(payload.get("rtol", 1e-8)),
                    max_iter=(
                        int(payload["max_iter"])
                        if payload.get("max_iter") is not None
                        else None
                    ),
                )
            except (TypeError, ValueError) as exc:
                raise _BadRequest(f"bad stopping parameters: {exc}") from None
        options = payload.get("options", {})
        if not isinstance(options, dict):
            raise _BadRequest('"options" must be a JSON object')
        fields: dict[str, Any] = {
            "a": a,
            "b": b,
            "method": method,
            "tenant": str(payload.get("tenant", "default")),
            "stop": stop,
            "options": dict(options),
        }
        request_id = payload.get("request_id")
        if request_id is not None:
            if not isinstance(request_id, str) or not request_id:
                raise _BadRequest('"request_id" must be a non-empty string')
            fields["request_id"] = request_id
        return SolveRequest(**fields)


def _json(status: int, payload: Any) -> tuple[int, str, str]:
    return status, "application/json", json.dumps(payload)


def _nrows(a: Any) -> int:
    return getattr(a, "nrows", None) or getattr(a, "shape", (0,))[0]


async def _drop_input(reader: asyncio.StreamReader) -> None:
    while await reader.read(1 << 16):
        pass


async def run_server(
    service: SolverService,
    host: str = "127.0.0.1",
    port: int = 8780,
    *,
    ready: asyncio.Event | None = None,
    shutdown: asyncio.Event | None = None,
) -> None:
    """Run the HTTP front until ``shutdown`` is set (or forever).

    The ``repro serve`` CLI drives this; tests pass both events to
    start/stop the server deterministically.
    """
    frontend = HttpFrontend(service, host, port)
    await frontend.start()
    if ready is not None:
        ready.set()
    try:
        if shutdown is not None:
            await shutdown.wait()
        else:  # pragma: no cover - interactive serve-forever path
            await asyncio.Event().wait()
    finally:
        await frontend.aclose()
