"""The serve-http workload's client side: server processes, pre-encoded
requests, one closed-loop connection, and the outside checks.

The server is ``python3 -m repro serve`` with default flags (only the
operator and a free port are given), or ``traced_server.py`` for the
traced run.  HTTP/1.1 with ``Connection: close`` is what the server
speaks, so each request opens its own TCP connection; the client sends
the next request only after the previous response has fully arrived.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import common

GRID = 32
OPERATOR = "poisson2d"
SERVER_ARGS = ["--generate", OPERATOR, "--size", str(GRID)]
HERE = Path(__file__).resolve().parent
REQUEST_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def raw_request(path: str, body: bytes = b"", method: str = "POST") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin1") + body


def send(port: int, raw: bytes) -> tuple[float, int, bytes]:
    """``(seconds from send to last byte, status, body)``."""
    t0 = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as s:
        s.sendall(raw)
        chunks = []
        while True:
            chunk = s.recv(262144)
            if not chunk:
                break
            chunks.append(chunk)
    elapsed = time.perf_counter() - t0
    data = b"".join(chunks)
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head.startswith(b"HTTP/") else 0
    return elapsed, status, body


def get(port: int, path: str) -> bytes:
    _, status, body = send(port, raw_request(path, method="GET"))
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body


class Server:
    """One server process on a free port; stderr goes to ``log``."""

    def __init__(self, env: dict[str, str], log: Path, spans_out: Path | None = None):
        self.port = free_port()
        args = SERVER_ARGS + ["--port", str(self.port)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_server.py"), str(spans_out), *args]
        log.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log, "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=common.ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Poll ``/healthz``; seconds from spawn until it answered."""
        deadline = self.spawned + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                get(self.port, "/healthz")
                return time.perf_counter() - self.spawned
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server not ready in time") from None
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the traced server drains and writes its spans on it),
        then wait; kill only if it does not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def _body(rid: str, method: str, key: str, vec_json: str) -> bytes:
    return (
        f'{{"operator": "{OPERATOR}", "method": "{method}", "return_x": true, '
        f'"request_id": "{rid}", "{key}": {vec_json}}}'
    ).encode("ascii")


def build_ops(np: Any, seed: int, start: int, count: int) -> list[dict[str, Any]]:
    """Operations ``start .. start+count-1`` with their pre-encoded
    requests.  ``repeat`` re-sends the previous ``cg`` right-hand side
    byte for byte under its own request id, as a client retry would."""
    n = GRID * GRID
    ops = []
    prev = None
    for i in range(start, start + count):
        cls = common.op_class(i)
        rid = f"op-{i}" if i >= 0 else f"warm{i}"
        if cls == "batched":
            b = common.rhs(np, seed, i, n, common.BATCH_COLUMNS)
            body = _body(rid, "cg", "bs", json.dumps(b.T.tolist()))
            path = "/solve_batched"
        else:
            if cls == "repeat" and prev is not None:
                b, vec_json = prev
            else:
                b = common.rhs(np, seed, i, n)
                vec_json = json.dumps(b.tolist())
            if cls == "cg":
                prev = (b, vec_json)
            body = _body(rid, "vr" if cls == "vr" else "cg", "b", vec_json)
            path = "/solve"
        ops.append({"index": i, "cls": cls, "rid": rid, "b": b,
                    "raw": raw_request(path, body)})
    return ops


def warm_up(server: Server, np: Any, seed: int) -> dict[str, float]:
    """Two cycles of warm-up requests (inputs outside the list).  Returns
    the first ``/solve``'s latency and the second cycle's duration."""
    ops = build_ops(np, seed, -2 * len(common.CLASSES), 2 * len(common.CLASSES))
    times = []
    for op in ops:
        elapsed, status, _ = send(server.port, op["raw"])
        if status != 200:
            raise RuntimeError(f"warm-up {op['rid']} answered {status}")
        times.append(elapsed)
    k = len(common.CLASSES)
    return {"first_solve_s": times[0], "cycle_s": sum(times[k:])}


def run_list(port: int, ops: list[dict[str, Any]], seconds: float) -> dict[str, Any]:
    """Send ``ops`` in order, one at a time, for about ``seconds`` (see
    :class:`common.CycleClock`) or until the list ends.  Responses are
    kept raw and checked afterwards."""
    records = []
    clock = time.perf_counter
    cycles = common.CycleClock(seconds)
    for op in ops:
        if not cycles.more(op["index"]):
            break
        sent = clock()
        try:
            elapsed, status, body = send(port, op["raw"])
        except OSError as exc:  # a dropped connection is a failed request
            elapsed, status, body = clock() - sent, 0, str(exc).encode()
        records.append({"op": op, "sent": sent, "latency": elapsed, "status": status,
                        "body": body})
    return {"records": records, "wall_s": cycles.elapsed(),
            "exhausted": len(records) == len(ops)}


def check(np: Any, records: list[dict[str, Any]]) -> tuple[list[str], list[dict]]:
    """Outside checks of every response; returns failures and the parsed
    per-request summaries the layer metrics use."""
    failures = []
    parsed = []
    for rec in records:
        op = rec["op"]
        summary: dict[str, Any] = {"cls": op["cls"], "rid": op["rid"],
                                   "sent": rec["sent"], "latency": rec["latency"]}
        try:
            payload = json.loads(rec["body"])
        except ValueError:
            payload = {}
        results = payload.get("results") if op["cls"] == "batched" else [payload]
        columns = op["b"].T if op["cls"] == "batched" else [op["b"]]
        ok = (
            rec["status"] == 200
            and payload.get("status") == "ok"
            and isinstance(results, list)
            and len(results) == len(columns)
        )
        if ok:
            for b, res in zip(columns, results):
                x = res.get("x")
                if not (
                    res.get("status") == "ok"
                    and res.get("converged") is True
                    and isinstance(x, list)
                    and len(x) == b.shape[0]
                    and common.residual_ok(np, GRID, b, np.asarray(x))
                ):
                    ok = False
                    break
        if not ok:
            why = ("shed, unconverged or residual over bound"
                   if rec["status"] == 200 else f"HTTP status {rec['status']}")
            failures.append(f"{op['rid']} ({op['cls']}): {why}")
        else:
            first = results[0]
            summary.update(
                iterations=[int(r["iterations"]) for r in results],
                queue_s=float(first["queue_seconds"]),
                width=int(first["coalesce_width"]),
                warm=bool(first["warm_started"]),
            )
        parsed.append(summary)
    return failures, parsed


def json_seconds(records: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Per class, the time to decode each exact request body and encode
    its response (decoded from the exact response bytes first, untimed):
    the JSON work the server's front does per request."""
    out: dict[str, list[float]] = {c: [] for c in common.CLASSES}
    for rec in records:
        if rec["status"] != 200:
            continue
        request_body = rec["op"]["raw"].partition(b"\r\n\r\n")[2]
        response = json.loads(rec["body"])
        t0 = time.perf_counter()
        json.loads(request_body)
        json.dumps(response)
        out[rec["op"]["cls"]].append(time.perf_counter() - t0)
    return out
