"""Helpers shared by the benchmark's processes.

Nothing here imports :mod:`repro`: the orchestrator, the solver workers,
the traced server and the tests all use these, and the correctness check
(:func:`laplacian_residual`) must not depend on the program it checks.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, NoReturn

#: Request classes, in the order every workload cycles through them.
CLASSES = ("cg", "vr", "repeat", "batched")
#: Columns of one ``batched`` operation (lib-large uses fewer, see run.py).
BATCH_COLUMNS = 8
#: Relative tolerance of every solve: the front door's default.
RTOL = 1e-8
#: Residual slack of the outside check, the same 100x ``verified_exit`` allows.
CHECK_SLACK = 100.0
#: Set-up launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Tail percentiles tried, highest first (see :func:`tail`).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


# ----------------------------------------------------------------------
# inputs and the outside correctness check
# ----------------------------------------------------------------------
def op_class(index: int) -> str:
    """The request class of operation ``index`` in the timed list."""
    return CLASSES[index % len(CLASSES)]


def rhs(np: Any, seed: int, index: int, n: int, columns: int = 0) -> Any:
    """Right-hand side(s) of operation ``index``: a pure function of the
    seed and the index, so every run and every process derives the same
    inputs however far its list gets.  Negative indices are warm-up."""
    rng = np.random.default_rng([seed, index + 1_000_000])
    if columns:
        return rng.standard_normal((n, columns))
    return rng.standard_normal(n)


def laplacian_residual(np: Any, m: int, b: Any, x: Any) -> float:
    """``‖b − A x‖`` for the 5-point Dirichlet Laplacian on an ``m × m``
    grid (diagonal 4, neighbours −1), computed from the stencil rather
    than from the program's matrix."""
    g = np.asarray(x, dtype=np.float64).reshape(m, m)
    ax = 4.0 * g
    ax[1:, :] -= g[:-1, :]
    ax[:-1, :] -= g[1:, :]
    ax[:, 1:] -= g[:, :-1]
    ax[:, :-1] -= g[:, 1:]
    return float(np.linalg.norm(np.asarray(b).ravel() - ax.ravel()))


def residual_ok(np: Any, m: int, b: Any, x: Any) -> bool:
    """The outside acceptance rule: ``‖b − Ax‖ ≤ 100·rtol·‖b‖``."""
    bound = CHECK_SLACK * RTOL * float(np.linalg.norm(b))
    return laplacian_residual(np, m, b, x) <= bound


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(
    values: list[float],
    ladder: tuple[float, ...] = TAIL_LADDER,
    beyond: int = TAIL_BEYOND,
) -> tuple[float, float, int] | None:
    """``(percentile, value, samples)`` for the highest percentile in
    ``ladder`` with at least ``beyond`` samples above it, or ``None``.

    Nearest-rank: the ``p``-th percentile of ``n`` sorted samples is the
    one at rank ``ceil(p/100·n)``, which leaves ``n − rank`` beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    for p in ladder:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1], n
    return None


def tail_name(prefix: str, percentile: float) -> str:
    return f"{prefix}.p{percentile:g}"


class CycleClock:
    """When a timed list may stop: only at a cycle start, so every class
    gets the same number of operations, and at the start nearest to
    ``seconds`` -- a cycle is not begun if less than half of one (as long
    as the last) would fit.  At least one cycle always runs."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = self.cycle_start = time.perf_counter()
        self.last_cycle = 0.0

    def more(self, index: int) -> bool:
        if index % len(CLASSES):
            return True
        now = time.perf_counter()
        if index:
            self.last_cycle = now - self.cycle_start
        self.cycle_start = now
        return now - self.start + self.last_cycle / 2 < self.seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


# ----------------------------------------------------------------------
# the host block
# ----------------------------------------------------------------------
def parse_proc_stat(text: str) -> tuple[int, int]:
    """``(total, steal)`` jiffies from the aggregate ``cpu`` line of
    ``/proc/stat``.  Guest time is already inside user/nice, so the total
    is the first eight fields: user nice system idle iowait irq softirq
    steal."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            fields = [int(v) for v in line.split()[1:9]]
            steal = fields[7] if len(fields) > 7 else 0
            return sum(fields), steal
    raise ValueError("no aggregate 'cpu' line in /proc/stat text")


def steal_fraction(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of three)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return median(times)


def blas_info(np: Any) -> dict[str, Any]:
    """numpy's BLAS name, version and live thread count."""
    info: dict[str, Any] = {"blas": "unknown", "blas_version": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name", "unknown")
        info["blas_version"] = blas.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        pass
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    import ctypes

    try:
        maps = _read("/proc/self/maps")
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class HostBlock:
    """What the host was doing during one run: recorded, printed beside
    the run, and never used to drop, retry or rescale it."""

    def __init__(self) -> None:
        self.stat0 = parse_proc_stat(_read("/proc/stat"))
        self.load0 = _read("/proc/loadavg").split()[:3]
        self.calib0 = calibrate()

    def finish(self, np: Any) -> dict[str, Any]:
        calib1 = calibrate()
        stat1 = parse_proc_stat(_read("/proc/stat"))
        block = {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            **blas_info(np),
            "loadavg_start": self.load0,
            "loadavg_end": _read("/proc/loadavg").split()[:3],
            "steal_frac": steal_fraction(self.stat0, stat1),
            "calib_start_s": self.calib0,
            "calib_end_s": calib1,
            "calib_s": (self.calib0 + calib1) / 2.0,
        }
        return block


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder: name, start, end, parent, request id.

    Spans opened by synchronous calls nest through a per-thread stack;
    coroutine spans (:meth:`wrap_async`) stay off the stack, since
    coroutines interleave on one thread, and join their children through
    the request id instead.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        #: Request id for calls that carry none (set by the list loop).
        self.current_request: str | None = None

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, request_id: Any, parent: Any) -> dict[str, Any]:
        with self._lock:
            self._next += 1
            span = {
                "id": self._next,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "request_id": request_id,
            }
            self.records.append(span)
        return span

    @contextmanager
    def span(self, name: str, request_id: Any = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent["request_id"]
        if request_id is None:
            request_id = self.current_request
        span = self._new(name, request_id, parent["id"] if parent else None)
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        request_id_of: Callable[[tuple, dict], Any] | None = None,
        attrs_of: Callable[[Any], dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rid = request_id_of(args, kwargs) if request_id_of else None
            with self.span(name, rid) as span:
                out = fn(*args, **kwargs)
                if attrs_of is not None:
                    span.update(attrs_of(out))
                return out

        return wrapper

    def wrap_async(
        self,
        fn: Callable[..., Any],
        name: str,
        request_id_of: Callable[[tuple, dict], Any],
    ) -> Callable[..., Any]:
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._new(name, request_id_of(args, kwargs), None)
            try:
                return await fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()

        return wrapper

    def dump(self, path: Path, **extra: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            records = [dict(r) for r in self.records]
        path.write_text(json.dumps({"spans": records, **extra}), encoding="utf-8")


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def emit(line: Any) -> None:
    """One line of human-readable or JSON output, flushed."""
    if not isinstance(line, str):
        line = json.dumps(line, sort_keys=True)
    print(line, flush=True)


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> str:
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)
