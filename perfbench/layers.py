"""Per-layer measurements taken from outside the program.

Everything here runs in a process that has imported :mod:`repro`:

* :func:`wrap_solvers` puts span wrappers around the public solver entry
  points (the registry front door and the two core solvers);
* :func:`front_door_and_iteration_times` turns those spans into
  per-layer times;
* :func:`probe`, :func:`kernels`, :func:`powers_advance` and
  :func:`telemetry_overhead` time the core, kernel and telemetry layers
  on the workload's own operator and vectors, after the timed list.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

import common

#: Right-hand sides per method in the counting probe.
PROBE_SOLVES = 3
#: A dot call at least this long is a stall.
STALL_S = 1e-3


def _context_request_id(args: tuple, kwargs: dict) -> Any:
    """The request id(s) the serve layer attached to this solve's
    telemetry context, or ``None`` outside the service."""
    ctx = getattr(kwargs.get("telemetry"), "current_context", None)
    if ctx is None:
        return None
    if ctx.request_id is not None:
        return ctx.request_id
    return ",".join(row[1] for row in ctx.members)


def _iterations(result: Any) -> dict[str, Any]:
    return {"iterations": int(result.iterations)}


def wrap_solvers(spans: common.Spans) -> list[tuple[Any, str, Any]]:
    """Wrap ``repro.registry.solve``/``solve_batched`` and the cg/vr core
    solvers.  The registry and the service import these at call time, so
    module attributes are what they find.  Returns what
    :func:`unwrap` needs to restore the originals."""
    import repro.core.standard as standard
    import repro.core.vr_cg as vr_cg
    import repro.registry as registry

    targets = [
        (registry, "solve", "registry.solve", None),
        (registry, "solve_batched", "registry.solve_batched", None),
        (standard, "conjugate_gradient", "core.cg", _iterations),
        (vr_cg, "vr_conjugate_gradient", "core.vr", _iterations),
    ]
    saved = []
    for module, attr, name, attrs_of in targets:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(
            module,
            attr,
            spans.wrap(original, name, _context_request_id, attrs_of),
        )
    return saved


def unwrap(saved: list[tuple[Any, str, Any]]) -> None:
    for module, attr, original in saved:
        setattr(module, attr, original)


def front_door_and_iteration_times(
    spans: list[dict[str, Any]],
) -> dict[str, dict[str, list[float]]]:
    """Per method: front-door self time (``registry.solve`` minus the core
    solver call it made) and seconds per iteration of each core call
    that iterated (a warm start can converge in zero iterations)."""
    by_id = {s["id"]: s for s in spans}
    out: dict[str, dict[str, list[float]]] = {
        m: {"front_door_s": [], "s_per_iter": []} for m in ("cg", "vr")
    }
    for span in spans:
        if span["end"] is None or span["name"] not in ("core.cg", "core.vr"):
            continue
        method = span["name"].split(".", 1)[1]
        dur = span["end"] - span["start"]
        if span.get("iterations"):
            out[method]["s_per_iter"].append(dur / span["iterations"])
        parent = by_id.get(span["parent"])
        if parent is not None and parent["name"] == "registry.solve" and parent["end"]:
            out[method]["front_door_s"].append(
                (parent["end"] - parent["start"]) - dur
            )
    return out


def probe(a: Any, seed: int) -> dict[str, Any]:
    """Counted work of the first :data:`PROBE_SOLVES` cg and vr
    right-hand sides of the timed list, under ``repro.counting()``.
    Every figure here is a count, so it repeats exactly for one seed."""
    import repro

    n = a.nrows
    out: dict[str, Any] = {}
    for method, first in (("cg", 0), ("vr", 1)):
        iters = 0
        replacements = 0
        with repro.counting() as c:
            for j in range(PROBE_SOLVES):
                index = first + j * len(common.CLASSES)
                b = common.rhs(np, seed, index, n)
                result = repro.solve(a, b, method)
                iters += result.iterations
                replacements += result.extras.get("recoveries", {}).get("replace", 0)
        matvec_words = c.matvecs * (2 * a.nnz + 2 * n)
        axpy_words = c.words_moved - 2 * n * c.dots - matvec_words
        out[method] = {
            "iterations": iters / PROBE_SOLVES,
            "replacements": replacements / PROBE_SOLVES,
            "matvecs": c.matvecs / iters,
            "dots": c.dots / iters,
            "axpys": c.axpys / iters,
            "words": c.words_moved / iters,
            "bytes": c.bytes_moved / iters,
            # Length-n kernel equivalents, for the layer-sum prediction:
            # a vr block update over k+2 rows counts as k+2 axpys here.
            "axpy_equiv": axpy_words / (3 * n) / iters,
        }
    return out


def _per_call(fn: Any, budget_s: float = 0.4, max_reps: int = 20_000) -> list[float]:
    times = []
    clock = time.perf_counter
    deadline = clock() + budget_s
    while len(times) < max_reps and (len(times) < 50 or clock() < deadline):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return times


def kernels(a: Any, seed: int) -> dict[str, Any]:
    """Per-call times of the kernels a cg iteration runs, called the way
    the solver calls them: the default backend's ``dot`` and in-place
    ``axpy``, and ``matvec_into`` through a workspace."""
    import repro
    from repro.sparse.linop import matvec_into

    n = a.nrows
    op = repro.as_operator(a)
    bk = repro.resolve_backend(None)
    ws = repro.Workspace()
    x = common.rhs(np, seed, 0, n)
    y = common.rhs(np, seed, 1, n)
    out = np.empty(n)
    with repro.counting() as c:
        matvec_into(op, x, out, work=ws)
    matvec_bytes = c.bytes_moved
    matvec = _per_call(lambda: matvec_into(op, x, out, work=ws))
    dots = _per_call(lambda: bk.dot(x, y))
    axpys = _per_call(lambda: bk.axpy(1e-3, x, y, out=y, work=ws))
    matvec_s = common.median(matvec)
    return {
        "matvec_s": matvec_s,
        "matvec_bytes": matvec_bytes,
        "matvec_gbps": matvec_bytes / matvec_s / 1e9,
        "dot_s": common.median(dots),
        "dot_calls": len(dots),
        "dot_stall_frac": sum(t >= STALL_S for t in dots) / len(dots),
        "axpy_s": common.median(axpys),
    }


def powers_advance(a: Any, seed: int, k: int = 2) -> float:
    """Median seconds of ``PowerBlock.advance_r`` + ``advance_p`` at
    ``k``, as the vr loop calls them.  The scalars (0 and 0.5) keep the
    block bounded over many repetitions without changing the work."""
    import repro
    from repro.core.powers import PowerBlock

    op = repro.as_operator(a)
    ws = repro.Workspace()
    block = PowerBlock.startup(op, common.rhs(np, seed, 0, a.nrows), k)

    def step() -> None:
        block.advance_r(0.0, work=ws)
        block.advance_p(op, 0.5, work=ws)

    return common.median(_per_call(step))


def telemetry_overhead(seed: int, pairs: int = 15) -> dict[str, float]:
    """``solve()`` under the telemetry session a default
    ``SolverService`` builds, against no session, on ``poisson2d(32)``:
    median with over median without, minus one.  Interleaved pairs."""
    import repro

    a = repro.poisson2d(32)
    session = repro.SolverService(repro.ServiceConfig()).telemetry
    out = {}
    for method, index in (("cg", 0), ("vr", 1)):
        b = common.rhs(np, seed, index, a.nrows)
        repro.solve(a, b, method, telemetry=session)
        bare, traced = [], []
        for _ in range(pairs):
            t0 = time.perf_counter()
            repro.solve(a, b, method)
            t1 = time.perf_counter()
            repro.solve(a, b, method, telemetry=session)
            t2 = time.perf_counter()
            bare.append(t1 - t0)
            traced.append(t2 - t1)
        out[method] = common.median(traced) / common.median(bare) - 1.0
    return out


def predicted_kernel_s(counted: dict[str, Any], k: dict[str, Any]) -> float:
    """Kernel time per iteration predicted from counts × per-call time."""
    return (
        counted["matvecs"] * k["matvec_s"]
        + counted["dots"] * k["dot_s"]
        + counted["axpy_equiv"] * k["axpy_s"]
    )


def measure(a: Any, seed: int) -> dict[str, Any]:
    """Every after-the-list layer measurement of one workload."""
    import repro

    counted = probe(a, seed)
    k = kernels(a, seed)
    return {
        "probe": counted,
        "kernels": k,
        "powers_advance_s": powers_advance(a, seed),
        "telemetry_overhead": telemetry_overhead(seed),
        "setup_cache": repro.setup_cache().stats(),
        "predicted_kernel_s": {
            method: predicted_kernel_s(counted[method], k) for method in ("cg", "vr")
        },
    }
