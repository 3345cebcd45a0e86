"""Library-workload process: set up, run the timed list, report.

Run by ``run.py``, one process per set-up launch; each launch runs one
slice of the timed list from its first operation::

    python3 perfbench/libload.py --size 32 --seed 1 --seconds 4
    python3 perfbench/libload.py --size 32 --seed 1 --seconds 10 --trace
    python3 perfbench/libload.py --size 32 --seed 1 --layers-only

It prints one ``ready`` JSON line when set-up is done (the parent times
the launch up to that line) and one ``result`` JSON line at the end.
Each operation is checked against the benchmark's own stencil after its
timed interval.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

import common


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", type=int, required=True, help="poisson2d grid side")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--columns", type=int, default=common.BATCH_COLUMNS,
                   help="right-hand sides per batched operation")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--layers-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import numpy as np

    import repro
    import repro.registry as registry

    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    a = repro.poisson2d(args.size)
    operator_s = time.perf_counter() - t0
    n = a.nrows

    if args.layers_only:
        import layers

        common.emit({"event": "result", "layers": layers.measure(a, args.seed)})
        return 0

    # Warm-up on inputs outside the list.  The first solve pays the lazy
    # scipy.sparse import in as_operator; vr and batched first calls are
    # warmed on a small grid, which loads the same code for a fraction of
    # a large grid's solve time.
    t0 = time.perf_counter()
    repro.solve(a, common.rhs(np, args.seed, -1, n), "cg")
    first_solve_s = time.perf_counter() - t0
    small = repro.poisson2d(8)
    repro.solve(small, common.rhs(np, args.seed, -2, small.nrows), "vr")
    repro.solve_batched(
        small, common.rhs(np, args.seed, -3, small.nrows, args.columns), "cg"
    )
    common.emit(
        {
            "event": "ready",
            "import_s": import_s,
            "operator_s": operator_s,
            "first_solve_s": first_solve_s,
        }
    )
    spans = saved = None
    if args.trace:
        import layers

        spans = common.Spans()
        saved = layers.wrap_solvers(spans)
    out = timed_list(np, registry, a, args.size, args.seed, args.seconds, args.columns, spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["setup_cache"] = repro.setup_cache().stats()
    if args.trace:
        layers.unwrap(saved)
        out["from_spans"] = layers.front_door_and_iteration_times(spans.records)
        out["layers"] = layers.measure(a, args.seed)
        if args.spans_out:
            spans.dump(Path(args.spans_out), workload_size=args.size)
    common.emit({"event": "result", **out})
    return 0


def timed_list(
    np, registry, a, m: int, seed: int, seconds: float, columns: int, spans
) -> dict:
    """Cycle the four classes for about ``seconds`` (see
    :class:`common.CycleClock`).

    Each operation's input is derived from ``(seed, index)`` before its
    timed interval starts; its check runs after the interval ends.  The
    returned ``wall_s`` leaves out that work of the benchmark's own, so
    throughput counts only the program's time.
    """
    n = a.nrows
    latencies: dict[str, list[float]] = {c: [] for c in common.CLASSES}
    iterations: dict[int, list[int]] = {}
    failures: list[str] = []
    attempted = 0
    harness_s = 0.0
    prev_cg = None
    clock = time.perf_counter
    cycles = common.CycleClock(seconds)
    i = 0
    while cycles.more(i):
        cls = common.op_class(i)
        t_in = clock()
        if cls == "batched":
            b = common.rhs(np, seed, i, n, columns)
        elif cls == "repeat":
            b = prev_cg
        else:
            b = common.rhs(np, seed, i, n)
        if spans is not None:
            spans.current_request = f"op-{i}"
        t0 = clock()
        if cls == "batched":
            res = registry.solve_batched(a, b, "cg")
        else:
            res = registry.solve(a, b, "vr" if cls == "vr" else "cg")
        t1 = clock()
        latencies[cls].append(t1 - t0)
        attempted += 1
        if cls == "batched":
            cols = [res.column(j) for j in range(b.shape[1])]
            pairs = [(b[:, j], c) for j, c in enumerate(cols)]
            iterations[i] = [int(c.iterations) for c in cols]
        else:
            pairs = [(b, res)]
            iterations[i] = [int(res.iterations)]
        if not all(
            r.converged and common.residual_ok(np, m, bj, r.x) for bj, r in pairs
        ):
            failures.append(f"op {i} ({cls}): unconverged or residual over bound")
        if cls == "cg":
            prev_cg = b
        i += 1
        harness_s += (t0 - t_in) + (clock() - t1)
    return {
        "latencies": latencies,
        "iterations": iterations,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "wall_s": cycles.elapsed() - harness_s,
    }


if __name__ == "__main__":
    sys.exit(main())
