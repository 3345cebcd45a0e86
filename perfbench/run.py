"""Benchmark entry point.

    python3 perfbench/run.py --workload lib-large --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``lib-large``  -- ``repro.solve()`` in-process on ``poisson2d(128)``;
* ``serve-http`` -- requests to a ``repro serve`` process on
  ``poisson2d(32)`` over one closed-loop connection.

Every workload cycles the classes cg, vr, repeat and batched.  With
``--trace 0`` the last line of stdout is the result JSON with the
end-to-end metrics; with ``--trace 1`` the run is split into an untraced
half and a traced half and the result JSON carries the per-layer
metrics.  Lines before it are the host block, tails, the layer-sum and
determinism checks, and (traced) the end-to-end numbers of both halves.
The exit code is non-zero if any operation failed its check or its
iteration counts were not repeated exactly (see :func:`merge` and
:func:`determinism`).  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import common

HERE = Path(__file__).resolve().parent
#: lib-large's grid side and batched width.  It batches 2 columns: 8
#: would be 70% of its run (2.2 s against 0.24 s for one cg solve) and
#: leave ten samples per class.
LIB_GRID, LIB_COLUMNS = 128, 2
WORKLOADS = ("lib-large", "serve-http")
#: Pre-encoded serve requests cover this many times the warm-up rate.
LIST_HEADROOM = 2.0
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(common.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _json_lines(text: str) -> list[dict[str, Any]]:
    return [json.loads(ln) for ln in text.splitlines() if ln.startswith("{")]


# ----------------------------------------------------------------------
# lib-large
# ----------------------------------------------------------------------
def lib_launch(grid: int, seed: int, extra: list[str]) -> tuple[float, dict, dict | None]:
    """One ``libload.py`` process: ``(setup_s, ready, result)``."""
    cmd = [sys.executable, str(HERE / "libload.py"), "--size", str(grid),
           "--seed", str(seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=common.ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    events = {e.get("event"): e for e in _json_lines(first + rest)}
    if proc.returncode != 0 or not events:
        common.fail(f"libload.py {' '.join(extra)} exited {proc.returncode}")
    return setup_s, events.get("ready", {}), events.get("result")


def merge(slices: list[dict[str, Any]]) -> dict[str, Any]:
    """Pool the slices of one timed list.  Every slice replays the list
    from operation 0 on a fresh process, so ``iterations`` keeps the
    first slice's counts and ``mismatches`` the operations whose counts
    differ in another slice; each such operation counts as failed."""
    out: dict[str, Any] = {
        "latencies": {c: [] for c in common.CLASSES},
        "iterations": dict(slices[0]["iterations"]),
        "mismatches": [],
        "attempted": 0,
        "failed": 0,
        "failures": [],
        "wall_s": 0.0,
        "peak_rss_mb": 0.0,
        "exhausted": False,
    }
    for s in slices:
        for c in common.CLASSES:
            out["latencies"][c] += s["latencies"][c]
        for i, its in s["iterations"].items():
            if out["iterations"].setdefault(i, its) != its:
                out["mismatches"].append(int(i))
        for key in ("attempted", "failed", "failures", "wall_s"):
            out[key] += s[key]
        out["peak_rss_mb"] = max(out["peak_rss_mb"], s["peak_rss_mb"])
        out["exhausted"] |= s.get("exhausted", False)
    differ = sorted(set(out["mismatches"]))
    out["failed"] += len(differ)
    out["failures"] += [f"op {i}: iteration counts differ between launches" for i in differ]
    return out


def lib_run(seed: int, seconds: float, launches: int) -> dict[str, Any]:
    """``launches`` solver processes, each set up and then running the
    list for ``seconds / launches``."""
    setups, slices = [], []
    for _ in range(launches):
        setup_s, ready, result = lib_launch(
            LIB_GRID, seed,
            ["--seconds", str(seconds / launches), "--columns", str(LIB_COLUMNS)],
        )
        setups.append({**ready, "setup_s": setup_s})
        slices.append(result)
    return {"setups": setups, "setup_cache": slices[-1]["setup_cache"], **merge(slices)}


def lib_traced(seed: int, seconds: float) -> dict[str, Any]:
    spans_out = common.OUT_DIR / f"spans-lib-large-{seed}.json"
    setup_s, ready, result = lib_launch(
        LIB_GRID, seed, ["--seconds", str(seconds), "--columns", str(LIB_COLUMNS), "--trace",
                         "--spans-out", str(spans_out)]
    )
    return {"setups": [{**ready, "setup_s": setup_s}], "setup_cache": result["setup_cache"],
            "layers": result["layers"], "from_spans": result["from_spans"], **merge([result])}


# ----------------------------------------------------------------------
# serve-http
# ----------------------------------------------------------------------
def serve_slice(
    np: Any, server: Any, seed: int, seconds: float, ops: list | None, traced: bool
) -> dict[str, Any]:
    """Set up one started server, then run the list on it for ``seconds``.
    ``ops`` is built here, while the server idles, if not given."""
    import httpload

    ready_s = server.wait_ready()
    warm = httpload.warm_up(server, np, seed)
    setup = {"setup_s": time.perf_counter() - server.spawned, "server_ready_s": ready_s, **warm}
    if ops is None:
        # Enough pre-encoded requests for LIST_HEADROOM times the warm-up
        # rate; JSON-encoding floats is slow, so this is sized, not fixed.
        cycles = math.ceil(seconds / warm["cycle_s"] * LIST_HEADROOM) + 1
        ops = httpload.build_ops(np, seed, 0, cycles * len(common.CLASSES))
    run = httpload.run_list(server.port, ops, seconds)
    status = json.loads(httpload.get(server.port, "/status"))
    metrics_text = httpload.get(server.port, "/metrics").decode()
    rss = server.peak_rss_mb()
    server.stop()
    failures, parsed = httpload.check(np, run["records"])
    return {
        "setup": setup,
        "ops": ops,
        "parsed": parsed,
        "json_s": httpload.json_seconds(run["records"]) if traced else None,
        "latencies": {c: [p["latency"] for p in parsed if p["cls"] == c]
                      for c in common.CLASSES},
        "iterations": {p["rid"].split("-")[1]: p["iterations"]
                       for p in parsed if "iterations" in p},
        "attempted": len(parsed),
        "failed": len(failures),
        "failures": failures,
        "wall_s": run["wall_s"],
        "exhausted": run["exhausted"],
        "peak_rss_mb": rss,
        "warm_start": status.get("warm_start", {}),
        "warmstart_counters": [ln for ln in metrics_text.splitlines()
                               if ln.startswith("repro_serve_warmstart_total")],
    }


def serve_session(
    np: Any, seed: int, seconds: float, launches: int, spans_out: Path | None = None
) -> dict[str, Any]:
    """``launches`` servers, each set up and then running the list for
    ``seconds / launches``; the one server is traced when ``spans_out``."""
    import httpload

    env = child_env()
    log = common.OUT_DIR / "server.log"
    slices = []
    ops = None
    for _ in range(launches):
        server = httpload.Server(env, log, spans_out)
        try:
            slices.append(serve_slice(np, server, seed, seconds / launches, ops,
                                      spans_out is not None))
        finally:
            server.stop()
        ops = slices[-1].pop("ops")
    out = {
        "setups": [s["setup"] for s in slices],
        "parsed": [p for s in slices for p in s["parsed"]],
        "json_s": slices[-1]["json_s"],
        "warm_start": {k: sum(s["warm_start"].get(k, 0) for s in slices)
                       for k in ("hits", "misses", "stores", "evicted", "rejected")},
        "warmstart_counters": slices[-1]["warmstart_counters"],
        **merge(slices),
    }
    if spans_out is not None:
        out["server_trace"] = json.loads(spans_out.read_text(encoding="utf-8"))
        # Client spans, on the same monotonic clock as the server's.
        client = [{"id": i, "name": f"client.{p['cls']}", "start": p["sent"],
                   "end": p["sent"] + p["latency"], "parent": None, "request_id": p["rid"]}
                  for i, p in enumerate(out["parsed"])]
        spans_out.with_name(spans_out.stem + "-client.json").write_text(
            json.dumps({"spans": client}), encoding="utf-8")
    return out


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the one list of metric names and units."""
    try:
        return json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        common.fail(f"cannot read BENCHMARK.json: {exc}")


def with_units(
    values: dict[str, float], declared: list[dict[str, Any]]
) -> dict[str, tuple[float, str]]:
    """The declared metrics, in declared order, with their units; a
    declared metric this run did not compute is an error."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def end_to_end(run: dict[str, Any]) -> dict[str, float]:
    lat = run["latencies"]
    return {
        "setup_s": common.median([s["setup_s"] for s in run["setups"]]),
        "peak_rss_mb": run["peak_rss_mb"],
        "throughput_per_s": (run["attempted"] - run["failed"]) / run["wall_s"],
        **{f"latency_s.{c}.p50": common.median(lat[c]) for c in common.CLASSES},
    }


def print_run(label: str, run: dict[str, Any]) -> None:
    """Counts, tails and the first iteration counts of one timed list."""
    common.emit(
        f"{label}: attempted={run['attempted']} failed={run['failed']} "
        f"wall_s={run['wall_s']:.4f}"
        + (" (request list exhausted before the time ran out)" if run.get("exhausted") else "")
    )
    for msg in run["failures"]:
        common.emit(f"{label}: FAILED {msg}")
    for cls in common.CLASSES:
        samples = run["latencies"][cls]
        t = common.tail(samples)
        name = f"tail.latency_s.{cls}"
        if t is None:
            common.emit(f"{label}: {name}: no percentile has {common.TAIL_BEYOND} "
                        f"samples beyond it (n={len(samples)})")
        else:
            common.emit(f"{label}: {common.tail_name(name, t[0])} = {t[1]:.6g} s (n={t[2]})")
    first = {i: run["iterations"][str(i)] for i in range(12) if str(i) in run["iterations"]}
    common.emit(f"{label}: iterations of operations 0-11 = {json.dumps(first)}")
    bad = sorted(set(run["mismatches"]))
    verdict = "ok" if not bad else f"MISMATCH at operations {bad[:10]}"
    common.emit(f"check.determinism.{label}: {verdict} (iteration counts of each "
                f"operation agree across the {len(run['setups'])} launches)")
    if "warm_start" in run:
        common.emit(f"{label}: warm_start = {json.dumps(run['warm_start'], sort_keys=True)}")
        for line in run["warmstart_counters"]:
            common.emit(f"{label}: /metrics of the last launch: {line}")


def _median_or_zero(values: list[float]) -> float:
    return common.median(values) if values else 0.0


def serve_layers(traced: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
    """serve.* metrics of the traced half, and layer-sum violations."""
    spans = traced["server_trace"]["spans"]

    def op_of(rid: str | None) -> str | None:
        return "-".join(rid.split(",")[0].split("-")[:2]) if rid else None

    submit: dict[str, float] = {}
    solve: dict[str, float] = {}
    for s in spans:
        if s["end"] is None:
            continue
        op = op_of(s["request_id"])
        dur = s["end"] - s["start"]
        if s["name"].startswith("service.submit"):
            submit[op] = dur
        elif s["name"] in ("registry.solve", "registry.solve_batched"):
            solve[op] = solve.get(op, 0.0) + dur
    per: dict[str, dict[str, list[float]]] = {
        c: {"http": [], "service": [], "solve": [], "queue": [], "width": []}
        for c in common.CLASSES
    }
    violations = []
    warm_hits = repeats = 0
    for p in traced["parsed"]:
        if "queue_s" not in p:
            continue
        cls, rid = p["cls"], p["rid"]
        if rid not in submit or rid not in solve:
            violations.append(f"{rid}: no server span")
            continue
        d = per[cls]
        d["http"].append(p["latency"] - submit[rid])
        d["service"].append(submit[rid] - solve[rid])
        d["solve"].append(solve[rid])
        d["queue"].append(p["queue_s"])
        d["width"].append(p["width"])
        if submit[rid] > p["latency"]:
            violations.append(f"{rid}: submit span {submit[rid]:.6f} s > client "
                              f"latency {p['latency']:.6f} s")
        if cls == "repeat":
            repeats += 1
            warm_hits += p["warm"]
    out = {}
    for cls in common.CLASSES:
        d = per[cls]
        out[f"serve.http_s.{cls}"] = _median_or_zero(d["http"])
        out[f"serve.json_s.{cls}"] = _median_or_zero(traced["json_s"][cls])
        out[f"serve.service_s.{cls}"] = _median_or_zero(d["service"])
        out[f"serve.queue_s.{cls}"] = _median_or_zero(d["queue"])
        out[f"serve.solve_s.{cls}"] = _median_or_zero(d["solve"])
    out["serve.coalesce_width.batched"] = _median_or_zero(per["batched"]["width"])
    out["serve.warmstart.hit_ratio"] = warm_hits / repeats if repeats else 0.0
    out["serve.warmstart.evictions"] = float(traced["warm_start"].get("evicted", 0))
    return out, violations


def layer_metrics(
    untraced: dict[str, Any],
    traced: dict[str, Any],
    lay: dict[str, Any],
    from_spans: dict[str, Any],
    serve: dict[str, float] | None,
    host: dict[str, Any],
) -> dict[str, float]:
    k = lay["kernels"]
    probe = lay["probe"]
    m: dict[str, float] = {}
    per_iter = {}
    for method in ("cg", "vr"):
        fs = from_spans[method]
        per_iter[method] = _median_or_zero(fs["s_per_iter"])
        m[f"registry.front_door_s.{method}"] = _median_or_zero(fs["front_door_s"])
        m[f"core.iterations.{method}"] = probe[method]["iterations"]
        m[f"core.s_per_iter.{method}"] = per_iter[method]
        m[f"core.self_s_per_iter.{method}"] = (
            per_iter[method] - lay["predicted_kernel_s"][method])
        for kind in ("matvecs", "dots", "axpys"):
            m[f"core.ops_per_iter.{kind}.{method}"] = probe[method][kind]
        m[f"core.bytes_per_iter.{method}"] = probe[method]["bytes"]
    m["core.replacements.vr"] = probe["vr"]["replacements"]
    m["core.vr_over_cg.s_per_iter"] = (
        per_iter["vr"] / per_iter["cg"] if per_iter["cg"] else 0.0)
    m["core.powers.advance_s"] = lay["powers_advance_s"]
    m["sparse.matvec_s"] = k["matvec_s"]
    m["sparse.matvec_gbps"] = k["matvec_gbps"]
    m["backend.dot_s"] = k["dot_s"]
    m["backend.axpy_s"] = k["axpy_s"]
    m["backend.dot_stall_frac"] = k["dot_stall_frac"]
    cache = traced["server_trace"]["setup_cache"] if serve else traced["setup_cache"]
    lookups = cache["hits"] + cache["misses"]
    m["backend.setup_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    setups = untraced["setups"]
    if serve:
        phases = traced["server_trace"]["phases"]
        m["setup.import_s"] = phases["import_s"]
        m["setup.operator_s"] = phases["operator_s"]
        m["setup.first_solve_s"] = common.median([s["first_solve_s"] for s in setups])
        m["setup.server_ready_s"] = common.median([s["server_ready_s"] for s in setups])
    else:
        for phase in ("import_s", "operator_s", "first_solve_s"):
            m[f"setup.{phase}"] = common.median([s[phase] for s in setups])
        m["setup.server_ready_s"] = 0.0
    for method in ("cg", "vr"):
        m[f"telemetry.overhead_frac.{method}"] = lay["telemetry_overhead"][method]
    serve = serve or {}
    for cls in common.CLASSES:
        for part in ("http", "json", "service", "queue", "solve"):
            name = f"serve.{part}_s.{cls}"
            m[name] = serve.get(name, 0.0)
    for name in ("serve.coalesce_width.batched", "serve.warmstart.hit_ratio",
                 "serve.warmstart.evictions"):
        m[name] = serve.get(name, 0.0)
    m["host.steal_frac"] = host["steal_frac"]
    m["host.calib_s"] = host["calib_s"]
    return m


def lib_layer_sum(workload: str, lay: dict[str, Any], from_spans: dict[str, Any]) -> list[str]:
    lines = []
    for method in ("cg", "vr"):
        measured = _median_or_zero(from_spans[method]["s_per_iter"])
        predicted = lay["predicted_kernel_s"][method]
        verdict = "ok" if predicted <= measured else "VIOLATION"
        lines.append(f"check.layer_sum.{workload}.{method}: {verdict} (predicted kernel "
                     f"{predicted:.6g} s/iter, measured {measured:.6g} s/iter)")
    return lines


def determinism(untraced: dict[str, Any], traced: dict[str, Any]) -> tuple[str, int]:
    """The traced-vs-untraced check line and the number of operations
    whose iteration counts differ, each a failed operation: the wrappers
    must not change the program."""
    a, b = untraced["iterations"], traced["iterations"]
    both = sorted(set(a) & set(b), key=int)
    differ = [i for i in both if a[i] != b[i]]
    verdict = "ok" if both and not differ else f"MISMATCH at operations {differ[:10]}"
    return (f"check.determinism.traced_vs_untraced: {verdict} (iteration counts of "
            f"the {len(both)} operations both halves ran)"), len(differ)


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (common.ROOT / "src" / "repro" / "__init__.py").is_file():
        common.fail(f"no src/repro under {common.ROOT}: run from a checkout of the repository")
    if args.seconds <= 0:
        common.fail("--seconds must be positive")
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    import numpy as np

    host_block = common.HostBlock()
    serve = args.workload == "serve-http"
    seconds = args.seconds / 2 if args.trace else args.seconds

    if serve:
        untraced = serve_session(np, args.seed, seconds, common.SETUP_LAUNCHES)
    else:
        untraced = lib_run(args.seed, seconds, common.SETUP_LAUNCHES)
    runs = [untraced]
    if args.trace:
        if serve:
            spans_out = common.OUT_DIR / f"spans-serve-http-{args.seed}.json"
            traced = serve_session(np, args.seed, seconds, 1, spans_out=spans_out)
        else:
            traced = lib_traced(args.seed, seconds)
        runs.append(traced)
    host = host_block.finish(np)
    common.emit(f"host: {json.dumps(host, sort_keys=True)}")
    print_run("untraced" if args.trace else "run", untraced)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not args.trace:
        metrics = with_units(end_to_end(untraced), spec["end_to_end"])
    else:
        print_run("traced", traced)
        e2e_u, e2e_t = end_to_end(untraced), end_to_end(traced)
        for name, unit in units.items():
            uv, tv = e2e_u[name], e2e_t[name]
            common.emit(f"e2e {name}: untraced {uv:.6g} {unit}, traced {tv:.6g} {unit} "
                        f"({(tv / uv - 1) * 100:+.1f}%)")
        line, differ = determinism(untraced, traced)
        common.emit(line)
        failed += differ
        if serve:
            import layers

            lay = layers_only(args.seed)
            serve_part, violations = serve_layers(traced)
            from_spans = layers.front_door_and_iteration_times(
                traced["server_trace"]["spans"])
            verdict = "ok" if not violations else f"{len(violations)} VIOLATION(S)"
            common.emit(f"check.layer_sum.serve-http: {verdict} (server submit span "
                        f"<= client latency on every request)")
            for v in violations[:20]:
                common.emit(f"check.layer_sum.serve-http: {v}")
        else:
            lay = traced["layers"]
            from_spans = traced["from_spans"]
            serve_part = None
            for line in lib_layer_sum(args.workload, lay, from_spans):
                common.emit(line)
        metrics = with_units(
            layer_metrics(untraced, traced, lay, from_spans, serve_part, host),
            spec["per_layer"],
        )
    correct = failed == 0
    common.emit(common.result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def layers_only(seed: int) -> dict[str, Any]:
    """In-process layers on ``poisson2d(32)``, the serve-http operator."""
    _, _, result = lib_launch(32, seed, ["--layers-only"])
    return result["layers"]


if __name__ == "__main__":
    sys.exit(main())
