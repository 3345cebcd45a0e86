"""Command line interface: ``python -m repro <command>``.

Three commands for downstream users who want the solvers without writing
Python:

* ``solve`` -- solve ``A x = b`` where A comes from a MatrixMarket file or
  a built-in generator, with any method in the registry
  (``--method``/``--solver``), optionally streaming structured telemetry
  as JSON lines (``--telemetry out.jsonl``, ``-`` for stdout), writing a
  Chrome trace of the run (``--trace out.json``), or exporting
  Prometheus metrics (``--metrics out.prom``).
* ``profile`` -- run a solve under the span tracer and print the
  critical-path phase breakdown (where each iteration's wall time goes,
  and what fraction is blocked on inner-product synchronization).
* ``serve`` -- stand up the long-lived solver service
  (:mod:`repro.serve`): an asyncio HTTP front with per-tenant admission
  control and request coalescing over a server-registered operator
  (``POST /solve``, ``GET /healthz``, ``GET /status``,
  ``GET /metrics``); ``--postmortem-dir`` makes failures and sheds
  drop flight-recorder bundles there.
* ``replay`` -- re-run the solve captured in a postmortem bundle
  (written by ``solve --postmortem`` or the service) and diff the
  replayed residual history against the recorded one.
* ``info`` -- structural/spectral statistics of a matrix.
* ``generate`` -- write a model-problem matrix to a MatrixMarket file.

(The experiment harness has its own entry point,
``python -m repro.experiments``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core.stopping import StoppingCriterion
from repro.registry import available_methods, batched_methods
from repro.registry import solve as registry_solve
from repro.registry import solve_batched as registry_solve_batched
from repro.sparse.csr import CSRMatrix
from repro.sparse.generators import (
    anisotropic2d,
    banded_spd,
    poisson1d,
    poisson2d,
    poisson3d,
)
from repro.sparse.mmio import read_matrix_market, write_matrix_market
from repro.sparse.stats import matrix_stats
from repro.util.rng import default_rng

__all__ = ["main", "build_parser"]

_GENERATORS = {
    "poisson1d": lambda size: poisson1d(size),
    "poisson2d": lambda size: poisson2d(size),
    "poisson2d9": lambda size: poisson2d(size, stencil=9),
    "poisson3d": lambda size: poisson3d(size),
    "anisotropic2d": lambda size: anisotropic2d(size, epsilon=0.02),
    "banded": lambda size: banded_spd(size, 4, seed=0),
}


def _k_arg(text: str):
    """argparse type for --k: an integer or the literal ``auto``."""
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--k must be an integer or 'auto', got {text!r}"
        ) from None


# Methods whose k= option understands the adaptive-window "auto" value.
_AUTO_K_METHODS = ("vr", "pipelined-vr", "adaptive-vr", "adaptive-pipelined-vr")


def _reject_bad_auto_k(k, method: str) -> None:
    if k == "auto" and method not in _AUTO_K_METHODS:
        raise SystemExit(
            f"--k auto (adaptive window) is not supported for method "
            f"{method!r}; it needs one of: {', '.join(_AUTO_K_METHODS)}"
        )


def _load_matrix(args) -> CSRMatrix:
    if args.matrix is not None:
        return read_matrix_market(Path(args.matrix))
    if args.generate is not None:
        return _GENERATORS[args.generate](args.size)
    raise SystemExit("one of --matrix or --generate is required")


def _load_rhs(args, n: int) -> np.ndarray:
    if getattr(args, "rhs", None) is not None:
        data = np.loadtxt(args.rhs, dtype=np.float64).ravel()
        if data.size != n:
            raise SystemExit(
                f"right-hand side has {data.size} entries, matrix has {n} rows"
            )
        return data
    return default_rng(args.seed).standard_normal(n)


def _load_rhs_block(args, n: int) -> np.ndarray:
    """An ``(n, m)`` right-hand-side block for ``--rhs-count m``.

    A ``--rhs`` file supplies column 0; the remaining columns are drawn
    from the seeded generator, so runs are reproducible either way.
    """
    m = args.rhs_count
    if m < 1:
        raise SystemExit(f"--rhs-count must be >= 1, got {m}")
    block = default_rng(args.seed).standard_normal((n, m))
    if getattr(args, "rhs", None) is not None:
        block[:, 0] = _load_rhs(args, n)
    return block


def _build_observability(args):
    """Telemetry/tracer/metrics per --telemetry/--trace/--metrics flags.

    Returns ``(telemetry, tracer, registry)``, any of which may be None.
    """
    tracer = None
    registry = None
    sinks = []
    if args.telemetry is not None:
        from repro.telemetry import JsonlSink

        sinks.append(JsonlSink(args.telemetry))
    if getattr(args, "metrics", None) is not None:
        from repro.trace import MetricsRegistry, MetricsSink

        registry = MetricsRegistry()
        sinks.append(MetricsSink(registry))
    import os

    postmortem = getattr(args, "postmortem", None) or os.environ.get(
        "REPRO_POSTMORTEM_DIR"
    )
    if postmortem is not None:
        from repro.trace import FlightRecorder

        # Failure snapshots land in the directory automatically via the
        # registry's notify_failure hook; nothing is written on success.
        sinks.append(FlightRecorder(directory=postmortem))
    if getattr(args, "trace", None) is not None:
        from repro.trace import Tracer

        tracer = Tracer()
    if sinks or tracer is not None:
        from repro.telemetry import Telemetry

        return Telemetry(*sinks, tracer=tracer), tracer, registry
    return None, None, None


def _write_observability(args, tracer, registry) -> None:
    """Write the Chrome trace / Prometheus files after a finished solve."""
    if tracer is not None:
        from repro.trace import write_chrome_trace

        write_chrome_trace(tracer, args.trace)
        print(f"chrome trace written to {args.trace}")
    if registry is not None:
        Path(args.metrics).write_text(
            registry.to_prometheus(), encoding="utf-8"
        )
        print(f"metrics written to {args.metrics}")


def _solve(args) -> int:
    a = _load_matrix(args)
    stop = StoppingCriterion(rtol=args.rtol, max_iter=args.max_iter)
    method = args.solver
    if args.rhs_count < 1:
        raise SystemExit(f"--rhs-count must be >= 1, got {args.rhs_count}")
    if args.rhs_count > 1:
        return _solve_batched(args, a, stop, method)
    b = _load_rhs(args, a.nrows)

    options: dict = {"stop": stop}
    _reject_bad_auto_k(args.k, method)
    if method == "vr":
        options["k"] = args.k
        if args.replace_every is not None:
            options["replace_every"] = args.replace_every
        if args.drift_tol is not None:
            options["replace_drift_tol"] = args.drift_tol
    elif method in ("pipelined-vr", "dist-pipelined-vr"):
        options["k"] = args.k if args.k == "auto" else max(args.k, 1)
    elif method in ("adaptive-vr", "adaptive-pipelined-vr"):
        options["k"] = args.k
    elif method in ("sstep", "dist-sstep"):
        options["s"] = max(args.k, 1)
    if method.startswith("dist-"):
        options["nranks"] = args.nranks

    precond = None if args.precond == "none" else args.precond
    if precond == "ssor":
        options["omega"] = args.omega
    elif precond == "chebyshev":
        options["poly_degree"] = args.poly_degree

    if args.inject_fault:
        from repro.faults import FaultPlan, parse_fault_spec

        try:
            injectors = [parse_fault_spec(spec) for spec in args.inject_fault]
        except ValueError as exc:
            raise SystemExit(f"--inject-fault: {exc}") from exc
        options["faults"] = FaultPlan(injectors, seed=args.fault_seed)
    if args.recovery is not None and args.recovery != "none":
        options["recovery"] = args.recovery

    telemetry, tracer, registry = _build_observability(args)

    try:
        result = registry_solve(
            a, b, method, precond=precond, telemetry=telemetry, **options
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    finally:
        if telemetry is not None:
            telemetry.close()

    _write_observability(args, tracer, registry)
    print(result.summary())
    if args.out is not None:
        np.savetxt(args.out, result.x)
        print(f"solution written to {args.out}")
    return 0 if result.converged else 1


def _solve_batched(args, a: CSRMatrix, stop, method: str) -> int:
    """The ``--rhs-count m`` (m > 1) path: one batched multi-RHS solve."""
    if method not in batched_methods():
        raise SystemExit(
            f"--rhs-count > 1 needs a batched method "
            f"({', '.join(batched_methods())}); {method!r} has no "
            f"multi-RHS path"
        )
    if args.precond != "none":
        raise SystemExit("--rhs-count > 1 does not support --precond")
    if args.inject_fault or (args.recovery not in (None, "none")):
        raise SystemExit(
            "--rhs-count > 1 does not support --inject-fault/--recovery"
        )
    b_block = _load_rhs_block(args, a.nrows)

    options: dict = {"stop": stop}
    if args.k == "auto":
        raise SystemExit("--k auto is not supported for batched solves")
    if method == "vr":
        options["k"] = args.k
        if args.replace_every is not None:
            options["replace_every"] = args.replace_every
    if method.startswith("dist-"):
        options["nranks"] = args.nranks

    telemetry, tracer, registry = _build_observability(args)

    try:
        result = registry_solve_batched(
            a, b_block, method, telemetry=telemetry, **options
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    finally:
        if telemetry is not None:
            telemetry.close()

    _write_observability(args, tracer, registry)
    print(result.summary())
    if args.out is not None:
        np.savetxt(args.out, result.x)
        print(f"solution block written to {args.out}")
    return 0 if result.converged else 1


def _profile(args) -> int:
    """The ``profile`` command: solve under the span tracer and print the
    per-phase / synchronization breakdown."""
    a = _load_matrix(args)
    b = _load_rhs(args, a.nrows)
    method = args.solver
    options: dict = {
        "stop": StoppingCriterion(rtol=args.rtol, max_iter=args.max_iter)
    }
    _reject_bad_auto_k(args.k, method)
    if method == "vr":
        options["k"] = args.k
    elif method in ("pipelined-vr", "dist-pipelined-vr"):
        options["k"] = args.k if args.k == "auto" else max(args.k, 1)
    elif method in ("adaptive-vr", "adaptive-pipelined-vr"):
        options["k"] = args.k
    elif method in ("sstep", "dist-sstep"):
        options["s"] = max(args.k, 1)
    if method.startswith("dist-"):
        options["nranks"] = args.nranks

    from repro.trace import MetricsRegistry, profile_solve

    registry = MetricsRegistry() if args.metrics is not None else None
    try:
        report = profile_solve(
            a,
            b,
            method=method,
            level_seconds=args.level_seconds,
            registry=registry,
            **options,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc

    print(report.render())
    if args.trace is not None:
        from repro.trace import write_chrome_trace

        write_chrome_trace(report.tracer, args.trace)
        print(f"chrome trace written to {args.trace}")
    if registry is not None:
        Path(args.metrics).write_text(
            registry.to_prometheus(), encoding="utf-8"
        )
        print(f"metrics written to {args.metrics}")
    return 0 if report.converged else 1


def _build_service(args):
    """A configured :class:`~repro.serve.SolverService` with the CLI's
    matrix registered (exposed separately for testing)."""
    from repro.serve import ServiceConfig, SolverService

    a = _load_matrix(args)
    if args.rate is not None and args.rate <= 0:
        raise SystemExit(f"--rate must be positive, got {args.rate}")
    try:
        config = ServiceConfig(
            max_queue_depth=args.queue_depth,
            coalesce_window=args.window_ms / 1000.0,
            max_coalesce_width=args.max_width,
            tenant_rate=args.rate,
            tenant_burst=args.burst,
            postmortem_dir=getattr(args, "postmortem_dir", None),
            workers=getattr(args, "workers", 4),
            warm_start=getattr(args, "warm_start", 64),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    service = SolverService(config)
    name = args.operator_name
    if name is None:
        name = args.generate if args.generate else Path(args.matrix).stem
    service.register_operator(name, a)
    if name != "default":
        # Clients that don't care about the name can always say "default".
        service.register_operator("default", a)
    return service, name, a


def _serve(args) -> int:
    """The ``serve`` command: run the HTTP solver service until Ctrl-C."""
    import asyncio

    from repro.serve import run_server

    service, name, a = _build_service(args)
    print(
        f"serving operator {name!r} ({a.nrows}x{a.ncols}, {a.nnz} nnz) "
        f"on http://{args.host}:{args.port}"
    )
    print(
        "routes: POST /solve, POST /solve_batched, GET /healthz, "
        "GET /status, GET /metrics (Ctrl-C drains and exits)"
    )
    try:
        asyncio.run(run_server(service, args.host, args.port))
    except KeyboardInterrupt:
        print("draining")
    return 0


def _replay(args) -> int:
    """The ``replay`` command: re-run a postmortem bundle's solve."""
    from repro.trace import load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read bundle {args.bundle!r}: {exc}") from exc
    a = None
    if args.matrix is not None or args.generate is not None:
        a = _load_matrix(args)
    report = replay_bundle(bundle, a=a, rtol=args.rtol)
    call = bundle.get("call") or {}
    solve_info = bundle.get("solve") or {}
    print(f"bundle : {args.bundle}")
    print(f"reason : {bundle.get('reason', '?')}")
    print(f"method : {call.get('method') or solve_info.get('method') or '?'}")
    print(report.render())
    return 0 if report.matched else 1


def _info(args) -> int:
    a = _load_matrix(args)
    stats = matrix_stats(a, estimate_spectrum=not args.no_spectrum)
    print(f"order           : {stats.n}")
    print(f"nonzeros        : {stats.nnz}")
    print(f"max row degree  : {stats.max_degree}")
    print(f"avg row degree  : {stats.avg_degree:.2f}")
    print(f"symmetric       : {stats.symmetric}")
    if not args.no_spectrum:
        print(f"lambda range    : [{stats.lambda_min:.4e}, {stats.lambda_max:.4e}]")
        print(f"cond estimate   : {stats.condition_estimate:.4e}")
    return 0


def _generate(args) -> int:
    a = _GENERATORS[args.kind](args.size)
    write_matrix_market(
        a, Path(args.out), symmetric=True,
        comment=f"repro generator: {args.kind}(size={args.size})",
    )
    print(f"wrote {a.nrows}x{a.ncols} matrix ({a.nnz} nnz) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Van Rosendale (1983) CG reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_source(p) -> None:
        p.add_argument("--matrix", help="MatrixMarket file with an SPD matrix")
        p.add_argument(
            "--generate", choices=sorted(_GENERATORS),
            help="use a built-in model problem instead of a file",
        )
        p.add_argument("--size", type=int, default=32,
                       help="generator size parameter (grid side / order)")

    solve = sub.add_parser("solve", help="solve A x = b")
    add_matrix_source(solve)
    solve.add_argument(
        "--method", "--solver",
        dest="solver",
        choices=available_methods(),
        default="vr",
        help="registry method name (--solver is a compatibility alias)",
    )
    solve.add_argument("--k", type=_k_arg, default=2,
                       help="look-ahead parameter (s for sstep); 'auto' "
                       "enables the adaptive window controller")
    solve.add_argument("--rtol", type=float, default=1e-8)
    solve.add_argument("--max-iter", type=int, default=None)
    solve.add_argument("--replace-every", type=int, default=None,
                       help="periodic residual replacement interval")
    solve.add_argument("--drift-tol", type=float, default=None,
                       help="adaptive residual replacement tolerance "
                            "(solver vr defaults to 1e-6 when no "
                            "stabilization flag is given)")
    solve.add_argument("--nranks", type=int, default=4,
                       help="simulated ranks for the dist-* methods")
    solve.add_argument("--telemetry", metavar="PATH", default=None,
                       help="stream telemetry events as JSON lines to "
                            "PATH ('-' for stdout)")
    solve.add_argument("--trace", metavar="PATH", default=None,
                       help="write a Chrome trace-event JSON of the solve "
                            "(open in Perfetto / chrome://tracing)")
    solve.add_argument("--metrics", metavar="PATH", default=None,
                       help="write Prometheus text-format metrics of the "
                            "solve to PATH")
    solve.add_argument(
        "--precond",
        choices=["none", "identity", "jacobi", "ssor", "ic0", "chebyshev"],
        default="none",
    )
    solve.add_argument("--omega", type=float, default=1.0, help="SSOR relaxation")
    solve.add_argument("--poly-degree", type=int, default=4,
                       help="Chebyshev polynomial preconditioner degree")
    solve.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC",
        help="inject a deterministic fault; SPEC is "
             "kind[@iteration][:key=value]* with kind one of bitflip, "
             "perturb, scalar, comm-corrupt, comm-delay, comm-drop "
             "(e.g. 'scalar@7:factor=1e3'); repeatable",
    )
    solve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the fault injectors' RNG streams")
    solve.add_argument(
        "--recovery",
        choices=["none", "drift", "periodic", "verified", "robust"],
        default=None,
        help="recovery policy preset (see repro.faults.RecoveryPolicy)",
    )
    solve.add_argument("--rhs", help="text file with the right-hand side")
    solve.add_argument("--rhs-count", type=int, default=1, metavar="M",
                       help="solve M right-hand sides in one batched "
                            "multi-RHS sweep (methods with a batched "
                            "path only; --rhs supplies column 0)")
    solve.add_argument("--seed", type=int, default=0,
                       help="seed for the random right-hand side")
    solve.add_argument("--out", help="write the solution vector to this file")
    solve.add_argument("--postmortem", metavar="DIR", default=None,
                       help="attach the flight recorder and write a "
                            "postmortem-*.json bundle to DIR if the solve "
                            "fails (input for 'replay')")
    solve.set_defaults(func=_solve)

    profile = sub.add_parser(
        "profile",
        help="phase breakdown + synchronization profile of one solve",
    )
    add_matrix_source(profile)
    profile.add_argument(
        "--method", "--solver",
        dest="solver",
        choices=available_methods(),
        default="cg",
        help="registry method name to profile",
    )
    profile.add_argument("--k", type=_k_arg, default=2,
                         help="look-ahead parameter (s for sstep); 'auto' "
                         "enables the adaptive window controller")
    profile.add_argument("--nranks", type=int, default=4,
                         help="simulated ranks for the dist-* methods")
    profile.add_argument("--rtol", type=float, default=1e-8)
    profile.add_argument("--max-iter", type=int, default=None)
    profile.add_argument("--seed", type=int, default=0,
                         help="seed for the random right-hand side")
    profile.add_argument("--level-seconds", type=float, default=1e-6,
                         help="assumed wall time of one fan-in level, "
                              "pricing each blocking synchronization at "
                              "dot_depth(n) levels")
    profile.add_argument("--trace", metavar="PATH", default=None,
                         help="also write a Chrome trace-event JSON of "
                              "the profiled solve")
    profile.add_argument("--metrics", metavar="PATH", default=None,
                         help="also write Prometheus text-format metrics")
    profile.set_defaults(func=_profile)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio solver service (HTTP front, coalescing, "
             "admission control)",
    )
    add_matrix_source(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8780,
                       help="TCP port to bind (0 picks an ephemeral port)")
    serve.add_argument("--operator-name", default=None, metavar="NAME",
                       help="name clients use for the served operator "
                            "(default: the generator name or file stem; "
                            "'default' is always an alias)")
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="coalesce window in milliseconds: how long the "
                            "dispatcher lingers so concurrent compatible "
                            "requests share one batched solve")
    serve.add_argument("--max-width", type=int, default=16,
                       help="widest batched dispatch (1 disables coalescing)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="bound on queued requests; arrivals beyond it "
                            "are shed with reason queue_full")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-tenant admission rate in requests/second "
                            "(default: unmetered)")
    serve.add_argument("--burst", type=float, default=8.0,
                       help="per-tenant token-bucket capacity")
    serve.add_argument("--postmortem-dir", default=None, metavar="DIR",
                       help="write flight-recorder postmortem bundles "
                            "(failures and sheds) to DIR")
    serve.add_argument("--workers", type=int, default=4,
                       help="dispatch worker threads: groups against "
                            "distinct operator fingerprints solve "
                            "concurrently, same-operator groups stay FIFO "
                            "(1 restores the single-worker dispatcher)")
    serve.add_argument("--warm-start", type=int, default=64, metavar="N",
                       help="cross-request warm-start cache capacity in "
                            "entries; converged solutions seed x0 for "
                            "bytes-identical repeat solves, verified "
                            "against the true residual (0 disables)")
    serve.set_defaults(func=_serve)

    replay = sub.add_parser(
        "replay",
        help="re-run a postmortem bundle's solve and diff residual "
             "histories",
    )
    replay.add_argument("bundle", help="postmortem-*.json bundle path")
    add_matrix_source(replay)
    replay.add_argument("--rtol", type=float, default=1e-9,
                        help="relative tolerance for the residual-history "
                             "match")
    replay.set_defaults(func=_replay)

    info = sub.add_parser("info", help="matrix statistics")
    add_matrix_source(info)
    info.add_argument("--no-spectrum", action="store_true",
                      help="skip eigenvalue estimation")
    info.set_defaults(func=_info)

    gen = sub.add_parser("generate", help="write a model problem to a file")
    gen.add_argument("kind", choices=sorted(_GENERATORS))
    gen.add_argument("out", help="output MatrixMarket path")
    gen.add_argument("--size", type=int, default=32)
    gen.set_defaults(func=_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
