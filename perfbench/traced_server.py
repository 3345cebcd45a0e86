"""``repro serve`` with span wrappers, for the serve-http traced run.

Usage: ``python3 perfbench/traced_server.py SPANS_OUT <repro serve args>``

Before handing over to the ``repro serve`` command it wraps, from here:
``SolverService.submit``/``submit_batched`` (the service layer),
``repro.registry.solve``/``solve_batched`` (the front door; the service
imports both at call time) and the cg/vr core solvers.  Spans stay in
memory; on SIGTERM the server drains as on Ctrl-C, and then the spans, the
set-up phase times and the setup-cache statistics go to ``SPANS_OUT``.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import common


def _drain(signum, frame):
    # asyncio.run turns SIGINT into a clean cancel-and-drain of the
    # server, the same path as Ctrl-C.
    signal.raise_signal(signal.SIGINT)


def _submit_id(args: tuple, kwargs: dict) -> str:
    return args[1].request_id


def _batch_id(args: tuple, kwargs: dict) -> str:
    return ",".join(r.request_id for r in args[1])


def main(argv: list[str]) -> int:
    spans_out = Path(argv[0])
    t0 = time.perf_counter()
    import repro
    import repro.cli as cli
    from repro.serve import SolverService

    import layers

    phases = {"import_s": time.perf_counter() - t0}
    spans = common.Spans()
    layers.wrap_solvers(spans)
    SolverService.submit = spans.wrap_async(
        SolverService.submit, "service.submit", _submit_id
    )
    SolverService.submit_batched = spans.wrap_async(
        SolverService.submit_batched, "service.submit_batched", _batch_id
    )
    build = cli._build_service

    def timed_build(args):
        t = time.perf_counter()
        out = build(args)
        phases["operator_s"] = time.perf_counter() - t
        return out

    cli._build_service = timed_build
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _drain)
    try:
        return cli.main(["serve", *argv[1:]])
    finally:
        spans.dump(spans_out, phases=phases, setup_cache=repro.setup_cache().stats())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
