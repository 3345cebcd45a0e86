"""repro.serve -- the solver-as-a-service front end.

The paper hides synchronization latency so many concurrent units of work
make progress at once; this package extends that from iterations to
*requests*.  A :class:`SolverService` sits in front of
:func:`repro.solve` / :func:`repro.solve_batched` and gives a fleet of
clients:

* per-tenant token-bucket **admission control** with bounded queues and
  reasoned **load shedding** (:mod:`repro.serve.admission`);
* **request coalescing** -- compatible ``cg`` solves against the same
  operator (same blake2b fingerprint, dtype, tolerance class) that are
  admitted together, or that arrive while the operator's lane is busy,
  dispatch as ONE fused ``m``-wide batched solve
  (:mod:`repro.serve.coalescer`);
* per-request **trace ids** on the span tracer and
  queue-depth/shed/coalesce-width **metrics** through the Prometheus
  endpoint;
* a fingerprint-keyed **worker pool** -- dispatch groups against
  different operators execute concurrently, same-operator groups stay
  FIFO on their lane (``ServiceConfig.workers``);
* a **cross-request warm start** -- converged solutions seed ``x0`` for
  bytes-identical repeat solves, verified against the directly computed
  true residual on every warm exit (:mod:`repro.serve.warmstart`);
* a stdlib-asyncio **HTTP front** (``/solve``, ``/solve_batched``,
  ``/healthz``, ``/metrics``) and the ``repro serve`` CLI subcommand
  (:mod:`repro.serve.http`).

Quickstart::

    import asyncio
    import numpy as np
    from repro import poisson2d
    from repro.serve import ServiceConfig, SolverService

    async def main():
        a = poisson2d(32)
        config = ServiceConfig(max_coalesce_width=16)
        async with SolverService(config) as service:
            responses = await asyncio.gather(*[
                service.solve(a, np.random.default_rng(j).standard_normal(a.nrows))
                for j in range(16)
            ])
        print([r.coalesce_width for r in responses])  # [16, 16, ...]

    asyncio.run(main())

See ``docs/serving.md`` for the architecture, the coalescing
compatibility rules, shed semantics, and a curl walkthrough.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.coalescer import compat_key, plan_batches
from repro.serve.http import HttpFrontend, run_server
from repro.serve.service import (
    ServiceConfig,
    SolveRequest,
    SolveResponse,
    SolverService,
)
from repro.serve.warmstart import WarmStartCache

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "compat_key",
    "plan_batches",
    "HttpFrontend",
    "run_server",
    "ServiceConfig",
    "SolveRequest",
    "SolveResponse",
    "SolverService",
    "WarmStartCache",
]
