"""Request coalescing: group compatible solves into one batched dispatch.

The paper's restructuring hides synchronization latency *within* one
solve; the service layer extends the same idea across *requests*: many
clients solving against the same operator should ride the fused
``m``-wide block kernels as a single :func:`repro.solve_batched` call
instead of ``m`` separate solves.  This module is the pure, deterministic
half of that machinery -- no clocks, no queues -- so the concurrency test
harness can pin its behavior exactly.

Compatibility rule
------------------
A request's key names everything its answer depends on: equal keys
mean the same system, method, tolerance and options.  The service
groups keyed requests of a method with a block path
(:func:`repro.registry.batched_methods`, i.e. ``cg``); every other keyed
request runs alone.  Two requests may share a batch iff they agree on
every axis the block path fixes per sweep:

* **operator** -- same :func:`repro.backend.matrix_fingerprint` (the
  blake2b content key the :class:`~repro.backend.SetupCache` already
  computes; unfingerprintable operators never coalesce, they fall back
  to single solves exactly like they bypass the setup cache);
* **method** -- same registry name, and the method must accept an
  initial guess and not run over the simulated communicator
  (:func:`repro.registry.warmstartable_methods`);
* **dtype/shape** -- real right-hand sides of the same length (the block
  path runs in float64; complex solves stay single);
* **tolerance class** -- identical ``(rtol, atol, max_iter)`` stopping
  triple, so no member's convergence contract is silently tightened or
  loosened by its batch mates;
* **options** -- identical residual solver options.  Requests carrying
  any single-solve-only keyword (``faults=``, ``recovery=``, ``x0=``,
  ``precond=``, ...) never coalesce.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence, TypeVar

import numpy as np

__all__ = ["compat_key", "plan_batches", "UNBATCHABLE_OPTIONS"]

T = TypeVar("T")

#: Options that force a request onto the single-solve path: they are
#: either refused by ``solve_batched`` outright (faults/recovery,
#: precond) or meaningful only per-request (x0, trace).
UNBATCHABLE_OPTIONS = frozenset({"faults", "recovery", "x0", "precond", "trace"})


def compat_key(
    method: str,
    a: Any,
    b: np.ndarray,
    stop: Any = None,
    options: dict[str, Any] | None = None,
) -> tuple | None:
    """The request key of one solve, or ``None`` when it has none.

    The key is a plain hashable tuple naming operator, method, size,
    tolerance class and options.  Keyed requests share their operator's
    FIFO lane and the warm-start cache stores under the key; requests
    with equal keys and a block-path method are batch-compatible.
    ``None`` (never equal to anything) gives the request a private lane
    and a cold :func:`repro.solve`.
    """
    from repro.backend import matrix_fingerprint
    from repro.core.stopping import StoppingCriterion
    from repro.registry import warmstartable_methods

    if method not in warmstartable_methods():
        return None
    b_arr = np.asarray(b)
    if b_arr.ndim != 1 or b_arr.size == 0 or b_arr.dtype.kind == "c":
        return None
    options = options or {}
    if any(name in options for name in UNBATCHABLE_OPTIONS):
        return None
    fingerprint = matrix_fingerprint(a)
    if fingerprint is None:
        return None
    if stop is None:
        stop = StoppingCriterion()
    if not isinstance(stop, StoppingCriterion):
        return None
    try:
        option_key = tuple(sorted(options.items()))
        key = (
            method,
            fingerprint,
            str(b_arr.dtype),
            int(b_arr.shape[0]),
            (stop.rtol, stop.atol, stop.max_iter),
            option_key,
        )
        hash(key)  # unhashable option values -> single solve, not an error
    except TypeError:
        return None
    return key


def plan_batches(
    items: Sequence[T],
    *,
    key: Callable[[T], Hashable | None],
    max_width: int,
) -> list[list[T]]:
    """Partition ``items`` into dispatch groups, deterministically.

    Items with equal non-``None`` keys share a group (split into chunks
    of at most ``max_width``); items with ``None`` keys become singleton
    groups.  Output order follows first arrival of each group, and
    members keep their arrival order within a group -- the same inputs
    always produce the same plan, which is what lets the differential
    tests pin coalesced results against sequential ones.
    """
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    groups: dict[Hashable, list[T]] = {}
    order: list[tuple[str, Any]] = []  # ("group", key) | ("single", item)
    for item in items:
        item_key = key(item)
        if item_key is None:
            order.append(("single", item))
            continue
        if item_key not in groups:
            groups[item_key] = []
            order.append(("group", item_key))
        groups[item_key].append(item)
    plan: list[list[T]] = []
    for tag, ref in order:
        if tag == "single":
            plan.append([ref])
            continue
        members = groups[ref]
        for start in range(0, len(members), max_width):
            plan.append(members[start : start + max_width])
    return plan
