"""Telemetry integrity when a coalesced batch dies mid-solve.

Extends the JsonlSink tail-loss regression (tests/util/test_telemetry.py)
to the service path: a solver raising *mid-batch* -- after solve_start
and iteration events have been emitted -- must

* answer EVERY member of the coalesced group with an error response
  carrying the exception (no member lost, no member hung);
* leave the shared telemetry session balanced (``open_solves == 0``), so
  the next dispatch starts clean;
* flush buffered sinks, so a :class:`JsonlSink` keeps the honest tail:
  everything up to the failure on disk, no fabricated solve_end;
* leave the service itself healthy -- the next request is served.

The failure is injected through a poisoned operator whose matvec raises
after a fixed number of applications, which lands the exception deep in
the batched sweep loop, well inside the solve bracket.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.serve import SolveRequest, SolverService
from repro.sparse import poisson1d
from repro.telemetry import JsonlSink, Telemetry

INNER = poisson1d(24)
N = INNER.nrows


class PoisonedOperator:
    """Delegates to a healthy matrix until the ``fail_at``-th matvec."""

    def __init__(self, fail_at: int) -> None:
        self.fail_at = int(fail_at)
        self.calls = 0

    @property
    def shape(self):
        return INNER.shape

    @property
    def dtype(self):
        return np.dtype(np.float64)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls >= self.fail_at:
            raise RuntimeError("injected matvec failure")
        return INNER.matvec(x)

    def max_row_degree(self) -> int:
        return 3

    def fingerprint(self) -> tuple:
        # Hashable and call-count-independent: all requests against this
        # instance coalesce (which is the point of the test).
        return ("poisoned", self.fail_at, id(self))


def run_poisoned_batch(tmp_path, width: int, fail_at: int):
    """Coalesce ``width`` requests against a poisoned operator."""
    jsonl = tmp_path / "serve_events.jsonl"
    telemetry = Telemetry(JsonlSink(jsonl), count_ops=False)
    poisoned = PoisonedOperator(fail_at)

    async def main():
        async with SolverService(telemetry=telemetry) as svc:
            responses = await asyncio.gather(
                *(
                    svc.submit(SolveRequest(
                        a=poisoned,
                        b=np.random.default_rng(j).standard_normal(N),
                        method="cg",
                    ))
                    for j in range(width)
                )
            )
            # The session recovered: a healthy solve still works on the
            # same service and the same telemetry session.
            healthy = await svc.solve(INNER, np.ones(N), "cg")
        return svc, responses, healthy

    svc, responses, healthy = asyncio.run(main())
    telemetry.close()
    lines = [
        json.loads(line)
        for line in jsonl.read_text().splitlines()
        if line.strip()
    ]
    return svc, telemetry, responses, healthy, lines


def test_mid_batch_failure_answers_every_member(tmp_path):
    svc, telemetry, responses, healthy, lines = run_poisoned_batch(
        tmp_path, width=3, fail_at=3 * 4  # dies in the fourth sweep
    )
    # Every member answered, none lost, none duplicated.
    assert len(responses) == 3
    assert {r.status for r in responses} == {"error"}
    assert {r.reason for r in responses} == {
        "RuntimeError: injected matvec failure"
    }
    assert [r.coalesce_width for r in responses] == [3, 3, 3]
    assert len({r.request_id for r in responses}) == 3
    assert svc.errors == 3
    assert svc.submitted == svc.served + svc.shed + svc.errors + svc.deduped

    # The telemetry session is balanced and the service kept working.
    assert telemetry.open_solves == 0
    assert healthy.ok

    # The JSONL stream kept the honest tail: the batch's solve_start and
    # its pre-failure iterations are on disk...
    kinds = [line["kind"] for line in lines]
    start_index = kinds.index("solve_start")
    assert lines[start_index]["label"] == "batched-cg"
    assert kinds.count("iteration") >= 1
    # ...and no solve_end was fabricated for the poisoned batch: the
    # only solve_end belongs to the healthy follow-up solve.
    ends = [line for line in lines if line["kind"] == "solve_end"]
    assert len(ends) == 1
    assert len([k for k in kinds if k == "solve_start"]) == 2

    # The service events tell the same story end to end.
    service_actions = [
        (line["action"], line["detail"])
        for line in lines
        if line["kind"] == "service"
    ]
    assert ("respond", "error") in service_actions
    assert ("respond", "ok") in service_actions


def test_immediate_failure_is_also_unwound(tmp_path):
    # fail_at=1: the very first matvec dies -- before the first
    # iteration event, still inside the solve bracket.
    svc, telemetry, responses, healthy, lines = run_poisoned_batch(
        tmp_path, width=2, fail_at=1
    )
    assert {r.status for r in responses} == {"error"}
    assert telemetry.open_solves == 0
    assert healthy.ok


def test_single_solve_failure_is_unwound(tmp_path):
    jsonl = tmp_path / "single.jsonl"
    telemetry = Telemetry(JsonlSink(jsonl), count_ops=False)
    poisoned = PoisonedOperator(2)

    async def main():
        async with SolverService(telemetry=telemetry) as svc:
            bad = await svc.solve(poisoned, np.ones(N), "cg")
            good = await svc.solve(INNER, np.ones(N), "cg")
        return bad, good

    bad, good = asyncio.run(main())
    telemetry.close()
    assert bad.status == "error"
    assert "RuntimeError" in bad.reason
    assert good.ok
    assert telemetry.open_solves == 0
    lines = [json.loads(s) for s in jsonl.read_text().splitlines() if s]
    kinds = [line["kind"] for line in lines]
    assert kinds.count("solve_start") == 2
    assert kinds.count("solve_end") == 1  # only the healthy solve ends
