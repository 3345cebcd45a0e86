"""Property test: span trees nest correctly for every registry method.

For each method in the registry, a traced solve must produce a span tree
where (a) every child lies inside its parent, (b) the phase spans inside
one iteration never overlap, (c) phase time never exceeds the iteration
span that contains it, (d) every iteration holds at least one phase
span, and (e) no phase span contains another.  This is the structural
contract the critical-path profiler and the Chrome exporter both rely
on.  Preconditioned cg and a 3-column batched solve are swept too.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Tracer, poisson2d, solve, solve_batched
from repro.core.stopping import StoppingCriterion
from repro.registry import available_methods
from repro.trace import PHASE_NAMES

#: Extra options a method needs to run at tiny scale.
_OPTIONS: dict[str, dict] = {
    "vr": {"k": 2},
    "pipelined-vr": {"k": 2},
    "dist-pipelined-vr": {"k": 2, "nranks": 2},
    "sstep": {"s": 2},
    "dist-sstep": {"s": 2, "nranks": 2},
    "dist-cg": {"nranks": 2},
    "dist-cgcg": {"nranks": 2},
}

#: Cases beyond the registry sweep, and the solver name each reports on
#: its root span (aliases such as gauss-seidel report the underlying
#: solver).
_ROOT_METHOD = {
    "gauss-seidel": "sor",
    "cg+jacobi": "pcg",
    "batched-cg": "batched-cg",
}

_EPS = 1e-9


@pytest.fixture(scope="module")
def system():
    a = poisson2d(8)
    return a, np.ones(a.nrows)


def _traced_solve(a, b, case: str, tracer: Tracer, telemetry=None) -> None:
    kw = {"stop": StoppingCriterion(rtol=1e-6, max_iter=40), "trace": tracer}
    if telemetry is not None:
        kw["telemetry"] = telemetry
    if case == "cg+jacobi":
        solve(a, b, method="cg", precond="jacobi", **kw)
    elif case == "batched-cg":
        block = np.stack([b, np.arange(b.size, dtype=float), np.cos(b.cumsum())], 1)
        solve_batched(a, block, method="cg", **kw)
    else:
        solve(a, b, method=case, **kw, **_OPTIONS.get(case, {}))


def _check_tree(root, case: str) -> None:
    assert root.name == "solve"
    assert root.attrs.get("method") == _ROOT_METHOD.get(case, case)

    # (a) containment, recursively, for the whole tree.
    for span in root.walk():
        assert span.end >= span.start - _EPS
        for child in span.children:
            assert span.contains(child), (
                f"{case}: child {child.name} "
                f"[{child.start}, {child.end}] escapes parent {span.name} "
                f"[{span.start}, {span.end}]"
            )

    # (b) + (c) + (d) per iteration: phases are sequential, sum within
    # the iteration span, and at least one is there.
    iterations = [c for c in root.children if c.name == "iteration"]
    assert iterations, f"{case}: no iteration spans"
    for iteration in iterations:
        kids = sorted(iteration.children, key=lambda s: s.start)
        assert any(k.name in PHASE_NAMES for k in kids), (
            f"{case}: iteration {iteration.attrs.get('iteration')} "
            "holds no phase span"
        )
        for kid in kids:
            assert kid.name in PHASE_NAMES | {"startup"}
        for first, second in zip(kids, kids[1:]):
            assert first.end <= second.start + _EPS, (
                f"{case}: phases {first.name} and {second.name} overlap"
            )
        assert sum(k.seconds for k in kids) <= iteration.seconds + _EPS

    # Iteration numbering is strictly increasing.
    numbers = [it.attrs.get("iteration") for it in iterations]
    assert numbers == sorted(numbers)

    # Phase names anywhere in the tree come from the fixed vocabulary,
    # and (e) no phase span contains another.
    for span in root.walk():
        if span is root:
            continue
        assert span.name in PHASE_NAMES | {"iteration", "startup"}, (
            f"{case}: unexpected span name {span.name!r}"
        )
        if span.name in PHASE_NAMES:
            assert not span.children, (
                f"{case}: phase {span.name} contains "
                f"{[c.name for c in span.children]}"
            )


@pytest.mark.parametrize(
    "case", [*available_methods(), "cg+jacobi", "batched-cg"]
)
def test_span_tree_invariants(system, case):
    a, b = system
    tracer = Tracer()
    _traced_solve(a, b, case, tracer)
    roots = tracer.spans()
    assert len(roots) == 1, "one solve call yields exactly one root span"
    _check_tree(roots[0], case)


class _Handoff:
    """Sink that passes the turn to the other thread at every iteration,
    so two solves alternate iteration by iteration."""

    def __init__(self, state: dict, cond: threading.Condition, me: str, other: str):
        self.state, self.cond, self.me, self.other = state, cond, me, other

    def wait_turn(self) -> None:
        with self.cond:
            self.cond.wait_for(self._my_turn, timeout=10)

    def _my_turn(self) -> bool:
        return self.state["turn"] == self.me or self.other in self.state["done"]

    def emit(self, event) -> None:
        if event.kind == "iteration":
            with self.cond:
                self.state["turn"] = self.other
                self.cond.notify_all()
            self.wait_turn()

    def finish(self) -> None:
        with self.cond:
            self.state["done"].add(self.me)
            self.state["turn"] = self.other
            self.cond.notify_all()


def test_concurrent_traced_solves_keep_separate_trees(system):
    # Phase spans open on the thread's active tracer: two threads solving
    # at once on separate tracers must each get only their own solves.
    # The solves alternate iteration by iteration, so each one's spans
    # are recorded while the other's solve bracket is open.
    from repro.telemetry import Telemetry

    a, b = system
    tracers = {case: Tracer() for case in ("cg", "vr")}
    state: dict = {"turn": "cg", "done": set()}
    cond = threading.Condition()
    errors: list[BaseException] = []

    def run(case: str, other: str) -> None:
        handoff = _Handoff(state, cond, case, other)
        try:
            handoff.wait_turn()
            for _ in range(2):
                tele = Telemetry(handoff, tracer=tracers[case])
                _traced_solve(a, b, case, tracers[case], telemetry=tele)
        except BaseException as exc:  # surfaced below, not in the thread
            errors.append(exc)
        finally:
            handoff.finish()

    threads = [
        threading.Thread(target=run, args=pair) for pair in (("cg", "vr"), ("vr", "cg"))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    names = {}
    for case, tracer in tracers.items():
        roots = tracer.spans()
        assert len(roots) == 2
        for root in roots:
            _check_tree(root, case)
        names[case] = {s.name for root in roots for s in root.walk()}
    assert names["vr"] - names["cg"] == {"recurrence"}
