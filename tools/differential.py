#!/usr/bin/env python3
"""Record a named grid of solves, and compare two records case by case.

A behaviour-preserving change proves "same answers" by recording a grid
on the parent tree and on the changed tree, then comparing the records::

    PYTHONPATH=/path/to/parent/src python tools/differential.py \\
        record --grid repair --out parent.jsonl
    PYTHONPATH=src python tools/differential.py \\
        record --grid repair --out change.jsonl
    python tools/differential.py compare parent.jsonl change.jsonl \\
        --expect method=vr recovery=None

``record`` solves every case of the grid through :func:`repro.solve`
with an in-memory telemetry session and writes one JSON line per case:
the inputs, a sha256 of the solution's bytes, the iteration count, the
stop reason, ``extras["recoveries"]``, the true residual, and the count
of every telemetry event kind.  A case that raises records the error
instead.  ``repro`` is imported from ``PYTHONPATH``, so the same script
records any tree.

``compare`` flattens each record into fields (``recoveries.replace``,
``events.recovery``, ...), groups the differing cases by field, and
exits 1 on any difference in a case that no ``--expect`` filter names
(or on a case present in one record only).  An ``--expect`` filter is
one or more ``key=value`` tokens over the case inputs, all of which
must hold; ``--ignore FIELD`` leaves a field out of the comparison.

Grids: ``repair`` (the VR family's residual repair: poisson2d(16),
(32), (64), (128) and anisotropic2d(32, 1e-3) with two seeded
right-hand sides each, under every recovery spelling, each string
preconditioner, and the five ``repro.zoo`` workloads) and ``smoke``
(10 cases on poisson2d(8), for the tool's own test).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

_DEFAULT = "default"  # the case passes no recovery= at all
_RECOVERIES = (_DEFAULT, None, "none", "periodic", "verified", "robust")
_PRECONDS = ("jacobi", "ssor", "ic0", "chebyshev")


def _seeded_systems(sizes, seeds, anisotropic: bool):
    """Yield ``(label, seed, a, b)`` for the structured model problems."""
    from repro.sparse.generators import anisotropic2d, poisson2d
    from repro.util.rng import default_rng

    systems = [(f"poisson2d({n})", lambda n=n: poisson2d(n)) for n in sizes]
    if anisotropic:
        systems.append(
            ("anisotropic2d(32,1e-3)", lambda: anisotropic2d(32, epsilon=1e-3))
        )
    for label, build in systems:
        a = build()
        for seed in seeds:
            yield label, seed, a, default_rng(seed).standard_normal(a.nrows)


def _case(system, seed, method, recovery=_DEFAULT, precond=None) -> dict:
    return {
        "system": system,
        "seed": seed,
        "method": method,
        "recovery": recovery,
        "precond": precond,
    }


def grid_repair():
    """Yield ``(case, a, b)`` for the ``repair`` grid."""
    for system, seed, a, b in _seeded_systems((16, 32, 64, 128), (0, 1), True):
        for method in ("vr", "pipelined-vr", "cg"):
            for recovery in _RECOVERIES:
                yield _case(system, seed, method, recovery), a, b
        for method in ("adaptive-vr", "adaptive-pipelined-vr"):
            yield _case(system, seed, method), a, b
        for precond in _PRECONDS:
            for method in ("vr", "pipelined-vr", "cg"):
                yield _case(system, seed, method, precond=precond), a, b
    from repro.zoo import zoo_workloads

    for workload in zoo_workloads():
        a, b = workload.build("full")
        for method in ("vr", "pipelined-vr", "cg", "adaptive-vr",
                       "adaptive-pipelined-vr"):
            yield _case(workload.name, None, method), a, b


def grid_smoke():
    """Yield ``(case, a, b)`` for the 10-case ``smoke`` grid."""
    for system, seed, a, b in _seeded_systems((8,), (0,), False):
        yield _case(system, seed, "cg"), a, b
        for recovery in _RECOVERIES:
            yield _case(system, seed, "vr", recovery), a, b
        yield _case(system, seed, "pipelined-vr"), a, b
        yield _case(system, seed, "pipelined-vr", "verified"), a, b
        yield _case(system, seed, "adaptive-vr"), a, b


GRIDS = {"repair": grid_repair, "smoke": grid_smoke}


def case_id(case: dict) -> str:
    """A stable, human-readable key for one case."""
    return " ".join(f"{key}={case[key]}" for key in sorted(case))


def run_case(case: dict, a, b) -> dict:
    """Solve one case and return its record line."""
    import numpy as np

    from repro import solve
    from repro.telemetry import Telemetry

    options = {}
    if case["recovery"] != _DEFAULT:
        options["recovery"] = case["recovery"]
    telemetry = Telemetry()
    line = {"case": case, "id": case_id(case)}
    try:
        result = solve(
            a, b, case["method"], precond=case["precond"], telemetry=telemetry,
            **options,
        )
    except Exception as exc:  # a refused case is part of the behaviour
        line["error"] = f"{type(exc).__name__}: {exc}"
        return line
    line.update(
        x_sha256=hashlib.sha256(
            np.ascontiguousarray(result.x).tobytes()
        ).hexdigest(),
        iterations=result.iterations,
        stop_reason=result.stop_reason.value,
        recoveries=result.extras.get("recoveries"),
        true_residual=result.true_residual_norm,
        events=dict(sorted(Counter(e.kind for e in telemetry.events).items())),
    )
    return line


def record(grid: str, out: Path) -> int:
    with out.open("w", encoding="utf-8", buffering=1) as fh:
        count = 0
        for case, a, b in GRIDS[grid]():
            fh.write(json.dumps(run_case(case, a, b), sort_keys=True) + "\n")
            count += 1
    print(f"recorded {count} cases of grid {grid!r} to {out}")
    return 0


def _load(path: Path) -> dict[str, dict]:
    lines = (json.loads(t) for t in path.read_text(encoding="utf-8").splitlines())
    return {line["id"]: line for line in lines}


def _fields(line: dict) -> dict:
    """Flatten one record line into comparable fields."""
    fields = {}
    for key, value in line.items():
        if key in ("case", "id"):
            continue
        if isinstance(value, dict):
            for sub, item in value.items():
                fields[f"{key}.{sub}"] = item
        else:
            fields[key] = value
    return fields


def _absent(field: str):
    """What a field missing from one side reads as: an event kind that
    never fired counted 0 times."""
    return 0 if field.startswith("events.") else None


def _parse_filter(tokens: list[str]) -> dict[str, str]:
    pairs = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise SystemExit(f"--expect takes key=value tokens, got {token!r}")
        pairs[key] = value
    return pairs


def _matches(case: dict, pairs: dict[str, str]) -> bool:
    return all(str(case.get(key)) == value for key, value in pairs.items())


def compare(
    a_path: Path, b_path: Path, expect: list[list[str]], ignore: list[str]
) -> int:
    a, b = _load(a_path), _load(b_path)
    labels = [" ".join(tokens) for tokens in expect]
    filters = [_parse_filter(tokens) for tokens in expect]
    by_field: dict[str, list[int]] = {}  # field -> [unexpected, expected]
    differing = []
    for cid in sorted(a.keys() | b.keys()):
        case = (a.get(cid) or b.get(cid))["case"]
        expected = next(
            (label for label, f in zip(labels, filters) if _matches(case, f)),
            None,
        )
        if cid not in a or cid not in b:
            changes = {"<case>": f"only in {a_path if cid in a else b_path}"}
        else:
            fa, fb = _fields(a[cid]), _fields(b[cid])
            changes = {}
            for f in sorted(fa.keys() | fb.keys()):
                old, new = fa.get(f, _absent(f)), fb.get(f, _absent(f))
                if f not in ignore and old != new:
                    changes[f] = "changed" if f == "x_sha256" else f"{old} -> {new}"
        if not changes:
            continue
        for f in changes:
            by_field.setdefault(f, [0, 0])[expected is not None] += 1
        differing.append((cid, expected, changes))
    unexpected = sum(1 for _, expected, _ in differing if expected is None)
    print(f"{a_path}: {len(a)} cases; {b_path}: {len(b)} cases")
    print(f"identical: {len(a.keys() | b.keys()) - len(differing)}; "
          f"differing: {len(differing)} "
          f"({len(differing) - unexpected} expected, {unexpected} unexpected)")
    if ignore:
        print(f"ignored fields: {', '.join(ignore)}")
    if by_field:
        print(f"{'field':<32} {'unexpected':>10} {'expected':>9}")
        for f in sorted(by_field):
            print(f"{f:<32} {by_field[f][0]:>10} {by_field[f][1]:>9}")
    for group in labels + [None]:
        members = [d for d in differing if d[1] == group]
        if not members:
            continue
        print(f"\n{'unexpected' if group is None else 'expected: ' + group} "
              f"({len(members)} cases)")
        for cid, _, changes in members:
            print(f"  {cid}")
            print("      " + "; ".join(f"{f}: {c}" for f, c in changes.items()))
    return 1 if unexpected else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser(
        "record", help="solve a named grid into a JSON-lines record"
    )
    rec.add_argument("--grid", choices=sorted(GRIDS), required=True)
    rec.add_argument("--out", type=Path, required=True)
    cmp_ = sub.add_parser("compare", help="compare two records case by case")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    cmp_.add_argument("--expect", nargs="+", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="cases allowed to differ (all tokens must match)")
    cmp_.add_argument("--ignore", action="append", default=[], metavar="FIELD",
                      help="leave FIELD out of the comparison")
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.grid, args.out)
    return compare(args.a, args.b, args.expect, args.ignore)


if __name__ == "__main__":
    sys.exit(main())
