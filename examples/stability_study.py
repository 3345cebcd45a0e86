#!/usr/bin/env python3
"""Finite-precision behaviour of the moment recurrences.

The honest counterpart to the depth story: recurring (r, r) across
iterations drifts geometrically, faster for larger look-ahead k.  This
script plots (in ASCII) the drift of the recurred residual against the
true residual for several k, then shows the two mitigations: periodic
residual replacement, and the pipelined formulation that re-anchors to
fresh inner products every iteration.

Run:  python examples/stability_study.py
"""

from __future__ import annotations

import math

import numpy as np

from repro import (
    StoppingCriterion,
    conjugate_gradient,
    pipelined_vr_cg,
    poisson2d,
    vr_conjugate_gradient,
)
from repro.experiments.stability import drift_history
from repro.faults import RecoveryPolicy
from repro.util.tables import Table


def ascii_series(errs: list[float], *, floor: float = 1e-17) -> str:
    """Render a drift history as a log-scale ASCII bar row."""
    chars = []
    for e in errs:
        if not (e > 0) or math.isnan(e):
            chars.append(" ")
            continue
        level = (math.log10(max(e, floor)) + 17) / 17  # 1e-17..1 -> 0..1
        bars = " .:-=+*#%@"
        chars.append(bars[min(int(level * (len(bars) - 1)), len(bars) - 1)])
    return "".join(chars)


def main() -> None:
    """Drift histories and mitigation comparison on a Poisson problem."""
    a = poisson2d(14)
    rng = np.random.default_rng(9)
    b = rng.standard_normal(a.nrows)

    print("relative drift of recurred ||r|| vs true ||r||, per iteration")
    print("(log scale: ' ' ~ 1e-17 ... '@' ~ 1; eager solver, no replacement)")
    print()
    for k in (0, 1, 2, 4, 6):
        errs = drift_history(a, b, k, 24)
        print(f"  k={k}:  |{ascii_series(errs)}|")
    print()
    print("each extra level of look-ahead amplifies the drift -- the")
    print("instability later s-step literature documented for this method.")
    print()

    stop = StoppingCriterion(rtol=1e-8, max_iter=1500)
    ref = conjugate_gradient(a, b, stop=stop)
    table = Table(
        ["solver", "converged", "iterations", "true residual"],
        title=f"mitigations (classical cg: {ref.iterations} iterations)",
    )
    for label, res in [
        ("vr(k=4), no replacement",
         vr_conjugate_gradient(a, b, k=4, stop=stop)),
        ("vr(k=4), replace every 5",
         vr_conjugate_gradient(a, b, k=4, stop=stop,
                               recovery=RecoveryPolicy(replace_every=5))),
        ("vr(k=4), replace every 15",
         vr_conjugate_gradient(a, b, k=4, stop=stop,
                               recovery=RecoveryPolicy(replace_every=15))),
        ("pipelined vr(k=4)",
         pipelined_vr_cg(a, b, k=4, stop=stop)),
    ]:
        table.add(label, res.converged, res.iterations, res.true_residual_norm)
    print(table.render())


if __name__ == "__main__":
    main()
