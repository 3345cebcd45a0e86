"""E12 -- extension: supplying the power block with one communication.

The restructured algorithm's operands are the Krylov powers ``Aⁱr``
(``i ≤ k+1``).  On the paper's shared-memory model they cost nothing
extra; on a distributed row-partitioned machine the naive computation
costs one halo exchange per power.  The matrix powers kernel of the CA
literature -- the direct engineering descendant of this paper's idea --
fetches the k-hop ghost region once and recomputes redundantly.

This experiment measures the trade on 2-D Poisson partitions:

* correctness: the kernel's powers equal the global computation exactly;
* communication: k rounds collapse to 1, with fetch volume growing
  ~linearly in k (k surface shells);
* redundancy: extra flops grow superlinearly in k but stay a small
  fraction while the blocks are much larger than the k-hop surface --
  the regime where communication-avoiding pays, quantified.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentReport, register
from repro.sparse.generators import poisson2d
from repro.sparse.matrix_powers import MatrixPowersKernel, RowPartition
from repro.util.rng import default_rng
from repro.util.tables import Table

__all__ = ["run"]


@register("E12")
def run(*, fast: bool = True, nblocks: int = 4) -> ExperimentReport:
    """Sweep k on a partitioned Poisson problem; measure the CA trade."""
    grid = 24 if fast else 48
    a = poisson2d(grid)
    part = RowPartition.uniform(a.nrows, nblocks)
    x = default_rng(77).standard_normal(a.nrows)

    ks = [1, 2, 4, 6] if fast else [1, 2, 3, 4, 6, 8, 10, 12]
    # Analytic shape for slab partitions of a 2-D grid: each level of the
    # cone recomputes ~one extra grid line per hop per slab side, so the
    # redundant fraction is ~ (k-1)/2 * nblocks / grid.
    def model(k: int) -> float:
        return max(k - 1, 0) / 2 * 2 * nblocks / grid

    table = Table(
        ["k", "rounds saved", "ghost words", "volume vs k one-hop fetches",
         "redundant flops (frac)", "model (k-1)*nblocks/grid", "exact"],
        title=f"E12: matrix powers kernel, poisson2d({grid}), {nblocks} slab blocks",
    )
    all_exact = True
    redundancies = []
    volumes = []
    model_ok = True
    for k in ks:
        kernel = MatrixPowersKernel(a, part, k)
        powers = kernel.compute(x)
        # global oracle
        oracle = [x]
        for _ in range(k):
            oracle.append(a.matvec(oracle[-1]))
        # per-row dots sum in another order than the CSR kernel; powers
        # of A amplify the last-ulp differences, so compare to rounding,
        # not bitwise
        exact = bool(np.allclose(powers, np.array(oracle), rtol=1e-8))
        all_exact = all_exact and exact
        stats = kernel.stats()
        frac = stats.redundancy - 1.0
        redundancies.append(frac)
        volumes.append(stats.ghost_words)
        table.add(
            k,
            stats.communication_rounds_saved,
            stats.ghost_words,
            round(stats.volume_overhead, 3),
            round(frac, 4),
            round(model(k), 4),
            exact,
        )
        if k > 1:
            model_ok = model_ok and 0.4 * model(k) <= frac <= 2.5 * model(k)

    monotone_redundancy = all(
        r2 >= r1 for r1, r2 in zip(redundancies, redundancies[1:])
    )
    monotone_volume = all(v2 >= v1 for v1, v2 in zip(volumes, volumes[1:]))

    passed = (
        all_exact
        and monotone_redundancy
        and monotone_volume
        and model_ok
        and redundancies[-1] < 1.0  # still cheaper than doubling the work
    )

    findings = [
        "context: the paper's power block needs A^i r; on distributed "
        "machines its descendants compute it with the matrix powers "
        "kernel -- one ghost fetch, redundant local work.",
        "measured: the kernel's powers match the global computation to "
        "rounding for every k and partition tested.",
        f"measured: k communication rounds collapse to one; redundant "
        f"work follows the surface model (k-1)*nblocks/grid, reaching "
        f"{redundancies[-1]:.1%} at k={ks[-1]} on these thin slab blocks "
        "-- proportional to the surface-to-volume ratio, so it vanishes "
        "on realistically fat subdomains.  Trading O(k) extra surface "
        "flops for k-1 latency rounds is exactly the bargain the paper "
        "strikes at the algorithm level.",
    ]
    return ExperimentReport(
        exp_id="E12",
        claim="extension (distributed substrate)",
        title="Matrix powers kernel: one communication for the power block",
        tables=[table],
        findings=findings,
        passed=passed,
    )
