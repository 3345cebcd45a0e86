"""Graph Laplacian workloads assembled straight from edge lists.

Real graph workloads usually arrive as a raw edge list (road networks,
mesh connectivity, social graphs).  :func:`edge_list_laplacian`
assembles ``L = D - W + shift·I`` from ``(u, v)`` pairs with no graph
library in the loop -- one vectorized :class:`~repro.sparse.coo.COOBuilder`
pass -- and :func:`random_graph_laplacian` synthesizes a seeded
irregular-degree instance for the operator-zoo benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOBuilder
from repro.sparse.csr import CSRMatrix
from repro.util.validation import require_positive_int

__all__ = ["edge_list_laplacian", "random_graph_laplacian"]


def edge_list_laplacian(
    edges: np.ndarray,
    *,
    n: int | None = None,
    weights: np.ndarray | None = None,
    shift: float = 0.0,
) -> CSRMatrix:
    """The shifted graph Laplacian ``L = D - W + shift·I`` of an edge list.

    Parameters
    ----------
    edges:
        ``(m, 2)`` integer array of undirected edges ``(u, v)``; each pair
        contributes symmetrically.  Self-loops are ignored (they cancel in
        ``D - W``); duplicate edges accumulate their weights.
    n:
        Node count.  Defaults to ``max(edges) + 1``.
    weights:
        Optional ``(m,)`` positive edge weights; defaults to 1.
    shift:
        Diagonal shift.  The Laplacian itself is positive
        *semi*-definite (constant vectors are in its null space); any
        positive shift makes it SPD, which CG requires.

    Returns
    -------
    CSRMatrix
        The assembled Laplacian, with irregular row degrees -- the
        structural complement of the fixed-stencil grid generators.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be an (m, 2) array, got shape {edges.shape}")
    m = edges.shape[0]
    if weights is None:
        w = np.ones(m)
    else:
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.shape[0] != m:
            raise ValueError(
                f"weights must have one entry per edge ({m}), got {w.shape[0]}"
            )
        if np.any(w <= 0):
            raise ValueError("edge weights must be positive (SPD Laplacian)")
    if m and edges.min() < 0:
        raise ValueError("edge endpoints must be nonnegative node indices")
    inferred = int(edges.max()) + 1 if m else 0
    n = require_positive_int(inferred if n is None else n, "n")
    if inferred > n:
        raise ValueError(
            f"edge endpoint {inferred - 1} exceeds node count n={n}"
        )

    keep = edges[:, 0] != edges[:, 1]  # self-loops cancel in D - W
    u, v, w = edges[keep, 0], edges[keep, 1], w[keep]
    builder = COOBuilder(n, n)
    builder.add_batch(u, v, -w)
    builder.add_batch(v, u, -w)
    degree = np.zeros(n)
    np.add.at(degree, u, w)
    np.add.at(degree, v, w)
    idx = np.arange(n, dtype=np.int64)
    builder.add_batch(idx, idx, degree + float(shift))
    return builder.to_csr()


def random_graph_laplacian(
    n: int,
    *,
    avg_degree: int = 6,
    shift: float = 1e-2,
    seed: int = 0,
) -> CSRMatrix:
    """A seeded irregular random-graph Laplacian for workload replay.

    Draws ``n·avg_degree/2`` random endpoint pairs with weights uniform in
    ``[0.5, 1.5]`` -- duplicates and the handful of self-loops are handled
    by :func:`edge_list_laplacian`, so degrees come out genuinely ragged
    (Poisson-ish), unlike the regular-graph generator used by E4.
    """
    n = require_positive_int(n, "n")
    avg_degree = require_positive_int(avg_degree, "avg_degree")
    rng = np.random.default_rng(seed)
    m = max(n * avg_degree // 2, 1)
    edges = rng.integers(0, n, size=(m, 2))
    weights = rng.uniform(0.5, 1.5, size=m)
    return edge_list_laplacian(edges, n=n, weights=weights, shift=shift)
