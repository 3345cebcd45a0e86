"""Distributed vectors and matrices over a simulated row partition.

``BlockVector`` holds one contiguous block per rank; all vector
arithmetic is rank-local (embarrassingly parallel, no communication).
Each rank-parallel operation books one entry on the operation counters
-- one ``axpy`` or one inner product, whatever the rank count -- which
opens its phase span on a traced solve, so a distributed solve's counts
read like its sequential twin's.
``DistributedCSR`` holds a row partition of a CSR matrix plus the set of
off-block column indices each rank needs; its ``matvec`` performs one
halo exchange (booked on the communicator) followed by rank-local row
reductions, exactly the SPMD structure of an mpi4py implementation --
see the parallel matvec example in the mpi4py tutorial, which this
mirrors with accounting added -- and books one matvec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.comm import SimComm
from repro.sparse.csr import CSRMatrix
from repro.sparse.matrix_powers import RowPartition
from repro.util.counters import add_axpy, add_dot

__all__ = ["BlockVector", "DistributedCSR"]


@dataclass
class BlockVector:
    """A vector split into one block per rank."""

    partition: RowPartition
    blocks: list[np.ndarray]

    @classmethod
    def from_global(cls, x: np.ndarray, partition: RowPartition) -> "BlockVector":
        """Scatter a global vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (partition.n,):
            raise ValueError(f"vector has shape {x.shape}, partition n={partition.n}")
        blocks = [
            x[partition.starts[b] : partition.starts[b + 1]].copy()
            for b in range(partition.nblocks)
        ]
        return cls(partition=partition, blocks=blocks)

    @classmethod
    def zeros(cls, partition: RowPartition) -> "BlockVector":
        """The zero vector."""
        return cls.from_global(np.zeros(partition.n), partition)

    def to_global(self) -> np.ndarray:
        """Gather into a global array (diagnostics only -- a real code
        would never do this in the solver loop)."""
        return np.concatenate(self.blocks)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The gathered global vector, so a solve's exit and its
        convergence gate read a block vector as an iterate."""
        x = self.to_global()
        return x if dtype is None else x.astype(dtype, copy=False)

    def copy(self) -> "BlockVector":
        """Deep copy."""
        return BlockVector(self.partition, [b.copy() for b in self.blocks])

    # -- rank-local arithmetic (no communication) -----------------------
    def axpy_inplace(self, a: float, x: "BlockVector") -> None:
        """``self += a * x`` blockwise (one booked axpy)."""
        tracer = add_axpy(self.partition.n)
        for mine, theirs in zip(self.blocks, x.blocks):
            mine += a * theirs
        if tracer is not None:
            tracer.end("axpy")

    def scale_add(self, a: float, x: "BlockVector") -> None:
        """``self = x + a * self`` blockwise, the direction update (one
        booked axpy)."""
        tracer = add_axpy(self.partition.n)
        for mine, theirs in zip(self.blocks, x.blocks):
            mine *= a
            mine += theirs
        if tracer is not None:
            tracer.end("axpy")

    def dot_partials(self, other: "BlockVector") -> np.ndarray:
        """Per-rank partial inner products (the allreduce payload), booked
        as one inner product."""
        tracer = add_dot(self.partition.n)
        partials = np.array(
            [float(a @ b) for a, b in zip(self.blocks, other.blocks)]
        )
        if tracer is not None:
            tracer.end("local_dot")
        return partials


class DistributedCSR:
    """Row-partitioned CSR with halo-exchange matvec."""

    def __init__(self, a: CSRMatrix, partition: RowPartition) -> None:
        if a.nrows != a.ncols:
            raise ValueError("distributed matvec requires a square matrix")
        if a.nrows != partition.n:
            raise ValueError("partition does not match the matrix")
        self._a = a
        self._partition = partition
        self._ghost_cols: list[np.ndarray] = []
        for b in range(partition.nblocks):
            lo, hi = partition.starts[b], partition.starts[b + 1]
            cols = np.unique(a.indices[a.indptr[lo] : a.indptr[hi]])
            self._ghost_cols.append(cols[(cols < lo) | (cols >= hi)])

    @property
    def partition(self) -> RowPartition:
        """The row partition."""
        return self._partition

    def ghost_words(self) -> int:
        """Entries fetched per halo exchange (sum over ranks)."""
        return int(sum(g.size for g in self._ghost_cols))

    def matvec(self, x: BlockVector, comm: SimComm) -> BlockVector:
        """``A @ x`` with one booked halo exchange and one booked matvec.

        The simulation assembles the needed global entries directly (the
        accounting, not the transport, is the point), and every rank's
        row slice rides one product: each row sums its stored entries in
        order, so the blocks are bit for bit a per-rank product's.
        """
        if comm.nranks != self._partition.nblocks:
            raise ValueError("communicator size does not match the partition")
        comm.record_halo_exchange(self.ghost_words())
        y = self._a.matvec(x.to_global())  # owned + fetched ghosts
        return BlockVector(
            self._partition, np.split(y, self._partition.starts[1:-1])
        )
