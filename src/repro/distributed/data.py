"""Distributed vectors and matrices over a simulated row partition.

``BlockVector`` holds one contiguous block per rank; all vector
arithmetic is rank-local (embarrassingly parallel, no communication).
Each rank-parallel operation records one phase span (``axpy``,
``local_dot``, ``matvec``) on a traced solve.
``DistributedCSR`` holds each rank's row slice of a CSR matrix plus the
set of off-block column indices it needs; its ``matvec`` performs one
halo exchange (booked on the communicator) followed by rank-local row
reductions, exactly the SPMD structure of an mpi4py implementation --
see the parallel matvec example in the mpi4py tutorial, which this
mirrors with accounting added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.comm import SimComm
from repro.sparse.csr import CSRMatrix
from repro.sparse.matrix_powers import RowPartition
from repro.util.counters import traced

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

    def copy(self) -> "BlockVector":
        """Deep copy."""
        return BlockVector(self.partition, [b.copy() for b in self.blocks])

    # -- rank-local arithmetic (no communication) -----------------------
    @traced("axpy")
    def axpy_inplace(self, a: float, x: "BlockVector") -> None:
        """``self += a * x`` blockwise."""
        for mine, theirs in zip(self.blocks, x.blocks):
            mine += a * theirs

    @traced("axpy")
    def scale_add(self, a: float, x: "BlockVector") -> None:
        """``self = x + a * self`` blockwise (the direction update)."""
        for mine, theirs in zip(self.blocks, x.blocks):
            mine *= a
            mine += theirs

    @traced("local_dot")
    def dot_partials(self, other: "BlockVector") -> np.ndarray:
        """Per-rank partial inner products (the allreduce payload)."""
        return np.array(
            [float(a @ b) for a, b in zip(self.blocks, other.blocks)]
        )


class DistributedCSR:
    """Row-partitioned CSR with halo-exchange matvec."""

    def __init__(self, a: CSRMatrix, partition: RowPartition) -> None:
        if a.nrows != a.ncols:
            raise ValueError("distributed matvec requires a square matrix")
        if a.nrows != partition.n:
            raise ValueError("partition does not match the matrix")
        self._partition = partition
        self._local: list[CSRMatrix] = []
        self._ghost_cols: list[np.ndarray] = []
        for b in range(partition.nblocks):
            lo, hi = partition.starts[b], partition.starts[b + 1]
            indptr = (a.indptr[lo : hi + 1] - a.indptr[lo]).copy()
            indices = a.indices[a.indptr[lo] : a.indptr[hi]].copy()
            data = a.data[a.indptr[lo] : a.indptr[hi]].copy()
            self._local.append(
                CSRMatrix(int(hi - lo), a.ncols, indptr, indices, data)
            )
            cols = np.unique(indices)
            off_block = cols[(cols < lo) | (cols >= hi)]
            self._ghost_cols.append(off_block)

    @property
    def partition(self) -> RowPartition:
        """The row partition."""
        return self._partition

    def ghost_words(self) -> int:
        """Entries fetched per halo exchange (sum over ranks)."""
        return int(sum(g.size for g in self._ghost_cols))

    @traced("matvec")
    def matvec(self, x: BlockVector, comm: SimComm) -> BlockVector:
        """``A @ x`` with one booked halo exchange.

        The simulation assembles the needed global entries directly (the
        accounting, not the transport, is the point).
        """
        if comm.nranks != self._partition.nblocks:
            raise ValueError("communicator size does not match the partition")
        comm.record_halo_exchange(self.ghost_words())
        x_global = x.to_global()  # stands in for owned + fetched ghosts
        out_blocks = [loc.matvec(x_global) for loc in self._local]
        return BlockVector(self._partition, out_blocks)
