"""Simulated distributed-memory execution of the solver family.

The machine model measures depth; this subpackage executes the solvers
with message-passing *semantics* (rank-local blocks, halo-exchange
matvecs, allreduce dot products -- the SPMD shape of an mpi4py code) and
counts what each algorithm pays in synchronization:

* classical CG: **2 blocking** allreduces per iteration;
* Chronopoulos--Gear: **1 blocking** (fused pair);
* pipelined Van Rosendale: **0 blocking** in steady state -- every moment
  reduction is nonblocking with k iterations of slack, and the
  communicator books a forced wait if any result is read early (none
  ever is; experiment E13 asserts it).
"""

from repro.distributed.comm import CommStats, PendingReduction, SimComm
from repro.distributed.data import BlockVector, DistributedCSR
from repro.distributed.solvers import (
    distributed_cg,
    distributed_cgcg,
    distributed_pipelined_vr,
    distributed_sstep,
)

__all__ = [
    "CommStats",
    "PendingReduction",
    "SimComm",
    "BlockVector",
    "DistributedCSR",
    "distributed_cg",
    "distributed_cgcg",
    "distributed_sstep",
    "distributed_pipelined_vr",
]
