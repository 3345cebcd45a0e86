"""From-scratch sparse linear algebra substrate.

The paper assumes a sparse SPD system ``Au = b`` with at most ``d``
nonzeros per row; this subpackage provides everything the solvers and the
machine model need to talk about such systems:

* :mod:`repro.sparse.csr` -- the compute format: every sparse product
  runs scipy's compiled CSR kernel, instrumented via
  :mod:`repro.util.counters`.  :mod:`repro.sparse.coo` (assembly) and
  :mod:`repro.sparse.ell` (ELLPACK, an input format that solves run on
  its CSR) feed it.
* :mod:`repro.sparse.linop` -- the abstract operator protocol the solvers
  are written against.
* :mod:`repro.sparse.generators` -- the model problems (Poisson
  stencils, anisotropic diffusion, banded random SPD); graph Laplacians
  are assembled from edge lists in :mod:`repro.zoo.graphs`.
* :mod:`repro.sparse.mmio` -- MatrixMarket I/O for user-supplied matrices.
* :mod:`repro.sparse.stats` -- row-degree and spectrum statistics feeding
  the machine model and experiment reports.
"""

from repro.sparse.coo import COOBuilder
from repro.sparse.csr import CSRMatrix, diag_matrix, from_dense, identity
from repro.sparse.ell import ELLMatrix, csr_to_ell
from repro.sparse.generators import (
    anisotropic2d,
    banded_spd,
    dense_spd_csr,
    poisson1d,
    poisson2d,
    poisson3d,
    tridiag_toeplitz,
)
from repro.sparse.linop import (
    CallableOperator,
    DenseOperator,
    LinearOperator,
    NormalOperator,
    as_operator,
    block_matvec,
    operator_dtype,
)
from repro.sparse.matrix_powers import MatrixPowersKernel, PowersStats, RowPartition
from repro.sparse.mmio import read_matrix_market, write_matrix_market
from repro.sparse.reorder import bandwidth, permute_symmetric, rcm_permutation
from repro.sparse.stats import MatrixStats, estimate_extreme_eigenvalues, matrix_stats
from repro.sparse.trisolve import solve_lower, solve_upper

__all__ = [
    "COOBuilder",
    "CSRMatrix",
    "diag_matrix",
    "from_dense",
    "identity",
    "ELLMatrix",
    "csr_to_ell",
    "anisotropic2d",
    "banded_spd",
    "dense_spd_csr",
    "poisson1d",
    "poisson2d",
    "poisson3d",
    "tridiag_toeplitz",
    "CallableOperator",
    "DenseOperator",
    "LinearOperator",
    "NormalOperator",
    "as_operator",
    "block_matvec",
    "operator_dtype",
    "MatrixPowersKernel",
    "PowersStats",
    "RowPartition",
    "read_matrix_market",
    "write_matrix_market",
    "bandwidth",
    "permute_symmetric",
    "rcm_permutation",
    "MatrixStats",
    "estimate_extreme_eigenvalues",
    "matrix_stats",
    "solve_lower",
    "solve_upper",
]
