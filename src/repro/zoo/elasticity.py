"""Matrix-free 3D linear-elasticity operator (Navier--Cauchy stencil).

The workload a matrix-free interface exists for: the discrete
Navier--Cauchy operator

.. math::

    (A u)_c = \\mu \\, (-\\nabla^2 u_c) - (\\lambda + \\mu)\\,
              \\partial_c (\\nabla \\cdot u)

on a 3-component displacement field over an ``(nx, ny, nz)`` grid with
homogeneous Dirichlet boundaries.  Assembled, each row couples ~15
neighbours across all three components; applied as slicing arithmetic it
is a dozen fused array statements and never materializes a matrix.

Discretely: the Laplacian term is the SPD 7-point stencil per component,
and the grad-div term uses central differences ``D_c`` (antisymmetric
under zero padding, and commuting across axes), so the grad-div block
``-(D_c D_{c'})`` is symmetric positive semi-definite --
``uᵀ(-D D)u = ||div u||² ≥ 0`` -- making the whole operator SPD for
``μ > 0``, ``λ + μ ≥ 0``.
"""

from __future__ import annotations

import numpy as np

from repro.util.counters import add_matvec
from repro.util.validation import require_positive_int

__all__ = ["Elasticity3D"]


def _laplace7(u: np.ndarray) -> np.ndarray:
    """SPD 7-point ``-∇²`` with zero-Dirichlet boundary (unit spacing)."""
    y = 6.0 * u
    y[1:, :, :] -= u[:-1, :, :]
    y[:-1, :, :] -= u[1:, :, :]
    y[:, 1:, :] -= u[:, :-1, :]
    y[:, :-1, :] -= u[:, 1:, :]
    y[:, :, 1:] -= u[:, :, :-1]
    y[:, :, :-1] -= u[:, :, 1:]
    return y


def _cdiff(u: np.ndarray, axis: int) -> np.ndarray:
    """Central difference along ``axis`` with zero padding (antisymmetric)."""
    d = np.zeros_like(u)
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    mid = [slice(None)] * 3
    lo[axis] = slice(None, -2)
    hi[axis] = slice(2, None)
    mid[axis] = slice(1, -1)
    d[tuple(mid)] = 0.5 * (u[tuple(hi)] - u[tuple(lo)])
    first = [slice(None)] * 3
    second = [slice(None)] * 3
    first[axis] = 0
    second[axis] = 1
    d[tuple(first)] = 0.5 * u[tuple(second)]
    last = [slice(None)] * 3
    penult = [slice(None)] * 3
    last[axis] = -1
    penult[axis] = -2
    d[tuple(last)] = -0.5 * u[tuple(penult)]
    return d


class Elasticity3D:
    """The Navier--Cauchy operator on an ``(nx, ny, nz)`` displacement grid.

    Parameters
    ----------
    nx, ny, nz:
        Grid extents; the operator dimension is ``3·nx·ny·nz`` (three
        displacement components, component-major layout).
    lam, mu:
        Lamé parameters; ``mu > 0`` and ``lam + mu >= 0`` keep the
        operator SPD.
    """

    #: Couplings per row: 7-point Laplacian plus ~2 central-difference
    #: entries against each of the other displacement components.
    ROW_DEGREE = 15

    def __init__(
        self, nx: int, ny: int, nz: int, *, lam: float = 1.0, mu: float = 1.0
    ) -> None:
        self._dims = (
            require_positive_int(nx, "nx"),
            require_positive_int(ny, "ny"),
            require_positive_int(nz, "nz"),
        )
        if mu <= 0 or lam + mu < 0:
            raise ValueError(
                f"need mu > 0 and lam + mu >= 0 for an SPD operator, "
                f"got lam={lam}, mu={mu}"
            )
        self._lam = float(lam)
        self._mu = float(mu)
        self._n = 3 * nx * ny * nz

    @property
    def shape(self) -> tuple[int, int]:
        """``(3·nx·ny·nz,) × 2``."""
        return (self._n, self._n)

    @property
    def dims(self) -> tuple[int, int, int]:
        """The grid extents ``(nx, ny, nz)``."""
        return self._dims

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the stencil; books one matvec on the ambient counter."""
        tracer = add_matvec(self.ROW_DEGREE * self._n, self._n)
        u = np.asarray(x, dtype=np.float64).reshape((3, *self._dims))
        gradv = self._lam + self._mu
        div = _cdiff(u[0], 0) + _cdiff(u[1], 1) + _cdiff(u[2], 2)
        y = np.empty_like(u)
        for c in range(3):
            y[c] = self._mu * _laplace7(u[c]) - gradv * _cdiff(div, c)
        if tracer is not None:
            tracer.end("matvec")
        return y.reshape(self._n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def max_row_degree(self) -> int:
        """Declared stencil width for the machine model."""
        return self.ROW_DEGREE

    def fingerprint(self) -> tuple:
        """Content key: fully determined by dims and the Lamé parameters."""
        return ("elasticity3d", self._dims, self._lam, self._mu)
