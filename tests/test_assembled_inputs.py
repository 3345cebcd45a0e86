"""Every assembled input a solve accepts runs on CSR's compiled product.

An ELL matrix is an input format: the front door and ``as_operator``
turn it into its CSR once, so every method, the batched path and the
string preconditioners give the CSR input's answer bit for bit.  The
methods that need assembled structure (s-step, the stationary sweeps,
the distributed solvers) take a dense array or a scipy sparse matrix
the same way, through :func:`repro.sparse.csr.as_csr`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve, solve_batched
from repro.backend.cache import matrix_fingerprint
from repro.registry import available_methods, method_entry
from repro.sparse import csr_to_ell, poisson2d
from repro.util.rng import default_rng

A = poisson2d(10)
B = default_rng(0).standard_normal(A.nrows)

STRUCTURE_METHODS = [
    m for m in available_methods() if not method_entry(m).supports_operator
]

INPUTS = {
    "ell": csr_to_ell,
    "ndarray": lambda a: a.todense(),
    "scipy": lambda a: a.to_scipy(),
}


def _same(got, want) -> None:
    assert got.x.tobytes() == want.x.tobytes()
    assert got.iterations == want.iterations


@pytest.mark.parametrize("method", available_methods())
def test_ell_input_solves_like_csr(method):
    _same(solve(csr_to_ell(A), B, method), solve(A, B, method))


@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("method", STRUCTURE_METHODS)
def test_structure_methods_take_every_assembled_input(method, kind):
    _same(solve(INPUTS[kind](A), B, method), solve(A, B, method))


@pytest.mark.parametrize("precond", ["jacobi", "ssor", "ic0"])
@pytest.mark.parametrize("method", ["cg", "vr"])
def test_ell_input_preconditions_like_csr(method, precond):
    want = solve(A, B, method, precond=precond)
    _same(solve(csr_to_ell(A), B, method, precond=precond), want)
    for kind in ("ndarray", "scipy"):
        got = solve(INPUTS[kind](A), B, method, precond=precond)
        # The operator stays a dense or scipy product; only the
        # factorization is built on the CSR.
        assert got.converged
        np.testing.assert_allclose(got.x, want.x, atol=1e-6 * np.abs(want.x).max())


def test_ell_input_batched_like_csr():
    block = default_rng(1).standard_normal((A.nrows, 5))
    got = solve_batched(csr_to_ell(A), block)
    want = solve_batched(A, block)
    assert got.x.tobytes() == want.x.tobytes()
    assert list(got.column_iterations) == list(want.column_iterations)


def test_ell_fingerprint_is_its_csr_fingerprint():
    ell = csr_to_ell(A)
    assert matrix_fingerprint(ell) == matrix_fingerprint(ell.to_csr())
    assert matrix_fingerprint(ell) == matrix_fingerprint(A)
