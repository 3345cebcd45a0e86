"""s-step conjugate gradient (Chronopoulos--Gear, 1989).

The other branch of the paper's descendants: instead of *hiding* inner
product latency behind the iteration pipeline (Van Rosendale), s-step
methods *batch* it -- s CG steps are advanced per outer iteration from the
block Krylov basis ``K = [r, Ar, ..., A^{s-1}r]``, with all the inner
products of the step fused into one Gram-matrix reduction, i.e. **one
synchronization per s steps** instead of 2s.

Per outer step, with direction block ``P`` (A-conjugate to the previous
block in exact arithmetic)::

    W = Pᵀ A P                 (s x s Gram matrix -- one fused reduction)
    g = Pᵀ r
    a = W⁻¹ g;   x += P a;   r -= (AP) a
    K = [r, Ar, ..., A^{s-1} r]           (s matvecs -- 1 per CG step)
    B = -W⁻¹ (AP)ᵀ K                      (conjugate the new block)
    P = K + P B;   AP = AK + (AP) B

With ``s = 1`` this is exactly classical CG.  The monomial basis makes
``W`` ill-conditioned as s grows -- the same numerical fragility the Van
Rosendale moment recurrences show, surfacing here as a Gram matrix losing
definiteness; we solve the small systems by Cholesky with an LSTSQ
fallback and report breakdown honestly when the basis degenerates.

The fix the later s-step literature converged on is a better-conditioned
Krylov basis: ``basis="chebyshev"`` builds the block with the three-term
Chebyshev recurrence on the spectrum-shifted operator
``Â = (2A − (λmax+λmin)I)/(λmax−λmin)`` instead of raw powers, at the
same one-matvec-per-step cost, and keeps ``W`` numerically SPD to much
larger s.  Spectrum bounds come from Gershgorin by default.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.results import CGResult, SolveRun, StopReason
from repro.core.stopping import StoppingCriterion
from repro.util.counters import add_dot, add_scalar_flops, traced
from repro.util.kernels import norm
from repro.util.validation import require_positive_int

__all__ = ["sstep_cg"]


def _monomial_block(op, r: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Build ``K = [r, Ar, .., A^{s-1}r]`` and ``AK`` (s matvecs)."""
    n = r.shape[0]
    k = np.empty((n, s))
    ak = np.empty((n, s))
    k[:, 0] = r
    for i in range(s):
        ak[:, i] = op.matvec(k[:, i])
        if i + 1 < s:
            k[:, i + 1] = ak[:, i]
    return k, ak


def _chebyshev_block(
    op, r: np.ndarray, s: int, lam_min: float, lam_max: float
) -> tuple[np.ndarray, np.ndarray]:
    """Build ``K = [T₀(Â)r, .., T_{s-1}(Â)r]`` and ``AK`` (s matvecs).

    ``Â = (2A − θI)/δ`` with ``θ = λmax+λmin``, ``δ = λmax−λmin`` maps the
    spectrum into [-1, 1]; the Chebyshev columns stay O(1) in norm and
    nearly orthogonal, so the Gram matrix conditions like s, not like a
    Vandermonde matrix.
    """
    theta = lam_max + lam_min
    delta = lam_max - lam_min
    if delta <= 0:
        raise ValueError("spectrum bounds must satisfy lam_max > lam_min")
    n = r.shape[0]
    k = np.empty((n, s))
    ak = np.empty((n, s))
    k[:, 0] = r
    for i in range(s):
        ak[:, i] = op.matvec(k[:, i])  # A K_i, needed for W anyway
        if i + 1 < s:
            hat = (2.0 * ak[:, i] - theta * k[:, i]) / delta  # Â K_i
            if i == 0:
                k[:, 1] = hat
            else:
                k[:, i + 1] = 2.0 * hat - k[:, i - 1]
    return k, ak


def _gershgorin_bounds(a) -> tuple[float, float]:
    """Cheap spectrum bounds for a CSR matrix (centers ± radii)."""
    diag = a.diagonal()
    row_of = np.repeat(np.arange(a.nrows), np.diff(a.indptr))
    radii = np.zeros(a.nrows)
    off = a.indices != row_of
    np.add.at(radii, row_of[off], np.abs(a.data[off]))
    lo = float((diag - radii).min())
    hi = float((diag + radii).max())
    return max(lo, 1e-12 * hi), hi


@traced("local_dot")
def _fused_gram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``leftᵀ right`` booked as one fused batch of inner products.

    This is the s-step selling point: all s² (or s) products share one
    reduction; we book them individually on the flop counter but tag them
    as one fused group, recorded as one ``local_dot`` span.
    """
    prods = left.T @ right
    rows, cols = prods.shape if prods.ndim == 2 else (prods.shape[0], 1)
    for _ in range(rows * cols):
        add_dot(left.shape[0], label="sstep_fused_dot")
    return prods


def _solve_spd_small(w: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve the small Gram system; ``None`` signals basis breakdown."""
    add_scalar_flops(w.shape[0] ** 3)
    try:
        c = np.linalg.cholesky(w)  # raises unless W is numerically SPD
        z = np.linalg.solve(c, rhs)
        return np.linalg.solve(c.T, z)
    except np.linalg.LinAlgError:
        # lose definiteness -> try least squares; reject if still singular
        sol, _residuals, rank, _ = np.linalg.lstsq(w, rhs, rcond=None)
        if rank < w.shape[0]:
            return None
        return sol


def sstep_cg(
    a: Any,
    b: np.ndarray,
    *,
    s: int = 4,
    basis: str = "monomial",
    spectrum_bounds: tuple[float, float] | None = None,
    x0: np.ndarray | None = None,
    stop: StoppingCriterion | None = None,
    telemetry: "Telemetry | None" = None,
) -> CGResult:
    """Solve the SPD system ``A x = b`` by s-step (Chronopoulos--Gear) CG.

    Parameters
    ----------
    a, b, x0, stop:
        As in :func:`repro.core.conjugate_gradient`.
    s:
        Steps advanced per outer iteration (``s >= 1``; ``s = 1`` is
        classical CG).  With the monomial basis practical values are
        small (2..6); the Chebyshev basis extends the usable range.
    basis:
        ``"monomial"`` (the 1989 original) or ``"chebyshev"`` (the
        conditioning fix from the later s-step literature).
    spectrum_bounds:
        ``(λmin, λmax)`` estimates for the Chebyshev shift.  Defaults to
        Gershgorin bounds when ``a`` is one of our CSR matrices; required
        for abstract operators.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hook; one
        :class:`~repro.telemetry.IterationEvent` per *outer* step (its
        ``iteration`` field counts CG-equivalent steps).

    Returns
    -------
    CGResult
        ``iterations`` counts *CG-equivalent* steps (outer steps times s)
        so iteration counts are comparable across solvers;
        ``residual_norms`` is recorded once per outer step.
    """
    s = require_positive_int(s, "s")

    if basis == "monomial":
        def make_block(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _monomial_block(op, vec, s)
    elif basis == "chebyshev":
        if spectrum_bounds is None:
            if hasattr(a, "indptr") and hasattr(a, "diagonal"):
                spectrum_bounds = _gershgorin_bounds(a)
            else:
                raise ValueError(
                    "chebyshev basis needs spectrum_bounds for abstract operators"
                )
        lam_min, lam_max = spectrum_bounds

        def make_block(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _chebyshev_block(op, vec, s, lam_min, lam_max)
    else:
        raise ValueError(f"unknown basis {basis!r}")

    run = SolveRun.open(
        "sstep", f"sstep-cg(s={s})", a, b, x0=x0, stop=stop, telemetry=telemetry,
        s=s, basis=basis,
    )
    op, b, x = run.op, run.b, run.x
    n = b.shape[0]
    r = b - op.matvec(x)

    reason = StopReason.MAX_ITER
    cg_steps = 0

    if run.start(norm(r), x):
        return run.finish(StopReason.CONVERGED, x, 0)

    p_blk, ap_blk = make_block(r)
    max_outer = (run.stop.budget(n) + s - 1) // s

    for _ in range(max_outer):
        w = _fused_gram(p_blk, ap_blk)
        g = _fused_gram(p_blk, r)
        coeffs = _solve_spd_small(w, g)
        if coeffs is None or not np.all(np.isfinite(coeffs)):
            reason = StopReason.BREAKDOWN
            break
        x += p_blk @ coeffs
        r -= ap_blk @ coeffs
        cg_steps += s
        verdict = run.verdict(cg_steps, norm(r), x)
        if verdict is not None:
            reason = run.ending(verdict)
            break

        k_blk, ak_blk = make_block(r)
        cross = _fused_gram(ap_blk, k_blk)  # Pᵀ A K via symmetry
        b_mat = _solve_spd_small(w, cross)
        if b_mat is None or not np.all(np.isfinite(b_mat)):
            reason = StopReason.BREAKDOWN
            break
        p_blk = k_blk - p_blk @ b_mat
        ap_blk = ak_blk - ap_blk @ b_mat

    return run.finish(reason, x, cg_steps)
