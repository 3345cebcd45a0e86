"""Inner-product moment windows and their one-step recurrences.

This module is the algebraic core of the reproduction.  Define, at CG
iteration ``n``, the three moment families the paper's Section 5 maintains::

    μᵢ = (rⁿ, Aⁱ rⁿ)      i = 0 .. 2k
    νᵢ = (rⁿ, Aⁱ pⁿ)      i = 0 .. 2k+1
    σᵢ = (pⁿ, Aⁱ pⁿ)      i = 0 .. 2k+2

where ``k`` is the look-ahead parameter.  Substituting the CG vector
updates ``rⁿ⁺¹ = rⁿ − λn Apⁿ`` and ``pⁿ⁺¹ = rⁿ⁺¹ + αn+1 pⁿ`` into the
definitions yields the *one-step scalar recurrences* (``α' = αn+1``)::

    μᵢⁿ⁺¹ = μᵢ − 2 λn νᵢ₊₁ + λn² σᵢ₊₂
    wᵢ    = νᵢ − λn σᵢ₊₁                  [ wᵢ = (rⁿ⁺¹, Aⁱ pⁿ) ]
    νᵢⁿ⁺¹ = μᵢⁿ⁺¹ + α' wᵢ
    σᵢⁿ⁺¹ = μᵢⁿ⁺¹ + 2 α' wᵢ + α'² σᵢ

The window widths are chosen so that **exactly two** values per iteration
fall outside what the recurrences can reach (claim C6): the new top moments
``μ₂ₖ₊₁ⁿ⁺¹`` and ``σ₂ₖ₊₂ⁿ⁺¹`` must be supplied from direct inner products
(computed cheaply from the Krylov power vectors of
:mod:`repro.core.powers` by symmetric splitting).  Everything else advances
with O(k) scalar flops and -- crucially for the paper's argument -- *no*
length-N reductions.

The CG scalars are then read off the window: ``λn = μ₀/σ₁`` and
``αn+1 = μ₀ⁿ⁺¹/μ₀ⁿ``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.counters import add_scalar_flops, traced
from repro.util.kernels import dot
from repro.util.validation import require_nonnegative_int

__all__ = ["MomentWindow", "direct_moment", "initial_window", "window_from_powers"]


def direct_moment(
    left_powers: np.ndarray, right_powers: np.ndarray, i: int, *, label: str | None = None
) -> float:
    """Compute ``(x, Aⁱ y)`` from stored power vectors by splitting.

    ``left_powers[j] = Aʲ x`` and ``right_powers[j] = Aʲ y``; by symmetry of
    A, ``(x, Aⁱ y) = (A^⌊i/2⌋ x, A^⌈i/2⌉ y)``, so a moment of order ``i``
    needs powers only up to ``⌈i/2⌉`` -- this is how the startup fills the
    window and how the two per-iteration direct products stay cheap.
    """
    lo, hi = i // 2, i - i // 2
    if lo >= left_powers.shape[0] or hi >= right_powers.shape[0]:
        raise ValueError(
            f"moment order {i} needs powers ({lo}, {hi}) but only "
            f"({left_powers.shape[0]}, {right_powers.shape[0]}) are stored"
        )
    return dot(left_powers[lo], right_powers[hi], label=label)


@dataclass
class MomentWindow:
    """The sliding window of moments at one CG iteration.

    Attributes
    ----------
    k:
        Look-ahead parameter (``k >= 0``).  Window widths follow the
        derivation above: ``mu`` holds indices ``0..2k``, ``nu`` holds
        ``0..2k+1`` and ``sigma`` holds ``0..2k+2``.
    mu, nu, sigma:
        The moment arrays.
    """

    k: int
    mu: np.ndarray
    nu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.k = require_nonnegative_int(self.k, "k")
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.nu = np.asarray(self.nu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != (2 * self.k + 1,):
            raise ValueError(
                f"mu must have {2 * self.k + 1} entries, got {self.mu.shape}"
            )
        if self.nu.shape != (2 * self.k + 2,):
            raise ValueError(
                f"nu must have {2 * self.k + 2} entries, got {self.nu.shape}"
            )
        if self.sigma.shape != (2 * self.k + 3,):
            raise ValueError(
                f"sigma must have {2 * self.k + 3} entries, got {self.sigma.shape}"
            )

    # ------------------------------------------------------------------
    # CG scalars
    # ------------------------------------------------------------------
    @property
    def rr(self) -> float:
        """``(rⁿ, rⁿ) = μ₀`` -- the recurred residual norm squared."""
        return float(self.mu[0])

    @property
    def pap(self) -> float:
        """``(pⁿ, Apⁿ) = σ₁`` -- the recurred curvature term."""
        return float(self.sigma[1])

    def lam(self) -> float:
        """The step length ``λn = μ₀ / σ₁`` (paper notation)."""
        add_scalar_flops(1)
        return self.rr / self.pap

    # ------------------------------------------------------------------
    # Advance
    # ------------------------------------------------------------------
    @traced("recurrence")
    def advance_mu(self, lam: float) -> np.ndarray:
        """Apply the μ-recurrence; returns ``μⁿ⁺¹`` without mutating self.

        Only ``λn`` is needed -- this is the structural fact that breaks
        the apparent circularity in the paper's pipeline: ``αn+1`` is a
        ratio of ``μ₀ⁿ⁺¹`` (computable now) to ``μ₀ⁿ`` (known).
        """
        m = 2 * self.k + 1
        add_scalar_flops(5 * m)
        return self.mu - 2.0 * lam * self.nu[1 : m + 1] + lam * lam * self.sigma[2 : m + 2]

    @traced("recurrence")
    def advanced(
        self,
        lam: float,
        alpha_next: float,
        mu_top_direct: float,
        sigma_top_direct: float,
        mu_new_body: np.ndarray | None = None,
    ) -> "MomentWindow":
        """Produce the window at iteration ``n+1``.

        Parameters
        ----------
        lam:
            ``λn``.
        alpha_next:
            ``αn+1``.
        mu_top_direct:
            The directly computed ``μ₂ₖ₊₁ⁿ⁺¹ = (rⁿ⁺¹, A^{2k+1} rⁿ⁺¹)`` --
            direct product #1 of claim C6.
        sigma_top_direct:
            The directly computed ``σ₂ₖ₊₂ⁿ⁺¹ = (pⁿ⁺¹, A^{2k+2} pⁿ⁺¹)`` --
            direct product #2 of claim C6.
        mu_new_body:
            The result of :meth:`advance_mu`, if the caller already
            computed it (the solver needs ``μ₀ⁿ⁺¹`` early to form
            ``αn+1``); recomputed here when omitted.
        """
        k = self.k
        if mu_new_body is None:
            mu_new_body = self.advance_mu(lam)  # indices 0..2k

        # w_i = (r^{n+1}, A^i p^n), i = 0..2k+1
        w = self.nu - lam * self.sigma[1:]
        add_scalar_flops(2 * w.size)

        # mu^{n+1} extended with the direct top for the nu/sigma updates.
        mu_ext = np.empty(2 * k + 2)
        mu_ext[: 2 * k + 1] = mu_new_body
        mu_ext[2 * k + 1] = mu_top_direct

        nu_new = mu_ext + alpha_next * w
        add_scalar_flops(2 * nu_new.size)

        sigma_new = np.empty(2 * k + 3)
        sigma_new[: 2 * k + 2] = (
            mu_ext + 2.0 * alpha_next * w + alpha_next * alpha_next * self.sigma[: 2 * k + 2]
        )
        sigma_new[2 * k + 2] = sigma_top_direct
        add_scalar_flops(5 * (2 * k + 2))

        return MomentWindow(k=k, mu=mu_new_body, nu=nu_new, sigma=sigma_new)

    # ------------------------------------------------------------------
    # Stacked form (for the coefficient analysis)
    # ------------------------------------------------------------------
    def stacked(self) -> np.ndarray:
        """Concatenate ``[μ | ν | σ]`` into the state vector the composed
        k-step relation (*) operates on (length ``6k + 6``)."""
        return np.concatenate([self.mu, self.nu, self.sigma])

    @property
    def state_size(self) -> int:
        """Length of :meth:`stacked`."""
        return 6 * self.k + 6


@traced("local_dot")
def window_from_powers(
    k: int, r_powers: np.ndarray, p_powers: np.ndarray, *, label: str = "rebuild_dot"
) -> MomentWindow:
    """Fill a whole moment window by direct inner products (one fused
    batch, recorded as one ``local_dot`` span).

    Requires ``r_powers`` rows ``0..k+1`` (``Aʲ r``) and ``p_powers`` rows
    ``0..k+1`` (``Aʲ p``); every moment order in the window is then
    reachable by symmetric splitting.  Used at residual-replacement points,
    where the recurred window is discarded and rebuilt from fresh vectors
    (the stability mitigation measured in E7).
    """
    k = require_nonnegative_int(k, "k")
    if r_powers.shape[0] < k + 2 or p_powers.shape[0] < k + 2:
        raise ValueError("window_from_powers needs powers up to order k+1")
    mu = np.array(
        [direct_moment(r_powers, r_powers, i, label=label) for i in range(2 * k + 1)]
    )
    nu = np.array(
        [direct_moment(r_powers, p_powers, i, label=label) for i in range(2 * k + 2)]
    )
    sigma = np.array(
        [direct_moment(p_powers, p_powers, i, label=label) for i in range(2 * k + 3)]
    )
    return MomentWindow(k=k, mu=mu, nu=nu, sigma=sigma)


@traced("local_dot")
def initial_window(k: int, r_powers: np.ndarray) -> MomentWindow:
    """Build the startup window at iteration 0, where ``p⁰ = r⁰``.

    All three families coincide initially (``μᵢ = νᵢ = σᵢ = (r⁰, Aⁱ r⁰)``),
    and every moment up to order ``2k+2`` is computable from the stored
    powers ``r_powers[j] = Aʲ r⁰`` for ``j <= k+1`` by symmetric splitting.
    This is the paper's "initial start up".
    """
    k = require_nonnegative_int(k, "k")
    if r_powers.shape[0] < k + 2:
        raise ValueError(
            f"startup needs powers A^0..A^{k + 1} of r0; got {r_powers.shape[0]}"
        )
    base = np.array(
        [
            direct_moment(r_powers, r_powers, i, label="startup_dot")
            for i in range(2 * k + 3)
        ]
    )
    return MomentWindow(
        k=k,
        mu=base[: 2 * k + 1].copy(),
        nu=base[: 2 * k + 2].copy(),
        sigma=base.copy(),
    )
