"""Recovery policies: detection + repair for corrupted recurrence state.

One :class:`RecoveryPolicy`, passed as ``recovery=``, is the only way to
ask a solver for residual repair; every solver family interprets it:

* **Periodic replacement** (``replace_every``): rebuild the power block
  and moment window from the true residual every N iterations -- Van
  Rosendale's own footnoted stabilization, costs 2k+3 matvecs.
* **Drift-triggered replacement** (``drift_tol``): compare the recurred
  ``mu_0`` against a direct ``(r, r)`` each iteration and replace when
  the relative gap exceeds the tolerance -- catches gradual rounding
  drift *and* injected corruption with one mechanism.
* **Verified recompute** (``verify_every``/``verify_rtol``): every N
  iterations recompute the full moment window from direct dots and
  *adopt* the fresh values (the recompute is the repair, cf. the
  predict-and-recompute CG variants of arXiv:1905.01549); if the
  mismatch exceeds ``verify_rtol`` the solver escalates to a full
  replacement because vectors, not just scalars, are suspect.  The
  pipelined loop cannot adopt a window mid-pipeline: its verify is the
  drift check, judged at ``verify_rtol``, and a miss refills.
* **Bounded restarts** (``max_restarts``): breakdown/divergence events
  restart the iteration from the current ``x`` instead of aborting, at
  most this many times; the budget is shared across all triggers.
* **Fail-loud** (``on_unrecoverable``): once the restart budget is
  exhausted, either flag the result ``converged=False`` honestly
  (``"flag"``, the default) or raise :class:`UnrecoverableDivergence`
  (``"raise"``) for callers that prefer exceptions to status codes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecoveryPolicy", "UnrecoverableDivergence"]


class UnrecoverableDivergence(RuntimeError):
    """Raised (``on_unrecoverable="raise"``) when a solver exhausts its
    restart budget without recovering a convergent iteration."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """Which detectors run and what repairs they trigger.

    All detectors default off; ``RecoveryPolicy()`` alone only grants the
    restart budget.  Use :meth:`from_spec` for the named presets.  The
    VR loops run the detectors in the order drift, verify, periodic
    (:meth:`repro.core.results.SolveRun.detect`); the vector-recurred
    solvers sample ``b − A x`` instead
    (:meth:`~repro.core.results.SolveRun.residual_check`).  Who defaults
    to which preset: docs/api.md, "The front door".
    """

    replace_every: int | None = None
    drift_tol: float | None = None
    verify_every: int | None = None
    verify_rtol: float = 1e-6
    max_restarts: int = 3
    on_unrecoverable: str = "flag"

    def __post_init__(self) -> None:
        if self.replace_every is not None and self.replace_every < 1:
            raise ValueError(
                f"replace_every must be >= 1, got {self.replace_every}"
            )
        if self.drift_tol is not None and self.drift_tol <= 0:
            raise ValueError(f"drift_tol must be positive, got {self.drift_tol}")
        if self.verify_every is not None and self.verify_every < 1:
            raise ValueError(
                f"verify_every must be >= 1, got {self.verify_every}"
            )
        if self.verify_rtol <= 0:
            raise ValueError(f"verify_rtol must be positive, got {self.verify_rtol}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.on_unrecoverable not in ("flag", "raise"):
            raise ValueError(
                f"on_unrecoverable must be 'flag' or 'raise', "
                f"got {self.on_unrecoverable!r}"
            )

    @classmethod
    def from_spec(cls, spec) -> "RecoveryPolicy | None":
        """Coerce the ``recovery=`` solver argument.

        ``None``/``"none"``/``""`` disable recovery; a policy instance
        passes through; the named presets are:

        ========== =====================================================
        ``drift``    drift-triggered replacement (tol 1e-6)
        ``periodic`` replacement every 10 iterations
        ``verified`` verified moment recompute every 5 iterations
        ``robust``   all three detectors armed (the kitchen sink)
        ========== =====================================================
        """
        if spec is None:
            return None
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            name = spec.strip().lower()
            if name in ("", "none", "off"):
                return None
            if name == "drift":
                return cls(drift_tol=1e-6)
            if name == "periodic":
                return cls(replace_every=10)
            if name == "verified":
                return cls(verify_every=5)
            if name == "robust":
                return cls(drift_tol=1e-6, verify_every=5, replace_every=25)
            raise ValueError(
                f"unknown recovery policy {spec!r}; expected none, drift, "
                f"periodic, verified, robust, or a RecoveryPolicy"
            )
        raise TypeError(
            f"recovery= expects a RecoveryPolicy, preset name, or None, "
            f"got {type(spec).__name__}"
        )
