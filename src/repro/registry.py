"""The solver registry behind :func:`repro.solve`.

One front-door for the whole family::

    import numpy as np
    from repro import poisson2d, solve

    a = poisson2d(32)
    b = np.ones(a.nrows)
    result = solve(a, b, method="vr", k=3)

Every solver in the repository -- classical, Van Rosendale (eager and
pipelined), the historical variants, the stationary baselines, and the
distributed SPMD forms -- registers here under a short method name, with
a uniform calling convention:

* ``solve(a, b, method=..., precond=..., telemetry=..., stop=...,
  **options)`` always returns a :class:`~repro.core.results.CGResult`
  whose ``method`` field records the registry name it was dispatched
  under (distributed methods attach their ``CommStats`` in
  ``extras["comm_stats"]``).
* ``precond`` takes a preconditioner instance *or* a string name
  (``"jacobi"``, ``"ssor"``, ``"ic0"``, ``"identity"``,
  ``"chebyshev"``); the registry picks the right preconditioned driver
  (applied-form PCG, split-operator VR, or the commuting polynomial
  trick) for the method.
* ``telemetry`` takes a :class:`repro.telemetry.Telemetry` session that
  receives the solver's structured event stream.

Methods that need spectrum bounds (``chebyshev``, ``richardson``, and
the ``"chebyshev"`` preconditioner) estimate them with a short CG run
(:func:`repro.core.lanczos.estimate_spectrum_via_cg`) when the caller
does not supply them -- Gershgorin's lower bound is 0 for the model
problems, which is unusable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.core.results import BatchedResult, CGResult, StopReason

__all__ = [
    "solve",
    "solve_batched",
    "effective_stop",
    "register",
    "register_batched",
    "available_methods",
    "batched_methods",
    "warmstartable_methods",
    "operator_methods",
    "method_entry",
    "SolverEntry",
]


@dataclass(frozen=True)
class SolverEntry:
    """One registered solver.

    Attributes
    ----------
    name:
        Registry name (the ``method=`` string).
    runner:
        ``runner(a, b, *, precond, telemetry, stop, **options)`` returning
        a :class:`CGResult`.
    description:
        One-line summary for ``--help`` output and docs.
    supports_precond:
        Whether the method accepts a preconditioner.
    distributed:
        Whether the method runs over the simulated communicator (its
        result carries ``extras["comm_stats"]``).
    batched:
        Whether the method has a multi-RHS block path -- the capability
        flag :func:`solve_batched` dispatches on.
    batched_runner:
        ``batched_runner(a, B, *, telemetry, stop, **options)`` returning
        a :class:`~repro.core.results.BatchedResult`; ``None`` unless
        ``batched`` is set.
    supports_faults:
        Whether the method accepts a ``faults=`` plan
        (:mod:`repro.faults`); :func:`solve` refuses the keyword for
        methods whose flag is unset, so the flag is the contract.
    supports_recovery:
        Same, for the ``recovery=`` policy keyword.
    supports_operator:
        Whether the method runs on a matrix-free
        :class:`~repro.sparse.linop.LinearOperator` (anything that is not
        an assembled CSR/ELL/dense/scipy matrix).  Methods that genuinely
        need assembled structure -- matrix-powers s-step, the stationary
        sweeps that split the matrix, the distributed row-partitioned
        solvers -- leave this unset and :func:`solve` refuses operator
        inputs for them with the nearest capable method in the message.
    supports_x0:
        Whether the method accepts an ``x0=`` initial-guess keyword.
        The serve layer's cross-request warm start consults this flag
        (via :func:`warmstartable_methods`) before seeding a cached
        solution -- the flag is the contract, not a ``try/except``
        around the runner.
    """

    name: str
    runner: Callable[..., CGResult]
    description: str
    supports_precond: bool = False
    distributed: bool = False
    batched: bool = False
    batched_runner: Callable[..., BatchedResult] | None = None
    supports_faults: bool = False
    supports_recovery: bool = False
    supports_operator: bool = False
    supports_x0: bool = False


_REGISTRY: dict[str, SolverEntry] = {}


def register(
    name: str,
    description: str,
    *,
    supports_precond: bool = False,
    distributed: bool = False,
    supports_faults: bool = False,
    supports_recovery: bool = False,
    supports_operator: bool = False,
    supports_x0: bool = False,
) -> Callable[[Callable[..., CGResult]], Callable[..., CGResult]]:
    """Class the decorated runner under ``name`` in the method registry."""

    def deco(runner: Callable[..., CGResult]) -> Callable[..., CGResult]:
        if name in _REGISTRY:
            raise ValueError(f"method {name!r} is already registered")
        _REGISTRY[name] = SolverEntry(
            name=name,
            runner=runner,
            description=description,
            supports_precond=supports_precond,
            distributed=distributed,
            supports_faults=supports_faults,
            supports_recovery=supports_recovery,
            supports_operator=supports_operator,
            supports_x0=supports_x0,
        )
        return runner

    return deco


def register_batched(
    name: str,
) -> Callable[[Callable[..., BatchedResult]], Callable[..., BatchedResult]]:
    """Attach a multi-RHS block runner to an ALREADY-registered method.

    Flips the entry's ``batched`` capability flag; :func:`solve_batched`
    refuses methods whose flag is unset, so the flag *is* the contract.
    """

    def deco(runner: Callable[..., BatchedResult]) -> Callable[..., BatchedResult]:
        entry = _REGISTRY.get(name)
        if entry is None:
            raise ValueError(
                f"cannot attach a batched runner to unregistered method {name!r}"
            )
        if entry.batched_runner is not None:
            raise ValueError(f"method {name!r} already has a batched runner")
        _REGISTRY[name] = replace(entry, batched=True, batched_runner=runner)
        return runner

    return deco


def available_methods() -> list[str]:
    """All registered method names, sorted."""
    return sorted(_REGISTRY)


def batched_methods() -> list[str]:
    """Registered method names with a multi-RHS block path, sorted."""
    return sorted(name for name, e in _REGISTRY.items() if e.batched)


def warmstartable_methods() -> list[str]:
    """Method names the serve layer may seed with a cached ``x0``, sorted.

    A method qualifies when it accepts an initial guess
    (``supports_x0``) and does not run over the simulated communicator.
    These are the methods whose serve requests carry a compat key
    (:func:`repro.serve.coalescer.compat_key`), the key the warm-start
    cache stores under.
    """
    return sorted(
        name
        for name, e in _REGISTRY.items()
        if e.supports_x0 and not e.distributed
    )


def operator_methods() -> list[str]:
    """Registered method names that run on matrix-free operators, sorted.

    The mirror of :func:`batched_methods` for the ``supports_operator``
    capability flag: these are the methods :func:`solve` will dispatch
    when ``a`` is anything other than an assembled CSR/ELL/dense/scipy
    matrix (a bare callable, a :class:`~repro.sparse.linop.NormalOperator`,
    a zoo workload operator, ...).
    """
    return sorted(name for name, e in _REGISTRY.items() if e.supports_operator)


def method_entry(name: str) -> SolverEntry:
    """Look up one :class:`SolverEntry`; raises ``ValueError`` for unknown
    names with the full list in the message."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; available: {', '.join(available_methods())}"
        ) from None


def _is_assembled(a: Any) -> bool:
    """Whether ``a`` is an assembled matrix (CSR/ELL/dense/scipy sparse).

    Assembled inputs are the only ones the structure-requiring methods
    (s-step, stationary sweeps, distributed) accept; they run them on
    :func:`repro.sparse.csr.as_csr`.  Everything else is treated as a
    matrix-free operator.
    """
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.ell import ELLMatrix

    if isinstance(a, (CSRMatrix, ELLMatrix, np.ndarray)):
        return True
    try:
        import scipy.sparse as sp
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return False
    return bool(sp.issparse(a))


#: For each method that refuses operators, the closest method (by
#: communication structure) that accepts them -- named in the refusal.
_NEAREST_OPERATOR_METHOD = {
    "sstep": "cg-cg",
    "jacobi": "richardson",
    "gauss-seidel": "richardson",
    "sor": "richardson",
    "dist-cg": "cg",
    "dist-cgcg": "cg-cg",
    "dist-sstep": "cg-cg",
    "dist-pipelined-vr": "pipelined-vr",
}


def _front_door_operator(a: Any, b: Any, entry: SolverEntry) -> tuple[Any, bool]:
    """Coerce ``a`` at the front door; returns ``(operator, assembled)``.

    An ELL matrix becomes its CSR (converted once per instance), and so
    does every assembled matrix handed to a method without the
    ``supports_operator`` flag (:func:`repro.sparse.csr.as_csr`); other
    assembled matrices pass through *unchanged*.  Anything else is
    coerced with :func:`repro.sparse.as_operator` (bare callables get
    their dimension from ``b.shape[0]``, for a vector or a block) -- but
    only for methods carrying the ``supports_operator`` capability flag;
    the rest refuse with the nearest capable method in the message.
    """
    from repro.sparse.csr import as_csr
    from repro.sparse.ell import ELLMatrix

    if _is_assembled(a):
        if isinstance(a, ELLMatrix) or not entry.supports_operator:
            return as_csr(a), True
        return a, True
    from repro.sparse.linop import as_operator, operator_dtype

    if not entry.supports_operator:
        nearest = _NEAREST_OPERATOR_METHOD.get(entry.name)
        hint = (
            f"; the nearest operator-capable method is {nearest!r}"
            if nearest
            else ""
        )
        raise ValueError(
            f"method {entry.name!r} needs an assembled matrix "
            "(CSR/ELL/dense/scipy sparse) "
            f"and cannot run on a matrix-free operator{hint}; "
            f"operator-capable methods: {', '.join(operator_methods())}"
        )
    b_arr = np.asarray(b)
    op = as_operator(a, n=b_arr.shape[0] if b_arr.ndim in (1, 2) else None)
    if b_arr.dtype.kind == "c" and operator_dtype(op).kind != "c":
        raise ValueError(
            "b is complex but the operator is real (it declares no complex "
            "dtype); give the operator a dtype=complex128 attribute or pass "
            "a real b"
        )
    return op, False


def _estimated_bounds(a: Any, b: np.ndarray) -> tuple[float, float]:
    """Spectrum bounds from a short CG run (Gershgorin's λmin is 0 here)."""
    from repro.core.lanczos import estimate_spectrum_via_cg

    return estimate_spectrum_via_cg(a, b, iterations=12)


def _resolve_precond(a: Any, precond: Any, b: np.ndarray, options: dict) -> Any:
    """Turn a string preconditioner name into an instance built on ``a``.

    Instances pass through unchanged.  ``jacobi``, ``ssor`` and ``ic0``
    are built on (and cached under) :func:`repro.sparse.csr.as_csr` of
    ``a``.  Options consumed here: ``omega`` (ssor), ``poly_degree`` and
    ``spectrum_bounds`` (chebyshev).

    Factorizations for string-named preconditioners are memoized in the
    process-wide :func:`repro.backend.setup_cache` keyed by the matrix
    fingerprint, so repeated ``solve()`` calls on the same matrix reuse
    the setup instead of refactoring.
    """
    if precond is None or not isinstance(precond, str):
        return precond
    name = precond
    if name in ("none", ""):
        return None
    from repro.backend import matrix_fingerprint, setup_cache
    from repro.precond import (
        ICholPrecond,
        IdentityPrecond,
        JacobiPrecond,
        SSORPrecond,
    )
    from repro.sparse.csr import as_csr

    if name in ("jacobi", "ssor", "ic0"):
        a = as_csr(a)
    cache = setup_cache()
    fp = matrix_fingerprint(a)
    if name == "identity":
        return IdentityPrecond()
    if name == "jacobi":
        return cache.get_or_build(
            "precond", fp, ("jacobi",), lambda: JacobiPrecond(a)
        )
    if name == "ssor":
        omega = float(options.pop("omega", 1.0))
        return cache.get_or_build(
            "precond", fp, ("ssor", omega), lambda: SSORPrecond(a, omega=omega)
        )
    if name == "ic0":
        return cache.get_or_build("precond", fp, ("ic0",), lambda: ICholPrecond(a))
    if name == "chebyshev":
        from repro.precond.polynomial import ChebyshevPolyPrecond

        bounds = options.pop("spectrum_bounds", None) or _estimated_bounds(a, b)
        degree = int(options.pop("poly_degree", 4))
        return cache.get_or_build(
            "precond",
            fp,
            ("chebyshev", tuple(float(v) for v in bounds), degree),
            lambda: ChebyshevPolyPrecond(a, bounds, degree=degree),
        )
    raise ValueError(
        f"unknown preconditioner {name!r}; expected one of "
        "identity, jacobi, ssor, ic0, chebyshev, or an instance"
    )


def solve(
    a: Any,
    b: np.ndarray,
    method: str = "vr",
    *,
    precond: Any = None,
    telemetry: Any = None,
    **options: Any,
) -> CGResult:
    """Solve ``A x = b`` with any registered method.

    Parameters
    ----------
    a, b:
        The SPD system (anything :func:`repro.sparse.as_operator` accepts
        for sequential methods; distributed methods need a
        :class:`~repro.sparse.csr.CSRMatrix`).
    method:
        Registry name -- see :func:`available_methods`.
    precond:
        Preconditioner instance or string name; only methods registered
        with ``supports_precond`` accept one.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` session.
    **options:
        Method-specific keywords, forwarded to the underlying solver
        (``k=``, ``s=``, ``stop=``, ``recovery=``, ...).  A
        ``trace=`` keyword takes a :class:`repro.trace.Tracer` and is
        consumed here: it is attached to the telemetry session (one is
        created around a :class:`~repro.telemetry.NullSink` if none was
        given) so the solve records hierarchical spans -- see
        :mod:`repro.trace`.  Any other ``trace=`` value is a
        :class:`TypeError`.

    Returns
    -------
    CGResult
        With ``result.method`` set to the dispatched registry name.
        ``converged=True`` means the family's exit rule
        (:func:`repro.core.results.verified_exit`) held on the true
        residual.

    Notes
    -----
    ``b = 0`` is short-circuited *here*, uniformly for every method: the
    exact answer is ``x = 0`` (converged, zero iterations).  Without
    this, the default stopping rule (``rtol``-only, ``atol = 0``) has a
    threshold of exactly 0 and no iteration could ever satisfy it.  A
    caller-supplied ``x0`` disables the short-circuit -- the solver then
    runs (and validates ``x0``) as usual, iterating back toward zero.
    """
    entry = method_entry(method)
    _require_integer_k(options)
    telemetry = _consume_trace(telemetry, options)
    a, assembled = _front_door_operator(a, b, entry)
    zero = None if options.get("x0") is not None else _zero_rhs_result(
        a, b, entry, telemetry
    )
    if zero is not None:
        return zero
    _rescue_zero_threshold(a, b, options)
    if (
        not assembled
        and isinstance(precond, str)
        and precond not in ("", "none", "identity")
    ):
        raise ValueError(
            f"string preconditioner {precond!r} needs an assembled matrix to "
            "factor, and a matrix-free operator was passed; build a "
            "preconditioner instance for your operator, or use "
            "precond='identity'"
        )
    precond = _resolve_precond(a, precond, b, options)
    if precond is not None and not entry.supports_precond:
        raise ValueError(f"method {method!r} does not accept a preconditioner")
    if options.get("faults") is not None and not entry.supports_faults:
        raise ValueError(
            f"method {method!r} does not support fault injection (faults=); "
            f"fault-capable methods: "
            f"{', '.join(n for n, e in sorted(_REGISTRY.items()) if e.supports_faults)}"
        )
    if options.get("recovery") is not None and not entry.supports_recovery:
        raise ValueError(
            f"method {method!r} does not support recovery policies (recovery=); "
            f"recovery-capable methods: "
            f"{', '.join(n for n, e in sorted(_REGISTRY.items()) if e.supports_recovery)}"
        )
    if precond is not None and (
        options.get("faults") is not None
        or (options.get("recovery") is not None and entry.name != "vr")
    ):
        raise ValueError(
            "fault injection is not supported on the preconditioned drivers, "
            "nor is recovery= except on 'vr'; drop precond= or "
            "faults=/recovery="
        )
    # An explicit None asks for no faults / no repair: what a runner that
    # takes no such argument does anyway.
    takes = {
        "faults": entry.supports_faults and precond is None,
        "recovery": entry.supports_recovery and (precond is None or entry.name == "vr"),
    }
    for key, taken in takes.items():
        if not taken and key in options and options[key] is None:
            del options[key]
    _notify_solve_call(telemetry, a, b, entry.name, options)
    result = _run_guarded(
        lambda: entry.runner(
            a, b, precond=precond, telemetry=telemetry, **options
        ),
        telemetry,
    )
    result.method = entry.name
    return result


def _notify_solve_call(
    telemetry: Any, a: Any, b: Any, method: str, options: dict
) -> None:
    """Forward the about-to-run call to capture-capable sinks (the
    flight recorder records the system, right-hand side, and fault
    seeds so a failed solve is replayable from its postmortem)."""
    if telemetry is None:
        return
    notify = getattr(telemetry, "notify_solve_call", None)
    if callable(notify):
        notify(a, b, method, options)


def effective_stop(a: Any, b: Any, options: dict) -> Any:
    """The stopping criterion a ``solve(a, b, **options)`` call actually
    runs under.

    Mirrors the front door exactly: an absent (or ``None``) ``stop``
    means the family default, and an initial guess (``options["x0"]``)
    triggers the ``b = 0`` threshold rescue
    (:meth:`StoppingCriterion.with_initial_residual`, see
    :func:`_rescue_zero_threshold`).
    """
    from repro.core.stopping import StoppingCriterion

    stop = options.get("stop") or StoppingCriterion()
    if not isinstance(stop, StoppingCriterion):
        return StoppingCriterion()
    x0 = options.get("x0")
    if x0 is None:
        return stop
    from repro.util.kernels import inner

    try:
        arr = np.asarray(b)
        if arr.dtype.kind not in "fc":
            arr = arr.astype(np.float64)
        if arr.ndim != 1:
            return stop  # malformed b: the solver's own validation diagnoses it
        # The solver's reduction, on the calling thread; front-door work,
        # so no dot is booked.
        b_norm = float(np.sqrt(inner(arr, arr)))
        if stop.threshold(b_norm) > 0.0:
            return stop
        x0_arr = np.asarray(x0)
        matvec = getattr(a, "matvec", None)
        ax0 = matvec(x0_arr) if callable(matvec) else a @ x0_arr
        r0 = arr - ax0
        r0_norm = float(np.sqrt(inner(r0, r0)))
    except Exception:
        return stop  # malformed b/x0: the solver's own validation diagnoses it
    return stop.with_initial_residual(b_norm, r0_norm)


def _rescue_zero_threshold(a: Any, b: Any, options: dict) -> None:
    """Make the stopping rule satisfiable when ``x0`` disabled the
    ``b = 0`` short-circuit.

    With ``b = 0`` and a caller-supplied ``x0``, a pure-``rtol``
    criterion has threshold exactly 0 and the solver would stall through
    its whole budget.  Rewrite ``options["stop"]`` via
    :func:`effective_stop` using ``‖r⁰‖ = ‖b − A x0‖`` (one matvec, only
    in this corner).
    """
    if options.get("x0") is None:
        return
    from repro.core.stopping import StoppingCriterion

    stop = options.get("stop")
    if stop is not None and not isinstance(stop, StoppingCriterion):
        return
    options["stop"] = effective_stop(a, b, options)


def _require_integer_k(options: dict) -> None:
    """``k=`` is a window size; choosing it online is a method of its own."""
    if isinstance(options.get("k"), str):
        raise ValueError(
            f"k must be an integer, got {options['k']!r}; to choose the "
            "window online use method 'adaptive-vr' or 'adaptive-pipelined-vr'"
        )


def _consume_trace(telemetry: Any, options: dict) -> Any:
    """Attach a ``trace=`` :class:`repro.trace.Tracer` to the session.

    ``trace=`` never reaches a solver; a value that is not a tracer is
    refused here.
    """
    trace = options.pop("trace", None)
    if trace is None:
        return telemetry
    from repro.trace import Tracer

    if not isinstance(trace, Tracer):
        raise TypeError(
            f"trace= takes a repro.trace.Tracer, got {type(trace).__name__}; "
            "for a pipelined run's launch/consume schedule pass telemetry= "
            "and rebuild it with repro.core.pipeline.trace_from_events"
        )
    if telemetry is None:
        from repro.telemetry import Telemetry
        from repro.telemetry.sinks import NullSink

        return Telemetry(NullSink(), tracer=trace)
    if telemetry.tracer is None:
        telemetry.tracer = trace
    elif telemetry.tracer is not trace:
        raise ValueError(
            "solve() got trace= but the telemetry session already has a "
            "different tracer attached; pass one or the other"
        )
    return telemetry


def _run_guarded(runner: Any, telemetry: Any) -> Any:
    """Run a solver; on any exception, unwind the telemetry session.

    Without this, a solver raising mid-solve (UnrecoverableDivergence,
    a breakdown, a fault-injected crash) leaves its solve bracket open:
    the counting scope leaks onto the global stack, the tracer's solve
    span never closes, and -- the observable bug -- a ``JsonlSink``'s
    buffered tail events are lost because nothing flushes the stream.
    :meth:`Telemetry.unwind` restores all three before the exception
    propagates.
    """
    if telemetry is None:
        return runner()
    depth = telemetry.open_solves
    try:
        return runner()
    except BaseException as exc:
        telemetry.unwind(depth)
        notify = getattr(telemetry, "notify_failure", None)
        if callable(notify):
            # After the unwind so spans are closed and sinks flushed:
            # the flight recorder snapshots a complete postmortem.
            notify(exc)
        raise


def _zero_rhs_result(
    a: Any, b: Any, entry: SolverEntry, telemetry: Any
) -> CGResult | None:
    """The ``b = 0`` short-circuit shared by every registered method."""
    from repro.sparse.linop import operator_dtype

    arr = np.asarray(b)
    if arr.dtype.kind not in "fc":
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError):
            return None  # not numeric; let the solver raise its own error
    if arr.ndim != 1 or arr.size == 0 or np.any(arr != 0.0):
        return None  # not this corner; let the solver validate/iterate
    n = arr.shape[0]
    # x = 0 in the dtype the solve would have run in: complex when either
    # the operator declares complex arithmetic or b itself is complex.
    dtype = (
        np.dtype(np.complex128)
        if (operator_dtype(a).kind == "c" or arr.dtype.kind == "c")
        else np.dtype(np.float64)
    )
    if telemetry is not None:
        telemetry.solve_start(entry.name, f"{entry.name} (b=0)", n)
    result = CGResult(
        x=np.zeros(n, dtype=dtype),
        converged=True,
        stop_reason=StopReason.CONVERGED,
        iterations=0,
        residual_norms=[0.0],
        true_residual_norm=0.0,
        label=f"{entry.name} (b=0)",
        method=entry.name,
    )
    if telemetry is not None:
        telemetry.solve_end(result)
    return result


def solve_batched(
    a: Any,
    b: np.ndarray,
    method: str = "cg",
    *,
    telemetry: Any = None,
    **options: Any,
) -> BatchedResult:
    """Solve ``A X = B`` for every column of an ``(n, m)`` block ``B``.

    The batched counterpart of :func:`solve`: dispatches to the method's
    multi-RHS block runner, which computes all ``m`` per-site inner
    products in ONE fused ``m``-wide reduction and deflates converged
    columns out of the active set.  Only methods whose registry entry
    carries the ``batched`` capability flag are accepted (see
    :func:`batched_methods`); ``cg`` is the one method with a block
    path, so other methods solve a block column by column through
    :func:`solve`.

    ``B`` may be 1-D (treated as a single column).  Zero columns
    converge at iteration 0 by deflation -- the batched analogue of
    :func:`solve`'s ``b = 0`` short-circuit.

    Parameters
    ----------
    a, b:
        The SPD operator and the right-hand-side block.
    method:
        Registry name; defaults to ``"cg"``.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` session; receives
        per-column iteration/convergence events and the active-set-width
        trajectory in addition to the usual solve bracket.
    **options:
        Forwarded to the batched runner (``stop=``, ``x0=``).

    Returns
    -------
    BatchedResult
        With ``result.method`` set to the dispatched registry name.
    """
    entry = method_entry(method)
    if not entry.batched or entry.batched_runner is None:
        raise ValueError(
            f"method {method!r} has no batched multi-RHS path; "
            f"batched methods: {', '.join(batched_methods())}"
        )
    a, assembled = _front_door_operator(a, b, entry)
    if not assembled:
        from repro.sparse.linop import operator_dtype

        # A complex b on a real operator was refused above.
        if operator_dtype(a).kind == "c":
            raise ValueError(
                "the batched block paths run in float64 only; solve complex "
                "operators column-by-column through solve()"
            )
    if options.get("faults") is not None or options.get("recovery") is not None:
        raise ValueError(
            "batched solves do not support fault injection or recovery "
            "(faults=/recovery=); use the single-RHS solve() path"
        )
    # Either is at most an explicit None here, which asks for what the
    # batched runner, taking neither, does anyway.
    options.pop("faults", None)
    options.pop("recovery", None)
    telemetry = _consume_trace(telemetry, options)
    _notify_solve_call(telemetry, a, b, entry.name, options)
    result = _run_guarded(
        lambda: entry.batched_runner(a, b, telemetry=telemetry, **options),
        telemetry,
    )
    result.method = entry.name
    return result


# ----------------------------------------------------------------------
# registrations: core solvers
# ----------------------------------------------------------------------
@register(
    "cg",
    "classical Hestenes--Stiefel CG",
    supports_precond=True,
    supports_faults=True,
    supports_recovery=True,
    supports_operator=True,
    supports_x0=True,
)
def _run_cg(a, b, *, precond, telemetry, **options):
    from repro.core.standard import conjugate_gradient
    from repro.precond.pcg import preconditioned_cg
    from repro.precond.polynomial import ChebyshevPolyPrecond, polynomial_pcg

    if precond is None:
        return conjugate_gradient(a, b, telemetry=telemetry, **options)
    if isinstance(precond, ChebyshevPolyPrecond):
        return polynomial_pcg(a, b, precond=precond, telemetry=telemetry, **options)
    return preconditioned_cg(a, b, precond=precond, telemetry=telemetry, **options)


@register(
    "vr",
    "Van Rosendale restructured CG (eager form)",
    supports_precond=True,
    supports_faults=True,
    supports_recovery=True,
    supports_operator=True,
    supports_x0=True,
)
def _run_vr(a, b, *, precond, telemetry, **options):
    from repro.core.vr_cg import vr_conjugate_gradient
    from repro.precond.base import SplitPreconditioner
    from repro.precond.pcg import vr_pcg
    from repro.precond.polynomial import ChebyshevPolyPrecond, vr_poly_pcg

    # Without repair the eager recurrences drift (EXPERIMENTS.md E7b), so
    # the front door defaults to drift replacement, or to periodic
    # replacement on the preconditioned operator.  An explicit recovery=,
    # None included, is the caller's.
    if precond is None:
        options.setdefault("recovery", "drift")
        return vr_conjugate_gradient(a, b, telemetry=telemetry, **options)
    if not isinstance(precond, (ChebyshevPolyPrecond, SplitPreconditioner)):
        raise ValueError(
            "method 'vr' needs a split or polynomial preconditioner, got "
            f"{type(precond).__name__}"
        )
    options.setdefault("recovery", "periodic")
    if isinstance(precond, ChebyshevPolyPrecond):
        return vr_poly_pcg(a, b, precond=precond, telemetry=telemetry, **options)
    return vr_pcg(a, b, precond=precond, telemetry=telemetry, **options)


@register(
    "pipelined-vr",
    "Van Rosendale restructured CG (fully pipelined form)",
    supports_precond=True,
    supports_faults=True,
    supports_recovery=True,
    supports_operator=True,
    supports_x0=True,
)
def _run_pipelined_vr(a, b, *, precond, telemetry, **options):
    from repro.core.pipeline import pipelined_vr_cg
    from repro.precond.base import SplitPreconditioner
    from repro.precond.pcg import pipelined_vr_pcg

    if precond is None:
        return pipelined_vr_cg(a, b, telemetry=telemetry, **options)
    if isinstance(precond, SplitPreconditioner):
        return pipelined_vr_pcg(a, b, precond=precond, telemetry=telemetry, **options)
    raise ValueError(
        "method 'pipelined-vr' needs a split preconditioner, got "
        f"{type(precond).__name__}"
    )


@register(
    "adaptive-vr",
    "eager Van Rosendale CG with online adaptive window size",
    supports_operator=True,
    supports_x0=True,
)
def _run_adaptive_vr(a, b, *, precond, telemetry, **options):
    from repro.core.adaptive import adaptive_vr_cg

    return adaptive_vr_cg(a, b, telemetry=telemetry, **options)


@register(
    "adaptive-pipelined-vr",
    "pipelined Van Rosendale CG with online adaptive window size",
    supports_operator=True,
    supports_x0=True,
)
def _run_adaptive_pipelined_vr(a, b, *, precond, telemetry, **options):
    from repro.core.adaptive import adaptive_pipelined_vr_cg

    return adaptive_pipelined_vr_cg(a, b, telemetry=telemetry, **options)


# ----------------------------------------------------------------------
# registrations: historical variants
# ----------------------------------------------------------------------
@register(
    "three-term",
    "three-term recurrence CG (Rutishauser form)",
    supports_operator=True,
    supports_x0=True,
)
def _run_three_term(a, b, *, precond, telemetry, **options):
    from repro.variants import three_term_cg

    return three_term_cg(a, b, telemetry=telemetry, **options)


@register(
    "cg-cg",
    "Chronopoulos--Gear CG (fused reductions)",
    supports_faults=True,
    supports_recovery=True,
    supports_operator=True,
    supports_x0=True,
)
def _run_cgcg(a, b, *, precond, telemetry, **options):
    from repro.variants import chronopoulos_gear_cg

    return chronopoulos_gear_cg(a, b, telemetry=telemetry, **options)


@register(
    "gv",
    "Ghysels--Vanroose pipelined CG",
    supports_faults=True,
    supports_recovery=True,
    supports_operator=True,
    supports_x0=True,
)
def _run_gv(a, b, *, precond, telemetry, **options):
    from repro.variants import ghysels_vanroose_cg

    return ghysels_vanroose_cg(a, b, telemetry=telemetry, **options)


@register(
    "pr-cg",
    "predict-and-recompute CG (Chen--Carson, fused reduction)",
    supports_faults=True,
    supports_recovery=True,
    supports_operator=True,
    supports_x0=True,
)
def _run_pr_cg(a, b, *, precond, telemetry, **options):
    from repro.variants import pr_cg

    return pr_cg(a, b, telemetry=telemetry, **options)


@register(
    "pr-pipe-cg",
    "pipelined predict-and-recompute CG (Chen--Carson)",
    supports_faults=True,
    supports_recovery=True,
    supports_operator=True,
    supports_x0=True,
)
def _run_pr_pipe_cg(a, b, *, precond, telemetry, **options):
    from repro.variants import pr_pipe_cg

    return pr_pipe_cg(a, b, telemetry=telemetry, **options)


@register("sstep", "s-step CG (batched reductions)")
def _run_sstep(a, b, *, precond, telemetry, **options):
    from repro.variants import sstep_cg

    return sstep_cg(a, b, telemetry=telemetry, **options)


@register(
    "chebyshev",
    "Chebyshev iteration (no inner products)",
    supports_operator=True,
    supports_x0=True,
)
def _run_chebyshev(a, b, *, precond, telemetry, **options):
    from repro.variants import chebyshev_iteration

    bounds = options.pop("bounds", None) or _estimated_bounds(a, b)
    return chebyshev_iteration(a, b, bounds, telemetry=telemetry, **options)


# ----------------------------------------------------------------------
# registrations: stationary baselines
# ----------------------------------------------------------------------
@register("jacobi", "(weighted) Jacobi sweeps")
def _run_jacobi(a, b, *, precond, telemetry, **options):
    from repro.variants import jacobi_solve

    return jacobi_solve(a, b, telemetry=telemetry, **options)


@register("gauss-seidel", "Gauss--Seidel sweeps")
def _run_gauss_seidel(a, b, *, precond, telemetry, **options):
    from repro.variants import gauss_seidel_solve

    return gauss_seidel_solve(a, b, telemetry=telemetry, **options)


@register("sor", "successive over-relaxation sweeps")
def _run_sor(a, b, *, precond, telemetry, **options):
    from repro.variants import sor_solve

    return sor_solve(a, b, telemetry=telemetry, **options)


@register(
    "richardson",
    "Richardson iteration (optimal fixed step)",
    supports_operator=True,
    supports_x0=True,
)
def _run_richardson(a, b, *, precond, telemetry, **options):
    from repro.variants import richardson_solve

    if "step" not in options:
        lam_min, lam_max = _estimated_bounds(a, b)
        options["step"] = 2.0 / (lam_min + lam_max)
    return richardson_solve(a, b, telemetry=telemetry, **options)


# ----------------------------------------------------------------------
# registrations: distributed (SPMD over the simulated communicator)
# ----------------------------------------------------------------------
@register(
    "dist-cg", "distributed classical CG", distributed=True, supports_faults=True
)
def _run_dist_cg(a, b, *, precond, telemetry, **options):
    from repro.distributed.solvers import distributed_cg

    result, _comm = distributed_cg(a, b, telemetry=telemetry, **options)
    return result


@register(
    "dist-cgcg",
    "distributed Chronopoulos--Gear CG",
    distributed=True,
    supports_faults=True,
)
def _run_dist_cgcg(a, b, *, precond, telemetry, **options):
    from repro.distributed.solvers import distributed_cgcg

    result, _comm = distributed_cgcg(a, b, telemetry=telemetry, **options)
    return result


@register(
    "dist-sstep", "distributed s-step CG", distributed=True, supports_faults=True
)
def _run_dist_sstep(a, b, *, precond, telemetry, **options):
    from repro.distributed.solvers import distributed_sstep

    result, _comm = distributed_sstep(a, b, telemetry=telemetry, **options)
    return result


@register(
    "dist-pipelined-vr",
    "distributed pipelined Van Rosendale CG (nonblocking reductions)",
    distributed=True,
    supports_faults=True,
    supports_recovery=True,
)
def _run_dist_pipelined_vr(a, b, *, precond, telemetry, **options):
    from repro.distributed.solvers import distributed_pipelined_vr

    result, _comm = distributed_pipelined_vr(a, b, telemetry=telemetry, **options)
    return result


# ----------------------------------------------------------------------
# registrations: the batched multi-RHS block path
# ----------------------------------------------------------------------
@register_batched("cg")
def _run_batched_cg(a, b, *, telemetry=None, **options):
    from repro.core.batched import batched_cg

    return batched_cg(a, b, telemetry=telemetry, **options)

