"""Answers do not depend on the BLAS thread count.

:func:`repro.util.kernels.dot` sums vectors longer than
:data:`~repro.util.kernels.BLAS_DOT_MAX` entries on the calling thread,
so a solve above that size returns the same bytes whether numpy's
OpenBLAS may use one thread or all of them.  Each setting needs its own
process: OpenBLAS reads its thread count once, when numpy loads it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.util.kernels import BLAS_DOT_MAX

SRC = str(Path(repro.__file__).resolve().parents[1])
GRID = 104  # n = 10,816, just above the cut

SCRIPT = f"""
import hashlib, json
from repro import poisson2d, solve
from repro.util.rng import default_rng

a = poisson2d({GRID})
b = default_rng(0).standard_normal(a.nrows)
out = {{}}
for method in ("cg", "vr"):
    r = solve(a, b, method)
    out[method] = [hashlib.sha256(r.x.tobytes()).hexdigest(), r.iterations]
print(json.dumps(out))
"""


def _solve_in_process(blas_threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_solves_above_the_cut_repeat_at_any_blas_thread_count():
    assert GRID * GRID > BLAS_DOT_MAX
    one_thread = _solve_in_process("1")
    default = _solve_in_process(None)
    assert one_thread == default
