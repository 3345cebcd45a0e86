"""The differential tool (tools/differential.py).

Exercised through a subprocess, as a reviewer runs it: ``record`` solves
the 10-case ``smoke`` grid with this tree's ``repro``, and ``compare``
must find a record identical to itself and name the one field that was
changed in a copy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "tools" / "differential.py"


def _run(*argv: str):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("differential") / "smoke.jsonl"
    proc = _run("record", "--grid", "smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


def test_record_holds_one_line_per_case(smoke_record):
    lines = [json.loads(t) for t in smoke_record.read_text().splitlines()]
    assert len(lines) == 10
    assert len({line["id"] for line in lines}) == 10
    for line in lines:
        assert {"x_sha256", "iterations", "stop_reason", "recoveries",
                "true_residual", "events"} <= line.keys()
        assert line["events"]["solve_start"] == 1


def test_record_compared_with_itself_is_identical(smoke_record):
    proc = _run("compare", str(smoke_record), str(smoke_record))
    assert proc.returncode == 0, proc.stdout
    assert "identical: 10; differing: 0" in proc.stdout


def test_an_altered_field_is_reported(smoke_record, tmp_path):
    lines = [json.loads(t) for t in smoke_record.read_text().splitlines()]
    lines[3]["iterations"] += 1
    altered = tmp_path / "altered.jsonl"
    altered.write_text("".join(json.dumps(line) + "\n" for line in lines))

    proc = _run("compare", str(smoke_record), str(altered))
    assert proc.returncode == 1
    assert "differing: 1 (0 expected, 1 unexpected)" in proc.stdout
    rows = [r.split() for r in proc.stdout.splitlines()]
    assert ["iterations", "1", "0"] in rows
    assert lines[3]["id"] in proc.stdout

    case = lines[3]["case"]
    proc = _run(
        "compare", str(smoke_record), str(altered),
        "--expect", f"method={case['method']}", f"recovery={case['recovery']}",
    )
    assert proc.returncode == 0, proc.stdout
    assert "differing: 1 (1 expected, 0 unexpected)" in proc.stdout

    proc = _run(
        "compare", str(smoke_record), str(altered), "--ignore", "iterations"
    )
    assert proc.returncode == 0, proc.stdout
