"""Tests for the command line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.sparse.generators import poisson2d
from repro.sparse.mmio import write_matrix_market


@pytest.fixture
def mtx_file(tmp_path):
    path = tmp_path / "a.mtx"
    write_matrix_market(poisson2d(8), path, symmetric=True)
    return path


class TestSolve:
    def test_generated_problem(self, capsys):
        rc = main(["solve", "--generate", "poisson2d", "--size", "10",
                   "--method", "cg"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "solver", ["cg", "vr", "pipelined-vr", "three-term", "cg-cg", "gv", "sstep"]
    )
    def test_all_solvers(self, solver, capsys):
        argv = ["solve", "--generate", "poisson2d", "--size", "8",
                "--method", solver, "--k", "2"]
        if solver == "vr":
            argv += ["--recovery", "periodic"]
        assert main(argv) == 0

    def test_matrix_file(self, mtx_file, capsys):
        rc = main(["solve", "--matrix", str(mtx_file), "--method", "vr",
                   "--k", "1"])
        assert rc == 0

    def test_preconditioned(self, capsys):
        rc = main(["solve", "--generate", "anisotropic2d", "--size", "10",
                   "--method", "vr", "--precond", "ssor", "--omega", "1.2",
                   "--recovery", "periodic"])
        assert rc == 0

    def test_rhs_file_and_out(self, mtx_file, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        np.savetxt(rhs, np.ones(64))
        out = tmp_path / "x.txt"
        rc = main(["solve", "--matrix", str(mtx_file), "--rhs", str(rhs),
                   "--out", str(out), "--method", "cg"])
        assert rc == 0
        x = np.loadtxt(out)
        a = poisson2d(8)
        np.testing.assert_allclose(a.matvec(x), np.ones(64), atol=1e-5)

    def test_rhs_size_mismatch(self, mtx_file, tmp_path):
        rhs = tmp_path / "b.txt"
        np.savetxt(rhs, np.ones(3))
        with pytest.raises(SystemExit):
            main(["solve", "--matrix", str(mtx_file), "--rhs", str(rhs)])

    def test_no_source_errors(self):
        with pytest.raises(SystemExit):
            main(["solve", "--method", "cg"])

    def test_unconverged_exit_code(self, capsys):
        rc = main(["solve", "--generate", "poisson2d", "--size", "16",
                   "--method", "cg", "--max-iter", "2", "--rtol", "1e-12"])
        assert rc == 1

    def test_precond_unsupported_solver(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--generate", "poisson2d", "--size", "8",
                  "--method", "gv", "--precond", "jacobi"])

    @pytest.mark.parametrize(
        "extra",
        [
            ["--method", "gv"],
            ["--method", "cg", "--precond", "jacobi"],
            ["--method", "pipelined-vr", "--precond", "jacobi"],
        ],
        ids=["gv", "cg-jacobi", "pipelined-vr-jacobi"],
    )
    def test_recovery_none_where_the_runner_takes_no_recovery(self, extra, capsys):
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--recovery", "none", *extra])
        assert rc == 0

    def test_recovery_drift_flag(self, capsys):
        rc = main(["solve", "--generate", "poisson2d", "--size", "10",
                   "--method", "vr", "--k", "3", "--recovery", "drift"])
        assert rc == 0

    @pytest.mark.parametrize(
        "extra",
        [
            ["--method", "pipelined-vr", "--replace-every", "8"],
            ["--method", "cg", "--replace-every", "8"],
            ["--method", "cg", "--drift-tol", "1e-6"],
            ["--method", "cg", "--rhs-count", "3", "--replace-every", "8"],
        ],
        ids=["pipelined-vr", "cg-every", "cg-drift", "batched-cg"],
    )
    def test_replacement_flags_the_method_cannot_take_exit(self, extra, capsys):
        # Residual repair is asked for with --recovery alone: the retired
        # flags are argparse errors on every method.
        with pytest.raises(SystemExit):
            main(["solve", "--generate", "poisson2d", "--size", "8", *extra])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBatchedRhsCount:
    def test_batched_cg_solves_block(self, capsys):
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--method", "cg", "--rhs-count", "4"])
        assert rc == 0
        assert "4/4 columns converged" in capsys.readouterr().out

    def test_block_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--method", "cg", "--rhs-count", "3", "--out", str(out)])
        assert rc == 0
        x = np.loadtxt(out)
        assert x.shape == (64, 3)

    def test_rhs_file_supplies_column_zero(self, mtx_file, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        np.savetxt(rhs, np.ones(64))
        out = tmp_path / "x.txt"
        rc = main(["solve", "--matrix", str(mtx_file), "--rhs", str(rhs),
                   "--rhs-count", "2", "--out", str(out), "--method", "cg"])
        assert rc == 0
        x = np.loadtxt(out)
        a = poisson2d(8)
        np.testing.assert_allclose(a.matvec(x[:, 0]), np.ones(64), atol=1e-5)

    def test_non_batched_method_rejected(self):
        with pytest.raises(SystemExit, match="no.*multi-RHS path"):
            main(["solve", "--generate", "poisson2d", "--size", "8",
                  "--method", "gv", "--rhs-count", "4"])

    def test_precond_rejected(self):
        with pytest.raises(SystemExit, match="does not support --precond"):
            main(["solve", "--generate", "poisson2d", "--size", "8",
                  "--method", "cg", "--rhs-count", "4", "--precond", "jacobi"])

    def test_rhs_count_must_be_positive(self):
        with pytest.raises(SystemExit, match="rhs-count must be >= 1"):
            main(["solve", "--generate", "poisson2d", "--size", "8",
                  "--method", "cg", "--rhs-count", "0"])

    def test_batched_telemetry_stream(self, tmp_path):
        path = tmp_path / "batched.jsonl"
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--method", "cg", "--rhs-count", "4",
                   "--telemetry", str(path)])
        assert rc == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {e["kind"] for e in events}
        assert {"solve_start", "column_iteration", "column_converged",
                "active_set", "solve_end"} <= kinds


class TestTelemetry:
    def test_stream_to_stdout(self, capsys):
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--method", "vr", "--telemetry", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()
                  if line.startswith("{")]
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "solve_start"
        assert "iteration" in kinds
        assert kinds[-1] == "solve_end"
        assert events[0]["method"] == "vr"
        assert "converged" in out  # the human summary still prints

    def test_stream_to_file(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--method", "cg", "--telemetry", str(path)])
        assert rc == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["kind"] == "solve_start"
        assert events[0]["n"] == 64
        iterations = [e for e in events if e["kind"] == "iteration"]
        assert iterations
        assert events[-1]["kind"] == "solve_end"
        assert events[-1]["converged"] is True

    def test_distributed_telemetry_has_reductions(self, tmp_path, capsys):
        path = tmp_path / "dist.jsonl"
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--method", "dist-cg", "--nranks", "3",
                   "--telemetry", str(path)])
        assert rc == 0
        events = [json.loads(line) for line in path.read_text().splitlines()]
        reductions = [e for e in events if e["kind"] == "reduction"]
        assert any(e["op"] == "allreduce" for e in reductions)
        assert all(e["nranks"] == 3 for e in reductions)


class TestInfo:
    def test_info_output(self, mtx_file, capsys):
        rc = main(["info", "--matrix", str(mtx_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "order           : 64" in out
        assert "cond estimate" in out

    def test_info_no_spectrum(self, capsys):
        rc = main(["info", "--generate", "banded", "--size", "30",
                   "--no-spectrum"])
        assert rc == 0
        assert "cond" not in capsys.readouterr().out


class TestGenerate:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.mtx"
        rc = main(["generate", "poisson2d", str(out), "--size", "6"])
        assert rc == 0
        assert out.exists()
        rc = main(["info", "--matrix", str(out)])
        assert rc == 0
        assert "order           : 36" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solver_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--method", "nope"])

    def test_backend_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--backend", "reference"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestChebyshevPrecond:
    def test_cg_with_chebyshev(self, capsys):
        rc = main(["solve", "--generate", "anisotropic2d", "--size", "12",
                   "--method", "cg", "--precond", "chebyshev",
                   "--poly-degree", "4"])
        assert rc == 0
        assert "poly-pcg" in capsys.readouterr().out

    def test_vr_with_chebyshev(self, capsys):
        rc = main(["solve", "--generate", "poisson2d", "--size", "12",
                   "--method", "vr", "--k", "2", "--precond", "chebyshev"])
        assert rc == 0

    def test_unsupported_solver_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--generate", "poisson2d", "--size", "8",
                  "--method", "gv", "--precond", "chebyshev"])


class TestObservabilityFlags:
    def test_solve_trace_writes_chrome_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(["solve", "--generate", "poisson2d", "--size", "10",
                   "--method", "cg", "--trace", str(trace)])
        assert rc == 0
        assert f"chrome trace written to {trace}" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"solve", "iteration", "matvec"} <= names

    def test_solve_metrics_writes_prometheus_text(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        rc = main(["solve", "--generate", "poisson2d", "--size", "10",
                   "--method", "vr", "--k", "2", "--metrics", str(metrics)])
        assert rc == 0
        text = metrics.read_text()
        assert "# TYPE repro_iterations_total counter" in text
        assert 'repro_iterations_total{method="vr"}' in text

    def test_batched_solve_accepts_observability_flags(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.prom"
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--method", "cg", "--rhs-count", "2",
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        assert json.loads(trace.read_text())["traceEvents"]
        assert "repro_solves_total" in metrics.read_text()


class TestProfile:
    def test_profile_prints_table_and_converges(self, capsys):
        rc = main(["profile", "--generate", "poisson2d", "--size", "10",
                   "--method", "cg"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: cg" in out
        assert "blocking syncs / iteration" in out
        assert "model: sync fraction" in out

    def test_profile_vr_and_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "vr.json"
        metrics = tmp_path / "vr.prom"
        rc = main(["profile", "--generate", "poisson2d", "--size", "10",
                   "--method", "vr", "--k", "2",
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: vr" in out
        assert json.loads(trace.read_text())["traceEvents"]
        assert 'repro_iterations_total{method="vr"}' in metrics.read_text()

    def test_profile_distributed_reports_comm(self, capsys):
        rc = main(["profile", "--generate", "poisson2d", "--size", "8",
                   "--method", "dist-cg", "--nranks", "2"])
        assert rc == 0
        assert "syncs on critical path (comm)" in capsys.readouterr().out

    def test_profile_matrix_file(self, mtx_file, capsys):
        rc = main(["profile", "--matrix", str(mtx_file), "--method", "cg"])
        assert rc == 0
        assert "profile: cg" in capsys.readouterr().out


class TestServe:
    def test_build_service_from_args(self, mtx_file, tmp_path, capsys):
        from repro.cli import _build_service

        args = build_parser().parse_args([
            "serve", "--matrix", str(mtx_file), "--port", "0",
            "--max-width", "8", "--queue-depth", "32",
            "--rate", "10", "--burst", "4", "--workers", "2",
            "--warm-start", "0", "--postmortem-dir", str(tmp_path),
        ])
        service, name, a = _build_service(args)
        assert name == "a"  # the file stem
        assert service.operators == ["a", "default"]
        assert a.nrows == 64
        assert service.config.max_coalesce_width == 8
        assert service.config.max_queue_depth == 32
        assert service.config.tenant_rate == 10
        assert service.config.tenant_burst == 4
        assert service.config.workers == 2
        assert service.config.warm_start == 0
        assert service.config.postmortem_dir == str(tmp_path)
        # Admission routes straight to the lane; a window flag is a
        # usage error, not a silently ignored knob.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([
                "serve", "--matrix", str(mtx_file), "--window-ms", "2",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window-ms" in capsys.readouterr().err

    def test_build_service_generator_name(self):
        from repro.cli import _build_service

        args = build_parser().parse_args([
            "serve", "--generate", "poisson2d", "--size", "6", "--port", "0",
        ])
        service, name, _ = _build_service(args)
        assert name == "poisson2d"
        assert service.operators == ["default", "poisson2d"]

    def test_operator_name_override(self):
        from repro.cli import _build_service

        args = build_parser().parse_args([
            "serve", "--generate", "poisson1d", "--size", "16",
            "--operator-name", "default",
        ])
        service, name, _ = _build_service(args)
        assert name == "default"
        assert service.operators == ["default"]

    def test_bad_config_exits(self):
        from repro.cli import _build_service

        args = build_parser().parse_args([
            "serve", "--generate", "poisson1d", "--size", "8",
            "--queue-depth", "0",
        ])
        with pytest.raises(SystemExit, match="max_queue_depth"):
            _build_service(args)
        args = build_parser().parse_args([
            "serve", "--generate", "poisson1d", "--size", "8",
            "--rate", "-1",
        ])
        with pytest.raises(SystemExit, match="rate must be positive"):
            _build_service(args)

    def test_serve_command_end_to_end(self, capsys):
        import asyncio

        from repro.cli import _build_service
        from repro.serve import run_server

        args = build_parser().parse_args([
            "serve", "--generate", "poisson2d", "--size", "6", "--port", "0",
        ])
        service, _, a = _build_service(args)

        # Drive the same run_server coroutine the command uses, with an
        # ephemeral port and an explicit shutdown (the command itself
        # blocks forever, which a test cannot).
        async def main():
            shutdown = asyncio.Event()
            ready = asyncio.Event()
            server = asyncio.create_task(
                run_server(service, port=0, ready=ready, shutdown=shutdown)
            )
            await ready.wait()
            shutdown.set()
            await server

        asyncio.run(main())
        assert service.draining


class TestReplay:
    @pytest.fixture
    def bundle(self, tmp_path):
        """A real postmortem: the pinned divergence recipe under a
        directory-armed flight recorder."""
        from repro.core.stopping import StoppingCriterion
        from repro.faults import (
            FaultPlan,
            RecoveryPolicy,
            ScalarCorruptor,
            UnrecoverableDivergence,
        )
        from repro import solve
        from repro.telemetry import Telemetry
        from repro.trace import FlightRecorder

        recorder = FlightRecorder(directory=tmp_path)
        a = poisson2d(10)
        b = np.random.default_rng(42).standard_normal(a.nrows)
        with pytest.raises(UnrecoverableDivergence):
            solve(
                a, b, "vr", k=3,
                stop=StoppingCriterion(rtol=1e-8, max_iter=12),
                faults=FaultPlan(
                    [ScalarCorruptor(at_iteration=5, factor=1e12)], seed=0
                ),
                recovery=RecoveryPolicy(
                    max_restarts=0, on_unrecoverable="raise"
                ),
                telemetry=Telemetry(recorder),
            )
        [path] = recorder.written
        return path

    def test_replay_matches_the_recorded_history(self, bundle, capsys):
        rc = main(["replay", str(bundle)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MATCH" in out and "MISMATCH" not in out
        assert "reason : exception:UnrecoverableDivergence" in out
        assert "method : vr" in out

    def test_replay_mismatch_exits_nonzero(self, bundle, capsys):
        payload = json.loads(bundle.read_text())
        payload["residual_norms"][3] *= 2.0
        bundle.write_text(json.dumps(payload))
        rc = main(["replay", str(bundle)])
        assert rc == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_replay_missing_bundle_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read bundle"):
            main(["replay", str(tmp_path / "nope.json")])

    def test_solve_postmortem_flag_is_quiet_on_success(self, tmp_path, capsys):
        rc = main(["solve", "--generate", "poisson2d", "--size", "8",
                   "--method", "cg", "--postmortem", str(tmp_path)])
        assert rc == 0
        assert list(tmp_path.glob("postmortem-*.json")) == []

    def test_replay_and_postmortem_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["replay", "b.json", "--rtol", "1e-6"])
        assert args.bundle == "b.json" and args.rtol == 1e-6
        args = parser.parse_args(
            ["serve", "--generate", "poisson2d", "--postmortem-dir", "pm"]
        )
        assert args.postmortem_dir == "pm"
