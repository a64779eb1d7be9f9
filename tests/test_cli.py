"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.api import SolveResult, spec_from_dict
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_rendezvous_options(self):
        namespace = build_parser().parse_args(
            ["rendezvous", "--distance", "1.5", "--visibility", "0.3", "--speed", "0.7"]
        )
        assert namespace.command == "rendezvous"
        assert namespace.speed == pytest.approx(0.7)


class TestCommands:
    def test_feasibility_feasible(self, capsys):
        assert main(["feasibility", "--speed", "0.5"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_feasibility_infeasible(self, capsys):
        assert main(["feasibility", "--chirality", "-1"]) == 0
        assert "infeasible" in capsys.readouterr().out

    def test_search_command(self, capsys):
        code = main(["search", "--distance", "1.2", "--bearing", "0.6", "--visibility", "0.3"])
        assert code == 0
        assert "Theorem 1 bound" in capsys.readouterr().out

    def test_rendezvous_command(self, capsys):
        code = main(
            ["rendezvous", "--distance", "1.4", "--visibility", "0.35", "--speed", "0.6"]
        )
        assert code == 0
        assert "measured time" in capsys.readouterr().out

    def test_rendezvous_infeasible_without_horizon_fails_cleanly(self, capsys):
        code = main(["rendezvous", "--distance", "1.4", "--visibility", "0.35"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_rendezvous_infeasible_with_horizon_runs(self, capsys):
        code = main(
            [
                "rendezvous",
                "--distance",
                "1.4",
                "--visibility",
                "0.35",
                "--allow-infeasible",
                "--horizon",
                "200",
            ]
        )
        assert code == 0
        assert "not solved" in capsys.readouterr().out

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        assert "E01" in capsys.readouterr().out

    def test_experiments_single_quick_run(self, capsys, tmp_path):
        code = main(["experiments", "F01", "--quick", "--output", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "F01" in output and "summary written" in output

    def test_experiments_without_selection_is_an_error(self, capsys):
        assert main(["experiments"]) == 2

    def test_schedule_command(self, capsys):
        assert main(["schedule", "--rounds", "2", "--tau", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "tau = 0.5" in out

    def test_suites_command_lists_every_named_suite_with_sizes(self, capsys):
        from repro.workloads import spec_suite, spec_suite_names

        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        for name in spec_suite_names():
            assert name in out
        assert f"{len(spec_suite('search-sweep')):>5} specs" in out

    def test_suites_command_json(self, capsys):
        from repro.workloads import spec_suite_names

        assert main(["suites", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows] == spec_suite_names()
        by_name = {row["name"]: row for row in rows}
        assert by_name["search-sweep-large"]["specs"] >= 500
        assert by_name["search-sweep"]["kinds"] == ["search"]

    def test_gather_command(self, capsys):
        code = main(
            [
                "gather",
                "--robot", "0,0,1.0,1.0,0,1",
                "--robot", "1.0,0.3,0.6,1.0,0,1",
                "--visibility", "0.4",
                "--horizon", "5000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pairwise gathering" in out and "met at" in out

    def test_gather_command_rejects_malformed_robot(self, capsys):
        code = main(["gather", "--robot", "0,0,1.0", "--visibility", "0.4"])
        assert code == 1
        assert "6 comma-separated fields" in capsys.readouterr().err

    def test_closed_stdout_exits_1_without_a_traceback(self):
        """``repro schedule | head -n 1``: a reader that is already gone
        ends the command with exit code 1, not a BrokenPipeError trace."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = os.environ.copy()
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "schedule", "--rounds", "14", "--tau", "0.5"],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert completed.returncode == 1
        assert b"Traceback" not in completed.stderr


class TestSolveCommand:
    def test_solve_search_flags_json_envelope_round_trips(self, capsys):
        code = main(
            ["solve", "--kind", "search", "--distance", "1.2", "--visibility", "0.3", "--json"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        result = SolveResult.from_dict(envelope)
        assert result.spec == spec_from_dict(envelope["spec"])
        assert result.solved is True
        assert result.bound_ratio is not None and result.bound_ratio < 1.0

    def test_solve_rendezvous_flags_human_summary(self, capsys):
        code = main(
            ["solve", "--kind", "rendezvous", "--distance", "1.4", "--visibility", "0.35",
             "--speed", "0.6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured time" in out and "specs/s" in out

    def test_solve_infeasible_auto_falls_back_to_analytic(self, capsys):
        code = main(
            ["solve", "--kind", "rendezvous", "--distance", "1.4", "--visibility", "0.35",
             "--json"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["feasible"] is False
        assert envelope["provenance"]["backend"] == "analytic"

    def test_solve_spec_file_with_list_and_backend(self, capsys, tmp_path):
        specs = [
            {"schema_version": 1, "kind": "search", "distance": 1.2, "visibility": 0.3},
            {"schema_version": 1, "kind": "rendezvous", "distance": 1.4, "visibility": 0.35,
             "speed": 0.6},
        ]
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps(specs), encoding="utf-8")
        code = main(
            ["solve", "--spec-file", str(spec_file), "--backend", "analytic", "--json"]
        )
        assert code == 0
        envelopes = json.loads(capsys.readouterr().out)
        assert len(envelopes) == 2
        assert all(e["provenance"]["backend"] == "analytic" for e in envelopes)
        assert all(SolveResult.from_dict(e).bound is not None for e in envelopes)

    def test_solve_single_element_list_file_stays_a_list(self, capsys, tmp_path):
        spec_file = tmp_path / "one.json"
        spec_file.write_text(
            json.dumps(
                [{"schema_version": 1, "kind": "search", "distance": 1.2, "visibility": 0.3}]
            ),
            encoding="utf-8",
        )
        code = main(["solve", "--spec-file", str(spec_file), "--backend", "analytic", "--json"])
        assert code == 0
        envelopes = json.loads(capsys.readouterr().out)
        assert isinstance(envelopes, list) and len(envelopes) == 1

    def test_solve_gathering_via_robot_flags(self, capsys):
        code = main(
            ["solve", "--kind", "gathering",
             "--robot", "0,0,1.0,1.0,0,1",
             "--robot", "1.0,0.3,0.6,1.0,0,1",
             "--visibility", "0.4", "--horizon", "5000", "--json"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["spec"]["kind"] == "gathering"
        assert envelope["solved"] is True

    def test_solve_without_kind_or_file_is_an_error(self, capsys):
        assert main(["solve"]) == 1
        assert "spec-file" in capsys.readouterr().err

    def test_solve_unknown_backend_is_an_error(self, capsys):
        code = main(
            ["solve", "--kind", "search", "--distance", "1.0", "--visibility", "0.3",
             "--backend", "quantum"]
        )
        assert code == 1
        assert "unknown backend" in capsys.readouterr().err


class TestStoreFlagsAndCommands:
    def _populate(self, capsys, store: str) -> None:
        assert (
            main(
                ["solve", "--kind", "search", "--distance", "1.2", "--visibility", "0.3",
                 "--store", store]
            )
            == 0
        )
        capsys.readouterr()

    def test_solve_store_warm_run_reports_store_hit(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        code = main(
            ["solve", "--kind", "search", "--distance", "1.2", "--visibility", "0.3",
             "--store", store]
        )
        assert code == 0
        assert "1 store hits" in capsys.readouterr().out

    def test_solve_json_keeps_stdout_parseable_stats_on_stderr(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main(
            ["solve", "--kind", "search", "--distance", "1.2", "--visibility", "0.3",
             "--store", store, "--json"]
        )
        assert code == 0
        captured = capsys.readouterr()
        envelope = json.loads(captured.out)
        assert envelope["spec"]["kind"] == "search"
        assert "store hits" in captured.err

    def test_store_and_no_store_are_mutually_exclusive(self, capsys, tmp_path):
        code = main(
            ["solve", "--kind", "search", "--distance", "1.2", "--visibility", "0.3",
             "--store", str(tmp_path), "--no-store"]
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_store_env_variable_provides_the_default(self, capsys, tmp_path, monkeypatch):
        store = str(tmp_path / "env-store")
        monkeypatch.setenv("REPRO_STORE", store)
        self._populate(capsys, store)
        code = main(
            ["solve", "--kind", "search", "--distance", "1.2", "--visibility", "0.3"]
        )
        assert code == 0
        assert "1 store hits" in capsys.readouterr().out

    def test_no_store_overrides_the_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        code = main(
            ["solve", "--kind", "search", "--distance", "1.2", "--visibility", "0.3",
             "--no-store"]
        )
        assert code == 0
        assert not (tmp_path / "env-store").exists()

    def test_store_stats_renders_counts_and_aggregate(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        assert main(["store", "stats", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 unique results" in out
        assert "Stored results by kind and backend" in out

    def test_store_stats_json(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        assert main(["store", "stats", "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unique"] == 1
        assert payload["groups"][0]["kind"] == "search"

    def test_store_gc_export_import_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        self._populate(capsys, store)
        assert main(["store", "gc", "--store", store]) == 0
        assert "compacted" in capsys.readouterr().out
        export_file = str(tmp_path / "warm.jsonl")
        assert main(["store", "export", "--store", store, "--file", export_file]) == 0
        assert "exported 1" in capsys.readouterr().out
        other = str(tmp_path / "other")
        assert main(["store", "import", "--store", other, "--file", export_file]) == 0
        assert "imported 1 new record(s)" in capsys.readouterr().out

    def test_store_command_requires_a_directory(self, capsys):
        assert main(["store", "stats"]) == 1
        assert "--store" in capsys.readouterr().err

    def test_store_stats_on_a_missing_directory_is_an_error(self, capsys, tmp_path):
        # A mistyped path must not be silently created as an empty store.
        missing = tmp_path / "repro-stroe"
        assert main(["store", "stats", "--store", str(missing)]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()

    def test_store_export_requires_a_file(self, capsys, tmp_path):
        assert main(["store", "export", "--store", str(tmp_path)]) == 1
        assert "--file" in capsys.readouterr().err

    def test_experiments_store_resume_and_expect_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["experiments", "E01", "--quick", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "solved fresh" in out and "sweep total" in out
        code = main(
            ["experiments", "E01", "--quick", "--store", store, "--expect-warm"]
        )
        assert code == 0
        assert "fingerprints match previous run" in capsys.readouterr().out

    def test_experiments_expect_warm_without_a_store_errors_up_front(self, capsys):
        code = main(["experiments", "E02", "--quick", "--expect-warm"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--store" in err and "expect-warm" in err

    def test_experiments_expect_warm_fails_on_a_cold_store(self, capsys, tmp_path):
        code = main(
            ["experiments", "E01", "--quick", "--store", str(tmp_path / "cold"),
             "--expect-warm"]
        )
        assert code == 1
        assert "solved fresh" in capsys.readouterr().err


class TestJsonFlags:
    def test_search_json(self, capsys):
        code = main(["search", "--distance", "1.2", "--visibility", "0.3", "--json"])
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["spec"]["kind"] == "search"
        assert envelope["solved"] is True

    def test_rendezvous_json(self, capsys):
        code = main(
            ["rendezvous", "--distance", "1.4", "--visibility", "0.35", "--speed", "0.6",
             "--json"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["spec"]["kind"] == "rendezvous"
        assert envelope["measured_time"] is not None

    def test_feasibility_json(self, capsys):
        code = main(["feasibility", "--chirality", "-1", "--json"])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["feasible"] is False and verdict["reasons"]


class TestServeAndStreaming:
    def test_serve_parser_defaults(self):
        namespace = build_parser().parse_args(["serve"])
        assert namespace.command == "serve"
        assert namespace.host == "127.0.0.1" and namespace.port == 7767
        assert namespace.backend == "auto"
        assert namespace.max_inflight == 8 and namespace.queue_limit == 128

    def test_serve_rejects_non_positive_workers(self, capsys):
        assert main(["serve", "--workers", "0"]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_stdin_jsonl_streams_one_response_per_request(self, capsys, monkeypatch):
        import io

        requests = [
            json.dumps({"op": "solve", "id": 1, "backend": "analytic",
                        "spec": {"schema_version": 1, "kind": "search",
                                 "distance": 1.2, "visibility": 0.3}}),
            json.dumps({"schema_version": 1, "kind": "search",
                        "distance": 1.2, "visibility": 0.3}),  # bare-spec duplicate
            json.dumps({"op": "health"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        code = main(["solve", "--stdin-jsonl", "--backend", "analytic", "--no-store"])
        assert code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(lines) == 3
        assert lines[0]["ok"] and lines[0]["id"] == 1 and lines[0]["served_by"] == "solve"
        assert lines[1]["ok"] and lines[1]["served_by"] == "cache"  # duplicate hit the LRU
        assert lines[2]["health"]["status"] == "serving"
        assert "cache hits" in captured.err

    def test_stdin_jsonl_bad_request_sets_exit_code_but_keeps_streaming(
        self, capsys, monkeypatch
    ):
        import io

        requests = [
            "not json at all",
            json.dumps({"schema_version": 1, "kind": "search",
                        "distance": 1.2, "visibility": 0.3}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        code = main(["solve", "--stdin-jsonl", "--backend", "analytic", "--no-store"])
        assert code == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [line["ok"] for line in lines] == [False, True]

    def test_stdin_jsonl_refuses_the_streaming_verbs(self, capsys, monkeypatch):
        """One response per request line: ``subscribe`` and ``sweep`` are
        refused with a pointer at the daemon, and the stream goes on."""
        import io

        spec = {"schema_version": 1, "kind": "search", "distance": 1.2, "visibility": 0.3}
        requests = [
            json.dumps({"op": "subscribe", "specs": [spec], "id": 1}),
            json.dumps({"op": "sweep", "specs": [spec], "id": 2}),
            json.dumps(spec),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        code = main(["solve", "--stdin-jsonl", "--backend", "analytic", "--no-store"])
        assert code == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [line["ok"] for line in lines] == [False, False, True]
        for line, verb, request_id in zip(lines, ("subscribe", "sweep"), (1, 2)):
            assert line["op"] == verb and line["id"] == request_id
            assert line["error"] == (
                f"{verb} streams results over one connection; send it to a "
                "`repro serve` daemon"
            )

    def test_stdin_jsonl_conflicts_with_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text("[]", encoding="utf-8")
        code = main(["solve", "--stdin-jsonl", "--spec-file", str(spec_file)])
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_stdin_jsonl_uses_the_store(self, capsys, monkeypatch, tmp_path):
        import io

        line = json.dumps({"schema_version": 1, "kind": "search",
                           "distance": 1.5, "visibility": 0.3})
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["solve", "--stdin-jsonl", "--backend", "analytic",
                     "--store", str(tmp_path)]) == 0
        first = json.loads(capsys.readouterr().out.strip())
        assert first["served_by"] == "solve"
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["solve", "--stdin-jsonl", "--backend", "analytic",
                     "--store", str(tmp_path)]) == 0
        second = json.loads(capsys.readouterr().out.strip())
        assert second["served_by"] == "store"  # answered from the persisted tier
        assert (
            SolveResult.from_dict(second["result"]).fingerprint()
            == SolveResult.from_dict(first["result"]).fingerprint()
        )

    def test_stdin_jsonl_solve_error_sets_exit_code(self, capsys, monkeypatch):
        """Satellite regression: a line whose *solve* fails (backend raises,
        not just malformed JSON) must flip the exit code so shell pipelines
        see partial failure; per-line behavior is unchanged."""
        import io

        requests = [
            json.dumps({"op": "solve", "backend": "simulation",
                        "spec": {"schema_version": 1, "kind": "rendezvous",
                                 "distance": 1.4, "visibility": 0.3}}),  # infeasible
            json.dumps({"schema_version": 1, "kind": "search",
                        "distance": 1.2, "visibility": 0.3}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        code = main(["solve", "--stdin-jsonl", "--backend", "analytic", "--no-store"])
        assert code == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [line["ok"] for line in lines] == [False, True]
        assert lines[0]["error_type"] == "InfeasibleConfigurationError"

    def test_stdin_jsonl_all_lines_failing_exits_nonzero(self, capsys, monkeypatch):
        import io

        requests = [json.dumps({"op": "solve", "spec": {"kind": "search"}})] * 2
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        code = main(["solve", "--stdin-jsonl", "--backend", "analytic", "--no-store"])
        assert code == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [line["ok"] for line in lines] == [False, False]

    def test_experiments_progress_flag_streams_to_stderr(self, capsys, tmp_path):
        code = main(["experiments", "E01", "--quick", "--progress", "--no-store"])
        assert code == 0
        err = capsys.readouterr().err
        assert "E01" in err and "result(s)" in err


class TestServeSignals:
    """Satellite: SIGTERM (how a supervisor stops a daemon) must drain."""

    def _spawn_serve(self, tmp_path, *extra):
        import os
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro

        port_file = tmp_path / "serve.port"
        env = os.environ.copy()
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "analytic", "--port-file", str(port_file), *extra],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60.0
        while not (port_file.exists() and port_file.read_text().strip()):
            assert process.poll() is None, "serve exited before binding"
            assert time.monotonic() < deadline, "serve never published its port"
            time.sleep(0.02)
        host, _, port = port_file.read_text().strip().rpartition(":")
        return process, host, int(port)

    def test_sigterm_drains_and_flushes_the_store(self, tmp_path):
        """A SIGTERM'd daemon exits 0 and publishes exactly one buffered
        store segment (the drain flush), losing nothing."""
        import os
        import signal

        from repro.api import ResultStore
        from repro.service import request_lines

        store_dir = tmp_path / "store"
        process, host, port = self._spawn_serve(tmp_path, "--store", str(store_dir))
        try:
            lines = [
                json.dumps({"op": "solve", "id": i,
                            "spec": {"schema_version": 1, "kind": "search",
                                     "distance": 1.0 + 0.1 * i, "visibility": 0.3}})
                for i in range(3)
            ]
            responses = [json.loads(line) for line in request_lines(host, port, lines)]
            assert all(response["ok"] for response in responses)
            # The serving runner buffers store writes: nothing published yet.
            assert list(store_dir.glob("segment-*.jsonl")) == []
            os.kill(process.pid, signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - only on failure
                process.kill()
        segments = list(store_dir.glob("segment-*.jsonl"))
        assert len(segments) == 1  # one drain flush, not one segment per request
        assert len(ResultStore(store_dir)) == 3

    def test_sigint_also_drains(self, tmp_path):
        import os
        import signal

        from repro.api import ResultStore
        from repro.service import request_lines

        store_dir = tmp_path / "store"
        process, host, port = self._spawn_serve(tmp_path, "--store", str(store_dir))
        try:
            (line,) = request_lines(host, port, [
                json.dumps({"spec": None, "op": "health"})
            ])
            assert json.loads(line)["ok"]
            (solve_line,) = request_lines(host, port, [
                json.dumps({"op": "solve",
                            "spec": {"schema_version": 1, "kind": "search",
                                     "distance": 1.5, "visibility": 0.3}})
            ])
            assert json.loads(solve_line)["ok"]
            os.kill(process.pid, signal.SIGINT)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - only on failure
                process.kill()
        assert len(ResultStore(store_dir)) == 1


class TestSweepCommand:
    """``repro sweep``: one suite, three execution paths, one digest."""

    SUITE = "asymmetric-clock"  # smallest named suite (7 specs)

    def _local_digest(self):
        from repro.api.batch import BatchRunner
        from repro.experiments.manifest import fingerprint_digest
        from repro.workloads import spec_suite

        results, _ = BatchRunner(backend="analytic").run(spec_suite(self.SUITE))
        return fingerprint_digest(results)

    def test_sweep_parser_defaults(self):
        namespace = build_parser().parse_args(["sweep", self.SUITE])
        assert namespace.command == "sweep"
        assert namespace.suite == self.SUITE
        assert namespace.backend == "auto"
        assert namespace.connect is None
        assert not namespace.subscribe and not namespace.binary

    def test_local_sweep_matches_batch_runner_digest(self, capsys):
        code = main(["sweep", self.SUITE, "--backend", "analytic",
                     "--no-store", "--json"])
        assert code == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["mode"] == "local"
        assert outcome["errors"] == 0
        assert outcome["total"] == 7
        assert outcome["fingerprint_digest"] == self._local_digest()

    def test_subscribe_and_per_request_paths_agree(self, capsys):
        from repro.service import AsyncReproServer

        expected = self._local_digest()
        server = AsyncReproServer(backend="analytic", host="127.0.0.1", port=0)
        server.serve_background()
        try:
            address = f"{server.host}:{server.port}"
            code = main(["sweep", self.SUITE, "--backend", "analytic",
                         "--connect", address, "--subscribe", "--json"])
            assert code == 0
            streamed = json.loads(capsys.readouterr().out)
            assert streamed["mode"] == "subscribe/json"
            assert streamed["errors"] == 0
            assert streamed["fingerprint_digest"] == expected

            code = main(["sweep", self.SUITE, "--backend", "analytic",
                         "--connect", address, "--json"])
            assert code == 0
            per_request = json.loads(capsys.readouterr().out)
            assert per_request["mode"] == "connect/json"
            assert per_request["fingerprint_digest"] == expected
            # The second pass replays the first pass's answers.
            assert per_request["sources"] == {"cache": 7}
        finally:
            server.stop()
        assert server.leaked_tasks == []

    def test_subscribe_requires_connect(self, capsys):
        assert main(["sweep", self.SUITE, "--subscribe"]) == 1
        assert "--connect" in capsys.readouterr().err

    def test_unknown_suite_fails_cleanly(self, capsys):
        assert main(["sweep", "no-such-suite"]) == 1
        assert "no-such-suite" in capsys.readouterr().err


class TestPortFilePublication:
    """Satellite: ``--port-file`` lands atomically, with or without the
    legacy ``--async`` flag."""

    _spawn_serve = TestServeSignals._spawn_serve

    @pytest.mark.parametrize("extra", [(), ("--async",)],
                             ids=["plain", "async-flag"])
    def test_port_file_is_complete_and_leaves_no_temp(self, tmp_path, extra):
        import os
        import signal

        from repro.service import request_lines

        process, host, port = self._spawn_serve(tmp_path, *extra)
        try:
            content = (tmp_path / "serve.port").read_text(encoding="utf-8")
            assert content == f"{host}:{port}\n"
            # write-temp + rename: no partial or leftover temp files.
            assert list(tmp_path.glob("serve.port.*")) == []
            (line,) = request_lines(host, port, [json.dumps({"op": "health"})])
            assert json.loads(line)["ok"]
            os.kill(process.pid, signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - only on failure
                process.kill()

    def test_serve_parser_accepts_async(self):
        """``--async`` still parses; asyncio is the only transport, so the
        flag leaves every setting the serve command reads unchanged."""
        flagged = vars(build_parser().parse_args(["serve", "--async"]))
        plain = vars(build_parser().parse_args(["serve"]))
        assert flagged.pop("async") is True
        assert plain.pop("async") is False
        assert flagged == plain
