"""CLI tests: every subcommand runs and prints the expected shapes."""

import json

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCli:
    def test_list(self, capsys):
        code, out = run(capsys, "list")
        assert code == 0
        assert "sendmail" in out and "#3163" in out
        assert out.count("pFSMs") == 13

    def test_stats(self, capsys):
        code, out = run(capsys, "stats", "--total", "500")
        assert code == 0
        assert "Input Validation Error" in out
        assert "22" in out

    def test_table1(self, capsys):
        code, out = run(capsys, "table1")
        assert code == 0
        for bid in ("3163", "5493", "3958"):
            assert bid in out

    def test_model_ascii(self, capsys):
        code, out = run(capsys, "model", "sendmail")
        assert code == 0
        assert "pFSM2" in out and "propagation gate" in out

    def test_model_dot(self, capsys):
        code, out = run(capsys, "model", "sendmail", "--dot")
        assert out.startswith("digraph")

    def test_model_json(self, capsys):
        code, out = run(capsys, "model", "nullhttpd", "--json")
        data = json.loads(out)
        assert data["bugtraq_ids"] == [5774, 6255]

    def test_model_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["model", "nosuch"])

    def test_trace_exploit(self, capsys):
        code, out = run(capsys, "trace", "ghttpd")
        assert "COMPROMISED" in out

    def test_trace_benign(self, capsys):
        code, out = run(capsys, "trace", "ghttpd", "--benign")
        assert "safe" in out

    def test_trace_json(self, capsys):
        code, out = run(capsys, "trace", "iis", "--json")
        data = json.loads(out)
        assert data["compromised"]

    def test_foil(self, capsys):
        code, out = run(capsys, "foil", "rwall")
        assert "pFSM1" in out and "pFSM2" in out

    def test_statespace(self, capsys):
        code, out = run(capsys, "statespace", "sendmail")
        assert "compromise reachable via hidden paths: True" in out
        assert "cut set" in out

    def test_statespace_dot(self, capsys):
        code, out = run(capsys, "statespace", "xterm", "--dot")
        assert out.startswith("digraph")

    def test_table2(self, capsys):
        code, out = run(capsys, "table2")
        assert out.count("Check") >= 16

    def test_discover(self, capsys):
        code, out = run(capsys, "discover")
        assert "[NEW]" in out and "pFSM2" in out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCommand:
    def test_sweep_text_reports_cache_stats(self, capsys):
        code, out = run(capsys, "sweep", "--explain")
        assert code == 0
        assert "hidden-path findings" in out
        assert "plan cache:" in out and " hits, " in out
        assert "CSE" not in out

    def test_sweep_json_includes_cache_stats(self, capsys):
        code, out = run(capsys, "sweep", "--json")
        data = json.loads(out)
        assert data["models"], "expected at least one swept model"
        stats = data["plan"]
        assert stats["enabled"] is True
        assert set(stats) == {"enabled", "compiles", "cache_hits",
                              "cache_misses"}
        assert all("cse_nodes" not in row for row in data["plans"])
        assert all(isinstance(stats[key], int) for key in
                   ("compiles", "cache_hits", "cache_misses"))

    def test_sweep_json_no_cache_nulls_stats(self, capsys):
        code, out = run(capsys, "sweep", "--json", "--no-plan")
        data = json.loads(out)
        stats = data["plan"]
        assert stats["enabled"] is False
        assert (stats["compiles"], stats["cache_hits"],
                stats["cache_misses"]) == (0, 0, 0)
        assert data["plans"] == []
        assert data["scans"]["compiled"] == 0

    def test_sweep_no_plan_findings_match_compiled(self, capsys):
        _code, out = run(capsys, "sweep", "--limit", "2", "--json")
        compiled = json.loads(out)
        _code, out = run(capsys, "sweep", "--limit", "2", "--no-plan",
                         "--json")
        interpreted = json.loads(out)
        assert compiled["total_findings"] > 0
        assert compiled["models"] == interpreted["models"]
        assert compiled["total_findings"] == interpreted["total_findings"]

    def test_sweep_json_reports_settings(self, capsys):
        code, out = run(capsys, "sweep", "--json")
        data = json.loads(out)
        settings = data["settings"]
        assert settings["columnar"] is True
        assert settings["columnar_backend"] in ("numpy", "stdlib")
        assert settings["plan"] is True
        assert "cache" not in data and "cache" not in settings
        assert set(data["scans"]) == {"fastpath", "columnar", "compiled",
                                      "plain", "memo"}

    @pytest.mark.parametrize("flags", [
        ["--no-cache"], ["--scan-window", "64"],
    ])
    def test_removed_cache_flags_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--workers", "0"], ["--workers", "-2"],
        ["--backend", "process", "--workers", "-2"],
        ["--limit", "0"], ["--limit", "-1"],
    ])
    def test_nonpositive_workers_and_limit_are_usage_errors(self, flags,
                                                           capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *flags])
        assert excinfo.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_sweep_no_columnar_flag(self, capsys):
        from repro.core import columnar

        code, out = run(capsys, "sweep", "--json", "--no-columnar")
        data = json.loads(out)
        assert data["settings"]["columnar"] is False
        assert data["scans"]["columnar"] == 0
        # The bypass must not leak past the command.
        assert columnar.is_enabled()


class TestObservabilityFlags:
    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_profile_prints_summary(self, capsys):
        code, out = run(capsys, "sweep", "--profile")
        assert code == 0
        assert "== profile ==" in out
        assert "sweep.task" in out
        assert "interval fast-path coverage" in out

    def test_profile_on_trace_subcommand(self, capsys):
        code, out = run(capsys, "trace", "sendmail", "--profile")
        assert code == 0
        assert "model.run" in out and "model.operation" in out

    def test_trace_file_writes_valid_jsonl(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        code, _out = run(capsys, "sweep", "--trace-file", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines, "trace file is empty"
        events = [json.loads(line) for line in lines]
        assert events[-1]["type"] == "summary"
        assert any(e["type"] == "span" for e in events)

    def test_registry_left_clean_after_profiled_run(self, capsys):
        from repro import obs

        run(capsys, "sweep", "--profile")
        assert not obs.enabled()
        assert obs.counters() == {}

    def test_plain_run_records_nothing(self, capsys):
        from repro import obs

        run(capsys, "sweep")
        assert not obs.enabled()
        assert obs.counters() == {}


class TestFailOnWitness:
    def test_witnesses_fail_the_run(self, capsys):
        # The bundled corpus is all vulnerabilities: witnesses exist,
        # so the CI gate must exit nonzero and say why.
        code, out = run(capsys, "sweep", "--limit", "1",
                        "--fail-on-witness")
        assert code == 1
        assert "--fail-on-witness" in out

    def test_json_mode_reports_total_and_fails(self, capsys):
        code, out = run(capsys, "sweep", "--limit", "1",
                        "--fail-on-witness", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["total_findings"] > 0

    def test_without_flag_witnesses_still_pass(self, capsys):
        code, _ = run(capsys, "sweep", "--limit", "1")
        assert code == 0


class TestServeCli:
    def test_query_against_live_server(self, capsys):
        from repro.serve import ServeConfig, ServerThread

        handle = ServerThread(ServeConfig(port=0)).start()
        try:
            code, out = run(capsys, "query", "sendmail",
                            "--port", str(handle.port))
            assert code == 0
            assert "VULNERABLE" in out
            code, out = run(capsys, "query", "sendmail", "--json",
                            "--port", str(handle.port))
            assert code == 0
            payload = json.loads(out)
            assert payload["status"] == "ok"
            assert payload["cached"] is True  # second hit on one server
            code, out = run(capsys, "query", "--metrics",
                            "--port", str(handle.port))
            assert code == 0
            assert json.loads(out)["counters"]["requests.query"] >= 2
        finally:
            handle.shutdown()

    def test_query_connection_refused_exits_nonzero(self, capsys):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        free_port = sock.getsockname()[1]
        sock.close()
        code = main(["query", "sendmail", "--port", str(free_port),
                     "--timeout", "2"])
        capsys.readouterr()
        assert code == 1

    def test_serve_flags_parse(self):
        # The serve subcommand's knobs map 1:1 onto ServeConfig; a
        # parse-only probe (bad flag) must exit via argparse, code 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--no-such-flag"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--backend", "process"], ["--workers", "2"],
    ])
    def test_serve_has_one_dispatch_path(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_of_range_serve_config_is_a_usage_error(self, capsys):
        # Used to escape as a ValueError traceback from server.start().
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--max-depth", "0"])
        assert excinfo.value.code == 2
        assert "repro serve: error: max_depth" in capsys.readouterr().err


class TestClusterCli:
    @staticmethod
    def _free_port():
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def test_cluster_backend_requires_listen(self):
        with pytest.raises(SystemExit, match="--listen"):
            main(["sweep", "--backend", "cluster"])

    def test_cluster_sweep_completes_inline_without_workers(self, capsys):
        # Zero workers: the coordinator hands every chunk back, the
        # scheduler runs it inline, and the JSON report says so.
        code, out = run(capsys, "sweep", "--json", "--backend", "cluster",
                        "--listen", "127.0.0.1:%d" % self._free_port(),
                        "--limit", "2")
        assert code == 0
        data = json.loads(out)
        assert data["settings"]["backend"] == "cluster"
        cluster = data["cluster"]
        assert cluster["workers_joined"] == 0
        assert cluster["chunks_claimed"] == 0
        assert set(cluster["tasks_inline"]) == {"unplaced"}
        assert cluster["tasks_inline"]["unplaced"] >= 1

    def test_cluster_json_matches_process_backend(self, capsys):
        code, cluster_out = run(
            capsys, "sweep", "--json", "--backend", "cluster",
            "--listen", "127.0.0.1:%d" % self._free_port(),
            "--limit", "2")
        assert code == 0
        code, process_out = run(capsys, "sweep", "--json",
                                "--backend", "process", "--limit", "2")
        assert code == 0
        a = json.loads(cluster_out)
        b = json.loads(process_out)
        assert a["models"] == b["models"]
        assert a["total_findings"] == b["total_findings"]

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker"])
        assert excinfo.value.code == 2

    def test_worker_rejects_malformed_address(self):
        with pytest.raises(SystemExit, match="--connect"):
            main(["worker", "--connect", "nota:port:here:x"])

    def test_worker_unreachable_coordinator_exits_2(self, capsys):
        code = main(["worker", "--connect",
                     "127.0.0.1:%d" % self._free_port(),
                     "--connect-timeout", "0.3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot connect" in captured.err

    def test_query_connect_timeout_exits_2_with_clear_message(self,
                                                              capsys):
        port = self._free_port()
        code = main(["query", "sendmail", "--port", str(port),
                     "--connect-timeout", "0.3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot connect" in captured.err
        assert "0.3s" in captured.err

    def test_query_without_connect_timeout_keeps_legacy_exit_1(self,
                                                               capsys):
        code = main(["query", "sendmail",
                     "--port", str(self._free_port()),
                     "--timeout", "2"])
        capsys.readouterr()
        assert code == 1


class TestTraceExport:
    def test_export_converts_trace_file_to_chrome_json(self, capsys,
                                                       tmp_path):
        events = tmp_path / "events.jsonl"
        out = tmp_path / "chrome.json"
        code, _ = run(capsys, "trace", "sendmail",
                      "--trace-file", str(events))
        assert code == 0
        code, text = run(capsys, "trace", "export", str(out),
                         "--input", str(events))
        assert code == 0
        assert "wrote" in text
        payload = json.loads(out.read_text())  # must round-trip json.load
        assert payload["traceEvents"], "export produced no events"
        first = payload["traceEvents"][0]
        assert first["ph"] == "X"
        assert {"name", "ts", "dur", "pid", "tid"} <= set(first)

    def test_export_requires_input(self, tmp_path):
        with pytest.raises(SystemExit, match="--input"):
            main(["trace", "export", str(tmp_path / "out.json")])

    def test_export_requires_output(self):
        with pytest.raises(SystemExit, match="output"):
            main(["trace", "export"])

    def test_export_missing_input_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["trace", "export", str(tmp_path / "out.json"),
                  "--input", str(tmp_path / "missing.jsonl")])

    def test_model_trace_still_works_with_new_args(self, capsys):
        code, out = run(capsys, "trace", "ghttpd")
        assert code == 0
        assert "verdict" in out


class TestProfileSort:
    def test_profile_sort_accepts_each_key(self, capsys):
        for key in ("total", "self", "count"):
            code, out = run(capsys, "sweep", "--profile",
                            "--profile-sort", key)
            assert code == 0
            assert "self_s" in out  # the new self-time column

    def test_profile_sort_rejects_unknown_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--profile", "--profile-sort", "bogus"])
