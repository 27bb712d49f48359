"""Tests for the command-line interface (``python -m repro``)."""

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_HOLDS, EXIT_VIOLATION, build_parser, main


TOPOLOGY_TEXT = """
topology triangle
node r1 role edge
node r2 role core
node r3 role core
link r1 r2 weight 10
link r2 r3 weight 10
link r1 r3 weight 10
"""

GOOD_CONFIG = """
device r1
  ospf
    network 10.0.1.0/24
device r2
  ospf
device r3
  ospf
"""

# Static routes on r2 and r3 override OSPF for the advertised prefix and send
# packets around the r2 <-> r3 link forever (the Fig. 7a "fail" pattern).
LOOPING_CONFIG = GOOD_CONFIG + """
device r2
  ospf
  static 10.0.1.0/24 next-hop r3
device r3
  ospf
  static 10.0.1.0/24 next-hop r2
"""


@pytest.fixture
def workspace(tmp_path):
    """A directory containing the triangle topology and both config variants."""
    (tmp_path / "net.topo").write_text(TOPOLOGY_TEXT)
    (tmp_path / "good.cfg").write_text(GOOD_CONFIG)
    (tmp_path / "looping.cfg").write_text(LOOPING_CONFIG)
    return tmp_path


def _run(args):
    return main([str(a) for a in args])


class TestVerifyCommand:
    def test_reachability_holds(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "r2,r3",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "HOLDS" in out

    def test_backend_and_cores_flags(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "r2,r3",
            "--cores", "2", "--backend", "process",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "HOLDS" in out

    def test_serial_backend_flag(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "r2,r3",
            "--cores", "4", "--backend", "serial",
        ])
        assert code == EXIT_HOLDS
        assert "HOLDS" in capsys.readouterr().out

    def test_unknown_backend_rejected(self, workspace, capsys):
        with pytest.raises(SystemExit):
            _run([
                "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
                "--policy", "reachability", "--backend", "quantum",
            ])

    def test_loop_violation_detected(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--policy", "loop",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "VIOLATED" in out
        assert "loop" in out.lower()

    def test_json_output_is_parseable(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--policy", "loop", "--json",
        ])
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATION
        assert document["holds"] is False
        assert document["violations"]
        assert document["policy"]

    def test_json_document_is_the_shared_verify_document(self, workspace, capsys, monkeypatch):
        from repro.core.verifier import Plankton
        from repro.reporting import verify_document

        seen = []
        original = Plankton.verify

        def recording(self, policy, *args, **kwargs):
            result = original(self, policy, *args, **kwargs)
            seen.append((result, policy))
            return result

        monkeypatch.setattr(Plankton, "verify", recording)
        _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--policy", "loop", "--json",
        ])
        document = json.loads(capsys.readouterr().out)
        [(result, policy)] = seen
        expected = json.loads(json.dumps(verify_document(result, policy.name)))
        assert list(document) == list(expected)
        for key, value in expected.items():
            assert document[key] == value, key

    def test_reachability_under_failures(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "r2", "--max-failures", "1",
        ])
        assert code == EXIT_HOLDS
        assert "failure scenario" in capsys.readouterr().out

    def test_waypoint_requires_sources_and_waypoints(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "waypoint",
        ])
        assert code == EXIT_ERROR
        assert "requires" in capsys.readouterr().err

    def test_bounded_path_length(self, workspace):
        assert _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "bounded-path-length", "--max-hops", "2",
        ]) == EXIT_HOLDS

    def test_unknown_source_device_is_an_input_error(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "reachability", "--sources", "nope",
        ])
        assert code == EXIT_ERROR
        assert "unknown device" in capsys.readouterr().err

    def test_missing_topology_file_is_an_input_error(self, workspace, capsys):
        code = _run([
            "verify", "--topology", workspace / "missing.topo", "--config", workspace / "good.cfg",
            "--policy", "loop",
        ])
        assert code == EXIT_ERROR

    def test_no_optimizations_flag_still_verifies(self, workspace):
        assert _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--policy", "loop", "--no-optimizations",
        ]) == EXIT_VIOLATION

    def test_config_dir_mode(self, workspace, tmp_path):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "r1.cfg").write_text("ospf\n  network 10.0.1.0/24\n")
        (config_dir / "r2.cfg").write_text("ospf\n")
        (config_dir / "r3.cfg").write_text("ospf\n")
        assert _run([
            "verify", "--topology", workspace / "net.topo", "--config-dir", config_dir,
            "--policy", "reachability",
        ]) == EXIT_HOLDS

    def test_config_dir_with_unknown_device_is_rejected(self, workspace, tmp_path, capsys):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        (config_dir / "r9.cfg").write_text("ospf\n")
        code = _run([
            "verify", "--topology", workspace / "net.topo", "--config-dir", config_dir,
            "--policy", "reachability",
        ])
        assert code == EXIT_ERROR
        assert "does not match" in capsys.readouterr().err


class TestPecsCommand:
    def test_lists_packet_equivalence_classes(self, workspace, capsys):
        code = _run([
            "pecs", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "packet equivalence class" in out
        assert "10.0.1.0/24" in out
        assert "no cross-PEC dependencies" in out


class TestSimulateCommand:
    def test_dumps_fibs(self, workspace, capsys):
        code = _run([
            "simulate", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "10.0.1.0/24" in out
        # Every router should have an entry towards the advertised prefix.
        assert "r2:" in out and "r3:" in out


class TestTraceCommand:
    def test_traces_delivered_packet(self, workspace, capsys):
        code = _run([
            "trace", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--source", "r3", "--destination", "10.0.1.7",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "forwarding branches from r3" in out
        assert "delivered" in out

    def test_traces_looping_packet(self, workspace, capsys):
        code = _run([
            "trace", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--source", "r2", "--destination", "10.0.1.7", "--show-fibs",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "loop" in out

    def test_unconfigured_destination_reports_drop(self, workspace, capsys):
        code = _run([
            "trace", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--source", "r1", "--destination", "192.168.55.1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "no configured prefix" in out

    def test_bad_destination_address_is_an_input_error(self, workspace, capsys):
        code = _run([
            "trace", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--source", "r1", "--destination", "not-an-ip",
        ])
        assert code == EXIT_ERROR


class TestParser:
    def test_parser_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_requires_policy(self, workspace):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "--topology", str(workspace / "net.topo"),
                 "--config", str(workspace / "good.cfg")]
            )


# --------------------------------------------------------------------------- transient + incremental CLI
BGP_TOPOLOGY_TEXT = """
topology square
node o role edge
node m role core
node a role core
node b role core
link o m weight 10
link m a weight 10
link m b weight 10
link a b weight 10
"""

BGP_CONFIG = """
device o
  bgp 65000
    network 10.9.0.0/24
    neighbor m remote-as 65001
device m
  bgp 65001
    neighbor o remote-as 65000
    neighbor a remote-as 65002
    neighbor b remote-as 65003
device a
  bgp 65002
    neighbor m remote-as 65001
    neighbor b remote-as 65003
device b
  bgp 65003
    neighbor m remote-as 65001
    neighbor a remote-as 65002
"""


@pytest.fixture
def bgp_workspace(tmp_path):
    (tmp_path / "bgp.topo").write_text(BGP_TOPOLOGY_TEXT)
    (tmp_path / "bgp.cfg").write_text(BGP_CONFIG)
    return tmp_path


class TestTransientCommand:
    def test_holds_from_cold_start(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--max-states", "500",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "HOLDS" in out

    def test_session_flap_violation_sets_exit_code(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg",
            "--fail-session", "o,m", "--max-states", "2000",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "VIOLATED" in out
        assert "transient forwarding loop" in out

    def test_priority_frontier_and_witness_minimisation_flags(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg",
            "--fail-session", "o,m", "--frontier", "priority",
            "--minimize-witness", "--por", "full",
        ])
        assert code == EXIT_VIOLATION
        assert "event sequence" in capsys.readouterr().out

    def test_json_output_and_report(self, bgp_workspace, tmp_path, capsys):
        report = tmp_path / "transient.md"
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--json",
            "--report", report, "--max-states", "300",
        ])
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_HOLDS
        assert document["holds"] is True
        assert document["runs"]
        assert "Transient analysis" in report.read_text()

    def test_backend_flag_is_plumbed(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg",
            "--cores", "2", "--backend", "process", "--max-states", "300",
        ])
        assert code == EXIT_HOLDS

    def test_unknown_backend_rejected(self, bgp_workspace):
        with pytest.raises(SystemExit):
            _run([
                "transient", "--topology", bgp_workspace / "bgp.topo",
                "--config", bgp_workspace / "bgp.cfg", "--backend", "quantum",
            ])

    def test_unknown_fail_session_device_is_an_input_error(self, bgp_workspace, capsys):
        code = _run([
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--fail-session", "o,zz",
        ])
        assert code == EXIT_ERROR
        assert "unknown device" in capsys.readouterr().err

    def test_cache_dir_serves_second_run_from_cache(self, bgp_workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--json",
            "--cache-dir", cache, "--max-states", "300",
        ]
        assert _run(args) == EXIT_HOLDS
        capsys.readouterr()
        assert _run(args) == EXIT_HOLDS
        document = json.loads(capsys.readouterr().out)
        assert document["incremental"]["pecs_from_cache"] == document["incremental"]["pecs_total"]

    def test_no_rank_immunity_escape_hatch(self, bgp_workspace, capsys):
        """--no-rank-immunity disables the refinement; ledgers prove it ran."""
        args = [
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--json",
            "--max-states", "2000",
        ]
        code_on = _run(args)
        document_on = json.loads(capsys.readouterr().out)
        code_off = _run(args + ["--no-rank-immunity"])
        document_off = json.loads(capsys.readouterr().out)
        # The refinement must not change the verdict, only the effort.
        assert code_on == code_off
        assert document_on["holds"] == document_off["holds"]
        reductions_on = [run["result"]["reduction"] for run in document_on["runs"]]
        reductions_off = [run["result"]["reduction"] for run in document_off["runs"]]
        assert any(r["rank_immune_sessions"] > 0 for r in reductions_on)
        assert all(r["rank_immune_sessions"] == 0 for r in reductions_off)

    def test_no_bgp_prefixes_is_a_clean_no_op(self, workspace, capsys):
        code = _run([
            "transient", "--topology", workspace / "net.topo",
            "--config", workspace / "good.cfg",
        ])
        assert code == EXIT_HOLDS
        assert "no BGP-originated prefixes" in capsys.readouterr().out


class TestTransientScenarioFlags:
    """The lifecycle-scenario surface of ``repro transient``: explicit
    ``--scenario`` selections, the ``--scenario-events`` enumerator budget,
    exit codes on bad input, JSON round-trips, and the campaign-cache
    fingerprint covering scenarios."""

    def _args(self, bgp_workspace, *extra):
        return [
            "transient", "--topology", bgp_workspace / "bgp.topo",
            "--config", bgp_workspace / "bgp.cfg", "--max-states", "2000",
            *extra,
        ]

    def test_crash_scenario_finds_the_transient_loop(self, bgp_workspace, capsys):
        code = _run(self._args(bgp_workspace, "--scenario", "crash:m"))
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "VIOLATED" in out
        assert "1 event scenario(s)" in out

    def test_maintenance_scenario_holds(self, bgp_workspace, capsys):
        code = _run(self._args(bgp_workspace, "--scenario", "maintenance:a"))
        assert code == EXIT_HOLDS
        assert "HOLDS" in capsys.readouterr().out

    def test_staged_scenario_spec_parses(self, bgp_workspace):
        code = _run(self._args(bgp_workspace, "--scenario", "drain:a+return:a"))
        assert code == EXIT_HOLDS

    def test_unknown_scenario_device_is_an_input_error(self, bgp_workspace, capsys):
        code = _run(self._args(bgp_workspace, "--scenario", "crash:zz"))
        assert code == EXIT_ERROR
        assert "unknown device" in capsys.readouterr().err

    def test_malformed_scenario_spec_is_an_input_error(self, bgp_workspace, capsys):
        assert _run(self._args(bgp_workspace, "--scenario", "crash")) == EXIT_ERROR
        capsys.readouterr()
        assert _run(self._args(bgp_workspace, "--scenario", "meteor:m")) == EXIT_ERROR
        assert "unknown" in capsys.readouterr().err

    def test_unknown_scenario_kind_is_an_input_error(self, bgp_workspace, capsys):
        code = _run(self._args(
            bgp_workspace, "--scenario-events", "1", "--scenario-kinds", "meteor",
        ))
        assert code == EXIT_ERROR
        assert "unknown event kind" in capsys.readouterr().err

    def test_scenario_enumeration_json_round_trip(self, bgp_workspace, capsys):
        code = _run(self._args(
            bgp_workspace, "--json", "--scenario-events", "1",
            "--scenario-kinds", "crash,drain", "--all-violations",
        ))
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATION
        assert document["event_scenarios"] > 1
        labels = {run["scenario"] for run in document["runs"]}
        assert "steady state" in labels
        assert any(label.startswith("crash ") for label in labels)
        assert len(document["runs"]) == document["event_scenarios"]

    def test_explicit_scenario_json_carries_its_name(self, bgp_workspace, capsys):
        code = _run(self._args(
            bgp_workspace, "--json", "--scenario", "maintenance:a",
        ))
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_HOLDS
        assert document["event_scenarios"] == 1
        assert [run["scenario"] for run in document["runs"]] == ["maintenance:a"]

    def test_scenario_without_flags_leaves_json_unchanged(self, bgp_workspace, capsys):
        """No scenario flags: the document keeps its pre-scenario shape."""
        code = _run(self._args(bgp_workspace, "--json"))
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_HOLDS
        assert "event_scenarios" not in document
        assert all("scenario" not in run for run in document["runs"])

    def test_cache_distinguishes_campaigns_by_scenario(self, bgp_workspace, tmp_path, capsys):
        """Regression: two campaigns differing only in their scenario must not
        share a cache entry (the fingerprint now covers the (failure,
        scenario) task shape)."""
        cache = tmp_path / "cache"
        crash = self._args(
            bgp_workspace, "--json", "--cache-dir", cache, "--scenario", "crash:m",
        )
        calm = self._args(
            bgp_workspace, "--json", "--cache-dir", cache, "--scenario", "maintenance:a",
        )
        assert _run(crash) == EXIT_VIOLATION
        capsys.readouterr()
        # A different scenario over the same config must recompute — and
        # reach the opposite verdict, which a stale cache hit could not.
        assert _run(calm) == EXIT_HOLDS
        calm_doc = json.loads(capsys.readouterr().out)
        assert calm_doc["incremental"]["pecs_from_cache"] == 0
        assert calm_doc["holds"] is True
        # Re-running the same scenario IS served from cache, verdict intact.
        assert _run(crash) == EXIT_VIOLATION
        crash_doc = json.loads(capsys.readouterr().out)
        assert crash_doc["incremental"]["pecs_from_cache"] == crash_doc["incremental"]["pecs_total"]
        assert crash_doc["holds"] is False
        assert [run["scenario"] for run in crash_doc["runs"]] == ["crash:m"]


class TestVerifyCacheDir:
    def test_cache_dir_reports_incremental_accounting(self, workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = [
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "loop", "--cache-dir", cache, "--json",
        ]
        assert _run(args) == EXIT_HOLDS
        first = json.loads(capsys.readouterr().out)
        assert first["incremental"]["pecs_recomputed"] == first["incremental"]["pecs_total"]
        assert _run(args) == EXIT_HOLDS
        second = json.loads(capsys.readouterr().out)
        assert second["incremental"]["pecs_from_cache"] == second["incremental"]["pecs_total"]
        assert second["holds"] is first["holds"]

    def test_cache_dir_composes_with_backend_flag(self, workspace, tmp_path):
        cache = tmp_path / "cache"
        assert _run([
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "good.cfg",
            "--policy", "loop", "--cache-dir", cache,
            "--cores", "2", "--backend", "process",
        ]) == EXIT_HOLDS

    def test_violation_exit_code_with_cache(self, workspace, tmp_path):
        cache = tmp_path / "cache"
        args = [
            "verify", "--topology", workspace / "net.topo", "--config", workspace / "looping.cfg",
            "--policy", "loop", "--cache-dir", cache,
        ]
        assert _run(args) == EXIT_VIOLATION
        assert _run(args) == EXIT_VIOLATION


class TestDiffVerifyCommand:
    def test_clean_to_clean_holds(self, workspace, capsys):
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "good.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "no configuration changes" in out

    def test_regression_is_detected_and_explained(self, workspace, capsys):
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "looping.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "static-route change" in out
        assert "VIOLATED" in out

    def test_json_document_carries_old_new_and_delta(self, workspace, capsys):
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "looping.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop", "--json",
        ])
        document = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATION
        assert document["old"]["holds"] is True
        assert document["new"]["holds"] is False
        assert "static-route" in document["delta"]

    def test_cache_dir_and_backend_are_plumbed(self, workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "good.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
            "--cache-dir", cache, "--backend", "serial", "--cores", "3",
        ])
        assert code == EXIT_HOLDS
        assert (cache / "plankton_cache.json").exists()

    def test_missing_config_file_is_an_input_error(self, workspace, capsys):
        code = _run([
            "diff-verify", workspace / "good.cfg", workspace / "missing.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
        ])
        assert code == EXIT_ERROR

    def test_report_file_is_written(self, workspace, tmp_path):
        report = tmp_path / "diff.md"
        _run([
            "diff-verify", workspace / "good.cfg", workspace / "looping.cfg",
            "--topology", workspace / "net.topo", "--policy", "loop",
            "--report", report,
        ])
        text = report.read_text()
        assert "PECs served from cache" in text or "PECs recomputed" in text


class TestServerMode:
    """``--server URL``: the CLI as a thin client of ``repro serve``.

    Parity tests run a real in-thread server; failure-mode tests use stub
    HTTP servers so each transport failure maps to exit code 3
    (:data:`repro.cli.EXIT_UNAVAILABLE`) — distinct from both "policy
    violated" (1) and "bad input" (2).
    """

    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve import ReproServer

        instance = ReproServer(port=0, workers=1).start()
        yield instance
        instance.stop()

    def _verify_args(self, workspace, config, extra=()):
        return [
            "verify", "--topology", workspace / "net.topo", "--config", workspace / config,
            "--policy", "loop", *extra,
        ]

    def test_remote_json_document_matches_local(self, workspace, server, capsys):
        assert _run(self._verify_args(workspace, "good.cfg", ["--json"])) == EXIT_HOLDS
        local = json.loads(capsys.readouterr().out)
        code = _run(self._verify_args(
            workspace, "good.cfg",
            ["--json", "--server", server.url, "--namespace", "cli-parity"],
        ))
        remote = json.loads(capsys.readouterr().out)
        assert code == EXIT_HOLDS
        for key in ("holds", "policy", "pecs_analyzed", "failure_scenarios",
                    "converged_states", "states_expanded", "violations"):
            assert remote[key] == local[key], key

    def test_remote_violation_maps_to_exit_1(self, workspace, server, capsys):
        code = _run(self._verify_args(
            workspace, "looping.cfg", ["--server", server.url, "--namespace", "cli-loop"],
        ))
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "VIOLATED" in out
        assert "forwarding loop" in out

    def test_remote_report_file_is_written(self, workspace, server, tmp_path):
        report = tmp_path / "remote.json"
        code = _run(self._verify_args(
            workspace, "good.cfg",
            ["--server", server.url, "--namespace", "cli-report", "--report", report],
        ))
        assert code == EXIT_HOLDS
        assert json.loads(report.read_text())["holds"] is True

    def test_unreachable_server_exits_3(self, workspace, capsys):
        # A closed port on localhost: connection refused, never a real server.
        code = _run(self._verify_args(
            workspace, "good.cfg", ["--server", "http://127.0.0.1:1"],
        ))
        captured = capsys.readouterr()
        assert code == 3
        assert "cannot reach verification server" in captured.err

    @staticmethod
    def _stub_server(handler_class):
        """A one-purpose HTTP server on an ephemeral port; returns (httpd, url)."""
        import threading
        from http.server import ThreadingHTTPServer

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler_class)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        return httpd, f"http://127.0.0.1:{httpd.server_address[1]}"

    def test_http_500_exits_3(self, workspace, capsys):
        from http.server import BaseHTTPRequestHandler

        class Erroring(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                body = b'{"error": "internal splat"}'
                self.send_response(500)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd, url = self._stub_server(Erroring)
        try:
            code = _run(self._verify_args(workspace, "good.cfg", ["--server", url]))
        finally:
            httpd.shutdown()
            httpd.server_close()
        captured = capsys.readouterr()
        assert code == 3
        assert "server error 500" in captured.err

    def test_non_json_body_exits_3(self, workspace, capsys):
        from http.server import BaseHTTPRequestHandler

        class Garbling(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                body = b"<html>this is not the API you are looking for</html>"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd, url = self._stub_server(Garbling)
        try:
            code = _run(self._verify_args(workspace, "good.cfg", ["--server", url]))
        finally:
            httpd.shutdown()
            httpd.server_close()
        captured = capsys.readouterr()
        assert code == 3
        assert "non-JSON" in captured.err

    def test_serve_help_lists_service_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "3"])
        assert args.port == 0
        assert args.workers == 3
