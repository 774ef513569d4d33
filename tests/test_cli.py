"""Tests for the command-line interface."""

import pytest

from repro.cli import _SCENARIOS, build_parser, main

ALL_SCENARIOS = sorted(_SCENARIOS)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_export_defaults(self):
        args = build_parser().parse_args(["export"])
        assert args.object_mb == 256
        assert args.profile == "DLT-7000"

    def test_retrieval_options(self):
        args = build_parser().parse_args(
            ["retrieval", "--selectivity", "0.02", "--policy", "gds"]
        )
        assert args.selectivity == 0.02
        assert args.policy == "gds"

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["retrieval", "--policy", "psychic"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export", "--profile", "VHS"])

    def test_trace_defaults_to_demo(self):
        args = build_parser().parse_args(["trace"])
        assert args.scenario == "demo"
        assert args.jsonl is False

    def test_trace_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "teleport"])

    def test_stats_scenario(self):
        args = build_parser().parse_args(["stats", "retrieval"])
        assert args.scenario == "retrieval"

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenario == "retrieval"
        assert args.seed == 0
        assert args.mount_fail_rate == 0.2
        assert args.media_error_rate == 0.05
        assert args.robot_jam_rate == 0.05
        assert args.drive_stall_rate == 0.1
        assert args.drives == 2

    def test_chaos_options(self):
        args = build_parser().parse_args(
            ["chaos", "retrieval", "--seed", "42", "--drives", "1",
             "--mount-fail-rate", "0.9"]
        )
        assert args.seed == 42
        assert args.drives == 1
        assert args.mount_fail_rate == 0.9

    def test_chaos_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "mainframe"])

    def test_thrash_scenario_registered(self):
        for command in ("trace", "stats", "chaos"):
            args = build_parser().parse_args([command, "thrash"])
            assert args.scenario == "thrash"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.nodes == 4
        assert args.requests == 8
        assert args.tenants == 2
        assert args.selectivity == 0.05
        assert args.seed == 0

    def test_service_scenario_registered(self):
        for command in ("trace", "stats", "chaos"):
            args = build_parser().parse_args([command, "service"])
            assert args.scenario == "service"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "DLT-7000" in out
        assert "eviction policies" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "archived" in out
        assert "RasQL" in out

    def test_export(self, capsys):
        assert main(["export", "--object-mb", "16", "--super-tile-mb", "4",
                     "--tile-kb", "256"]) == 0
        out = capsys.readouterr().out
        assert "coupled" in out and "tct" in out

    def test_retrieval(self, capsys):
        assert main([
            "retrieval", "--object-mb", "16", "--queries", "2",
            "--super-tile-mb", "4", "--selectivity", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "disk cache:" in out

    def test_retrieval_native_media(self, capsys):
        assert main([
            "retrieval", "--object-mb", "8", "--queries", "1",
            "--super-tile-mb", "4", "--media-gb", "0",
        ]) == 0

    def test_trace_prints_span_tree_and_accounts_all_time(self, capsys):
        assert main(["trace", "demo"]) == 0
        out = capsys.readouterr().out
        assert "scenario.demo" in out
        assert "heaven.read" in out
        assert "library.stage" in out
        assert "virtual time by leaf event kind" in out
        assert "100.00 % attributed" in out

    def test_trace_jsonl(self, capsys):
        import json

        assert main(["trace", "retrieval", "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "scenario.retrieval"
        assert all("virtual_elapsed_s" in r for r in records)

    def test_stats_prints_prometheus_text(self, capsys):
        assert main(["stats", "demo"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_tape_exchanges_total counter" in out
        assert "# TYPE repro_virtual_seconds gauge" in out
        assert "repro_objects_archived 1" in out

    def test_chaos_run_reports_fault_summary(self, capsys):
        assert main(["chaos", "retrieval", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "retries" in out
        assert "virtual time" in out

    def test_chaos_exhaustion_exits_nonzero(self, capsys):
        rc = main(["chaos", "retrieval", "--seed", "1",
                   "--mount-fail-rate", "0.9", "--drives", "1"])
        assert rc == 1
        assert "aborted" in capsys.readouterr().out

    def test_parallel_command_smoke(self, capsys):
        assert main(["parallel", "--drives", "2"]) == 0
        out = capsys.readouterr().out
        assert "Parallel staging" in out
        assert "speedup" in out

    def test_trace_wall_adds_divergence_and_wall_flamegraph(self, capsys):
        assert main(["trace", "demo", "--wall"]) == 0
        out = capsys.readouterr().out
        assert "Host time vs virtual time by span kind" in out
        assert "ms" in out

    def test_trace_jsonl_wall_fields(self, capsys):
        import json

        assert main(["trace", "demo", "--jsonl", "--wall"]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert all("wall_elapsed_ms" in r for r in records)

    def test_trace_jsonl_omits_wall_by_default(self, capsys):
        import json

        assert main(["trace", "demo", "--jsonl"]) == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert all("wall_elapsed_ms" not in r for r in records)

    def test_stats_trailer_reports_log_and_registry_state(self, capsys):
        assert main(["stats", "demo"]) == 0
        out = capsys.readouterr().out
        assert "# eventlog:" in out
        assert "events retained" in out
        assert "# metrics registry:" in out
        # divergence gauge rides along in the regular exposition
        assert "repro_span_host_us_per_virtual_second" in out

    def test_profile_command_deterministic(self, capsys):
        assert main(["profile", "retrieval", "--mode", "deterministic"]) == 0
        out = capsys.readouterr().out
        assert "profiler mode: ticks" in out
        assert "by pipeline phase" in out
        assert "functions by self" in out
        assert "Host time vs virtual time by span kind" in out

    def test_multiquery_command(self, capsys):
        # Exits 0 only if the fused run beats N independent serial users
        # on both tape bytes and media exchanges.
        assert main(["multiquery"]) == 0
        assert "cross-query fusion" in capsys.readouterr().out

    def test_serve_smoke(self, capsys):
        assert main(["serve", "--nodes", "2", "--requests", "4"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        assert "rejected 429-style" in out


class TestScenarioMatrix:
    """Every registered scenario must run under every scenario-taking
    command: exit code 0 and non-empty output, so a new scenario (or a
    regression in an old one) cannot silently break the CLI surface."""

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_trace(self, scenario, capsys):
        assert main(["trace", scenario]) == 0
        out = capsys.readouterr().out
        assert out.strip()
        assert f"scenario.{scenario}" in out

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_trace_jsonl(self, scenario, capsys):
        assert main(["trace", scenario, "--jsonl"]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_stats(self, scenario, capsys):
        assert main(["stats", scenario]) == 0
        out = capsys.readouterr().out
        assert "repro_virtual_seconds" in out
        edges = {
            source: int(line.rsplit(" ", 1)[1])
            for line in out.splitlines()
            for source in ("reused", "read")
            if line.startswith(f'repro_precomputed_edges_total{{source="{source}"}} ')
        }
        assert set(edges) == {"reused", "read"}
        if scenario == "demo":
            # One unaligned condenser: every edge overlap is read, none reused.
            assert edges["read"] > 0
            assert edges["reused"] == 0
        if scenario == "thrash":
            # Pinned wave staging under cache pressure: nothing is staged
            # twice, no pin outlives its read, assembly copies no bytes.
            lines = out.splitlines()
            assert "repro_restages_total 0" in lines
            assert "repro_cache_pinned_bytes 0" in lines
            assert "repro_assembly_bytes_copied_total 0" in lines

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_chaos(self, scenario, capsys):
        # Mild fault rates: every scenario must survive via retry/failover.
        assert main([
            "chaos", scenario, "--seed", "2",
            "--mount-fail-rate", "0.05", "--media-error-rate", "0.01",
            "--robot-jam-rate", "0.01", "--drive-stall-rate", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out or "retries" in out


class TestSimtestCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["simtest"])
        assert args.seed == 0
        assert args.ops == 60
        assert args.mutate is None
        assert args.check_determinism is False
        assert args.expect_fail is False
        assert args.out == ".simtest-failures"

    def test_unknown_mutation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simtest", "--mutate", "bit-rot"])

    def test_clean_seed_exits_zero(self, capsys):
        assert main(["simtest", "--seed", "3", "--ops", "25"]) == 0
        out = capsys.readouterr().out
        assert "event digest:" in out
        assert "0 violation(s)" in out

    def test_check_determinism(self, capsys):
        assert main(["simtest", "--seed", "4", "--ops", "25",
                     "--check-determinism"]) == 0
        assert "digests identical" in capsys.readouterr().out

    def test_mutation_smoke_expect_fail(self, capsys, tmp_path):
        assert main(["simtest", "--seed", "1", "--ops", "60",
                     "--mutate", "pin-leak", "--expect-fail",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shrunk" in out
        assert "mutation smoke ok" in out
        assert (tmp_path / "repro_seed1.py").exists()
        assert (tmp_path / "failure_seed1.txt").exists()

    def test_expect_fail_on_clean_run_exits_nonzero(self, capsys):
        assert main(["simtest", "--seed", "3", "--ops", "25",
                     "--expect-fail"]) == 1

    def test_replay_round_trip(self, capsys, tmp_path):
        from repro.simtest import generate_program

        program = generate_program(5, 20)
        path = tmp_path / "program.json"
        path.write_text(program.to_json())
        assert main(["simtest", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "seed=5" in out
