"""Tests for the CLI."""

import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_ids_and_scale(self):
        args = build_parser().parse_args(["run", "F3", "T1", "--scale", "0.1"])
        assert args.ids == ["F3", "T1"]
        assert args.scale == 0.1


class TestCommands:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("F1", "F3", "T1", "A4"):
            assert exp_id in out

    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("single", "adaptive", "redundant2", "weighted"):
            assert name in out

    def test_capacity(self, capsys):
        assert main(["capacity", "--chain", "basic", "--size", "1554"]) == 0
        out = capsys.readouterr().out
        assert "pps/path" in out and "basic" in out

    def test_run_unknown_id(self, capsys):
        assert main(["run", "F99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_executes_experiment(self, capsys, monkeypatch):
        # Tiny scale so the test stays fast.
        assert main(["run", "F1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out and "contended core" in out

    def test_demo(self, capsys):
        assert main(["demo", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "single-path" in out and "adaptive k=4" in out

    def test_faults_inline(self, capsys):
        assert main(["faults", "--duration", "15", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "mean_detection_lag" in out
        assert "arm" in out and "crash" in out

    def test_faults_spec_file(self, capsys, tmp_path):
        import json

        from repro import FaultSchedule

        sched = FaultSchedule().hang(0, at=4_000.0, duration=2_000.0)
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps(sched.to_dict()))
        assert main(["faults", "--spec", str(spec), "--duration", "15"]) == 0
        out = capsys.readouterr().out
        assert "delivered %" in out and "availability" in out


#: Fast inline flags shared by the sweep CLI tests (tiny durations).
SWEEP_FAST = ["--set", "chain=basic", "--set", "duration=2000",
              "--set", "warmup=300", "--set", "drain=2000",
              "--set", "n_flows=32", "--jobs", "1"]


class TestSweepCommand:
    def test_inline_axes_with_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        rc = main(["sweep", "--axis", "policy=single,adaptive",
                   "--axis", "load=0.3,0.6", *SWEEP_FAST,
                   "--cache-dir", str(tmp_path / "cache"),
                   "--out", str(out_file), "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 cells" in out and "p99 (us)" in out
        assert "cache 0 hit / 4 miss" in out

        from repro.sweep import SweepResult

        sr = SweepResult.load(out_file)
        assert len(sr.cells) == 4
        assert sr.get(policy="single", load=0.6).config["n_paths"] == 1

    def test_second_run_hits_cache(self, capsys, tmp_path):
        argv = ["sweep", "--axis", "policy=single,adaptive", *SWEEP_FAST,
                "--cache-dir", str(tmp_path / "cache"), "--quiet"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache 2 hit / 0 miss" in capsys.readouterr().out

    def test_spec_file(self, capsys, tmp_path):
        import json

        spec = {
            "name": "file-sweep",
            "base": {"chain": "basic", "duration": 2000.0, "warmup": 300.0,
                     "drain": 2000.0, "n_flows": 32},
            "axes": [{"param": "load", "values": [0.3, 0.6]}],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["sweep", "--spec", str(path), "--jobs", "1",
                   "--no-cache", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "file-sweep" in out and "2 cells" in out

    def test_bad_axis_field_exits_2(self, capsys):
        assert main(["sweep", "--axis", "frobnicate=1,2"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_no_axes_exits_2(self, capsys):
        assert main(["sweep"]) == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, capsys, tmp_path):
        assert main(["sweep", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSloCommand:
    def test_single_run_prints_attainment(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        rc = main(["slo", "--objective", "p99 <= 1ms", "--load", "0.3",
                   "--duration", "10", "--window", "2",
                   "--out", str(out_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "attainment" in out
        import json

        rep = json.loads(out_file.read_text())
        assert rep["n_windows"] > 0
        assert 0.0 <= rep["attainment"] <= 1.0
        assert rep["spec"]["objectives"] == ["p99 <= 1000us"]

    def test_bad_objective_exits_2(self, capsys):
        assert main(["slo", "--objective", "p42 <= 1ms",
                     "--duration", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["slo", "--experiment", "SLO9"]) == 2
        assert "unknown SLO experiment" in capsys.readouterr().err


#: Fast inline scenario flags shared by the check CLI tests.
CHECK_FAST = ["--duration", "4", "--paths", "3"]


class TestUnifiedFlags:
    """The scenario-running commands share one flag vocabulary."""

    def test_scenario_flags_everywhere(self):
        parser = build_parser()
        for cmd in (["faults"], ["trace"], ["slo"], ["check", "run"],
                    ["check", "diff"]):
            args = parser.parse_args(cmd + ["--policy", "spray", "--paths",
                                            "2", "--load", "0.3",
                                            "--traffic", "onoff",
                                            "--duration", "5", "--seed",
                                            "9", "--spec", "x.json"])
            assert (args.policy, args.paths, args.load, args.traffic,
                    args.duration, args.seed, args.spec) == \
                ("spray", 2, 0.3, "onoff", 5.0, 9, "x.json")

    def test_per_command_load_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["faults"]).load == 0.55
        assert parser.parse_args(["trace"]).load == 0.7
        assert parser.parse_args(["slo"]).load == 0.6
        assert parser.parse_args(["check", "run"]).load == 0.6

    def test_faults_out_writes_result(self, capsys, tmp_path):
        import json

        out = tmp_path / "faults.json"
        assert main(["faults", "--duration", "10", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"]
        assert "availability" in payload

    def test_trace_spec_flag(self, capsys, tmp_path):
        import json

        from repro.bench.scenarios import ScenarioConfig

        cfg = ScenarioConfig(policy="spray", n_paths=2, duration=2000.0,
                             warmup=200.0, drain=1000.0, n_flows=16)
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(cfg.to_dict()))
        assert main(["trace", "--spec", str(spec), "--top", "1"]) == 0
        assert "stage breakdown" in capsys.readouterr().out

    def test_sweep_seed_override(self, capsys, tmp_path):
        import json

        out = tmp_path / "sweep.json"
        assert main(["sweep", "--axis", "policy=single", "--seed", "99",
                     *SWEEP_FAST, "--no-cache", "--quiet",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["cells"][0]["config"]["seed"] == 99


class TestCheckCommand:
    def test_check_run_clean(self, capsys, tmp_path):
        import json

        out = tmp_path / "check.json"
        assert main(["check", "run", *CHECK_FAST, "--policy", "redundant2",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "all invariants held" in printed
        for family in ("conservation", "dedup", "fifo", "flow_order",
                       "control", "clock"):
            assert family in printed
        payload = json.loads(out.read_text())
        assert payload["ok"] is True

    def test_check_run_spec_file(self, capsys, tmp_path):
        import json

        from repro.bench.scenarios import ScenarioConfig

        cfg = ScenarioConfig(policy="spray", n_paths=2, duration=2000.0,
                             warmup=200.0, drain=1000.0, n_flows=16)
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(cfg.to_dict()))
        assert main(["check", "run", "--spec", str(spec)]) == 0
        assert "spray" in capsys.readouterr().out

    def test_check_run_reports_violation(self, capsys, monkeypatch):
        from repro.core.replicator import Deduplicator

        original = Deduplicator.should_deliver
        monkeypatch.setattr(
            Deduplicator, "should_deliver",
            lambda self, packet: original(self, packet) or True)
        assert main(["check", "run", *CHECK_FAST,
                     "--policy", "redundant2"]) == 1
        assert "violation" in capsys.readouterr().out

    def test_check_fuzz(self, capsys, tmp_path):
        import json

        out = tmp_path / "fuzz.json"
        assert main(["check", "fuzz", "--cases", "2", "--seed", "11",
                     "--quiet", "--out", str(out)]) == 0
        assert "all invariants held" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["cases"] == 2 and payload["ok"] is True

    def test_check_diff(self, capsys):
        assert main(["check", "diff", *CHECK_FAST,
                     "--variant", "recycle_off",
                     "--variant", "check_armed"]) == 0
        out = capsys.readouterr().out
        assert "recycle_off" in out and "all variants identical" in out

    def test_check_selftest(self, capsys, tmp_path):
        import json

        out = tmp_path / "selftest.json"
        assert main(["check", "selftest", "--out", str(out)]) == 0
        assert "self-test PASSED" in capsys.readouterr().out
        assert json.loads(out.read_text())["ok"] is True

    def test_check_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check"])

    def test_check_run_bad_spec_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["check", "run", "--spec", str(missing)]) == 2
        assert "error" in capsys.readouterr().err


class TestWhyCommand:
    # Inline scenarios default to 10ms warmup, so give the run enough
    # traffic time for a measurable post-warmup tail.
    WHY_FAST = ["--duration", "20", "--load", "0.8", "--seed", "42"]

    def test_why_renders_forensics(self, capsys):
        assert main(["why", "--policy", "single", "--paths", "1",
                     *self.WHY_FAST]) == 0
        out = capsys.readouterr().out
        assert "tail forensics" in out
        assert "scenario: single k=1" in out

    def test_why_json_histogram_sums(self, capsys):
        import json

        assert main(["why", "--policy", "single", "--paths", "1",
                     *self.WHY_FAST, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"]
        assert sum(report["cause_histogram"].values()) == report["analyzed"]
        assert report["analyzed"] > 0

    def test_why_fault_attributes_fault_window(self, capsys):
        import json

        assert main(["why", "--policy", "rr", "--paths", "4",
                     *self.WHY_FAST, "--fault", "degrade",
                     "--fault-target", "1", "--fault-at", "0.5",
                     "--fault-duration", "8", "--fault-magnitude", "8",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fault_windows"]
        assert report["cause_histogram"]["fault_window"] >= 1

    def test_why_out_writes_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "why.json"
        assert main(["why", *self.WHY_FAST, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"]
        assert "cause_histogram" in payload

    def test_why_bad_quantile_exits_2(self, capsys):
        assert main(["why", *self.WHY_FAST, "--quantile", "101"]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_json_payload(self, capsys):
        import json

        assert main(["trace", "--duration", "20", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"]
        assert set(report["stage_breakdown"]) == {
            "nic_ring", "vswitch_queue", "sched_stall", "nf_service",
            "reorder_buffer"}
        assert report["slowest"]


class TestLedgerCommand:
    RECORD_FAST = ["--duration", "20", "--load", "0.7", "--seed", "42"]

    def ledger_args(self, tmp_path):
        return ["--ledger", str(tmp_path / "LEDGER.jsonl")]

    def test_record_list_diff_round_trip(self, capsys, tmp_path):
        led = self.ledger_args(tmp_path)
        assert main(["ledger", "record", *self.RECORD_FAST, *led,
                     "--label", "base"]) == 0
        assert "recorded entry 0" in capsys.readouterr().out
        assert main(["ledger", "record", *self.RECORD_FAST, *led,
                     "--label", "cand"]) == 0
        capsys.readouterr()
        assert main(["ledger", "list", *led]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "cand" in out
        # Identical config+seed: the diff must pass the gate.
        assert main(["ledger", "diff", "base", "cand", *led]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_diff_json_and_regression_exit_code(self, capsys, tmp_path):
        import json

        led = self.ledger_args(tmp_path)
        assert main(["ledger", "record", *self.RECORD_FAST, *led,
                     "--label", "base"]) == 0
        capsys.readouterr()
        # Tamper a slower candidate straight into the JSONL.
        path = tmp_path / "LEDGER.jsonl"
        entry = json.loads(path.read_text().splitlines()[0])
        entry["label"] = "slow"
        entry["exact"] = {k: v * 2.0 for k, v in entry["exact"].items()}
        entry["latency_samples"] = [v * 2.0
                                    for v in entry["latency_samples"]]
        with open(path, "a") as fh:
            fh.write(json.dumps(entry) + "\n")
        assert main(["ledger", "diff", "base", "slow", *led,
                     "--json"]) == 1
        diff = json.loads(capsys.readouterr().out)
        assert diff["ok"] is False
        assert "p99" in diff["regressions"]

    def test_record_kernel_from_bench_json(self, capsys, tmp_path):
        import json

        bench = tmp_path / "BENCH_KERNEL.json"
        bench.write_text(json.dumps({"full": {"pps": 123456.0}}))
        led = self.ledger_args(tmp_path)
        assert main(["ledger", "record", *self.RECORD_FAST, *led,
                     "--label", "k", "--kernel-from", str(bench)]) == 0
        capsys.readouterr()
        from repro.obs.ledger import load_ledger

        entries = load_ledger(tmp_path / "LEDGER.jsonl")
        assert entries[-1]["kernel_pps"] == 123456.0
        assert entries[-1]["kernel_pps_source"] == str(bench)

    def test_record_without_kernel_source_records_none(self, capsys,
                                                       tmp_path,
                                                       monkeypatch):
        # Run where the committed bench record is reachable: its pps
        # measured another run, so it must not be copied into the entry.
        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        led = self.ledger_args(tmp_path)
        assert main(["ledger", "record", *self.RECORD_FAST, *led,
                     "--label", "k"]) == 0
        assert main(["ledger", "record", *self.RECORD_FAST, *led,
                     "--label", "k", "--kernel-pps", "5e5"]) == 0
        capsys.readouterr()
        from repro.obs.ledger import load_ledger

        plain, flagged = load_ledger(tmp_path / "LEDGER.jsonl")
        assert plain["kernel_pps"] is None
        assert plain["kernel_pps_source"] is None
        assert flagged["kernel_pps"] == 5e5
        assert flagged["kernel_pps_source"] == "--kernel-pps"

    def test_list_empty_ledger(self, capsys, tmp_path):
        assert main(["ledger", "list",
                     *self.ledger_args(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_diff_unknown_ref_exits_2(self, capsys, tmp_path):
        led = self.ledger_args(tmp_path)
        assert main(["ledger", "record", *self.RECORD_FAST, *led,
                     "--label", "base"]) == 0
        capsys.readouterr()
        assert main(["ledger", "diff", "base", "nope", *led]) == 2
        assert "no ledger entry" in capsys.readouterr().err

    def test_ledger_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ledger"])
