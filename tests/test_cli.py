"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scheme_labels_enforced(self, capsys):
        # Validation now happens in the label codec, not argparse choices,
        # so full labels like dmdc-local work and junk still exits.
        with pytest.raises(SystemExit):
            main(["run", "gzip", "--scheme", "magic", "-n", "100"])
        assert "bad kind" in capsys.readouterr().err


class TestInformational:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "swim" in out and "FP" in out

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "config1" in out and "2048" in out

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table6" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "nope"]) == 2


class TestRunCommands:
    def test_run_summary(self, capsys):
        assert main(["run", "gzip", "--scheme", "dmdc", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "dmdc-global" in out and "ipc" in out

    def test_run_json(self, capsys):
        assert main(["run", "art", "-n", "1200", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "art"
        assert payload["summary"]["committed"] == 1200
        assert "commit.loads" in payload["counters"]

    def test_compare(self, capsys):
        assert main(["compare", "gzip", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "LQ savings" in out and "slowdown" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "gzip", "-n", "200", "--rows", "6",
                     "--width", "50"]) == 0
        assert "legend:" in capsys.readouterr().out

    def test_run_scheme_variants(self, capsys):
        assert main(["run", "gzip", "--scheme", "dmdc", "--local",
                     "--coherence", "--invalidation-rate", "50",
                     "-n", "1200"]) == 0
        out = capsys.readouterr().out
        assert "dmdc-local" in out and "coherent" in out


class TestTraceCommands:
    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = str(tmp_path / "t.dmdc")
        assert main(["trace", "--workload", "mcf", "-n", "500",
                     "--out", out_file]) == 0
        assert main(["trace", "--inspect", out_file]) == 0
        out = capsys.readouterr().out
        assert "micro-ops" in out and "LOAD" in out

    def test_experiment_run_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS_PER_GROUP", "1")
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert main(["experiment", "sq_filter", "--budget", "1000"]) == 0
        assert "SQ" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["table2", "--budget=-5"], ["table2", "--budget", "0"],
                                      ["--all", "--budget", "0"],
                                      ["table2", "--budget", "1000001"]])
    def test_experiment_budget_outside_the_codec_range_exits_2(self, capsys, argv):
        assert main(["experiment", *argv]) == 2
        captured = capsys.readouterr()
        assert "experiment budget" in captured.err and not captured.out


class TestCheckCommand:
    def test_static_clean_on_repo(self, capsys):
        assert main(["check", "--static"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "OK" in out

    def test_static_flags_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        assert main(["check", "--static", str(bad)]) == 1
        assert "REPRO002" in capsys.readouterr().out

    def test_static_json_counts(self, capsys):
        assert main(["check", "--static", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        static = payload["static"]
        assert static["count"] == 0 and static["violations"] == []
        assert static["active_rules"] == [f"REPRO00{i}" for i in range(1, 8)]
        # Every active rule is accounted for, zeroes included, so "ran
        # clean" is distinguishable from "did not run".
        assert set(static["by_rule"]) == set(static["active_rules"])
        assert all(count == 0 for count in static["by_rule"].values())

    def test_static_json_counts_violations_by_rule(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nimport time\nx = time.time()\n")
        assert main(["check", "--static", "--json", str(bad)]) == 1
        static = json.loads(capsys.readouterr().out)["static"]
        assert static["count"] == len(static["violations"]) > 0
        assert static["by_rule"]["REPRO001"] == 1  # wall clock
        assert static["by_rule"]["REPRO002"] == 1  # ambient random

    def test_concurrency_clean_on_repo(self, capsys):
        assert main(["check", "--concurrency"]) == 0
        out = capsys.readouterr().out
        assert "--concurrency: clean" in out and "OK" in out

    def test_concurrency_json(self, capsys):
        assert main(["check", "--concurrency", "--json"]) == 0
        conc = json.loads(capsys.readouterr().out)["concurrency"]
        assert conc["count"] == 0
        assert conc["active_rules"] == [
            f"REPRO0{i:02d}" for i in range(8, 13)]

    def test_concurrency_flags_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "service" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\nTOKEN = os.environ['TOKEN']\n")
        assert main(["check", "--concurrency", str(bad)]) == 1
        assert "REPRO011" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REPRO001" in out and "REPRO007" in out
        assert "REPRO008" in out and "REPRO012" in out

    def test_sanitize_smoke(self, capsys):
        assert main(["check", "--sanitize", "--scheme", "dmdc",
                     "--workload", "gzip", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out and "OK" in out

    def test_sanitize_json(self, capsys):
        assert main(["check", "--sanitize", "--scheme", "yla",
                     "--workload", "gzip", "-n", "1500", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["sanitize"][0]
        assert entry["ok"] and entry["missed_violations"] == 0
        assert entry["filtered_searches"] > 0

    def test_sanitize_unknown_scheme(self, capsys):
        assert main(["check", "--sanitize", "--scheme", "magic"]) == 2


class TestSweepExitStatus:
    """``repro sweep`` exits 1 when points failed, 0 when only --limit
    left the grid unfinished."""

    ARGV = ["sweep", "--axis", "scheme=dmdc", "--axis", "table=256,512",
            "--workload", "gzip", "--instructions", "600",
            "--baseline", "conventional", "--name", "cli-exit",
            "--no-cache", "--jobs", "1", "--quiet"]

    def poison_last_point(self, monkeypatch):
        """Route the CLI to an engine that refuses the grid's last point."""
        from repro.cli import _sweep_spec
        from repro.exec.engine import ExecutionEngine

        args = build_parser().parse_args(self.ARGV)
        poison = _sweep_spec(args).expand().keys[-1]

        class PoisonedEngine(ExecutionEngine):
            def run(self, requests):
                if any(r.cache_key() == poison for r in requests):
                    raise RuntimeError("poisoned point")
                return super().run(requests)

        engine = PoisonedEngine(max_workers=1)
        monkeypatch.setattr("repro.exec.get_engine",
                            lambda options=None: engine)
        return poison

    def test_failed_point_exits_1(self, monkeypatch, capsys):
        poison = self.poison_last_point(monkeypatch)
        assert main(self.ARGV) == 1
        out = capsys.readouterr().out
        assert f"[{poison[:12]}]: poisoned point" in out
        assert "FAILED" in out and "sweep incomplete: 2/3" in out

    def test_limit_short_of_the_failure_exits_0(self, monkeypatch, capsys):
        self.poison_last_point(monkeypatch)
        assert main(self.ARGV + ["--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "sweep incomplete: 2/3" in out and "FAILED" not in out


class TestFrontDoor:
    """``run``, ``compare`` and ``check`` are shells over ``repro.api``:
    a second invocation against the same result cache, from a cold setup
    memo and a fresh engine, prints the same bytes, and ``run`` reads
    the cache instead of stepping the kernel."""

    @staticmethod
    def invoke_twice(argv, capsys):
        from repro.exec import set_engine
        from repro.sim.setup_memo import SETUP_MEMO

        outputs = []
        for _ in range(2):
            SETUP_MEMO.clear()
            set_engine(None)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        return outputs

    @pytest.mark.parametrize("argv", [
        ["run", "gzip", "--scheme", "dmdc", "-n", "1500"],
        ["run", "art", "-n", "1200", "--json"],
        ["compare", "gzip", "-n", "1500"],
        ["check", "--sanitize", "--json", "--workload", "gzip",
         "--scheme", "dmdc", "-n", "1500"],
    ])
    def test_second_invocation_prints_the_same_bytes(self, argv, capsys):
        first, second = self.invoke_twice(argv, capsys)
        assert first and first == second

    def test_second_run_steps_no_kernel_loop(self, monkeypatch, capsys):
        from repro.sim.soa import SoaKernel

        loops = []
        kernel_run = SoaKernel.run

        def counting_run(kernel, *args, **kwargs):
            loops.append(1)
            return kernel_run(kernel, *args, **kwargs)

        monkeypatch.setattr(SoaKernel, "run", counting_run)
        argv = ["run", "gzip", "--scheme", "dmdc", "-n", "1500"]
        first, second = self.invoke_twice(argv, capsys)
        assert first == second
        assert len(loops) == 1  # the cold run only; the warm one is a disk hit

    def test_bad_engine_environment_is_a_one_line_error(self, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("REPRO_PARALLEL", "many")
        assert main(["run", "gzip", "-n", "500"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro run: REPRO_PARALLEL")
        assert len(captured.err.strip().splitlines()) == 1
        assert not captured.out

    def test_compare_header_names_the_baseline_scheme(self, capsys):
        assert main(["compare", "gzip", "-n", "1500", "--local"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split("|")[1:] == [" conventional ", " dmdc-local"]

    def test_api_concurrency_matches_the_cli(self, tmp_path, capsys):
        from repro import api

        bad = tmp_path / "repro" / "service" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\nTOKEN = os.environ['TOKEN']\n")
        assert main(["check", "--concurrency", "--json", str(bad)]) == 1
        cli = json.loads(capsys.readouterr().out)["concurrency"]["violations"]
        checked = api.check([str(bad)], static=False, concurrency=True)
        assert checked["ok"] is False
        assert checked["concurrency"] == cli and cli

    def test_filtering_label_that_filtered_nothing_is_not_ok(
            self, monkeypatch, capsys):
        from repro import api
        from repro.analysis import sanitizer

        run_sanitized = sanitizer.run_sanitized

        def filtering_nothing(*args, **kwargs):
            result, report = run_sanitized(*args, **kwargs)
            result.counters["lq.searches_filtered"] = 0
            result.counters["stores.safe"] = 0
            return result, report

        monkeypatch.setattr(sanitizer, "run_sanitized", filtering_nothing)
        checked = api.check(static=False, sanitize=True,
                            schemes=["conventional", "yla"],
                            workloads=["gzip"], instructions=1_500)
        by_label = {entry["label"]: entry for entry in checked["sanitize"]}
        assert by_label["yla"]["clean"] is True
        assert by_label["yla"]["filtered_searches"] == 0
        assert by_label["yla"]["ok"] is False
        assert by_label["conventional"]["ok"] is True
        assert checked["ok"] is False
        assert main(["check", "--sanitize", "--scheme", "yla",
                     "--workload", "gzip", "-n", "1500"]) == 1
        out = capsys.readouterr().out
        assert "[NO FILTERING ACTIVITY]" in out and "OK" not in out


class TestSweepEndpoints:
    """A malformed ``[HOST:]PORT`` is a one-line usage error, not a
    traceback."""

    BASE = ["sweep", "--scheme", "dmdc", "--workload", "gzip", "-n", "500"]

    @pytest.mark.parametrize("flag, value, bad", [
        ("--service", "localhost:abc", "localhost:abc"),
        ("--workers", "127.0.0.1:x,127.0.0.1:y", "127.0.0.1:x"),
    ])
    def test_malformed_endpoint_exits_2(self, flag, value, bad, capsys):
        assert main(self.BASE + [flag, value]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro sweep: ")
        assert repr(bad) in lines[0]
        assert not captured.out
