"""Tests for the stable :mod:`repro.api` facade."""

import pytest

from repro import api
from repro.errors import ConfigError
from repro.exec.engine import ExecutionEngine, use_engine
from repro.workloads import WorkloadSpec

BUDGET = 800


class TestRun:
    def test_run_by_names(self):
        result = api.run("gzip", scheme="dmdc-local", instructions=BUDGET)
        assert result.workload == "gzip"
        assert result.ipc > 0
        assert result.scheme_name == "dmdc-local"
        assert result.config_name == "config2"

    def test_run_accepts_objects(self):
        spec = WorkloadSpec(name="api-custom", group="INT", seed=7)
        scheme = api.SchemeConfig(kind="dmdc", checking_queue_entries=8)
        result = api.run(spec, scheme=scheme, config=api.CONFIG1,
                         instructions=BUDGET)
        assert result.workload == "api-custom"
        assert result.scheme_name.startswith("dmdc")
        assert result.config_name == api.CONFIG1.name

    def test_run_overrides_enter_the_content_address(self):
        engine = ExecutionEngine(max_workers=1)
        with use_engine(engine):
            api.run("gzip", instructions=BUDGET, seed=5)
            api.run("gzip", instructions=BUDGET, seed=5,
                    overrides={"lq_size": 16})
        assert engine.stats.executed == 2  # distinct design points

    def test_run_rejects_unknowns(self):
        with pytest.raises(ConfigError):
            api.run("no-such-workload", instructions=BUDGET)
        with pytest.raises(ConfigError):
            api.run("gzip", scheme="magic", instructions=BUDGET)
        with pytest.raises(ConfigError):
            api.run("gzip", config="config9", instructions=BUDGET)

    def test_run_uses_shared_engine(self):
        engine = ExecutionEngine(max_workers=1)
        with use_engine(engine):
            first = api.run("gzip", instructions=BUDGET, seed=3)
            second = api.run("gzip", instructions=BUDGET, seed=3)
        assert engine.stats.executed == 1
        assert engine.stats.memo_hits == 1
        assert first.ipc == second.ipc


class TestSweep:
    def test_grid_shape_and_single_batch(self):
        engine = ExecutionEngine(max_workers=1)
        with use_engine(engine):
            grid = api.sweep(["gzip", "mcf"],
                             schemes=("conventional", "dmdc-local"),
                             instructions=BUDGET)
        assert sorted(grid) == ["conventional", "dmdc-local"]
        assert sorted(grid["dmdc-local"]) == ["gzip", "mcf"]
        assert grid["conventional"]["gzip"].ipc > 0
        assert engine.stats.executed == 4

    def test_sweep_deduplicates(self):
        engine = ExecutionEngine(max_workers=1)
        with use_engine(engine):
            grid = api.sweep(["gzip", "gzip"], schemes=("conventional",),
                             instructions=BUDGET)
        assert engine.stats.executed == 1
        # Duplicate points now collapse at grid expansion, before they
        # ever reach the engine; the accounting lives on the result.
        assert grid.stats["requested"] == 2
        assert grid.stats["collapsed"] == 1
        assert grid.stats["unique"] == 1
        assert grid.stats["executed"] == 1
        assert list(grid["conventional"]) == ["gzip"]

    def test_sweep_result_surface(self):
        engine = ExecutionEngine(max_workers=1)
        with use_engine(engine):
            grid = api.sweep(["gzip"], schemes=("conventional", "dmdc"),
                             instructions=BUDGET)
        assert isinstance(grid, api.SweepResult)
        assert grid.schemes == ["conventional", "dmdc"]
        assert grid.workloads == ["gzip"]
        # Tuple indexing reaches a single result directly.
        assert grid["dmdc", "gzip"] is grid["dmdc"]["gzip"]
        table = grid.table()
        assert "conventional" in table and "gzip" in table
        assert len(list(grid.results())) == 2

    def test_sweep_accepts_grid_spec(self):
        spec = api.GridSpec(
            axes={"scheme": ["conventional", "dmdc"], "workload": ["gzip"]},
            base={"instructions": BUDGET},
        )
        engine = ExecutionEngine(max_workers=1)
        with use_engine(engine):
            grid = api.sweep(spec)
        assert sorted(grid) == ["conventional", "dmdc"]
        assert engine.stats.executed == 2


class TestCompare:
    def test_report_fields_and_table(self):
        report = api.compare("gzip", scheme="dmdc", instructions=BUDGET)
        assert report.baseline.scheme_name == "conventional"
        assert report.candidate.scheme_name.startswith("dmdc")
        assert report.energy_baseline.lq > report.energy_candidate.lq
        assert 0 < report.lq_savings <= 1
        text = report.table()
        assert "IPC" in text and "total energy" in text
        assert "LQ savings" in report.verdict()


class TestCheck:
    def test_static_half(self):
        payload = api.check(static=True, sanitize=False)
        assert payload["ok"] is True
        assert payload["static"] == []
        assert "sanitize" not in payload

    def test_sanitize_half(self):
        payload = api.check(static=False, sanitize=True,
                            schemes=["conventional", "dmdc"],
                            workloads=["gzip"], instructions=1_500)
        assert payload["ok"] is True
        assert len(payload["sanitize"]) == 2
        labels = {entry["label"] for entry in payload["sanitize"]}
        assert labels == {"conventional", "dmdc"}

    def test_sanitize_rejects_unknown_scheme(self):
        with pytest.raises(ConfigError):
            api.check(static=False, sanitize=True, schemes=["magic"],
                      workloads=["gzip"], instructions=1_000)


class TestFacadeSurface:
    def test_all_names_resolve(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_verbs_reexported_from_package(self):
        import repro
        assert repro.run is api.run
        assert repro.sweep is api.sweep
        assert repro.compare is api.compare
        assert repro.check is api.check
        assert repro.api is api

    def test_simulate_trace_via_advanced(self):
        adv = api.advanced
        trace = adv.Trace("api-demo")
        pc = 0x100
        for i in range(32):
            trace.append(adv.MicroOp(pc, adv.InstrClass.IALU,
                                     srcs=(28,), dst=1 + i % 4))
            pc += 4
        result = adv.simulate_trace(trace, scheme="dmdc")
        assert result.committed == 32

    def test_unknown_attribute_raises(self):
        # Processor / RunRequest live only in repro.api.advanced.
        for name in ("no_such_name", "Processor", "RunRequest"):
            with pytest.raises(AttributeError):
                getattr(api, name)
