"""Tier-1 tests for the observability layer (``src/repro/obs``).

Unit coverage for the event sinks and the recorder seams, plus the
end-to-end contracts: ``profile_run`` reconciles exactly against the
counters, ``attach_observer``/``detach_observer`` are symmetric (a
detached processor takes the SoA kernel again), the JSONL sink
round-trips every emitted event, and the ``repro profile`` CLI and
``api.profile`` verb both surface the same report.
"""

import json

import pytest

from repro import api
from repro.cli import main
from repro.errors import SimulationError
from repro.obs import (
    EventRing,
    JsonlSink,
    ObsEvent,
    ObservabilityRecorder,
    attach_observer,
    build_attribution,
    detach_observer,
    profile_run,
    profile_workload,
)
from repro.obs.attribution import ReconLine
from repro.sim.config import CONFIG2, SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.workloads import get_workload

BUDGET = 3_000


def _processor(scheme: str = "dmdc", workload: str = "mcf",
               budget: int = BUDGET) -> Processor:
    config = CONFIG2.with_scheme(SchemeConfig.from_label(scheme))
    trace = get_workload(workload).generate(budget + 2_000)
    return Processor(config, trace, seed=1)


# -- event sinks ---------------------------------------------------------
class TestEventRing:
    def test_bounded_wrap_keeps_most_recent(self):
        ring = EventRing(capacity=3)
        for i in range(10):
            ring.append(ObsEvent(i, "fetch", i, 0x100 + i, ""))
        assert len(ring) == 3
        assert [e.cycle for e in ring.events()] == [7, 8, 9]
        assert ring.appended == 10
        assert ring.dropped == 7

    def test_capacity_zero_counts_but_retains_nothing(self):
        ring = EventRing(capacity=0)
        ring.append(ObsEvent(1, "fetch", 0, 0, ""))
        assert len(ring) == 0
        assert ring.appended == 1
        assert ring.dropped == 1


class TestJsonlSink:
    def test_round_trips_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.append(ObsEvent(5, "replay", 42, 0x400, "commit:true"))
            sink.append(ObsEvent(6, "commit", 42, 0x400, ""))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"cycle": 5, "kind": "replay", "seq": 42,
                         "pc": 0x400, "detail": "commit:true"}

    def test_append_after_close_is_noop(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "e.jsonl"))
        sink.close()
        sink.append(ObsEvent(1, "fetch", 0, 0, ""))  # must not raise
        assert sink.appended == 0


# -- attach/detach symmetry ----------------------------------------------
class TestAttachDetach:
    def test_attach_wires_every_seam(self):
        proc = _processor()
        recorder = attach_observer(proc)
        assert proc.tracer is recorder
        assert proc.obs is recorder
        assert proc.scheme.obs is recorder
        proc.prewarm()
        proc.run(200)
        assert proc.kernel_used == "object"

    def test_detach_restores_everything(self):
        proc = _processor()
        recorder = attach_observer(proc)
        detach_observer(proc, recorder)
        assert proc.tracer is None
        assert proc.obs is None
        assert proc.scheme.obs is None
        proc.prewarm()
        proc.run(200)
        assert proc.kernel_used == "soa"

    def test_attach_requires_fresh_processor(self):
        proc = _processor(budget=200)
        proc.prewarm()
        proc.run(200)
        with pytest.raises(SimulationError):
            attach_observer(proc)

    def test_attach_refuses_existing_tracer(self):
        from repro.sim.pipetrace import PipelineTracer
        proc = _processor()
        proc.tracer = PipelineTracer()
        with pytest.raises(SimulationError):
            attach_observer(proc)

    def test_attach_unwraps_sanitizer_to_innermost_scheme(self):
        from repro.analysis.sanitizer import attach_sanitizer
        proc = _processor()
        inner = proc.scheme
        attach_sanitizer(proc)
        recorder = attach_observer(proc)
        assert inner.obs is recorder


# -- recorder / attribution ----------------------------------------------
class TestRecorder:
    def test_profile_run_reconciles_exactly(self):
        config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
        trace = get_workload("mcf").generate(BUDGET + 2_000)
        report = profile_run(config, trace, instructions=BUDGET)
        assert report.ok, [line.to_dict()
                           for line in report.attribution.mismatches()]
        assert report.recorder.events_emitted > 0

    def test_cycle_buckets_partition_all_cycles(self):
        config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
        trace = get_workload("gzip").generate(BUDGET + 2_000)
        report = profile_run(config, trace, instructions=BUDGET)
        buckets = report.attribution.cycle_buckets
        assert sum(buckets.values()) == report.result.cycles
        assert all(count >= 0 for count in buckets.values())

    def test_replay_causes_are_site_verdict_tagged(self):
        # mcf at this budget crosses true violations under dmdc (the
        # sanitizer matrix pins that), so commit-site replays exist.
        config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
        trace = get_workload("mcf").generate(6_000 + 2_000)
        report = profile_run(config, trace, instructions=6_000)
        causes = report.attribution.replays["by_cause"]
        assert causes, "expected replays on this pinned run"
        for cause in causes:
            site, verdict = cause.split(":")
            assert site in ("commit", "execution", "coherence")
            assert verdict in ("true", "false", "coherence")
        sites = report.top_sites(5)
        assert sites and sites[0].count >= 1

    def test_structure_occupancy_bounded_by_capacity(self):
        config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
        trace = get_workload("gzip").generate(BUDGET + 2_000)
        report = profile_run(config, trace, instructions=BUDGET)
        structures = report.attribution.structures
        assert 0 < structures["rob"]["occupancy_mean"] <= config.rob_size
        assert 0 <= structures["lq"]["occupancy_mean"] <= config.lq_size
        assert 0 <= structures["sq"]["occupancy_mean"] <= config.sq_size

    def test_finish_is_idempotent(self):
        proc = _processor(budget=500)
        recorder = attach_observer(proc)
        proc.prewarm()
        result = proc.run(500)
        recorder.finish(result.cycles)
        idle = recorder.cycle_buckets["idle"]
        recorder.finish(result.cycles)
        assert recorder.cycle_buckets["idle"] == idle

    def test_jsonl_stream_matches_emitted_count(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
        report = profile_workload(config, get_workload("gzip"),
                                  instructions=1_000, jsonl_path=str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == report.recorder.events_emitted
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"fetch", "dispatch", "issue", "commit"} <= kinds

    def test_mismatch_is_reported_not_masked(self):
        line = ReconLine("fake", 1, 2)
        assert not line.ok
        config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
        trace = get_workload("gzip").generate(1_000 + 2_000)
        report = profile_run(config, trace, instructions=1_000)
        report.attribution.reconciliation.append(line)
        assert not report.ok
        assert line in report.attribution.mismatches()


class TestBitInvisibility:
    def test_profiled_result_equals_plain_result(self):
        """The core contract: attaching the full observer changes nothing."""
        plain = _processor()
        plain.prewarm()
        plain_result = plain.run(BUDGET)
        profiled = _processor()
        attach_observer(profiled)
        profiled.prewarm()
        profiled_result = profiled.run(BUDGET)
        assert plain_result.to_dict() == profiled_result.to_dict()
        assert (plain.kernel_used, profiled.kernel_used) == ("soa", "object")
        assert profiled.fast_forwarded_cycles == 0

    def test_small_config_scheme_without_windows_reconciles(self):
        config = small_config(wrongpath_loads=False).with_scheme(
            SchemeConfig(kind="conventional"))
        trace = get_workload("gzip").generate(800 + 2_000)
        report = profile_run(config, trace, instructions=800)
        assert report.ok
        assert report.recorder.windows_opened == 0


# -- entry points --------------------------------------------------------
class TestEntryPoints:
    def test_api_profile_verb(self):
        report = api.profile("gzip", scheme="dmdc", instructions=1_500)
        assert report.ok
        assert report.result.committed == 1_500
        digest = report.summary()
        assert digest["reconciled"] is True
        assert digest["events_emitted"] == report.recorder.events_emitted

    def test_cli_profile_renders_report(self, capsys):
        assert main(["profile", "gzip", "--scheme", "dmdc", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Cycle attribution" in out
        assert "Counter reconciliation: OK" in out
        assert "legend:" in out  # the timeline rendered

    def test_cli_profile_json(self, capsys):
        assert main(["profile", "gzip", "--scheme", "dmdc", "--quick",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["reconciled"] is True
        assert payload["attribution"]["ok"] is True

    def test_cli_profile_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(["profile", "gzip", "--quick", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        assert path.exists() and path.read_text().strip()


def test_build_attribution_empty_run_is_sane():
    """A recorder that saw nothing reconciles against an all-zero result
    without dividing by zero."""
    recorder = ObservabilityRecorder(ring_capacity=4)

    class _ZeroCounters(dict):
        def __getitem__(self, key):
            return 0

    class _Zero:
        workload = "none"
        scheme_name = "none"
        cycles = 0
        committed = 0
        counters = _ZeroCounters()

    result = _Zero()
    report = build_attribution(recorder, result)
    assert report.ok
    assert report.cycle_buckets["idle"] == 0
    assert "empty run" in report.render()
