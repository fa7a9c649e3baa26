"""Shadow-oracle sanitizer: unit tests and crafted-trace scenarios.

The oracle half is tested directly on synthetic event streams; the
integration half drives real pipelines over hand-built traces whose
ordering outcome is known by construction (same crafted violation as
``test_processor_replay``), checking that the sanitizer sees the
violation, classifies the replay, and stays bit-invisible.
"""

import pytest

from repro.analysis.sanitizer import (
    MAX_DETAILS,
    MemoryOrderSanitizer,
    SanitizerReport,
    attach_sanitizer,
    run_sanitized,
)
from repro.analysis.shadow import ShadowLSQ
from repro.core.schemes import ConventionalScheme
from repro.errors import SanitizerError
from repro.isa.opcodes import InstrClass
from repro.sim.config import SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.runner import run_trace
from tests.conftest import TraceBuilder


class TestShadowLSQ:
    def test_premature_overlapping_load_flagged(self):
        lsq = ShadowLSQ()
        lsq.load_issued(5, 0x100, 8)
        flagged = lsq.store_resolved(3, 0x100, 8)
        assert [rec.seq for rec in flagged] == [5]
        assert lsq.loads[5].violated_by == 3
        assert lsq.violations_flagged == 1

    def test_disjoint_addresses_clean(self):
        lsq = ShadowLSQ()
        lsq.load_issued(5, 0x200, 8)
        assert lsq.store_resolved(3, 0x100, 8) == []

    def test_partial_overlap_flagged(self):
        lsq = ShadowLSQ()
        lsq.load_issued(5, 0x104, 8)
        assert len(lsq.store_resolved(3, 0x100, 8)) == 1

    def test_older_load_not_flagged(self):
        lsq = ShadowLSQ()
        lsq.load_issued(2, 0x100, 8)
        assert lsq.store_resolved(3, 0x100, 8) == []

    def test_forwarding_cover_exempts(self):
        """A load fed by a younger fully-covering store never read stale
        data, however late an older store resolves."""
        lsq = ShadowLSQ()
        lsq.store_resolved(4, 0x100, 8)
        lsq.load_issued(5, 0x100, 8, 4)
        assert lsq.store_resolved(3, 0x100, 8) == []

    def test_partial_forwarding_does_not_exempt(self):
        lsq = ShadowLSQ()
        lsq.store_resolved(4, 0x100, 4)
        lsq.load_issued(5, 0x100, 8, 4)
        assert len(lsq.store_resolved(3, 0x100, 8)) == 1

    def test_already_flagged_not_recounted(self):
        lsq = ShadowLSQ()
        lsq.load_issued(5, 0x100, 8)
        lsq.store_resolved(3, 0x100, 8)
        assert lsq.store_resolved(2, 0x100, 8) == []
        assert lsq.violations_flagged == 1

    def test_squash_removes_younger(self):
        lsq = ShadowLSQ()
        lsq.load_issued(5, 0x100, 8)
        lsq.store_resolved(6, 0x200, 8)
        lsq.load_issued(7, 0x300, 8)
        lsq.squash_younger(5)
        assert sorted(lsq.loads) == [5]
        assert sorted(lsq.stores) == []

    def test_pending_violation_query(self):
        lsq = ShadowLSQ()
        lsq.load_issued(5, 0x100, 8)
        lsq.store_resolved(3, 0x100, 8)
        assert lsq.pending_violation_at_or_after(4)
        assert lsq.pending_violation_at_or_after(5)
        assert not lsq.pending_violation_at_or_after(6)

    def test_commit_pops(self):
        lsq = ShadowLSQ()
        lsq.load_issued(5, 0x100, 8)
        lsq.store_resolved(3, 0x100, 8)
        lsq.load_committed(5)
        lsq.store_committed(3)
        assert len(lsq) == 0


def violation_trace(n_fill=30):
    b = TraceBuilder()
    b.fill(4)
    b.alu(dst=10, cls=InstrClass.IDIV)          # slow address producer
    b.store(0x800, srcs=(10,), data_src=28)     # resolves ~20 cycles late
    b.load(0x800, dst=11)                       # issues immediately: premature
    b.fill(n_fill)
    return b.build()


class TestCraftedScenarios:
    def test_conventional_execution_time_replay_classified(self, tiny_config):
        result, report = run_sanitized(tiny_config, violation_trace())
        assert report.oracle_violations >= 1
        assert report.true_replays >= 1
        assert report.missed_violations == 0
        assert report.oracle_divergence == 0
        assert report.clean
        assert result.counters["replays.execution_time"] >= 1

    def test_dmdc_commit_time_replay_classified(self, dmdc_config):
        result, report = run_sanitized(dmdc_config, violation_trace())
        assert report.oracle_violations >= 1
        assert report.true_replays >= 1
        assert report.missed_violations == 0
        assert report.clean
        assert result.counters["replays.commit_time"] >= 1

    def test_forwarded_load_not_flagged(self, tiny_config):
        b = TraceBuilder()
        b.alu(dst=5)
        b.store(0x100, data_src=5)
        b.load(0x100, dst=6)
        b.fill(20)
        _, report = run_sanitized(tiny_config, b.build())
        assert report.oracle_violations == 0
        assert report.clean

    def test_result_bit_identical_to_plain_run(self, dmdc_config):
        trace = violation_trace()
        sanitized, _ = run_sanitized(dmdc_config, trace)
        plain = run_trace(dmdc_config, trace)
        assert sanitized.to_dict() == plain.to_dict()

    def test_oracle_agrees_with_builtin_ground_truth(self, tiny_config):
        _, report = run_sanitized(tiny_config, violation_trace())
        assert report.oracle_divergence == 0


class TestAttachment:
    def test_attach_after_start_rejected(self, tiny_config):
        trace = TraceBuilder().fill(40).build()
        proc = Processor(tiny_config, trace)
        proc.run(10)
        with pytest.raises(SanitizerError):
            attach_sanitizer(proc)

    def test_wrapper_passes_through_scheme_surface(self, dmdc_config):
        """The sanitizer wraps the scheme's kernel adapter, not the
        scheme: the processor keeps its own scheme, so everything built
        from it is the plain run's, and the run keeps the kernel's cycle
        skipper."""
        trace = violation_trace()
        proc = Processor(dmdc_config, trace)
        inner = proc.scheme
        sanitizer = attach_sanitizer(proc)
        assert proc.scheme is inner and sanitizer.scheme is inner
        result = proc.run(len(trace))
        assert result.scheme_name == inner.name
        assert proc.kernel_used == "soa"
        assert proc.fast_forwarded_cycles > 0
        assert type(sanitizer.inner).__name__ == "_DmdcSoaHooks"
        assert sanitizer.report.events_checked > 0

    def test_missing_attribute_raises_cleanly(self, tiny_config):
        trace = TraceBuilder().fill(10).build()
        proc = Processor(tiny_config, trace)
        sanitizer = attach_sanitizer(proc)
        with pytest.raises(AttributeError):
            sanitizer.no_such_attribute

    def test_second_sanitizer_rejected(self, tiny_config):
        proc = Processor(tiny_config, TraceBuilder().fill(10).build())
        attach_sanitizer(proc)
        with pytest.raises(SanitizerError):
            attach_sanitizer(proc)


class TestReport:
    def test_as_dict_round_trip(self, tiny_config):
        _, report = run_sanitized(tiny_config, violation_trace())
        payload = report.as_dict()
        assert payload["clean"] is True
        assert payload["oracle_violations"] == report.oracle_violations
        assert payload["events_checked"] > 0
        assert payload["probe_checks"] > 0

    def test_format_mentions_verdict(self, tiny_config):
        _, report = run_sanitized(tiny_config, violation_trace())
        assert "CLEAN" in report.format()

    def test_defective_report_formats_details(self):
        report = SanitizerReport("fake")
        report.missed_violations = 1
        report.missed_details.append("load seq=7 retired prematurely")
        assert not report.clean
        text = report.format()
        assert "DEFECTIVE" in text and "seq=7" in text

    def test_format_splits_details_past_the_cap(self):
        """The text form is built from ``as_dict`` (what ``repro check``
        prints for ``api.check`` entries): the capped missed messages
        come first, the probe messages after."""
        report = SanitizerReport("fake")
        report.missed_violations = MAX_DETAILS + 3
        report.missed_details.extend(f"m{i}" for i in range(MAX_DETAILS))
        report.probe_failure_count = 2
        report.probe_failures.extend(["p0", "p1"])
        lines = report.format().splitlines()[1:]
        assert lines == ([f"  missed: m{i}" for i in range(MAX_DETAILS)]
                         + ["  probe:  p0", "  probe:  p1"])

    def test_strict_mode_raises_on_missed(self):
        sanitizer = MemoryOrderSanitizer(ConventionalScheme(), strict=True)
        with pytest.raises(SanitizerError):
            sanitizer._missed("injected")
