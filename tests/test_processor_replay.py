"""Integration tests for memory-ordering violation detection and replay.

The crafted violation: a store whose address depends on a long-latency
divide (resolves very late) followed closely by an always-ready load to
the same address.  The load issues speculatively, reads stale data, and
every sound scheme must replay it.
"""

import pytest

from repro.core.schemes.base import CheckScheme
from repro.errors import OrderingViolationMissed
from repro.isa.opcodes import InstrClass
from repro.sim.config import SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.runner import run_trace
from repro.workloads import SyntheticWorkload, WorkloadSpec
from tests.conftest import TraceBuilder
from tests.reference_loop import run_reference


def violation_trace(n_fill=30):
    b = TraceBuilder()
    b.fill(4)
    b.alu(dst=10, cls=InstrClass.IDIV)          # slow address producer
    b.store(0x800, srcs=(10,), data_src=28)     # resolves ~20 cycles late
    b.load(0x800, dst=11)                       # issues immediately: premature
    b.fill(n_fill)
    return b.build()


SCHEMES = [
    SchemeConfig(kind="conventional"),
    SchemeConfig(kind="yla"),
    SchemeConfig(kind="bloom"),
    SchemeConfig(kind="dmdc"),
    SchemeConfig(kind="dmdc", local=True),
    SchemeConfig(kind="dmdc", checking_queue_entries=8),
    SchemeConfig(kind="dmdc", coherence=True),
]


class TestViolationDetection:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: f"{s.kind}-{s.local}-{s.checking_queue_entries}-{s.coherence}")
    def test_every_scheme_replays_the_premature_load(self, scheme):
        config = small_config(wrongpath_loads=False).with_scheme(scheme)
        result = run_trace(config, violation_trace())
        assert result.counters["groundtruth.violations"] >= 1
        assert result.counters["replays"] >= 1
        assert result.committed == len(violation_trace())

    def test_conventional_detects_at_execution_time(self):
        config = small_config(wrongpath_loads=False)
        result = run_trace(config, violation_trace())
        assert result.counters["replays.execution_time"] >= 1
        assert result.counters["replays.commit_time"] == 0

    def test_dmdc_detects_at_commit_time(self):
        config = small_config(wrongpath_loads=False).with_scheme(SchemeConfig(kind="dmdc"))
        result = run_trace(config, violation_trace())
        assert result.counters["replays.commit_time"] >= 1
        assert result.counters["replays.execution_time"] == 0
        assert result.counters["replay.true"] >= 1

    def test_forwarded_load_is_not_a_violation(self):
        """A load forwarded from a *younger-than-conflicting* store is fine;
        with no conflicting store at all there is nothing to replay."""
        b = TraceBuilder()
        b.alu(dst=5)
        b.store(0x100, data_src=5)
        b.load(0x100, dst=6)
        b.fill(20)
        config = small_config(wrongpath_loads=False)
        result = run_trace(config, b.build())
        assert result.counters["groundtruth.violations"] == 0
        assert result.counters["replays"] == 0


class _BlindScheme(CheckScheme):
    """A deliberately unsound scheme: never searches, never replays."""

    name = "blind"
    uses_associative_lq = False


class TestGroundTruthChecker:
    def test_unsound_scheme_is_caught(self):
        config = small_config(wrongpath_loads=False)
        trace = violation_trace()
        proc = Processor(config, trace)
        proc.scheme = _BlindScheme()
        with pytest.raises(OrderingViolationMissed):
            proc.run(len(trace))

    def test_sound_scheme_passes_same_trace(self):
        config = small_config(wrongpath_loads=False)
        trace = violation_trace()
        Processor(config, trace).run(len(trace))  # must not raise


class TestReplayMechanics:
    def test_replay_reexecutes_from_the_load(self):
        config = small_config(wrongpath_loads=False).with_scheme(SchemeConfig(kind="dmdc"))
        trace = violation_trace()
        result = run_trace(config, trace)
        # Every instruction still commits exactly once in program order.
        assert result.committed == len(trace)
        assert result.counters["squash.instructions"] >= 1

    def test_replay_guard_terminates_pathological_loops(self):
        """Even with a 1-entry checking table (everything aliases), runs
        terminate thanks to the replay guard forcing non-speculative issue."""
        config = small_config(wrongpath_loads=False).with_scheme(
            SchemeConfig(kind="dmdc", table_entries=1)
        )
        trace = violation_trace(n_fill=60)
        result = run_trace(config, trace)
        assert result.committed == len(trace)

    def test_guarded_load_waits_only_for_older_stores(self):
        """A load the guard made non-speculative waits for older stores
        only: a younger store whose address depends on the load would
        otherwise never resolve, and the run would stall for good."""
        spec = WorkloadSpec(
            name="prop", group="INT", load_fraction=0.2734375,
            store_fraction=0.1484375, branch_fraction=0.078125,
            fp_fraction=0.125, working_set_kb=16, store_addr_dep_alu=0.28125,
            store_addr_dep_load=0.5, load_addr_dep_alu=0.0,
            conflict_per_kinstr=0.0, rmw_fraction=0.0, branch_bias=0.75,
            seed=1)
        config = small_config(wrongpath_loads=False).with_scheme(
            SchemeConfig(kind="dmdc", safe_loads=False))
        trace = SyntheticWorkload(spec).generate(1_100)
        result = Processor(config, trace, seed=1).run(900)
        assert result.committed == 900
        assert result.counters["replay.guard_trips"] >= 1
        reference = run_reference(config, trace, 900, prewarm=False)
        assert reference.to_dict() == result.to_dict()

    def test_replays_counted_per_minstr(self):
        config = small_config(wrongpath_loads=False).with_scheme(SchemeConfig(kind="dmdc"))
        result = run_trace(config, violation_trace())
        assert result.replays_per_minstr > 0
