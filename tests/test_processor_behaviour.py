"""Focused pipeline behaviour tests: bandwidth limits, routing, timing."""

from repro.isa.opcodes import InstrClass
from repro.sim.config import small_config
from repro.sim.pipetrace import PipelineTracer
from repro.sim.processor import Processor
from repro.sim.runner import run_trace
from tests.conftest import TraceBuilder
from tests.reference_loop import ReferenceProcessor


def traced(trace, config):
    proc = Processor(config, trace)
    proc.tracer = PipelineTracer(capacity=len(trace) + 8)
    proc.run(len(trace))
    return proc.tracer


class TestDcachePorts:
    def test_load_issue_limited_by_ports(self):
        """With 1 D-cache port, independent loads issue one per cycle."""
        config = small_config(wrongpath_loads=False, dcache_ports=1, width=8,
                              int_alu=8)
        b = TraceBuilder()
        for i in range(6):
            b.load(0x100 + 64 * i, dst=1 + i)
        b.fill(8)
        tracer = traced(b.build(), config)
        issue_cycles = sorted(
            e.cycle_of("issue") for e in tracer.instructions()
            if e.mnemonic == "LOAD"
        )
        # All six loads are ready together but must serialise on the port.
        assert len(set(issue_cycles)) == 6

    def test_two_ports_double_throughput(self):
        config = small_config(wrongpath_loads=False, dcache_ports=2, width=8,
                              int_alu=8)
        b = TraceBuilder()
        for i in range(6):
            b.load(0x100 + 64 * i, dst=1 + i)
        b.fill(8)
        tracer = traced(b.build(), config)
        issue_cycles = [
            e.cycle_of("issue") for e in tracer.instructions()
            if e.mnemonic == "LOAD"
        ]
        from collections import Counter
        per_cycle = Counter(issue_cycles)
        assert max(per_cycle.values()) == 2


class TestFunctionalUnitLimits:
    def test_muldiv_bandwidth(self):
        """Only 2 integer multipliers: 4 ready IMULs take 2 cycles."""
        config = small_config(wrongpath_loads=False, width=8, int_muldiv=2)
        b = TraceBuilder()
        for i in range(4):
            b.alu(dst=1 + i, cls=InstrClass.IMUL)
        b.fill(8)
        tracer = traced(b.build(), config)
        cycles = [e.cycle_of("issue") for e in tracer.instructions()
                  if e.mnemonic == "IMUL"]
        from collections import Counter
        assert max(Counter(cycles).values()) <= 2

    def test_latency_visible_in_trace(self):
        config = small_config(wrongpath_loads=False)
        b = TraceBuilder()
        b.alu(dst=1, cls=InstrClass.IALU)
        b.alu(dst=2, cls=InstrClass.FDIV)
        b.fill(4)
        tracer = traced(b.build(), config)
        by_mnemonic = {e.mnemonic: e for e in tracer.instructions()}
        ialu = by_mnemonic["IALU"]
        fdiv = by_mnemonic["FDIV"]
        assert (ialu.cycle_of("complete") - ialu.cycle_of("issue")) == 1
        assert (fdiv.cycle_of("complete") - fdiv.cycle_of("issue")) == 12


class TestIssueQueueRouting:
    def test_fp_ops_use_fp_queue(self):
        """FP issue-queue capacity binds only FP instructions."""
        config = small_config(wrongpath_loads=False, iq_fp=2, iq_int=16)
        b = TraceBuilder()
        # Many long FP ops to clog the 2-entry FP queue.
        for i in range(8):
            b.alu(dst=40 + i % 8, srcs=(33,), cls=InstrClass.FDIV)
        b.fill(10)
        result = run_trace(config, b.build())
        assert result.counters["stall.iq_full"] > 0
        assert result.committed == len(b.build())

    def test_fp_load_routed_by_destination(self):
        config = small_config(wrongpath_loads=False)
        b = TraceBuilder()
        b.load(0x100, dst=40)   # FP destination
        b.load(0x108, dst=4)    # INT destination
        b.fill(6)
        proc = ReferenceProcessor(config, b.build())
        proc.prewarm()  # skip cold I-cache misses
        loads = []
        for _ in range(200):
            proc.step()
            loads = [e for e in proc.rob if e.is_load]
            if len(loads) == 2:
                break
        assert len(loads) == 2
        assert sorted(e.fp_side for e in loads) == [False, True]


class TestFetchBehaviour:
    def test_taken_branch_ends_fetch_group(self):
        config = small_config(wrongpath_loads=False, width=8)
        b = TraceBuilder()
        b.fill(2)
        b.branch(taken=True, pc=0x5000)
        b.fill(8)
        trace = b.build()
        proc = Processor(config, trace)
        proc.prewarm()  # predictor learns "taken", BTB filled
        proc.tracer = PipelineTracer()
        proc.run(len(trace))
        entries = {e.trace_idx: e for e in proc.tracer.instructions()}
        branch_fetch = entries[2].cycle_of("fetch")
        next_fetch = entries[3].cycle_of("fetch")
        assert next_fetch > branch_fetch

    def test_retry_delay_respected(self):
        config = small_config(wrongpath_loads=False, reject_retry_delay=5)
        b = TraceBuilder()
        b.alu(dst=5, cls=InstrClass.IDIV)
        b.store(0x100, data_src=5)
        b.load(0x100, dst=6)
        b.fill(16)
        tracer = traced(b.build(), config)
        load = next(e for e in tracer.instructions()
                    if e.mnemonic == "LOAD" and e.cycle_of("reject") is not None)
        rejects = [c for c, k in load.events if k == "reject"]
        if len(rejects) >= 2:
            assert rejects[1] - rejects[0] >= 5
        issue = load.cycle_of("issue")
        assert issue is not None and issue - rejects[0] >= 5
