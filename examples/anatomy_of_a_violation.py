#!/usr/bin/env python3
"""Anatomy of a memory-ordering violation, instruction by instruction.

Hand-builds a five-instruction scenario — a store whose address resolves
late, shadowing an eager younger load to the same address — and runs it
under the conventional scheme (execution-time detection) and under DMDC
(commit-time detection), printing the pipeline events that differ.

This is the smallest program that exercises the entire machinery the
paper is about.
"""

from repro.api import SchemeConfig
from repro.api.advanced import InstrClass, MicroOp, Processor, Trace, small_config


def build_scenario() -> Trace:
    trace = Trace("violation-demo")
    pc = 0x1000

    def emit(cls, **kw):
        nonlocal pc
        trace.append(MicroOp(pc, cls, **kw))
        pc += 4

    for i in range(4):                      # warm the pipeline
        emit(InstrClass.IALU, srcs=(28,), dst=1 + i)
    emit(InstrClass.IDIV, srcs=(28,), dst=10)          # slow address producer
    emit(InstrClass.STORE, srcs=(10,), mem_addr=0x800,  # pointer store: late
         mem_size=8, data_src=28)
    emit(InstrClass.LOAD, srcs=(29,), dst=11,           # eager younger load
         mem_addr=0x800, mem_size=8)
    for i in range(24):
        emit(InstrClass.IALU, srcs=(28,), dst=1 + i % 8)
    return trace


def run(scheme: SchemeConfig) -> None:
    config = small_config(wrongpath_loads=False).with_scheme(scheme)
    trace = build_scenario()
    proc = Processor(config, trace)
    result = proc.run(len(trace))
    c = result.counters
    print(f"--- scheme: {proc.scheme.name}")
    print(f"    ground-truth violations observed : {c['groundtruth.violations']}")
    print(f"    replays at store resolution      : {c['replays.execution_time']}")
    print(f"    replays at commit (DMDC)         : {c['replays.commit_time']}")
    print(f"    LQ associative searches          : {c['lq.searches_assoc']}")
    print(f"    cycles                           : {result.cycles}")
    print(f"    all {result.committed} instructions committed correctly")


def main() -> None:
    print(__doc__)
    print("The premature load issues while the store's address is still")
    print("being divided; when the store finally resolves, the damage is")
    print("already architectural unless the checker intervenes.\n")
    run(SchemeConfig(kind="conventional"))
    print()
    run(SchemeConfig(kind="dmdc"))
    print()
    run(SchemeConfig(kind="dmdc", checking_queue_entries=8))


if __name__ == "__main__":
    main()
