"""Microbenchmarks of the paper's hardware-structure models.

These time the primitive operations the architectural argument is about:
a YLA compare (the filter), a checking-table index (DMDC's check), a
bloom probe (the rival filter), and a conventional LQ CAM search (what
they all replace).  They also document simulator throughput.
"""

from collections import deque

import pytest

from repro.core.bloom import CountingBloomFilter
from repro.core.checking_table import CheckingTable
from repro.core.yla import YlaFile
from repro.lsq.queues import lq_violation_search_soa
from repro.sim.config import small_config
from repro.sim.processor import Processor
from repro.workloads import get_workload

ADDRS = [0x1000_0000 + 8 * i for i in range(256)]


def test_yla_store_check(benchmark):
    yla = YlaFile(8)
    for i, addr in enumerate(ADDRS):
        yla.observe_load_issue(addr, i)

    def probe():
        for i, addr in enumerate(ADDRS):
            yla.store_is_safe(addr, i)

    benchmark(probe)


def test_checking_table_load_check(benchmark):
    table = CheckingTable(2048)
    for addr in ADDRS[::4]:
        table.mark_store(addr, 8)

    def probe():
        for addr in ADDRS:
            table.check_load(addr, 8)

    benchmark(probe)


def test_bloom_probe(benchmark):
    bloom = CountingBloomFilter(1024)
    for addr in ADDRS[::2]:
        bloom.insert(addr)

    def probe():
        for addr in ADDRS:
            bloom.may_contain(addr)

    benchmark(probe)


def test_lq_associative_search(benchmark):
    """The conventional adapter's search: 90 issued loads in the kernel's
    slot columns (slot == seq), a resolving store at seq 3."""
    n = 90
    lq = deque(range(n))
    seq_ = list(range(n))
    addr_ = ADDRS[:n]
    size_ = [8] * n
    icyc_ = [1] * n
    s_addr = ADDRS[45]

    def probe():
        for _ in range(64):
            lq_violation_search_soa(lq, seq_, addr_, size_, icyc_,
                                    3, s_addr, s_addr + 8)

    benchmark(probe)


@pytest.mark.parametrize("scheme", ["conventional", "dmdc"])
def test_simulator_throughput(benchmark, scheme):
    """End-to-end simulated instructions per wall-clock benchmark round."""
    from repro.sim.config import SchemeConfig

    trace = get_workload("gzip").generate(4000)
    config = small_config().with_scheme(SchemeConfig(kind=scheme))

    def simulate():
        Processor(config, trace).run(3000)

    benchmark.pedantic(simulate, rounds=3, iterations=1, warmup_rounds=0)
