"""Shared host runs: one recorded conventional run serves every seed.

While the invalidation injector is off, the run seed only draws the
wrong-path loads, and those only corrupt search-filter state: they never
change timing.  A recording conventional run therefore logs a mark at
each mispredicted fetch instead of its own draws, and its log and
machine counters (but ``wrongpath.loads``) are the same under every
seed.  ``run_many`` keeps such a host run in the setup memo beside its
trace, and every later conventional, store-set, YLA, Bloom, DMDC or Garg
point of that trace, budget and machine replays it as a lane, whatever
its seed and batch, drawing its own wrong-path loads.

These tests pin that invariant, that every point served from a host run
recorded under another seed equals its own kernel run, bit for bit, and
that with invalidations injected nothing is shared across seeds.
"""

import dataclasses
import sys
import threading

import pytest

from repro.sim.config import CONFIG1, CONFIG2, SCHEME_LABELS, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import (
    TRACE_TAIL_SLACK,
    _Point,
    _resolve_workload,
    lane_host_config,
    run_many,
)
from repro.sim.setup_memo import SETUP_MEMO, SetupBatch
from repro.workloads import SUITE

pytestmark = pytest.mark.usefixtures("cold_memo")

BUDGET = 1_500
WORKLOADS = ("gzip", "mcf")
#: The seed the memoized host runs are recorded under; the points that
#: replay them use others.
HOST_SEED = 77

#: mcf with engineered store-load conflicts, so store sets train.
CONFLICTS = dataclasses.replace(SUITE["mcf"].spec, name="mcf-conflicts",
                                conflict_per_kinstr=5.0)

#: Machine -> whether its points are coherent.
MACHINES = {
    "config1": (CONFIG1, False),
    "config2": (CONFIG2, False),
    "config2-coherent-inv0": (CONFIG2.with_overrides(invalidation_rate=0.0), True),
}


def _labels(coherent):
    """The nine-label matrix, coherent when asked."""
    return [dataclasses.replace(SchemeConfig.from_label(label),
                                coherence=coherent).label()
            for label in SCHEME_LABELS]


def _point(machine, label, workload, seed):
    return _Point(machine.with_scheme(SchemeConfig.from_label(label)),
                  workload, BUDGET, seed)


def _kernel_run(point):
    """``point`` stepped on its own kernel, outside ``run_many``."""
    setup = SetupBatch()
    trace, ident = setup.trace(_resolve_workload(point.workload),
                               point.budget + TRACE_TAIL_SLACK)
    processor = Processor(point.config, trace, seed=point.seed)
    setup.prewarm(processor, ident)
    result = processor.run(point.budget)
    assert processor.kernel_used == "soa"
    return result


def _host_run(machine, workload, seed):
    """The recorded conventional run ``machine``'s lanes replay."""
    setup = SetupBatch()
    trace, ident = setup.trace(_resolve_workload(workload),
                               BUDGET + TRACE_TAIL_SLACK)
    host = Processor(lane_host_config(machine), trace, seed=seed)
    host.record_events = True
    setup.prewarm(host, ident)
    host.run(BUDGET)
    return host.recorded


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", ("config1", "config2"))
def test_a_host_run_is_the_same_under_every_seed(machine, workload):
    config, _ = MACHINES[machine]
    hosts = [_host_run(config, workload, seed) for seed in (1, 2, HOST_SEED)]
    first = hosts[0]
    for host in hosts[1:]:
        assert host.events == first.events
        assert (host.cycles, host.committed) == (first.cycles, first.committed)
        names = set(first.counters.names()) | set(host.counters.names())
        differ = {name for name in names
                  if first.counters[name] != host.counters[name]}
        assert differ <= {"wrongpath.loads"}
    # The seeds did draw differently: the invariant is not vacuous.
    assert len({host.counters["wrongpath.loads"] for host in hosts}) > 1


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_points_replay_a_host_recorded_under_another_seed(runs, machine):
    config, coherent = MACHINES[machine]
    labels = _labels(coherent)
    for workload in WORKLOADS:
        for seed in (1, 2):
            SETUP_MEMO.clear()
            run_many([_point(config, labels[0], workload, HOST_SEED)])
            points = [_point(config, label, workload, seed) for label in labels]
            del runs[:]
            batch = run_many(points)
            assert SETUP_MEMO.stats()["host_hits"] >= 1
            routes = dict(runs)
            # The conventional point and the search filters step no
            # loop: they replay the seed-77 host run.
            for label in (labels[0], labels[2], labels[3]):
                assert routes[label] == "lane", (workload, seed, label)
            for point, result in zip(points, batch):
                assert result.to_dict() == _kernel_run(point).to_dict(), (
                    workload, seed, point.config.scheme.label())


def test_a_filter_lane_takes_its_hosts_store_set_counters(runs):
    """Store sets are machine state: a coherent YLA lane of a store-set
    host books the host's trained predictor counts."""
    config = CONFIG2.with_overrides(invalidation_rate=0.0)
    points = [_point(config, label, CONFLICTS, 1)
              for label in ("storesets-coherent", "yla-coherent-storesets")]
    batch = run_many(points)
    assert runs == [("storesets-coherent", "soa"), ("yla-coherent-storesets", "lane")]
    assert batch[0].counters["storesets.violations_recorded"] > 0
    for point, result in zip(points, batch):
        assert result.to_dict() == _kernel_run(point).to_dict()


def test_injected_invalidations_share_nothing_across_seeds(runs):
    """The injector draws from the seed every cycle and changes timing,
    so its groups keep their seed and the memo holds no host run."""
    config = CONFIG2.with_overrides(invalidation_rate=100.0)
    labels = _labels(True)
    for seed in (1, 2):
        del runs[:]
        points = [_point(config, label, "gzip", seed) for label in labels]
        batch = run_many(points)
        assert runs[0] == (labels[0], "soa")
        assert batch[0].counters["inv.injected"] > 0
        for point, result in zip(points, batch):
            assert result.to_dict() == _kernel_run(point).to_dict(), (
                seed, point.config.scheme.label())
    stats = SETUP_MEMO.stats()
    assert (stats["host_hits"], stats["host_misses"], stats["hosts"]) == (0, 0, 0)


def test_concurrent_batches_share_one_host_run():
    """More batching threads than cores, switching often, all over one
    trace and machine under different seeds: every lookup is counted,
    the memo ends up holding one host run, and every result equals its
    kernel run."""
    labels = ("conventional", "yla", "bloom", "dmdc")
    batches = [[_point(CONFIG2, label, "gzip", seed) for label in labels]
               for seed in (3, 4, 5, 6)]
    out = [None] * len(batches)
    barrier = threading.Barrier(len(batches))

    def worker(slot):
        barrier.wait(timeout=30)
        out[slot] = run_many(batches[slot])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    stats = SETUP_MEMO.stats()
    assert stats["host_hits"] + stats["host_misses"] == len(batches)
    assert stats["hosts"] == 1
    for points, results in zip(batches, out):
        for point, result in zip(points, results):
            assert result.to_dict() == _kernel_run(point).to_dict()
