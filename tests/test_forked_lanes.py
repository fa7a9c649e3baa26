"""A resumable, copyable kernel, verdict lanes forked from it, and the
forked runs that serve later lanes.

``SoaKernel.run`` stops at a cycle boundary with every local written
back, and a resumed run continues it; a :class:`Snapshot` copies a
stopped machine.  A verdict lane whose replay of its host's log reaches
a timing-changing verdict at cycle *D* restores its host's machine at
or before *D* (``kernel_used == "fork"``) and resumes its own kernel
there instead of stepping from cycle 0.  The forked kernel records its
tail.  The host run keeps those snapshots and forked runs; the setup
memo charges them while it holds the run.  A later lane of the same
machine, under any seed, replays a kept forked run's tail
(``kernel_used == "lane"`` with ``fork_cycle`` set) when its verdicts
reproduce every recorded one, and forks otherwise.

These tests pin the contracts:

* stopping at random cycles and resuming equals the uninterrupted run,
  over the nine-label matrix and the coherent rows;
* continuing a copy equals continuing the original;
* every fork-prone point of the ``sweep-matrix`` shape equals its lone
  run on a cold memo, a warm memo and under other seeds, whether it
  forked or replayed a kept forked run, including a lane that diverges
  before the only kept snapshot, a seed whose verdicts leave the kept
  tail, and with the invalidation injector on;
* a cold group forks in ascending divergence cycle, stepping one
  prefix;
* a tampered tail never changes a result: the lane forks instead;
* a group hosted by a YLA or Bloom point forks from that machine;
* the snapshots and forked runs belong to the host run: threads
  forking from one memoized run keep one snapshot per cycle, threads
  share its forked runs, a run the memo never held (a custom
  ``generate()`` trace) serves its batch's forks alone, and so does a
  run the memo evicts while its batch forks, uncharged;
* a fork whose prefix disagrees with the host's log fails loudly.

A failing fork check names the first cycle where the fork leaves its
lone run (``tests/divergence.py``).
"""

import copy
import dataclasses
import random
import sys
import threading
from array import array

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX as SCHEMES
from repro.core.schemes.base import (EV_COMMIT, EV_COMMITS, EV_LOAD,
                                     EV_LOAD_GUARDED, EV_LOAD_SAFE, EV_MARK,
                                     EV_MISPREDICT, EV_RECOVERY, EV_SQUASH,
                                     EV_STORE, EV_STORE_VICTIM)
from repro.errors import SimulationError
from repro.sim.config import CONFIG2, SCHEME_LABELS, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import TRACE_TAIL_SLACK, _Point, run_many
from repro.sim import setup_memo
from repro.sim.setup_memo import SETUP_MEMO, SetupBatch, SetupMemo
from repro.sim.soa import Snapshot, SoaKernel
from repro.workloads import SUITE, SyntheticWorkload, get_workload
from tests.divergence import (
    explain_fork,
    finish,
    first_divergent_cycle,
    lone_kernel,
    state_dump,
)
from tests.test_soa_equivalence import COHERENCE_ROWS

pytestmark = pytest.mark.usefixtures("cold_memo")

BUDGET = 1_500
#: The ``sweep-matrix`` benchmark's shape.
SWEEP_WORKLOADS = ("gzip", "mcf", "equake", "twolf")
SWEEP_BUDGET = 4_000

#: The nine-label matrix and the coherent rows, as machines.
MACHINES = {**{label: CONFIG2.with_scheme(scheme) for label, scheme in SCHEMES.items()},
            **COHERENCE_ROWS}


def _processor(config, workload, seed=1, budget=BUDGET):
    setup = SetupBatch()
    if isinstance(workload, str):
        workload = get_workload(workload)
    trace, ident = setup.trace(workload, budget + TRACE_TAIL_SLACK)
    processor = Processor(config, trace, seed=seed)
    setup.prewarm(processor, ident)
    return processor


def _stops(row, workload, cycles, count):
    rng = random.Random(f"{row}/{workload}")
    return sorted(rng.randrange(1, cycles) for _ in range(count))


@pytest.mark.parametrize("workload", ("gzip", "mcf"))
@pytest.mark.parametrize("row", sorted(MACHINES))
def test_stop_then_resume_equals_the_uninterrupted_run(row, workload):
    config = MACHINES[row]
    whole = _processor(config, workload).run(BUDGET)
    processor = _processor(config, workload)
    kernel = SoaKernel(processor)
    target = min(BUDGET, len(processor.trace))
    for stop in _stops(row, workload, whole.cycles, 3):
        kernel.run(target, max(200_000, BUDGET * 60), stop=stop)
        assert kernel.cycle == stop and processor.cycle == stop
        assert not processor.counters.names()  # nothing booked yet
    assert finish(processor, kernel, BUDGET).to_dict() == whole.to_dict()


@pytest.mark.parametrize("workload", ("gzip", "mcf"))
@pytest.mark.parametrize("row", sorted(MACHINES))
def test_continuing_a_copy_equals_continuing_the_original(row, workload):
    """The copy is a snapshot restored into a fresh processor, whose
    scheme side (scheme, wrong-path model, store sets) is copied too."""
    config = MACHINES[row]
    whole = _processor(config, workload).run(BUDGET)
    original = _processor(config, workload)
    kernel = SoaKernel(original)
    (stop,) = _stops(row, workload, whole.cycles, 1)
    kernel.run(min(BUDGET, len(original.trace)), max(200_000, BUDGET * 60),
               stop=stop)
    snapshot = Snapshot(kernel)
    twin = Processor(config, original.trace, seed=1)
    for part in ("scheme", "wrongpath", "storesets"):
        setattr(twin, part, copy.deepcopy(getattr(original, part)))
    copied = SoaKernel(twin)
    snapshot.restore(copied)
    assert state_dump(copied) == state_dump(kernel)
    # The original goes on first: the copy must share nothing with it.
    assert finish(original, kernel, BUDGET).to_dict() == whole.to_dict()
    assert finish(twin, copied, BUDGET).to_dict() == whole.to_dict()


def _point(label, workload, seed, config=CONFIG2, budget=SWEEP_BUDGET):
    return _Point(config.with_scheme(SchemeConfig.from_label(label)),
                  workload, budget, seed)


def _lone(point):
    """``point`` stepped on its own kernel from cycle 0."""
    processor = _processor(point.config, point.workload, point.seed, point.budget)
    result = processor.run(point.budget)
    assert processor.kernel_used == "soa"
    return result


@pytest.fixture
def routes(monkeypatch):
    """Every ``Processor.run`` as (label, workload, route, fork cycle,
    the host run a lane replayed)."""
    seen = []
    original = Processor.run

    def spy(processor, *args, **kwargs):
        result = original(processor, *args, **kwargs)
        seen.append((processor.config.scheme.label(), processor.trace.name,
                     processor.kernel_used, processor.fork_cycle,
                     processor.replay_from))
        return result

    monkeypatch.setattr(Processor, "run", spy)
    return seen


def _assert_forks_equal_lone(points, batch, routes):
    """Every fork-prone point of ``batch`` (one that forked, or replayed
    a kept forked run's tail) equals its lone run; returns them."""
    by_point = {(label, workload): (cycle, host)
                for label, workload, _, cycle, host in routes}
    forked = []
    for point, result in zip(points, batch):
        cycle, host = by_point[(point.config.scheme.label(), point.workload)]
        if cycle is None:
            continue
        forked.append(point)
        alone = _lone(point)
        if result.to_dict() != alone.to_dict():
            pytest.fail(explain_fork(point, host, alone.cycles))
    return forked


def _names(points):
    return {(point.config.scheme.label(), point.workload) for point in points}


def _sweep(routes, seed, workloads=SWEEP_WORKLOADS):
    points = [_point(label, workload, seed)
              for label in SCHEME_LABELS for workload in workloads]
    del routes[:]
    batch = run_many(points)
    return points, batch, list(routes)


def test_sweep_matrix_forks_equal_lone_runs_cold_warm_and_reseeded(routes):
    """Every fork-prone point of the ``sweep-matrix`` shape, over six
    seeds: cold it forks; warm, and under most other seeds, it is a lane
    of the run it forked; every result equals its lone run."""
    points, batch, seen = _sweep(routes, 1)
    forked = _assert_forks_equal_lone(points, batch, seen)
    assert len(forked) >= 5  # the DMDC variants on mcf and twolf, garg
    assert all(kernel == "fork" for _, _, kernel, cycle, _ in seen
               if cycle is not None)
    cold = SETUP_MEMO.stats()
    assert cold["forks"] == cold["forked_runs"] == len(forked)
    assert cold["snapshots"] >= 3
    # Now every divergence cycle has its snapshot and every forked
    # point its forked run.
    served = {}
    for seed in (1, 2, 3, 4, 5, 6):
        before = SETUP_MEMO.stats()
        points, batch, seen = _sweep(routes, seed)
        again = _assert_forks_equal_lone(points, batch, seen)
        assert _names(again) == _names(forked)
        stats = SETUP_MEMO.stats()
        # Steady state: no point steps a loop from cycle 0; a fork-prone
        # point replays a kept forked run, else forks from a snapshot
        # kept at its own divergence cycle.
        assert all(kernel in ("lane", "fork") for _, _, kernel, _, _ in seen)
        hits = stats["forked_run_hits"] - before["forked_run_hits"]
        forks = stats["forks"] - before["forks"]
        assert hits + forks == len(forked)
        assert hits == sum(kernel == "lane" for _, _, kernel, cycle, _ in seen
                           if cycle is not None)
        assert stats["snapshot_hits"] - before["snapshot_hits"] == forks
        assert stats["snapshots"] == cold["snapshots"]
        served[seed] = hits
    assert served[1] == len(forked)  # the same seed replays every tail
    assert sum(served.values()) >= 5 * len(forked)


#: Fork-prone points of the ``sweep-matrix`` shape whose second seed's
#: verdicts leave the tail its first seed's fork recorded (found by
#: running the seeds in turn).
TAIL_LEAVERS = (("dmdc-queue8", "mcf", 1, 2), ("dmdc", "mcf", 2, 6),
                ("garg", "gzip", 1, 7))


@pytest.mark.parametrize("label, workload, first, second", TAIL_LEAVERS)
def test_a_seed_whose_verdicts_leave_the_kept_tail_forks(
        routes, label, workload, first, second):
    """The lane replays the kept tail until a verdict differs, then
    forks after all, and its own forked run is kept beside the first."""
    run_many([_point("conventional", workload, first),
              _point(label, workload, first)])
    host = routes[1][4]
    (kept,) = host.forked
    del routes[:]
    point = _point(label, workload, second)
    (result,) = run_many([point])
    ((_, _, kernel, cycle, _),) = routes
    assert kernel == "fork" and cycle == kept.fork_cycle
    stats = SETUP_MEMO.stats()
    assert (stats["forked_run_hits"], stats["forks"], stats["forked_runs"]) == (0, 2, 2)
    assert host.forked[1] is kept and host.forked[0].events != kept.events
    alone = _lone(point)
    if result.to_dict() != alone.to_dict():
        pytest.fail(explain_fork(point, host, alone.cycles))


def test_a_cold_group_forks_in_ascending_divergence_cycle(monkeypatch, routes):
    """twolf's Garg lane diverges before its DMDC lanes, though it comes
    later in the batch: a cold sweep forks it first, so the group steps
    one prefix from cycle 0, and each later fork steps on from the
    snapshot the one before it kept."""
    prefixes = []
    real = SoaKernel.run

    def spy(kernel, target, max_cycles, stop=None):
        if stop is not None:
            prefixes.append((kernel.cycle, stop))
        return real(kernel, target, max_cycles, stop)

    monkeypatch.setattr(SoaKernel, "run", spy)
    points, batch, seen = _sweep(routes, 1, ("twolf",))
    forks = [(label, cycle) for label, _, kernel, cycle, _ in seen
             if kernel == "fork"]
    assert [label for label, _ in forks][0] == "garg"
    assert [cycle for _, cycle in forks] == sorted(cycle for _, cycle in forks)
    stats = SETUP_MEMO.stats()
    cycles = sorted({cycle for _, cycle in forks})
    assert (stats["forks"], stats["snapshots"]) == (len(forks), len(cycles))
    assert stats["snapshot_hits"] == len(forks) - len(cycles)
    # One prefix from cycle 0; each later one resumes where it stopped.
    assert prefixes == list(zip([0] + cycles[:-1], cycles))
    assert len(_assert_forks_equal_lone(points, batch, seen)) == len(forks)


#: Record lengths of the lane event log, by opcode (a squash adds its
#: squashed loads' addresses).
_RECORD = {EV_LOAD: 4, EV_LOAD_SAFE: 4, EV_LOAD_GUARDED: 4, EV_STORE: 5,
           EV_STORE_VICTIM: 5, EV_MISPREDICT: 3, EV_RECOVERY: 3,
           EV_COMMIT: 2, EV_COMMITS: 3, EV_MARK: 3, EV_SQUASH: 5}


def _records(events):
    """``events`` as a list of records (lists of ints)."""
    out = []
    i = 0
    while i < len(events):
        length = _RECORD[events[i]]
        if events[i] == EV_SQUASH:
            length += events[i + 4]
        out.append(list(events[i:i + length]))
        i += length
    return out


def _tamper(events, how):
    records = _records(events)
    squash = next(k for k, record in enumerate(records) if record[0] == EV_SQUASH)
    if how == "drop-squash":
        del records[squash]
    elif how == "shift-squash":
        records.insert(squash + 2, records.pop(squash))
    elif how == "drop-mark":
        del records[next(k for k, record in enumerate(records)
                         if record[0] == EV_MARK)]
    else:  # "forge-mark": mark the first load the tail commits
        commit = next(k for k, record in enumerate(records)
                      if record[0] == EV_COMMITS)
        load = next(record for record in records[:commit]
                    if record[0] in (EV_LOAD, EV_LOAD_SAFE))
        records.insert(commit, [EV_MARK, load[2], load[2] - 1])
    return array("q", [value for record in records for value in record])


#: mcf and crafty with some store-load conflicts: their conventional
#: runs stay squash-free, and these lanes' forked tails carry
#: ground-truth marks (true violations DMDC replays at commit).
MARKED = {name: SyntheticWorkload(dataclasses.replace(
    SUITE[name].spec, name=f"{name}-c0.5", conflict_per_kinstr=0.5))
    for name in ("mcf", "crafty")}


@pytest.mark.parametrize("label, workload, how", [
    ("dmdc", "twolf", "drop-squash"),
    ("dmdc", "twolf", "shift-squash"),
    ("garg", "twolf", "drop-squash"),
    ("garg", "twolf", "shift-squash"),
    ("dmdc-nosafe", "mcf", "drop-mark"),
    ("dmdc", "crafty", "drop-mark"),
    ("dmdc", "crafty", "forge-mark"),
])
def test_a_tampered_tail_never_changes_a_result(routes, label, workload, how):
    """A kept tail with one squash record dropped or moved, or one
    ground-truth mark dropped or forged, does not serve a lane of
    another seed: the lane forks, and equals its lone run."""
    budget = 3_000 if workload in MARKED else SWEEP_BUDGET
    workload = MARKED.get(workload, workload)
    run_many([_point("conventional", workload, 1, budget=budget),
              _point(label, workload, 1, budget=budget)])
    host = routes[1][4]
    (kept,) = host.forked
    point = _point(label, workload, 1, budget=budget)
    (honest,) = run_many([point])
    assert routes[-1][2] == "lane" and SETUP_MEMO.stats()["forked_run_hits"] == 1
    kept.events = _tamper(kept.events, how)
    del routes[:]
    (result,) = run_many([point])
    assert [kernel for _, _, kernel, _, _ in routes] == ["fork"]
    assert SETUP_MEMO.stats()["forked_run_hits"] == 1
    assert result.to_dict() == honest.to_dict() == _lone(point).to_dict()


def test_a_lane_diverging_before_the_only_kept_snapshot(routes):
    """twolf's DMDC lane diverges later than its Garg lane: with only
    DMDC's snapshot kept, Garg steps the prefix from cycle 0."""
    run_many([_point("conventional", "twolf", 1), _point("dmdc", "twolf", 1)])
    (dmdc_fork,) = [cycle for label, _, kernel, cycle, _ in routes
                    if kernel == "fork"]
    assert SETUP_MEMO.stats()["snapshots"] == 1
    del routes[:]
    point = _point("garg", "twolf", 2)
    (result,) = run_many([point])
    ((_, _, kernel, garg_fork, host),) = routes
    assert kernel == "fork" and garg_fork < dmdc_fork
    stats = SETUP_MEMO.stats()
    assert stats["snapshots"] == 2 and stats["snapshot_hits"] == 0
    alone = _lone(point)
    if result.to_dict() != alone.to_dict():
        pytest.fail(explain_fork(point, host, alone.cycles))


def test_forks_with_the_injector_on_equal_lone_runs(routes):
    """With invalidations injected the group keeps its seed and its
    snapshots stay with the batch; a snapshot carries the injector."""
    config = CONFIG2.with_overrides(invalidation_rate=100.0)
    points = [_point(label, workload, 3, config, BUDGET)
              for workload in ("gzip", "mcf")
              for label in ("conventional", "dmdc", "dmdc-local", "garg")]
    batch = run_many(points)
    assert len(_assert_forks_equal_lone(points, batch, list(routes))) >= 3
    assert batch[0].counters["inv.injected"] > 0
    assert SETUP_MEMO.stats()["snapshots"] == 0


@pytest.mark.parametrize("host", ("yla", "bloom"))
def test_a_filter_host_forks_its_lanes(host, routes):
    """A group without a conventional point records on a filter: its
    lanes fork from that machine, which times as the conventional one."""
    points = [_point(host, "mcf", 1), _point("dmdc", "mcf", 1)]
    batch = run_many(points)
    (fork,) = [route for route in routes if route[2] == "fork"]
    assert fork[4].machine.scheme.kind == host
    assert batch[1].to_dict() == _lone(points[1]).to_dict()


def test_threads_fork_from_one_memoized_host_run(monkeypatch, routes):
    """Three threads fork verdict lanes from one memoized host run at
    once: all look up before any keeps, so each steps its own prefix,
    each equals its lone run, and the run keeps one snapshot at the
    cycle, charged once."""
    run_many([_point("conventional", "mcf", 1)])
    charged = SETUP_MEMO.stats()["charged_ops"]
    barrier = threading.Barrier(3)
    real = SetupMemo.fork_snapshot

    def together(memo, run, cycle):
        kept = real(memo, run, cycle)
        barrier.wait(timeout=60)
        return kept

    monkeypatch.setattr(SetupMemo, "fork_snapshot", together)
    points = [_point("dmdc", "mcf", seed) for seed in (1, 2, 3)]
    out = [None] * len(points)

    def worker(slot):
        (out[slot],) = run_many([points[slot]])

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result is not None for result in out)
    forks = [(kernel, cycle, host) for _, _, kernel, cycle, host in routes[1:]]
    assert [kernel for kernel, _, _ in forks] == ["fork"] * 3
    assert len({cycle for _, cycle, _ in forks}) == 1
    host = forks[0][2]
    assert all(other is host for _, _, other in forks)
    (kept,) = host.snapshots
    assert kept.cycle == forks[0][1]
    stats = SETUP_MEMO.stats()
    assert (stats["forks"], stats["snapshot_hits"], stats["snapshots"]) == (3, 0, 1)
    # Each fork keeps its run, unless one with the same tail is kept.
    assert 1 <= stats["forked_runs"] == len(host.forked) <= 3
    assert stats["charged_ops"] == (charged + setup_memo._snapshot_charge(kept)
                                    + sum(map(setup_memo._log_charge, host.forked)))
    for point, result in zip(points, out):
        assert result.to_dict() == _lone(point).to_dict()


def test_threads_share_one_host_runs_forked_runs(monkeypatch, routes):
    """Four threads of other seeds look up one memoized host run's
    forked runs together: each replays the one kept tail, every hit is
    counted under the lock, and each equals its lone run."""
    run_many([_point("conventional", "twolf", 1), _point("garg", "twolf", 1)])
    host = routes[1][4]
    (kept,) = host.forked
    charged = SETUP_MEMO.stats()["charged_ops"]
    points = [_point("garg", "twolf", seed) for seed in (2, 3, 4, 5)]
    barrier = threading.Barrier(len(points))
    real = SetupMemo.forked_runs

    def together(memo, run, machine):
        found = real(memo, run, machine)
        barrier.wait(timeout=60)
        return found

    monkeypatch.setattr(SetupMemo, "forked_runs", together)
    out = [None] * len(points)

    def worker(slot):
        (out[slot],) = run_many([points[slot]])

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    lanes = [(kernel, cycle) for _, _, kernel, cycle, _ in routes[2:]]
    assert lanes == [("lane", kept.fork_cycle)] * len(points)
    stats = SETUP_MEMO.stats()
    assert (stats["forked_run_hits"], stats["forked_runs"], stats["forks"]) == (
        len(points), 1, 1)
    assert host.forked == [kept] and stats["charged_ops"] == charged
    for point, result in zip(points, out):
        assert result.to_dict() == _lone(point).to_dict()


class _Custom:
    """A ``generate()`` object: the setup memo never shares its trace."""

    def __init__(self, name):
        self.workload = get_workload(name)

    def generate(self, length):
        return self.workload.generate(length)


def test_a_custom_trace_forks_from_its_batch_host_run_alone(routes):
    """A verdict lane over a trace the memo never holds forks from
    snapshots kept only on its batch's host run."""
    custom = _Custom("mcf")
    points = [_point(label, "mcf", 1)._replace(workload=custom)
              for label in ("conventional", "dmdc", "dmdc-local")]
    batch = run_many(points)
    assert [kernel for _, _, kernel, _, _ in routes] == ["soa", "fork", "fork"]
    stats = SETUP_MEMO.stats()
    assert (stats["forks"], stats["snapshot_hits"]) == (2, 1)
    assert (stats["hosts"], stats["snapshots"]) == (0, 0)
    host = routes[1][4]
    assert host is routes[2][4] and len(host.snapshots) == 1
    assert host._replace().snapshots == []  # a copy keeps none of them
    for point, result in zip(points[1:], batch[1:]):
        assert result.to_dict() == _lone(point).to_dict()


def test_a_host_run_evicted_mid_batch_still_serves_its_forks(monkeypatch, routes):
    """Another batch evicts the trace whose host run this batch replays
    before its first lane forks: the run still serves the batch's forks,
    and the snapshots they keep on it no longer count against the
    bound."""
    length = SWEEP_BUDGET + TRACE_TAIL_SLACK
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", 3 * length // 2)
    real = SetupMemo.fork_snapshot
    evicted = {}

    def after_another_batch(memo, run, cycle):
        if not evicted:
            run_many([_point("conventional", "gzip", 1)])
            evicted.update(memo.stats())
            assert (evicted["trace_evictions"], evicted["traces"]) == (1, 1)
        return real(memo, run, cycle)

    monkeypatch.setattr(SetupMemo, "fork_snapshot", after_another_batch)
    points = [_point(label, "mcf", 1)
              for label in ("conventional", "dmdc", "dmdc-local")]
    batch = run_many(points)
    mcf = [route for route in routes if route[1] == "mcf"]
    assert [kernel for _, _, kernel, _, _ in mcf] == ["soa", "fork", "fork"]
    host = mcf[1][4]
    assert host is mcf[2][4] and len(host.snapshots) == 1
    stats = SETUP_MEMO.stats()
    assert (stats["forks"], stats["snapshot_hits"]) == (2, 1)
    assert (stats["traces"], stats["hosts"], stats["snapshots"]) == (1, 1, 0)
    assert stats["charged_ops"] == evicted["charged_ops"]
    assert stats["charged_ops"] <= setup_memo.MAX_RETAINED_OPS
    for point, result in zip(points[1:], batch[1:]):
        assert result.to_dict() == _lone(point).to_dict()


def test_a_fork_that_disagrees_with_the_log_fails_loudly(monkeypatch):
    real = Processor._snapshot

    def off_by_one(processor, host, cycle, target, max_cycles):
        snapshot = copy.copy(real(processor, host, cycle, target, max_cycles))
        snapshot.committed += 1
        return snapshot

    monkeypatch.setattr(Processor, "_snapshot", off_by_one)
    with pytest.raises(SimulationError, match=(
            r"verdict lane dmdc retired \d+ instructions, but its host "
            r"committed \d+ before cycle \d+")):
        run_many([_point("conventional", "mcf", 1), _point("dmdc", "mcf", 1)])


def test_first_divergent_cycle_finds_where_a_perturbation_lands():
    """The bisection helper names a cycle whose dumps differ while the
    previous cycle's agree, after the perturbation."""
    point = _point("dmdc", "mcf", 1, budget=BUDGET)
    perturb = 700

    def perturbed(stop):
        kernel = lone_kernel(point, min(stop, perturb))
        if stop > perturb:
            kernel.resume_cycle = perturb + 40  # fetch stalls for a while
            kernel.run(BUDGET, BUDGET * 60, stop=stop)
        return kernel

    def dumps(cycle):
        return state_dump(lone_kernel(point, cycle)), state_dump(perturbed(cycle))

    cycle = first_divergent_cycle(dumps, 0, 2_000)
    assert cycle is not None and cycle > perturb
    before, after = dumps(cycle - 1), dumps(cycle)
    assert before[0] == before[1] and after[0] != after[1]

    def same(cycle):
        return (state_dump(lone_kernel(point, cycle)),) * 2

    assert first_divergent_cycle(same, 0, 2_000) is None
