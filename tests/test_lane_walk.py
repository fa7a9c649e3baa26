"""One walk per lane group: a host run's log, decoded once for all of its lanes.

``run_many`` hands a group's lanes to one walk over their host run's
records (:func:`repro.sim.walk.walk_lanes`): each record is decoded once,
each seed's wrong-path model observes and draws once, the host-derived
view columns are written once, and each lane's own code runs.  A verdict
lane that names a victim leaves the walk at its divergence cycle *D*,
tries only the kept forked runs that forked at *D*, resuming into their
tails from the walk's checkpoint of the lane at *D*, and forks when none
serves.

These tests pin that every lane still equals its lone run:

* the nine-label matrix over four workloads and six seeds, on a cold, a
  warm and a reseeded memo;
* a group that mixes seeds, and value lanes of three seeds in one batch;
* a group in which one verdict lane diverges mid-walk;
* a lane that resumes into a kept tail from its checkpoint, and one whose
  resumed tail fails and which then forks;
* a lane whose divergence cycle no kept tail forked at, which makes no
  tail attempt at all;
* a cold group whose forks all take their checkpoints in one
  checkpoint walk, a lone lane that walks alone to its checkpoint, and
  a checkpoint walk that misses the divergence, which raises;
* a squashing host, whose filter lanes walk while its verdict lanes run
  alone.

It also pins that a finished kernel does not wait for the cycle
collector.
"""

import dataclasses
import gc

import pytest

from repro.errors import SimulationError
from repro.sim.config import CONFIG2, SCHEME_LABELS, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import TRACE_TAIL_SLACK, _Point, _resolve_workload, run_many
from repro.sim.setup_memo import SETUP_MEMO, SetupBatch
from repro.sim.soa import SoaKernel
from repro.sim import processor as processor_module
from repro.sim import walk
from repro.workloads import SUITE

pytestmark = pytest.mark.usefixtures("cold_memo")

BUDGET = 1_500
WORKLOADS = ("gzip", "mcf", "equake", "twolf")
#: The ``sweep-matrix`` benchmark's budget, where mcf's DMDC lanes fork.
SWEEP_BUDGET = 4_000

#: mcf with engineered store-load conflicts: its conventional run replays.
CONFLICTS = dataclasses.replace(SUITE["mcf"].spec, name="mcf-conflicts",
                                conflict_per_kinstr=5.0)

_LONE = {}


def _point(label, workload, seed, budget=BUDGET):
    return _Point(CONFIG2.with_scheme(SchemeConfig.from_label(label)),
                  workload, budget, seed)


def _lone(point):
    """``point`` stepped on its own kernel from cycle 0, never a lane;
    the result does not depend on the memo, so each point runs once."""
    key = (point.config, getattr(point.workload, "name", point.workload),
           point.budget, point.seed)
    if key not in _LONE:
        setup = SetupBatch()
        trace, ident = setup.trace(_resolve_workload(point.workload),
                                   point.budget + TRACE_TAIL_SLACK)
        processor = Processor(point.config, trace, seed=point.seed)
        setup.prewarm(processor, ident)
        _LONE[key] = processor.run(point.budget).to_dict()
        assert processor.kernel_used == "soa"
    return _LONE[key]


def _assert_equal_lone(points, batch):
    for point, result in zip(points, batch):
        assert result.to_dict() == _lone(point), (
            point.config.scheme.label(), point.workload, point.seed)


@pytest.fixture
def routes(monkeypatch):
    """Every ``Processor.run`` as (label, workload, seed, route, fork
    cycle, the host run a lane replayed)."""
    seen = []
    original = Processor.run

    def spy(processor, *args, **kwargs):
        result = original(processor, *args, **kwargs)
        seen.append((processor.config.scheme.label(), processor.trace.name,
                     processor.rng.seed, processor.kernel_used,
                     processor.fork_cycle, processor.replay_from))
        return result

    monkeypatch.setattr(Processor, "run", spy)
    return seen


@pytest.fixture
def walks(monkeypatch):
    """Every walk as [(label, seed, divergence)], one list per walk."""
    seen = []
    original = walk.walk_lanes

    def spy(host, processors):
        lanes = original(host, processors)
        seen.append([(lane.label, processor.rng.seed, lane.divergence)
                     for lane, processor in zip(lanes, processors)])
        return lanes

    monkeypatch.setattr("repro.sim.runner.walk_lanes", spy)
    monkeypatch.setattr("repro.sim.processor.walk_lanes", spy)
    return seen


def _delta(before):
    after = SETUP_MEMO.stats()
    return {name: after[name] - before[name] for name in before
            if isinstance(before[name], int)}


def test_the_matrix_equals_lone_runs_cold_warm_and_reseeded(routes, walks):
    """Nine labels over four workloads, one batch per seed: cold, the
    same seed warm, then five more seeds.  One walk per group with
    lanes; every point equals its lone run."""
    for number, seed in enumerate((1, 1, 2, 3, 4, 5, 6)):
        points = [_point(label, workload, seed)
                  for label in SCHEME_LABELS for workload in WORKLOADS]
        del routes[:]
        del walks[:]
        batch = run_many(points)
        taken = [route for _, _, _, route, _, _ in routes]
        if number == 0:
            # Cold: each conventional host and each value point steps.
            assert taken.count("soa") == 2 * len(WORKLOADS)
            assert len(walks) == len(WORKLOADS)  # the value hosts are alone
        else:
            # Warm: every group walks its memoized host run, and no point
            # steps from cycle 0.
            assert len(walks) == 2 * len(WORKLOADS)
            assert set(taken) <= {"lane", "fork"}
        # A value lane walks alone; a conventional group's eight lanes
        # together (seven while its conventional point hosts).
        assert {len(lanes) for lanes in walks} <= {1, 7, 8}
        _assert_equal_lone(points, batch)


def test_a_group_mixing_two_seeds_and_value_lanes_of_three(walks):
    """One walk serves lanes of two seeds, each drawing from its own
    seed's model; value points of three seeds share one value run."""
    points = ([_point(label, workload, seed)
               for seed in (3, 4) for label in SCHEME_LABELS
               for workload in ("gzip", "mcf")]
              + [_point("value", "equake", seed) for seed in (1, 2, 3)])
    batch = run_many(points)
    _assert_equal_lone(points, batch)
    mixed = [lanes for lanes in walks if {seed for _, seed, _ in lanes} == {3, 4}]
    assert len(mixed) == 2  # gzip's and mcf's conventional groups
    assert all(len(lanes) == 2 * (len(SCHEME_LABELS) - 1) - 1 for lanes in mixed)
    (values,) = [lanes for lanes in walks if lanes[0][0] == "value"
                 and {seed for _, seed, _ in lanes} == {2, 3}]
    assert len(values) == 2  # seed 1's value point hosts
    # The same seed's draws are shared: both seeds' lanes booked their
    # own wrong-path loads.
    loads = {(point.seed, point.config.scheme.label()): result.counters["wrongpath.loads"]
             for point, result in zip(points, batch) if point.workload == "gzip"}
    assert loads[(3, "yla")] == loads[(3, "bloom")] != loads[(4, "yla")]


def test_one_verdict_lane_diverging_mid_walk_leaves_the_others_unchanged(walks):
    """mcf under seed 41: its DMDC lane names a victim mid-walk and leaves;
    the walk goes on for the other lanes, whose results are their lone
    runs', as the leaving lane's fork is."""
    labels = ("conventional", "yla", "bloom", "storesets", "dmdc", "dmdc-local",
              "garg", "dmdc-queue8")
    points = [_point(label, "mcf", 41, SWEEP_BUDGET) for label in labels]
    batch = run_many(points)
    (lanes,) = walks
    left = {label for label, _, divergence in lanes if divergence is not None}
    stayed = {label for label, _, divergence in lanes if divergence is None}
    assert "dmdc" in left
    assert {"yla", "bloom", "storesets"} <= stayed
    _assert_equal_lone(points, batch)


def _resumes(monkeypatch):
    """Every checkpoint walk, ``Checkpoint.resume`` and tail walk
    (``walk_tail``) of a processor: ("checkpoint walk", lanes),
    ("resume",), and ("tail", the forked run's fork cycle) for a tail
    attempt."""
    calls = []
    resume = walk.Checkpoint.resume
    walk_tail = processor_module.walk_tail
    walked = walk._walk

    def resume_spy(checkpoint, trace):
        calls.append(("resume",))
        return resume(checkpoint, trace)

    def tail_spy(tail, processor, resumed):
        calls.append(("tail", tail.fork_cycle))
        return walk_tail(tail, processor, resumed)

    def walk_spy(host, processors, lanes, t0, leave):
        if leave:
            calls.append(("checkpoint walk", len(lanes)))
        return walked(host, processors, lanes, t0, leave)

    monkeypatch.setattr(walk.Checkpoint, "resume", resume_spy)
    monkeypatch.setattr(processor_module, "walk_tail", tail_spy)
    monkeypatch.setattr(walk, "_walk", walk_spy)
    return calls


def test_a_lane_resumes_into_a_kept_tail_from_the_walks_checkpoint(
        routes, monkeypatch):
    """dmdc-queue8 on mcf forks at cycle 1338 under every seed, with a
    tail that depends on the seed.  Cold, the lane forks from the
    checkpoint a checkpoint walk took.  Seed 1 again resumes into seed 1's
    tail from the first walk's checkpoint and takes it; seed 2's verdicts
    leave that tail, so it forks, from the same checkpoint, with no
    checkpoint walk; seed 3 tries both kept tails, each from the
    checkpoint, and the second serves it.  Every point equals its lone
    run."""
    calls = _resumes(monkeypatch)
    run_many([_point("conventional", "mcf", 1, SWEEP_BUDGET),
              _point("dmdc-queue8", "mcf", 1, SWEEP_BUDGET)])
    assert routes[-1][3:5] == ("fork", 1338)
    assert calls == [("checkpoint walk", 1), ("resume",)]  # the cold fork's
    expected = {
        1: ("lane", {"walk_checkpoints": 1, "forked_run_hits": 1,
                     "forked_run_misses": 0, "forks": 0},
            [("resume",), ("tail", 1338)]),
        2: ("fork", {"walk_checkpoints": 1, "forked_run_hits": 0,
                     "forked_run_misses": 1, "forks": 1},
            [("resume",), ("tail", 1338), ("resume",)]),
        3: ("lane", {"walk_checkpoints": 1, "forked_run_hits": 1,
                     "forked_run_misses": 1, "forks": 0},
            [("resume",), ("tail", 1338)] * 2),
    }
    for seed, (route, counts, resumed) in expected.items():
        before = SETUP_MEMO.stats()
        del calls[:]
        point = _point("dmdc-queue8", "mcf", seed, SWEEP_BUDGET)
        (result,) = run_many([point])
        assert routes[-1][3:5] == (route, 1338)
        delta = _delta(before)
        assert {name: delta[name] for name in counts} == counts
        assert calls == resumed
        assert result.to_dict() == _lone(point)


def test_a_lane_whose_divergence_no_kept_tail_forked_at_tries_none(
        routes, monkeypatch):
    """A kept tail of the lane's machine that forked at another cycle is
    never tried: the lane forks at its divergence cycle, with no tail
    attempt (``forked_run_misses`` stays 0).  The first walk checkpoints
    it at no cycle (it is gone by the kept tail's), so its checkpoint
    comes from one checkpoint walk."""
    run_many([_point("conventional", "mcf", 1, SWEEP_BUDGET),
              _point("dmdc-queue8", "mcf", 1, SWEEP_BUDGET)])
    (kept,) = routes[-1][5].forked
    kept.fork_cycle += 1  # as if another seed had diverged a cycle later
    calls = _resumes(monkeypatch)
    before = SETUP_MEMO.stats()
    point = _point("dmdc-queue8", "mcf", 1, SWEEP_BUDGET)
    (result,) = run_many([point])
    delta = _delta(before)
    assert routes[-1][3:5] == ("fork", 1338)
    assert (delta["walk_checkpoints"], delta["forked_run_misses"],
            delta["forked_run_hits"], delta["forks"]) == (1, 0, 0, 1)
    assert calls == [("checkpoint walk", 1), ("resume",)]
    assert result.to_dict() == _lone(point)


def test_a_cold_groups_forks_take_their_checkpoints_in_one_walk(
        routes, monkeypatch):
    """A cold twolf group whose three verdict lanes all fork (at two
    cycles): one checkpoint walk checkpoints all three at their
    divergences, each fork resumes from its checkpoint, no tail is
    replayed (no kept run forked for these machines), and every point
    equals its lone run."""
    calls = _resumes(monkeypatch)
    points = [_point(label, "twolf", 1, SWEEP_BUDGET)
              for label in ("conventional", "dmdc", "dmdc-local", "garg")]
    before = SETUP_MEMO.stats()
    batch = run_many(points)
    delta = _delta(before)
    forks = {label: cycle for label, _, _, route, cycle, _ in routes
             if route == "fork"}
    assert set(forks) == {"dmdc", "dmdc-local", "garg"}
    assert sorted(set(forks.values())) == [1717, 1735]
    assert calls == [("checkpoint walk", 3)] + [("resume",)] * 3
    # The group's walk and its checkpoint walk; one checkpoint a fork.
    assert (delta["lane_walks"], delta["walk_checkpoints"], delta["forks"]) == (2, 3, 3)
    _assert_equal_lone(points, batch)


def _lone_lane(point):
    """A processor for ``point`` that replays a conventional host run
    recorded outside ``run_many``."""
    setup = SetupBatch()
    trace, ident = setup.trace(SUITE[point.workload],
                               point.budget + TRACE_TAIL_SLACK)
    host = Processor(CONFIG2, trace, seed=point.seed)
    host.record_events = True
    setup.prewarm(host, ident)
    host.run(point.budget)
    assert host.recorded.squash_free
    lane = Processor(point.config, trace, seed=point.seed)
    lane.replay_from = host.recorded
    return lane


def test_a_lone_lane_forks_from_its_own_checkpoint_walk(monkeypatch):
    """A lane run alone (``replay_from`` set, outside ``run_many``) walks
    its host's log, then walks alone to its checkpoint and forks from
    it, and equals its lone run."""
    point = _point("dmdc", "twolf", 1, SWEEP_BUDGET)
    lane = _lone_lane(point)
    calls = _resumes(monkeypatch)
    result = lane.run(SWEEP_BUDGET)
    assert (lane.kernel_used, lane.fork_cycle) == ("fork", lane.divergence)
    assert calls == [("checkpoint walk", 1), ("resume",)]
    assert result.to_dict() == _lone(point)


def test_a_checkpoint_walk_that_misses_the_divergence_fails_loudly():
    """A lane whose checkpoint walk takes no checkpoint at the divergence
    its first walk reported (here one cycle later than the lane's
    verdict, which the checkpoint walk meets first) raises, naming the
    lane, rather than fork from any other state."""
    lane = _lone_lane(_point("dmdc", "twolf", 1, SWEEP_BUDGET))
    assert lane.replay() is None
    lane.lane.divergence += 1
    with pytest.raises(SimulationError, match=(
            r"verdict lane dmdc took no checkpoint at cycle \d+, where its "
            r"walk diverged")):
        lane.run(SWEEP_BUDGET)


def test_a_squashing_host_serves_its_filter_lanes_through_the_walk(routes, walks):
    labels = ("conventional", "yla", "bloom", "dmdc", "garg", "storesets")
    points = [_point(label, CONFLICTS, 1) for label in labels]
    batch = run_many(points)
    assert batch[0].counters["replays"] > 0
    kernels = {label: route for label, _, _, route, _, _ in routes}
    assert kernels == {"conventional": "soa", "yla": "lane", "bloom": "lane",
                       "dmdc": "soa", "garg": "soa", "storesets": "soa"}
    assert [sorted(label for label, _, _ in lanes) for lanes in walks] == [
        ["bloom", "yla"]]
    _assert_equal_lone(points, batch)


def test_finished_kernels_need_no_cycle_collector():
    """With the collector off, a recording kernel run, a forked lane (its
    prefix kernel stepped to a fresh snapshot) and a lone run leave no
    kernel behind: refcounting frees each once its run is done."""
    gc.collect()
    gc.disable()
    try:
        run_many([_point("conventional", "gzip", 1)])
        run_many([_point("conventional", "mcf", 41, SWEEP_BUDGET),
                  _point("dmdc", "mcf", 41, SWEEP_BUDGET)])
        assert SETUP_MEMO.stats()["forks"] == 1
        run_many([_point("garg", "equake", 2)])
        assert not [obj for obj in gc.get_objects() if isinstance(obj, SoaKernel)]
    finally:
        gc.enable()
