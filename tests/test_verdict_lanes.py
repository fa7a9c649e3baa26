"""Verdict lanes: DMDC, Garg and store-set points replay a squash-free
conventional run instead of stepping their own cycle loop.

Until a replay, a DMDC, Garg or ``conventional-storesets`` machine times
exactly as the conventional one.  ``run_many`` therefore puts such a
point in its conventional point's lane group; when the host's run was
squash-free, the point replays the host's event log through its own
scheme (``kernel_used == "lane"``); if the replay reaches a verdict
that would change timing, it forks its own kernel from the conventional
machine at that cycle (``kernel_used == "fork"``, see
``tests/test_forked_lanes.py``).  These tests pin that every such point
equals the same point run alone on a cold setup memo, bit for bit,
whichever route it took; that a host with replays sends every verdict
point to its own kernel and a diverging replay forks; that a lone point
records nothing; that a malformed log fails loudly; and that
lanes share no result objects with their host.  Every test starts from
an empty memo, so the routes it asserts are its own batches'.
"""

import dataclasses

import pytest

from repro.analysis.lint import lint_source
from repro.analysis.lint.rules import HOT_FUNCTIONS
from repro.core.schemes.base import EV_COMMITS, EV_SQUASH, EV_STORE_VICTIM
from repro.errors import SimulationError
from repro.sim.config import CONFIG1, CONFIG2, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import _Point, run_many
from repro.sim.setup_memo import SetupBatch
from repro.sim.soa import SoaKernel
from repro.sim import walk
from repro.sim.walk import walk_lanes
from repro.workloads import SUITE
from tests.test_filter_lanes import run_alone

pytestmark = pytest.mark.usefixtures("cold_memo")

BUDGET = 1_500

#: Every DMDC variant axis, Garg table sizes and store sets; the labels
#: are canonical, as ``SchemeConfig.label`` prints them.
VERDICT_LABELS = (
    "storesets", "dmdc", "dmdc-local", "dmdc-nosafe", "dmdc-queue16",
    "dmdc-local-queue4", "dmdc-table512", "dmdc-local-table128",
    "dmdc-regs2", "garg", "garg-table256",
)

#: mcf with engineered store-load conflicts: its conventional run replays.
CONFLICTS = dataclasses.replace(SUITE["mcf"].spec, name="mcf-conflicts",
                                conflict_per_kinstr=5.0)


def _point(machine, label, workload="gzip", seed=1, budget=BUDGET):
    return _Point(machine.with_scheme(SchemeConfig.from_label(label)),
                  workload, budget, seed)


def _assert_equal_alone(points, batch):
    for point, result in zip(points, batch):
        alone = run_alone(point)
        assert result.to_dict() == alone.to_dict(), point.config.scheme.label()


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("machine", ("config1", "config2"))
def test_lanes_equal_lone_runs(runs, machine, seed):
    config = {"config1": CONFIG1, "config2": CONFIG2}[machine]
    labels = ("conventional",) + VERDICT_LABELS
    points = [_point(config, label, seed=seed) for label in labels]
    batch = run_many(points)
    assert batch[0].counters["replays"] == 0
    assert runs[0] == ("conventional", "soa")
    kernels = dict(runs[1:len(labels)])
    assert set(kernels.values()) <= {"lane", "fork"}
    assert "lane" in kernels.values()  # not vacuous
    for label, kernel in kernels.items():
        # Only a point whose own run replays leaves the lane.
        replays = batch[labels.index(label)].counters["replays"]
        assert (kernel == "fork") == (replays > 0), label
    _assert_equal_alone(points, batch)


def test_sq_filter_points_share_the_sq_filter_host(runs):
    labels = ("conventional-sqfilter", "dmdc-sqfilter", "garg-sqfilter",
              "dmdc-local-sqfilter", "dmdc")
    points = [_point(CONFIG2, label) for label in labels]
    batch = run_many(points)
    assert runs[0] == ("conventional-sqfilter", "soa")
    assert ("dmdc", "soa") in runs  # no host of its own in this batch
    assert ("dmdc-sqfilter", "lane") in runs
    _assert_equal_alone(points, batch)


def test_a_filter_point_hosts_when_there_is_no_conventional_one(runs):
    labels = ("dmdc", "bloom", "storesets", "yla", "garg")
    points = [_point(CONFIG2, label) for label in labels]
    batch = run_many(points)
    assert runs[:2] == [("bloom", "soa"), ("yla", "lane")]
    assert ("storesets", "lane") in runs and ("dmdc", "lane") in runs
    _assert_equal_alone(points, batch)


def test_a_host_with_replays_sends_every_verdict_point_to_its_kernel(runs):
    labels = ("conventional",) + VERDICT_LABELS
    points = [_point(CONFIG2, label, workload=CONFLICTS) for label in labels]
    batch = run_many(points)
    assert batch[0].counters["replays"] > 0
    assert runs == [(label, "soa") for label in labels]
    _assert_equal_alone(points, batch)


def test_a_diverging_lane_steps_its_own_kernel(runs, monkeypatch):
    verdicts = []
    walks = []
    checkpoint_walks = []

    def spy(*args, **kwargs):
        verdicts.append(walk.walk_tail(*args, **kwargs))
        return verdicts[-1]

    def walk_spy(host, processors):
        lanes = walk_lanes(host, processors)
        walks.append([lane.divergence for lane in lanes])
        return lanes

    walked = walk._walk

    def checkpoint_spy(host, processors, lanes, t0, leave):
        walked(host, processors, lanes, t0, leave)
        if leave:
            checkpoint_walks.append([lane.checkpoint.cycle for lane in lanes])

    monkeypatch.setattr("repro.sim.processor.walk_tail", spy)
    monkeypatch.setattr("repro.sim.runner.walk_lanes", walk_spy)
    monkeypatch.setattr(walk, "_walk", checkpoint_spy)
    points = [_point(CONFIG2, label, workload="mcf", seed=41, budget=4_000)
              for label in ("conventional", "dmdc")]
    host, lane = run_many(points)
    assert host.counters["replays"] == 0
    assert lane.counters["replays"] > 0
    # The walk ran and stopped the lane at a verdict; one checkpoint
    # walk, up to the fork cycle, rebuilt the lane's scheme there, and no
    # tail was there to replay.
    assert len(walks) == 1 and walks[0][0] is not None
    assert checkpoint_walks == [[walks[0][0]]]
    assert verdicts == []
    assert runs == [("conventional", "soa"), ("dmdc", "fork")]
    _assert_equal_alone(points, (host, lane))


def test_a_lone_verdict_point_steps_one_unrecorded_loop(runs, monkeypatch):
    kernels = []
    original = SoaKernel.run

    def counting_run(kernel, target, max_cycles):
        kernels.append(kernel)
        return original(kernel, target, max_cycles)

    monkeypatch.setattr(SoaKernel, "run", counting_run)
    run_many([_point(CONFIG2, "dmdc")])
    assert runs == [("dmdc", "soa")]
    assert len(kernels) == 1 and kernels[0].events is None


def _recorded_host():
    setup = SetupBatch()
    trace, ident = setup.trace(SUITE["gzip"], BUDGET + 2_000)
    host = Processor(CONFIG2, trace, seed=1)
    host.record_events = True
    setup.prewarm(host, ident)
    host.run(BUDGET)
    assert host.recorded.squash_free
    return trace, host.recorded


@pytest.mark.parametrize("bad, message", [
    ("squash", r"verdict lane dmdc met a squash in its host's log"),
    ("victim", r"verdict lane dmdc met a squash in its host's log"),
    ("past-trace", r"verdict lane dmdc retired seq \d+ past the end"),
    ("total", r"verdict lane dmdc retired \d+ instructions, but its host "
              r"committed \d+"),
])
def test_a_malformed_log_fails_loudly(bad, message):
    trace, host = _recorded_host()
    events = list(host.events)
    committed = host.committed
    if bad == "squash":
        events[:0] = [EV_SQUASH, 0, 0]
    elif bad == "victim":
        events[:0] = [EV_STORE_VICTIM, 0, 0, 0]
    elif bad == "past-trace":
        events[:0] = [EV_COMMITS, 0, len(trace) + 1]
    else:
        committed += 1
    lane = Processor(CONFIG2.with_scheme(SchemeConfig.from_label("dmdc")), trace)
    lane.replay_from = host._replace(events=events, committed=committed)
    with pytest.raises(SimulationError, match=message):
        lane.run(BUDGET)


def test_lanes_own_their_results(runs):
    labels = ("conventional", "dmdc", "garg", "storesets")
    results = run_many([_point(CONFIG2, label, workload="equake")
                        for label in labels])
    assert [kernel for _, kernel in runs] == ["soa", "lane", "lane", "lane"]
    for attr in ("counters", "window_instrs", "window_loads",
                 "window_safe_loads", "window_unsafe_stores"):
        assert len({id(getattr(result, attr)) for result in results}) == 4, attr
    host, dmdc, garg, storesets = results
    commits = host.counters["commit.loads"]
    dmdc.counters.bump("commit.loads")
    garg.counters["stores.resolved"] = -1
    storesets.window_instrs.add(3)
    assert host.counters["commit.loads"] == commits
    assert host.counters["stores.resolved"] > 0
    assert host.window_instrs.count == 0


def test_the_replay_is_a_lint_hot_path():
    assert "_Walk.run" in HOT_FUNCTIONS["repro/sim/walk.py"]
    src = ("class _Walk:\n"
           "    def run(self):\n"
           "        self.lanes[0].scheme.stats.bump('x')\n"
           "        return []\n")
    found = sorted(v.rule_id for v in lint_source(src, path="src/repro/sim/walk.py"))
    assert found == ["REPRO004", "REPRO005"]
