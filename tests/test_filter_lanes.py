"""Filter lanes: YLA and Bloom points replay one recorded conventional run.

A sound search filter only skips LQ searches that would find no victim,
so it never changes timing.  ``run_many`` therefore groups conventional,
YLA and Bloom points that share trace, budget and machine, and, only
while invalidations are injected, seed: the group steps the cycle loop
once, with event recording on, and every later filter point replays the
log (``kernel_used == "lane"``), drawing its own wrong-path loads.  These
tests pin that a lane's result is bit-identical to the same point run
alone on the kernel from a cold setup memo (where it filters inline) and
to the object-loop reference, that the host always runs first, that the
replay is an oracle (a filter that calls a store with a victim safe
fails the run), and that lanes never share result objects with their
host.  Every test starts from an empty memo, so the routes it asserts
are its own batches'.
"""

import dataclasses

import pytest

from repro.analysis.lint import lint_source
from repro.analysis.lint.rules import HOT_FUNCTIONS
from repro.core.schemes.conventional import YlaFilteredScheme
from repro.errors import SimulationError
from repro.sim.config import CONFIG1, CONFIG2, SchemeConfig
from repro.errors import OrderingViolationMissed
from repro.sim.runner import _Point, run_many, workload_trace
from repro.sim.setup_memo import SETUP_MEMO
from repro.workloads import SUITE
from tests.reference_loop import run_reference

BUDGET = 1_500

#: mcf with engineered store-load conflicts, so conventional searches
#: find victims and the replay oracle has something to catch.
CONFLICTS = dataclasses.replace(SUITE["mcf"].spec, name="mcf-conflicts",
                                conflict_per_kinstr=5.0)

LANE_LABELS = ("yla-regs1", "yla-regs2-gran64", "yla-gran128",
               "bloom-entries16", "bloom-entries64", "bloom-entries4096")


def _point(machine, label, workload=CONFLICTS, seed=1):
    return _Point(machine.with_scheme(SchemeConfig.from_label(label)),
                  workload, BUDGET, seed)


pytestmark = pytest.mark.usefixtures("cold_memo")


def run_alone(point):
    """``point`` alone on an empty setup memo: its own kernel run, never
    a lane of a host run an earlier batch left in the memo."""
    SETUP_MEMO.clear()
    return run_many([point])[0]


def _machines():
    coherent = CONFIG2.with_overrides(invalidation_rate=0.0)
    return {
        "config1": (CONFIG1, ""),
        "config2-coherent-inv0": (coherent, "-coherent"),
        "config2-coherent-inv100": (
            CONFIG2.with_overrides(invalidation_rate=100.0), "-coherent"),
    }


def _with_suffix(label, suffix):
    """``label`` with a flag suffix in canonical position (after the kind)."""
    kind, _, rest = label.partition("-")
    return kind + suffix + ("-" + rest if rest else "")


@pytest.mark.parametrize("machine", sorted(_machines()))
def test_lanes_equal_lone_runs(runs, machine):
    config, suffix = _machines()[machine]
    labels = ["conventional" + suffix] + [_with_suffix(label, suffix)
                                          for label in LANE_LABELS]
    points = [_point(config, label) for label in labels]
    batch = run_many(points)
    assert runs == [(labels[0], "soa")] + [(label, "lane") for label in labels[1:]]
    host = batch[0]
    assert host.counters["replay.execution_time"] > 0  # the oracle had victims
    if machine.endswith("inv100"):
        assert host.counters["inv.injected"] > 0
    for point, result in zip(points, batch):
        alone = run_alone(point)
        assert result.to_dict() == alone.to_dict(), point.config.scheme.label()
    # Only the lone runs stepped the loop again (each filters inline).
    assert [kernel for _, kernel in runs[len(labels):]] == ["soa"] * len(labels)


def test_lane_before_its_host_still_replays(runs):
    points = [_point(CONFIG2, "yla"), _point(CONFIG2, "dmdc"),
              _point(CONFIG2, "conventional"), _point(CONFIG2, "bloom")]
    batch = run_many(points)
    assert runs == [("conventional", "soa"), ("yla", "lane"),
                    ("bloom", "lane"), ("dmdc", "soa")]
    assert [result.scheme_name for result in batch] == [
        "yla", "dmdc-global", "conventional", "bloom"]
    for point, result in zip(points, batch):
        assert result.to_dict() == run_alone(point).to_dict()


def test_lanes_without_a_conventional_point_share_the_first(runs):
    """The first filter point hosts; a point of another seed joins its
    group (the seed draws only wrong-path loads, which a lane draws
    itself)."""
    points = [_point(CONFIG2, "bloom"), _point(CONFIG2, "yla"),
              _point(CONFIG2, "yla", seed=2)]
    batch = run_many(points)
    assert runs == [("bloom", "soa"), ("yla", "lane"), ("yla", "lane")]
    assert batch[1].counters["wrongpath.loads"] != batch[2].counters["wrongpath.loads"]
    for point, result in zip(points, batch):
        assert result.to_dict() == run_alone(point).to_dict()


def test_unsound_filter_fails_the_run(runs, monkeypatch):
    """A filter that calls every store safe is caught, as a lane, at the
    first store whose recorded search found a victim; alone it filters
    inline, and the kernel's ground-truth check stops the run when the
    skipped search's premature load retires."""
    monkeypatch.setattr(YlaFilteredScheme, "_filter_safe",
                        lambda self, addr, seq: True)
    pattern = r"filter lane yla-regs1 called store seq=\d+ addr=0x[0-9a-f]+ safe"
    with pytest.raises(SimulationError, match=pattern):
        run_many([_point(CONFIG2, "conventional"), _point(CONFIG2, "yla-regs1")])
    assert runs == [("conventional", "soa")]
    with pytest.raises(OrderingViolationMissed, match="under scheme yla"):
        run_alone(_point(CONFIG2, "yla-regs1"))


def test_lanes_own_their_results(runs):
    host, yla, bloom = run_many([_point(CONFIG2, label)
                                 for label in ("conventional", "yla", "bloom")])
    results = (host, yla, bloom)
    for attr in ("counters", "window_instrs", "window_loads",
                 "window_safe_loads", "window_unsafe_stores"):
        assert len({id(getattr(result, attr)) for result in results}) == 3, attr
    assert len({id(result) for result in results}) == 3
    searches = host.counters["lq.searches"]
    yla.counters["lq.searches"] = -1
    bloom.counters.bump("commit.loads")
    assert host.counters["lq.searches"] == searches
    assert host.counters["commit.loads"] == yla.counters["commit.loads"]


def test_no_lanes_on_the_object_loop(runs):
    """The object-loop reference steps every point itself, and the
    batch, whose filter points are lanes, agrees with it."""
    points = [_point(CONFIG2, label) for label in ("conventional", "yla", "bloom")]
    batch = [result.to_dict() for result in run_many(points)]
    assert runs == [("conventional", "soa"), ("yla", "lane"), ("bloom", "lane")]
    trace = workload_trace(CONFLICTS, BUDGET)
    reference = [run_reference(point.config, trace, BUDGET,
                               point.seed).to_dict()
                 for point in points]
    assert reference == batch


def test_the_replay_is_a_lint_hot_path():
    assert "ConventionalScheme.replay_lane" in HOT_FUNCTIONS[
        "repro/core/schemes/conventional.py"]
    src = ("class ConventionalScheme:\n"
           "    def replay_lane(self, events):\n"
           "        self.stats.bump('x')\n"
           "        return []\n")
    found = sorted(v.rule_id for v in lint_source(
        src, path="src/repro/core/schemes/conventional.py"))
    assert found == ["REPRO004", "REPRO005"]
