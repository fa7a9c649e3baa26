"""Filter lanes: YLA and Bloom points replay one recorded conventional run.

A sound search filter only skips LQ searches that would find no victim,
so it never changes timing.  ``run_many`` therefore groups conventional,
YLA and Bloom points that share trace, seed, budget and machine: the
group steps the cycle loop once, with event recording on, and every
later filter point replays the log (``kernel_used == "lane"``).  These
tests pin that a lane's result is bit-identical to the same point run
alone, that the host always runs first, that the replay is an oracle
(a filter that calls a store with a victim safe fails the run), and that
lanes never share result objects with their host.
"""

import dataclasses

import pytest

from repro.core.schemes.conventional import YlaFilteredScheme
from repro.errors import SimulationError
from repro.sim.config import CONFIG1, CONFIG2, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import _Point, run_many
from repro.sim.soa import NO_SOA_ENV, SoaKernel
from repro.workloads import SUITE

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


@pytest.fixture
def runs(monkeypatch):
    """Every ``Processor.run`` as (scheme label, kernel used), in order."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    seen = []
    original = Processor.run

    def spy(processor, *args, **kwargs):
        result = original(processor, *args, **kwargs)
        seen.append((processor.config.scheme.label(), processor.kernel_used))
        return result

    monkeypatch.setattr(Processor, "run", spy)
    return seen


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
        alone = run_many([point])[0]
        assert result.to_dict() == alone.to_dict(), point.config.scheme.label()
    # Only the lone runs stepped the loop again (each records and replays).
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
        assert result.to_dict() == run_many([point])[0].to_dict()


def test_lanes_without_a_conventional_point_share_the_first(runs):
    points = [_point(CONFIG2, "bloom"), _point(CONFIG2, "yla"),
              _point(CONFIG2, "yla", seed=2)]
    batch = run_many(points)
    assert runs == [("bloom", "soa"), ("yla", "lane"), ("yla", "soa")]
    for point, result in zip(points, batch):
        assert result.to_dict() == run_many([point])[0].to_dict()


def test_unsound_filter_fails_the_run(runs, monkeypatch):
    """A filter that calls every store safe is caught at the first store
    whose recorded search found a victim, lone or as a lane."""
    monkeypatch.setattr(YlaFilteredScheme, "_filter_safe",
                        lambda self, addr, seq: True)
    pattern = r"filter lane yla-regs1 called store seq=\d+ addr=0x[0-9a-f]+ safe"
    with pytest.raises(SimulationError, match=pattern):
        run_many([_point(CONFIG2, "conventional"), _point(CONFIG2, "yla-regs1")])
    assert runs == [("conventional", "soa")]
    with pytest.raises(SimulationError, match=pattern):
        run_many([_point(CONFIG2, "yla-regs1")])


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


def test_no_lanes_on_the_object_loop(runs, monkeypatch):
    points = [_point(CONFIG2, label) for label in ("conventional", "yla", "bloom")]
    on_kernel = [result.to_dict() for result in run_many(points)]
    runs.clear()
    monkeypatch.setenv(NO_SOA_ENV, "1")
    loops = []
    monkeypatch.setattr(SoaKernel, "run", lambda *args: loops.append(args))
    batch = run_many(points)
    assert runs == [("conventional", "object"), ("yla", "object"),
                    ("bloom", "object")]
    assert loops == []
    assert [result.to_dict() for result in batch] == on_kernel
