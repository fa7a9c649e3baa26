"""A resumable, copyable kernel, and verdict lanes forked from it.

``SoaKernel.run`` stops at a cycle boundary with every local written
back, and a resumed run continues it; a :class:`Snapshot` copies a
stopped machine.  A verdict lane whose replay of its host's log reaches
a timing-changing verdict at cycle *D* restores the conventional
machine at or before *D* (``kernel_used == "fork"``), which the setup
memo keeps, and resumes its own kernel there instead of stepping from
cycle 0.

These tests pin the contracts:

* stopping at random cycles and resuming equals the uninterrupted run,
  over the nine-label matrix and the coherent rows;
* continuing a copy equals continuing the original;
* every diverging point of the ``sweep-matrix`` shape equals its lone
  run on a cold memo, a warm memo and under another seed, including a
  lane that diverges before the only kept snapshot, and with the
  invalidation injector on;
* a fork whose prefix disagrees with the host's log fails loudly.

A failing fork check names the first cycle where the fork leaves its
lone run (``tests/divergence.py``).
"""

import copy
import random

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX as SCHEMES
from repro.errors import SimulationError
from repro.sim.config import CONFIG2, SCHEME_LABELS, SchemeConfig
from repro.sim.fork import LaneForks
from repro.sim.processor import Processor
from repro.sim.runner import TRACE_TAIL_SLACK, _Point, run_many
from repro.sim.setup_memo import SETUP_MEMO, SetupBatch
from repro.sim.soa import Snapshot, SoaKernel
from repro.workloads import get_workload
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
    trace, ident = setup.trace(get_workload(workload), budget + TRACE_TAIL_SLACK)
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
    """Every forked point of ``batch`` equals its lone run; returns the
    forked points."""
    by_point = {(label, workload): (kernel, host)
                for label, workload, kernel, _, host in routes}
    forked = []
    for point, result in zip(points, batch):
        kernel, host = by_point[(point.config.scheme.label(), point.workload)]
        if kernel != "fork":
            continue
        forked.append(point)
        alone = _lone(point)
        if result.to_dict() != alone.to_dict():
            pytest.fail(explain_fork(point, host, alone.cycles))
    return forked


def test_sweep_matrix_forks_equal_lone_runs_cold_warm_and_reseeded(routes):
    def sweep(seed):
        points = [_point(label, workload, seed)
                  for label in SCHEME_LABELS for workload in SWEEP_WORKLOADS]
        del routes[:]
        batch = run_many(points)
        return points, batch, list(routes)

    points, batch, seen = sweep(1)
    forked = _assert_forks_equal_lone(points, batch, seen)
    assert len(forked) >= 5  # the DMDC variants on mcf and twolf, garg
    cold = SETUP_MEMO.stats()
    assert cold["forks"] == len(forked) and cold["snapshots"] >= 3
    # The cold batch stepped one prefix per diverging group; now every
    # divergence cycle has its snapshot.
    for seed in (1, 2):
        before = SETUP_MEMO.stats()
        points, batch, seen = sweep(seed)
        again = _assert_forks_equal_lone(points, batch, seen)
        assert ({(p.config.scheme.label(), p.workload) for p in again}
                == {(p.config.scheme.label(), p.workload) for p in forked})
        stats = SETUP_MEMO.stats()
        # Steady state: no point steps a loop from cycle 0, and every
        # fork restores a snapshot kept at its own divergence cycle.
        assert all(kernel in ("lane", "fork") for _, _, kernel, _, _ in seen)
        assert stats["forks"] - before["forks"] == len(forked)
        assert stats["snapshot_hits"] - before["snapshot_hits"] == len(forked)
        assert stats["snapshots"] == cold["snapshots"]


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


def test_a_fork_that_disagrees_with_the_log_fails_loudly(monkeypatch):
    real = LaneForks.snapshot

    def off_by_one(forks, cycle, target, max_cycles):
        snapshot = copy.copy(real(forks, cycle, target, max_cycles))
        snapshot.committed += 1
        return snapshot

    monkeypatch.setattr(LaneForks, "snapshot", off_by_one)
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
