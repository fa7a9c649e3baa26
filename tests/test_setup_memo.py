"""The process-wide setup memo (:mod:`repro.sim.setup_memo`).

Contract: memoizing traces and warm front ends is invisible in results.
A point run on a cold memo, on a warm memo, or alone in a fresh process
gives the same ``SimulationResult.to_dict()``; a run on a restored warm
front end cannot leak back into the memo; concurrent batches agree; and
eviction under the micro-op bound only costs a regeneration.
"""

import dataclasses
import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import TraceError
from repro.exec.engine import EngineStats, ExecutionEngine
from repro.exec.request import RunRequest
from repro.sim import setup_memo
from repro.sim.config import CONFIGS, CONFIG2, SCHEME_LABELS, SchemeConfig
from repro.sim.runner import TRACE_TAIL_SLACK, run_many, run_workload
from repro.sim.setup_memo import SETUP_MEMO, FrontEnd, front_end_geometry, trace_key
from repro.workloads import SUITE, SyntheticWorkload, get_workload

from tests.test_service import start_server, stop_server

REPO_ROOT = Path(__file__).resolve().parents[1]
BUDGET = 800
WORKLOADS = ("gzip", "mcf", "equake")

#: Runs every matrix point in a fresh interpreter, emptying the memo
#: before each one, and prints one digest per point.
_FRESH_PROCESS = """
import hashlib, json, sys
from repro.sim.config import CONFIGS, SCHEME_LABELS, SchemeConfig
from repro.sim.runner import run_workload
from repro.sim.setup_memo import SETUP_MEMO
from repro.workloads import get_workload
budget, workloads = int(sys.argv[1]), sys.argv[2].split(",")
for config in CONFIGS:
    for label in SCHEME_LABELS:
        for name in workloads:
            SETUP_MEMO.clear()
            result = run_workload(config.with_scheme(SchemeConfig.from_label(label)),
                                  get_workload(name), max_instructions=budget, seed=5)
            blob = json.dumps(result.to_dict(), sort_keys=True).encode()
            print(hashlib.sha256(blob).hexdigest())
"""


def _digest(result):
    blob = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _matrix():
    return [RunRequest(config.with_scheme(SchemeConfig.from_label(label)),
                       name, BUDGET, 5)
            for config in CONFIGS for label in SCHEME_LABELS for name in WORKLOADS]


@pytest.fixture(autouse=True)
def empty_memo():
    SETUP_MEMO.clear()
    yield
    SETUP_MEMO.clear()


def test_cold_and_warm_memo_match_fresh_process():
    """All 9 labels x config1/2/3 x 3 workloads: a cold batch, a warm
    batch and warm solo runs equal a fresh process running each point
    alone on an empty memo."""
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, str(BUDGET), ",".join(WORKLOADS)],
        capture_output=True, text=True, timeout=600, check=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""})
    fresh = proc.stdout.split()
    requests = _matrix()
    assert len(fresh) == len(requests) == 81

    cold = [_digest(r) for r in run_many(requests)]
    assert SETUP_MEMO.stats()["trace_misses"] == len(WORKLOADS)
    warm = [_digest(r) for r in run_many(requests)]
    assert SETUP_MEMO.stats()["trace_hits"] == len(WORKLOADS)
    solo = [_digest(run_workload(r.config, r.resolve_workload(),
                                 max_instructions=r.budget, seed=r.seed))
            for r in requests]
    assert cold == fresh
    assert warm == fresh
    assert solo == fresh


def _state(front):
    """A deep, comparable rendering of a warm front end."""
    return repr([front.predictor[:4], sorted(front.predictor[4].items()),
                 front.l1i.tolist(), front.l2.tolist()])


def test_restored_front_end_does_not_leak_into_the_memo():
    """Two runs on the same restored warm front end agree with the run
    that captured it, and running leaves the memoized copy untouched."""
    config = CONFIG2.with_scheme(SchemeConfig.from_label("dmdc"))
    workload = get_workload("mcf")
    first = run_workload(config, workload, max_instructions=BUDGET, seed=3)
    key = trace_key(workload, BUDGET + TRACE_TAIL_SLACK)
    geometry = front_end_geometry(config)
    front = SETUP_MEMO.front_end(key, geometry)
    assert isinstance(front, FrontEnd)
    captured = _state(front)

    second = run_workload(config, workload, max_instructions=BUDGET, seed=3)
    third = run_workload(config, workload, max_instructions=BUDGET, seed=3)
    assert first.to_dict() == second.to_dict() == third.to_dict()
    assert SETUP_MEMO.front_end(key, geometry) is front
    assert _state(front) == captured


def test_concurrent_batches_agree():
    """Two threads running overlapping batches on an empty memo (so they
    race to generate and prewarm the shared traces) get the same results
    as a sequential run."""
    requests = [RunRequest(CONFIG2.with_scheme(SchemeConfig.from_label(label)),
                           name, BUDGET, 9)
                for label in ("conventional", "dmdc", "value")
                for name in ("gzip", "mcf")]
    views = (requests, list(reversed(requests)))
    barrier = threading.Barrier(2)
    out = [None, None]

    def worker(slot):
        barrier.wait(timeout=30)
        out[slot] = [_digest(r) for r in run_many(views[slot])]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert out[0] is not None and out[1] is not None
    assert out[0] == list(reversed(out[1]))
    SETUP_MEMO.clear()
    assert out[0] == [_digest(r) for r in run_many(requests)]


def test_eviction_under_a_tiny_bound(monkeypatch):
    """Past the micro-op bound the least recently used trace goes (with
    its warm front end); a later request regenerates it, same result."""
    length = BUDGET + TRACE_TAIL_SLACK
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", length + length // 2)
    gzip = RunRequest(CONFIG2, "gzip", BUDGET, 1)
    mcf = RunRequest(CONFIG2, "mcf", BUDGET, 1)
    first = run_many([gzip])[0]
    run_many([mcf])
    stats = SETUP_MEMO.stats()
    assert stats["trace_evictions"] == 1
    assert stats["traces"] == 1
    assert stats["retained_ops"] <= setup_memo.MAX_RETAINED_OPS
    again = run_many([gzip])[0]
    stats = SETUP_MEMO.stats()
    assert stats["trace_misses"] == 3 and stats["trace_hits"] == 0
    assert stats["warm_misses"] == 3 and stats["warm_hits"] == 0
    assert again.to_dict() == first.to_dict()


class _Log:
    """A stand-in host run: the memo charges the length of its log and
    the snapshots and forked runs kept on it."""

    def __init__(self, entries: int) -> None:
        self.events = [0] * entries
        self.snapshots = []
        self.forked = []


class _Forked:
    """A stand-in forked run: the memo charges the length of its tail."""

    def __init__(self, machine, fork_cycle: int, entries: int, fill: int = 0) -> None:
        self.machine = machine
        self.fork_cycle = fork_cycle
        self.events = [fill] * entries


def _machine(lq_size: int):
    return CONFIG2.with_overrides(lq_size=lq_size)


def test_host_runs_count_against_the_bound(monkeypatch):
    """Many large host runs kept on one hot trace evict the least
    recently used other trace, and the memo reports what it charges."""
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", 900)
    memo = setup_memo.SetupMemo()
    hot, cold = get_workload("gzip"), get_workload("mcf")
    hot_key, cold_key = trace_key(hot, 300), trace_key(cold, 300)
    memo.trace(cold_key, cold, 300)
    memo.trace(hot_key, hot, 300)
    entries = 20 * setup_memo._LOG_ENTRIES_PER_OP  # 20 ops each
    for lq_size in range(8, 28):
        memo.keep_host_run(hot_key, BUDGET, _machine(lq_size), _Log(entries))
    stats = memo.stats()
    assert stats["trace_evictions"] == 1 and stats["traces"] == 1
    assert stats["hosts"] == 20
    assert stats["retained_ops"] == 300
    assert stats["charged_ops"] == 300 + 20 * 20
    assert memo.host_run(cold_key, BUDGET, _machine(8)) is None
    assert memo.host_run(hot_key, BUDGET, _machine(8)) is not None


def test_one_hot_trace_sheds_its_least_recently_used_host_runs(monkeypatch):
    """With one trace left, host runs past the bound go oldest-used
    first, so serving many machines from one trace stays bounded."""
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", 400)
    memo = setup_memo.SetupMemo()
    workload = get_workload("gzip")
    key = trace_key(workload, 300)
    memo.trace(key, workload, 300)
    entries = 40 * setup_memo._LOG_ENTRIES_PER_OP  # 40 ops each
    memo.keep_host_run(key, BUDGET, _machine(8), _Log(entries))
    memo.keep_host_run(key, BUDGET, _machine(9), _Log(entries))
    assert memo.host_run(key, BUDGET, _machine(8)) is not None  # now MRU
    for lq_size in range(10, 40):
        memo.keep_host_run(key, BUDGET, _machine(lq_size), _Log(entries))
    stats = memo.stats()
    assert stats["traces"] == 1 and stats["trace_evictions"] == 0
    assert stats["hosts"] == 2
    assert stats["charged_ops"] == 300 + 2 * 40 <= setup_memo.MAX_RETAINED_OPS
    assert memo.host_run(key, BUDGET, _machine(39)) is not None
    assert memo.host_run(key, BUDGET, _machine(8)) is None


class _Snapshot:
    """A stand-in snapshot: the memo charges its machine words."""

    def __init__(self, cycle: int, cells: int) -> None:
        self.cycle = cycle
        self.cells = cells


def test_a_hot_trace_forked_under_many_machines_stays_within_the_bound(monkeypatch):
    """Each machine's host run keeps snapshots at its lanes' fork
    cycles; past the bound the least recently used machine goes with
    its snapshots, so the charge never exceeds the bound, and the
    snapshots kept answer by cycle."""
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", 600)
    memo = setup_memo.SetupMemo()
    workload = get_workload("gzip")
    key = trace_key(workload, 300)
    memo.trace(key, workload, 300)
    per_op = setup_memo._LOG_ENTRIES_PER_OP
    runs = {}
    for lq_size in range(8, 40):
        run = runs[lq_size] = _Log(20 * per_op)
        memo.keep_host_run(key, BUDGET, _machine(lq_size), run)
        for cycle in (300, 100, 200):
            memo.keep_snapshot(run, _Snapshot(cycle, 40 * per_op))
        assert memo.stats()["charged_ops"] <= setup_memo.MAX_RETAINED_OPS
    stats = memo.stats()
    assert (stats["traces"], stats["hosts"], stats["snapshots"]) == (1, 2, 6)
    assert stats["charged_ops"] == 300 + 2 * (20 + 3 * 40)
    assert [kept.cycle for kept in runs[39].snapshots] == [100, 200, 300]
    assert memo.fork_snapshot(runs[39], 250).cycle == 200
    assert memo.fork_snapshot(runs[39], 99) is None
    assert memo.fork_snapshot(runs[39], 300).cycle == 300
    stats = memo.stats()
    assert (stats["forks"], stats["snapshot_hits"]) == (3, 1)
    assert memo.host_run(key, BUDGET, _machine(8)) is None
    # A snapshot kept on a run the memo no longer holds is not charged.
    memo.keep_snapshot(runs[8], _Snapshot(400, per_op))
    assert memo.stats()["snapshots"] == 6
    assert memo.stats()["charged_ops"] == 300 + 2 * (20 + 3 * 40)
    # One cycle keeps one snapshot.
    memo.keep_snapshot(runs[39], _Snapshot(200, per_op))
    assert memo.stats()["snapshots"] == 6


def test_one_host_sheds_its_snapshots_before_its_run(monkeypatch):
    """With one trace and one host run left, its snapshots go first."""
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", 400)
    memo = setup_memo.SetupMemo()
    workload = get_workload("gzip")
    key = trace_key(workload, 300)
    memo.trace(key, workload, 300)
    per_op = setup_memo._LOG_ENTRIES_PER_OP
    run = _Log(20 * per_op)
    memo.keep_host_run(key, BUDGET, _machine(8), run)
    memo.keep_snapshot(run, _Snapshot(100, 50 * per_op))
    assert memo.stats()["snapshots"] == 1
    memo.keep_snapshot(run, _Snapshot(200, 50 * per_op))
    stats = memo.stats()
    assert (stats["hosts"], stats["snapshots"]) == (1, 0)
    assert stats["charged_ops"] == 320
    assert memo.host_run(key, BUDGET, _machine(8)) is run and not run.snapshots


def test_forked_runs_are_charged_evicted_and_shed_with_their_host(monkeypatch):
    """A host run's forked runs count against the bound while the memo
    holds it: at most a few per lane machine and one per distinct tail;
    they go with their host run when it is evicted, and with its
    snapshots when it is the last one left."""
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", 1_000)
    memo = setup_memo.SetupMemo()
    workload = get_workload("gzip")
    key = trace_key(workload, 300)
    memo.trace(key, workload, 300)
    per_op = setup_memo._LOG_ENTRIES_PER_OP
    run = _Log(20 * per_op)
    memo.keep_host_run(key, BUDGET, _machine(8), run)
    lane = CONFIG2.with_scheme(SchemeConfig.from_label("dmdc"))
    for fill in range(setup_memo.FORKED_RUNS_PER_MACHINE + 1):
        memo.keep_forked_run(run, _Forked(lane, 100, 10 * per_op, fill))
        assert memo.stats()["charged_ops"] <= setup_memo.MAX_RETAINED_OPS
    memo.keep_forked_run(run, _Forked(lane, 100, 10 * per_op, 1))  # kept already
    other = lane.with_scheme(SchemeConfig.from_label("garg"))
    memo.keep_forked_run(run, _Forked(other, 90, 10 * per_op))
    stats = memo.stats()
    cap = setup_memo.FORKED_RUNS_PER_MACHINE
    assert stats["forked_runs"] == cap + 1
    assert stats["charged_ops"] == 300 + 20 + (cap + 1) * 10
    # Most recently kept first; the oldest tail of the machine went.
    assert [forked.events[0] for forked in memo.forked_runs(run, lane)] == [
        cap - k for k in range(cap)]
    (garg,) = memo.forked_runs(run, other)
    memo.forked_run_hit(run, garg)
    assert run.forked[0] is garg and memo.stats()["forked_run_hits"] == 1
    # A run the memo does not hold keeps forked runs uncharged.
    loose = _Log(per_op)
    memo.keep_forked_run(loose, _Forked(lane, 100, 10 * per_op))
    assert memo.stats()["charged_ops"] == 300 + 20 + (cap + 1) * 10
    # The last host run left sheds its snapshots and forked runs first.
    memo.keep_snapshot(run, _Snapshot(100, 700 * per_op))
    stats = memo.stats()
    assert (stats["hosts"], stats["snapshots"], stats["forked_runs"]) == (1, 0, 0)
    assert stats["charged_ops"] == 320 and not run.forked
    # A host run evicted with its trace takes its forked runs along.
    memo.keep_forked_run(run, _Forked(lane, 100, 10 * per_op))
    assert memo.stats()["charged_ops"] == 330
    mcf = get_workload("mcf")
    memo.trace(trace_key(mcf, 700), mcf, 700)
    stats = memo.stats()
    assert (stats["traces"], stats["hosts"], stats["forked_runs"]) == (1, 0, 0)
    assert stats["charged_ops"] == 700 <= setup_memo.MAX_RETAINED_OPS


def test_a_forked_run_serves_a_lane_of_another_seed():
    """One seed's diverging Garg lane keeps its forked run; the next
    seed's lane of that machine replays it instead of forking, and
    ``/metrics`` reports both counts."""
    config = CONFIG2.with_scheme(SchemeConfig.from_label("garg"))
    first = run_many([RunRequest(CONFIG2, "gzip", 4_000, 1),
                      RunRequest(config, "gzip", 4_000, 1)])[1]
    stats = SETUP_MEMO.stats()
    assert (stats["forks"], stats["forked_runs"], stats["forked_run_hits"]) == (1, 1, 0)
    second = run_many([RunRequest(config, "gzip", 4_000, 2)])[0]
    stats = SETUP_MEMO.stats()
    assert (stats["forks"], stats["forked_runs"], stats["forked_run_hits"]) == (1, 1, 1)
    assert second.cycles == first.cycles
    SETUP_MEMO.clear()
    assert second.to_dict() == run_many([RunRequest(config, "gzip", 4_000, 2)])[0].to_dict()
    server, thread, client = start_server()
    try:
        memo = server.metrics_snapshot()["engine"]["setup_memo"]
    finally:
        client.close()
        stop_server(server, thread)
    assert {"forked_runs", "forked_run_hits", "forked_run_misses", "lane_walks",
            "walk_checkpoints"} <= set(memo)


def test_traces_alone_evict_where_the_op_bound_says(monkeypatch):
    """Without host runs the charge is the traces' ops, so eviction
    happens exactly where the micro-op bound alone puts it."""
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", 600)
    memo = setup_memo.SetupMemo()
    for name in ("gzip", "mcf"):
        workload = get_workload(name)
        memo.trace(trace_key(workload, 300), workload, 300)
    assert memo.stats()["trace_evictions"] == 0
    workload = get_workload("equake")
    memo.trace(trace_key(workload, 1), workload, 1)
    stats = memo.stats()
    assert stats["trace_evictions"] == 1
    assert stats["retained_ops"] == stats["charged_ops"] == 301


def test_one_batch_pins_traces_past_the_bound(monkeypatch):
    """A batch over more traces than the bound holds still generates
    each trace once: the batch pins what it has used."""
    monkeypatch.setattr(setup_memo, "MAX_RETAINED_OPS", 1)
    requests = [RunRequest(CONFIG2.with_scheme(SchemeConfig.from_label(label)),
                           name, BUDGET, 1)
                for label in ("conventional", "dmdc") for name in ("gzip", "mcf")]
    run_many(requests)
    assert SETUP_MEMO.stats()["trace_misses"] == 2


def test_generated_traces_are_frozen():
    trace = get_workload("gzip").generate(64)
    assert isinstance(trace.ops, tuple)
    with pytest.raises(TraceError, match="frozen"):
        trace.append(trace.ops[0])
    with pytest.raises(TraceError, match="frozen"):
        trace.extend(trace.ops[:2])
    with pytest.raises(AttributeError):
        trace.ops.append(trace.ops[0])  # type: ignore[attr-defined]


def test_counters_for_a_known_batch():
    """Two distinct traces over one front-end geometry: the first batch
    misses every table once per trace and records one host run per
    trace (gzip's serves both seeds), an identical second batch hits.
    There every point replays a host run: gzip's DMDC point is a
    verdict lane, which would fork rather than step from cycle 0, so no
    point asks for a warm front end, and none forks.  Each batch walks
    gzip's host log once for its lanes (mcf's host has none at first),
    and no lane has a kept tail to checkpoint for or to miss."""
    requests = [
        RunRequest(CONFIG2, "gzip", BUDGET, 1),
        RunRequest(CONFIG2.with_scheme(SchemeConfig.from_label("dmdc")), "gzip", BUDGET, 1),
        RunRequest(CONFIG2, "mcf", BUDGET, 1),
        RunRequest(CONFIG2, "gzip", BUDGET, 2),
    ]
    run_many(requests)
    stats = EngineStats.setup_memo()
    retained = sum(len(get_workload(name).generate(BUDGET + TRACE_TAIL_SLACK))
                   for name in ("gzip", "mcf"))
    # The two host runs' logs are charged on top of the traces' ops.
    assert stats.pop("charged_ops") > retained
    assert stats == {"trace_hits": 0, "trace_misses": 2, "trace_evictions": 0,
                     "warm_hits": 0, "warm_misses": 2, "host_hits": 0,
                     "host_misses": 2, "traces": 2, "hosts": 2,
                     "snapshots": 0, "snapshot_hits": 0, "forks": 0,
                     "forked_runs": 0, "forked_run_hits": 0,
                     "forked_run_misses": 0, "lane_walks": 1,
                     "walk_checkpoints": 0, "retained_ops": retained}
    run_many(requests)
    stats = EngineStats.setup_memo()
    assert (stats["lane_walks"], stats["walk_checkpoints"],
            stats["forked_run_misses"]) == (3, 0, 0)
    assert (stats["trace_hits"], stats["trace_misses"]) == (2, 2)
    assert (stats["warm_hits"], stats["warm_misses"]) == (0, 2)
    assert (stats["host_hits"], stats["host_misses"], stats["hosts"]) == (2, 2, 2)


def test_engine_execute_goes_through_the_memo():
    """The engine's per-request path is a one-element ``run_many``."""
    with ExecutionEngine(cache=None, max_workers=1) as engine:
        engine.run([RunRequest(CONFIG2, "gzip", BUDGET, 1)])
        engine.run([RunRequest(CONFIG2, "gzip", BUDGET, 2)])
    stats = EngineStats.setup_memo()
    assert (stats["trace_misses"], stats["trace_hits"]) == (1, 1)


def test_metrics_engine_block_reports_the_memo():
    server, thread, client = start_server()
    try:
        client.run("gzip", scheme="dmdc", instructions=BUDGET, seed=4)
        memo = server.metrics_snapshot()["engine"]["setup_memo"]
    finally:
        client.close()
        stop_server(server, thread)
    assert memo["trace_misses"] == 1
    assert memo["warm_misses"] == 1
    assert memo["retained_ops"] > 0


def test_trace_keys_are_the_canonical_json_built_once_per_spec():
    """A trace key is built once per distinct spec content and length,
    and is byte-equal to the canonical JSON of ``asdict(spec)`` and the
    length: for every suite workload, a custom spec (a changed scalar and
    a changed pattern weight, which must not collide with the suite's)
    and two lengths."""
    custom = dataclasses.replace(
        SUITE["gzip"].spec, name="gzip-custom", load_fraction=0.3,
        pattern_weights={**SUITE["gzip"].spec.pattern_weights, "chase": 0.2})
    workloads = list(SUITE.values()) + [SyntheticWorkload(custom)]
    assert len(SUITE) == 26
    setup_memo._TRACE_KEYS.clear()
    keys = set()
    for length in (1_000, 6_000):
        for workload in workloads:
            expected = json.dumps(
                {"spec": dataclasses.asdict(workload.spec), "length": length},
                sort_keys=True, separators=(",", ":"))
            assert trace_key(workload, length) == expected
            # A fresh workload of equal content (the engine builds one per
            # spec request) shares the key; it is built once.
            again = SyntheticWorkload(dataclasses.replace(workload.spec))
            assert trace_key(again, length) == expected
            keys.add(expected)
    assert len(keys) == len(setup_memo._TRACE_KEYS) == 2 * len(workloads)
