"""Tier-1 tests for the shard pool (PR: sharded service backend).

The routing invariant under test: **one content key -> one shard,
always**.  Everything else — shard-local coalescing, atomic cross-shard
sweep admission, per-shard metrics, adaptive Retry-After, and response
bit-identity across shard counts — follows from it.
"""

import threading

import pytest

from repro.exec.engine import EngineStats
from repro.exec.options import EngineOptions
from repro.service import (
    Draining,
    MicroBatcher,
    Saturated,
    ServiceClient,
    ServiceConfig,
    ServiceMetrics,
    Shard,
    ShardPool,
    create_server,
    parse_run_payload,
    shard_for_key,
)

BUDGET = 600


def make_request(seed: int = 1, scheme: str = "conventional",
                 workload: str = "gzip", instructions: int = BUDGET):
    return parse_run_payload({
        "workload": workload, "scheme": scheme,
        "instructions": instructions, "seed": seed,
    })


class StallEngine:
    """Engine stub whose ``run`` blocks until the test opens the gate."""

    def __init__(self, result=None) -> None:
        self.gate = threading.Event()
        self.stats = EngineStats()
        self._result = result

    def run(self, requests):
        assert self.gate.wait(timeout=30.0), "test never opened the gate"
        self.stats.executed += len(requests)
        return [self._result for _ in requests]

    def memoized(self, key):
        # Nothing is ever memoized, so every batch waits out the window.
        return False


def make_stub_pool(count: int, max_queue: int = 4,
                   batch_window: float = 5.0) -> ShardPool:
    """A pool of ``count`` shards over stub engines, built by hand (the
    ``build`` classmethod rightly refuses a shared engine across shards)."""
    shards = []
    for index in range(count):
        engine = StallEngine()
        metrics = ServiceMetrics()
        batcher = MicroBatcher(engine, max_queue=max_queue,
                               batch_window=batch_window, metrics=metrics,
                               name=f"repro-batcher-{index}")
        shards.append(Shard(index, engine, batcher, metrics))
    return ShardPool(shards)


def open_gates_and_close(pool: ShardPool) -> None:
    for shard in pool.shards:
        shard.engine.gate.set()
    pool.close(timeout=5.0)


def seeds_for_shard(pool: ShardPool, index: int, count: int,
                    start: int = 0) -> list:
    """The first ``count`` seeds whose content keys route to shard ``index``."""
    seeds, seed = [], start
    while len(seeds) < count:
        if pool.route(make_request(seed=seed).cache_key()) == index:
            seeds.append(seed)
        seed += 1
    return seeds


class TestRouting:
    def test_shard_for_key_is_deterministic_and_in_range(self):
        keys = [make_request(seed=seed).cache_key() for seed in range(64)]
        for shards in (1, 2, 3, 4, 7):
            placements = [shard_for_key(key, shards) for key in keys]
            assert placements == [shard_for_key(key, shards) for key in keys]
            assert all(0 <= index < shards for index in placements)
        assert all(shard_for_key(key, 1) == 0 for key in keys)
        # 64 uniform sha256 keys over 4 shards: every shard is populated.
        assert set(shard_for_key(key, 4) for key in keys) == {0, 1, 2, 3}

    def test_build_refuses_shared_engine_across_shards(self):
        with pytest.raises(ValueError, match="one shard"):
            ShardPool.build(2, EngineOptions(cache_enabled=False),
                            max_queue=8, max_batch=8, batch_window=0.01,
                            engine=StallEngine())
        with pytest.raises(ValueError, match="positive"):
            ShardPool.build(0, EngineOptions(cache_enabled=False),
                            max_queue=8, max_batch=8, batch_window=0.01)

    def test_coalescing_stays_on_the_home_shard(self):
        pool = make_stub_pool(2)
        try:
            request = make_request(seed=seeds_for_shard(pool, 1, 1)[0])
            home = pool.route(request.cache_key())
            first = pool.submit(request)
            second = pool.submit(request)
            assert first is second
            assert pool.shards[home].metrics.received == 2
            assert pool.shards[home].metrics.coalesced_inflight == 1
            other = pool.shards[1 - home].metrics
            assert other.received == 0
            # The aggregate view folds both shards.
            assert pool.metrics.received == 2
            assert pool.metrics.coalesced_inflight == 1
        finally:
            open_gates_and_close(pool)


class TestSweepAdmission:
    def test_cross_shard_sweep_is_all_or_nothing(self):
        pool = make_stub_pool(2, max_queue=2)
        try:
            # Fill shard 0 to its bound with two distinct in-flight keys.
            shard0_seeds = seeds_for_shard(pool, 0, 3)
            for seed in shard0_seeds[:2]:
                pool.submit(make_request(seed=seed))
            overflow = shard0_seeds[2]
            roomy = seeds_for_shard(pool, 1, 1)[0]
            # One point fits (shard 1 is empty), one does not (shard 0 is
            # full): the whole sweep must bounce with nothing admitted.
            with pytest.raises(Saturated, match="shard 0"):
                pool.submit_many([make_request(seed=overflow),
                                  make_request(seed=roomy)])
            assert pool.shards[1].depth() == (0, 0)
            assert pool.shards[0].metrics.rejected_saturation == 1
            assert pool.shards[1].metrics.rejected_saturation == 1
            # A sweep that coalesces onto in-flight keys still fits.
            tickets = pool.submit_many([make_request(seed=shard0_seeds[0]),
                                        make_request(seed=roomy)])
            assert len(tickets) == 2
        finally:
            open_gates_and_close(pool)

    def test_sweep_tickets_come_back_in_request_order(self):
        pool = make_stub_pool(3, max_queue=8)
        try:
            seeds = [seeds_for_shard(pool, index, 1)[0] for index in (2, 0, 1)]
            requests = [make_request(seed=seed) for seed in seeds]
            tickets = pool.submit_many(requests)
            assert len(tickets) == 3
            # Resubmitting the same points coalesces ticket-for-ticket,
            # proving the order mapping key -> ticket held.
            again = pool.submit_many(requests)
            assert all(a is b for a, b in zip(tickets, again))
        finally:
            open_gates_and_close(pool)

    def test_draining_pool_rejects_everywhere(self):
        pool = make_stub_pool(2)
        for shard in pool.shards:
            shard.engine.gate.set()
        try:
            assert pool.drain(timeout=5.0)
            assert pool.draining
            with pytest.raises(Draining):
                pool.submit(make_request(seed=1))
            with pytest.raises(Draining):
                pool.submit_many([make_request(seed=2), make_request(seed=3)])
        finally:
            pool.close(timeout=5.0)


class TestRetryAfterHint:
    def _pool_with(self, depth, rate):
        pool = make_stub_pool(1)
        pool.depth = lambda: depth
        merged = ServiceMetrics()
        merged.drain_rate = lambda now=None, window=None: rate
        pool.merged_metrics = lambda: merged
        return pool

    def test_empty_queue_hints_the_floor(self):
        pool = self._pool_with((0, 0), 100.0)
        try:
            assert pool.retry_after_hint() == 1
        finally:
            open_gates_and_close(pool)

    def test_no_drain_evidence_hints_the_floor(self):
        pool = self._pool_with((10, 2), 0.0)
        try:
            assert pool.retry_after_hint() == 1
        finally:
            open_gates_and_close(pool)

    def test_hint_is_depth_over_rate_rounded_up(self):
        pool = self._pool_with((7, 3), 2.0)  # 10 points at 2/s -> 5s
        try:
            assert pool.retry_after_hint() == 5
        finally:
            open_gates_and_close(pool)

    def test_hint_clamps_to_the_ceiling(self):
        pool = self._pool_with((1000, 0), 0.5)
        try:
            assert pool.retry_after_hint() == 60
        finally:
            open_gates_and_close(pool)


class TestShardedServer:
    def _start(self, shards: int):
        config = ServiceConfig(
            port=0, batch_window=0.01, max_queue=64,
            request_timeout=60.0, drain_timeout=60.0,
            engine_options=EngineOptions(cache_enabled=False, max_workers=1),
            shards=shards,
            offload=False,  # in-process execution keeps the test fast
        )
        server = create_server(config)
        thread = threading.Thread(target=server.serve_forever,
                                  name="test-serve", daemon=True)
        thread.start()
        client = ServiceClient(port=server.server_address[1], timeout=60.0)
        return server, thread, client

    def _stop(self, server, thread):
        server.shutdown()
        server.batcher.close(timeout=5.0)
        thread.join(timeout=5.0)
        server.server_close()

    def test_metrics_grows_per_shard_blocks(self):
        server, thread, client = self._start(shards=2)
        try:
            client.run("gzip", instructions=BUDGET, seed=1)
            snapshot = client.metrics()
            assert set(snapshot) >= {"service", "batching", "latency",
                                     "engine", "shards"}
            assert [entry["shard"] for entry in snapshot["shards"]] == [0, 1]
            for entry in snapshot["shards"]:
                assert set(entry) >= {"shard", "service", "batching",
                                      "latency", "simulator", "engine"}
            # Aggregate totals equal the per-shard sums.
            assert snapshot["service"]["received"] == sum(
                entry["service"]["received"] for entry in snapshot["shards"])
            assert snapshot["engine"]["executed"] == sum(
                entry["engine"]["executed"] for entry in snapshot["shards"])
        finally:
            self._stop(server, thread)

    def test_accounting_lands_on_the_predicted_shard(self):
        server, thread, client = self._start(shards=2)
        try:
            expected = [0, 0]
            for seed in range(6):
                request = make_request(seed=seed)
                expected[shard_for_key(request.cache_key(), 2)] += 1
                client.run("gzip", instructions=BUDGET, seed=seed)
            snapshot = client.metrics()
            observed = [entry["service"]["received"]
                        for entry in snapshot["shards"]]
            assert observed == expected
            simulated = [entry["simulator"]["runs"]
                         for entry in snapshot["shards"]]
            assert simulated == expected
        finally:
            self._stop(server, thread)

    def test_responses_bit_identical_across_shard_counts(self):
        """The tentpole's correctness bar: sharding must be invisible —
        the same design points answer byte-for-byte the same whether one
        shard or several served them."""
        points = [{"workload": workload, "scheme": scheme,
                   "instructions": BUDGET, "seed": 7}
                  for workload in ("gzip", "mcf")
                  for scheme in ("conventional", "dmdc")]
        by_shards = {}
        for shards in (1, 2):
            server, thread, client = self._start(shards=shards)
            try:
                by_shards[shards] = [client.run_point(point, counters=True)
                                     for point in points]
            finally:
                self._stop(server, thread)
        assert by_shards[1] == by_shards[2]

    def test_sweep_spans_shards_and_preserves_order(self):
        server, thread, client = self._start(shards=2)
        try:
            body = client.sweep(
                points=[{"seed": seed} for seed in range(5)],
                defaults={"workload": "gzip", "instructions": BUDGET},
            )
            assert body["count"] == 5
            assert [point["seed"] for point in body["points"]] == list(range(5))
            snapshot = client.metrics()
            assert sum(entry["service"]["received"]
                       for entry in snapshot["shards"]) == 5
        finally:
            self._stop(server, thread)
