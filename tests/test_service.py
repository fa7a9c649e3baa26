"""Tier-1 tests for the ``repro serve`` daemon (PR: simulation service).

Covers the contract ``docs/service.md`` promises:

* concurrent clients posting the *same* design point share one
  simulation (in-flight coalescing);
* a duplicated burst is answered correctly with fewer simulations
  executed than unique keys submitted (dedup + cache);
* a saturated admission queue answers 429, a draining service 503;
* graceful shutdown (``drain``/SIGTERM) completes in-flight requests
  and exits 0.

The HTTP tests run a real :class:`ReproService` on an ephemeral port
inside the test process; the SIGTERM test boots the actual
``repro serve`` subprocess.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.exec.engine import EngineStats, ExecutionEngine
from repro.service import (
    Draining,
    MicroBatcher,
    Saturated,
    SchemaError,
    ServiceClient,
    ServiceConfig,
    ServiceHTTPError,
    ServiceMetrics,
    create_server,
    parse_run_payload,
)
from repro.service.server import RequestHandler
from repro.sim.runner import run_workload
from repro.workloads import get_workload

REPO_ROOT = Path(__file__).resolve().parents[1]
BUDGET = 600  # tiny per-point budget keeps every HTTP test fast


def make_request(seed: int = 1, scheme: str = "conventional",
                 workload: str = "gzip", instructions: int = BUDGET):
    return parse_run_payload({
        "workload": workload, "scheme": scheme,
        "instructions": instructions, "seed": seed,
    })


def start_server(**overrides):
    """A live service on an ephemeral port; caller must stop it."""
    defaults = dict(port=0, batch_window=0.01, max_queue=64,
                    request_timeout=60.0, drain_timeout=60.0)
    defaults.update(overrides)
    engine = defaults.pop("engine", None)
    server = create_server(ServiceConfig(**defaults), engine=engine)
    thread = threading.Thread(target=server.serve_forever,
                              name="test-serve", daemon=True)
    thread.start()
    client = ServiceClient(port=server.server_address[1], timeout=60.0)
    return server, thread, client


def stop_server(server, thread):
    server.shutdown()
    server.batcher.close(timeout=5.0)
    thread.join(timeout=5.0)
    server.server_close()


@pytest.fixture
def service():
    server, thread, client = start_server()
    yield server, client
    stop_server(server, thread)


class StallEngine:
    """Engine stub whose ``run`` blocks until the test opens the gate."""

    def __init__(self, result) -> None:
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


@pytest.fixture(scope="module")
def tiny_result():
    return run_workload(make_request().config, get_workload("gzip"),
                        max_instructions=BUDGET)


# -- batcher unit behaviour ---------------------------------------------
class TestMicroBatcher:
    def test_identical_submissions_share_a_ticket(self, tiny_result):
        engine = StallEngine(tiny_result)
        batcher = MicroBatcher(engine, max_queue=8, batch_window=0.2)
        try:
            first = batcher.submit(make_request(seed=3))
            second = batcher.submit(make_request(seed=3))
            assert first is second
            assert batcher.metrics.coalesced_inflight == 1
            assert batcher.metrics.unique_submitted == 1
            engine.gate.set()
            assert first.result(timeout=10.0).ipc == tiny_result.ipc
        finally:
            engine.gate.set()
            batcher.close(timeout=5.0)

    def test_sweep_admission_is_all_or_nothing(self, tiny_result):
        engine = StallEngine(tiny_result)
        batcher = MicroBatcher(engine, max_queue=2, batch_window=5.0)
        try:
            batcher.submit(make_request(seed=1))
            with pytest.raises(Saturated):
                # Needs two fresh slots, only one is free: nothing admitted.
                batcher.submit_many([make_request(seed=2), make_request(seed=3)])
            pending, executing = batcher.depth()
            assert pending + executing == 1
            assert batcher.metrics.rejected_saturation == 2
            # A sweep that coalesces onto the in-flight point still fits.
            tickets = batcher.submit_many(
                [make_request(seed=1), make_request(seed=2)])
            assert len(tickets) == 2
        finally:
            engine.gate.set()
            batcher.close(timeout=5.0)

    def test_drain_refuses_new_work(self, tiny_result):
        engine = StallEngine(tiny_result)
        engine.gate.set()
        batcher = MicroBatcher(engine, batch_window=0.0)
        try:
            assert batcher.drain(timeout=5.0)
            with pytest.raises(Draining):
                batcher.submit(make_request())
            with pytest.raises(Draining):
                batcher.call(lambda: 1)
        finally:
            batcher.close(timeout=5.0)

    def test_call_runs_on_batching_thread(self, tiny_result):
        engine = StallEngine(tiny_result)
        engine.gate.set()
        batcher = MicroBatcher(engine, batch_window=0.0)
        try:
            ticket = batcher.call(lambda: threading.current_thread().name)
            assert ticket.result(timeout=5.0) == "repro-batcher"
        finally:
            batcher.close(timeout=5.0)

    def test_memo_hits_skip_the_window(self):
        engine = ExecutionEngine(cache=None, max_workers=1)
        cached, fresh = make_request(seed=5), make_request(seed=6)
        engine.run([cached])
        assert engine.memoized(cached.cache_key())
        assert not engine.memoized(fresh.cache_key())
        batcher = MicroBatcher(engine, batch_window=5.0)
        try:
            start = time.monotonic()
            batcher.submit(cached).result(timeout=1.0)
            assert time.monotonic() - start < 1.0
            # A point that will simulate still waits for the window.
            start = time.monotonic()
            batcher.submit(fresh).result(timeout=30.0)
            assert time.monotonic() - start >= 5.0
            assert engine.stats.executed == 2
        finally:
            batcher.close(timeout=30.0)
            engine.close()


# -- HTTP endpoints ------------------------------------------------------
class RecordingWriter:
    """A handler ``wfile`` that keeps every write."""

    def __init__(self) -> None:
        self.writes = []

    def write(self, data) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


class TestTransport:
    @pytest.mark.parametrize("points", [1, 1000])
    def test_reply_is_one_write(self, points):
        """Status line, headers and body leave in one write, whatever
        the body size (a split reply waits on the peer's delayed ACK)."""
        handler = RequestHandler.__new__(RequestHandler)
        handler.server = None
        handler.request_version = "HTTP/1.1"
        handler.requestline = "POST /sweep HTTP/1.1"
        handler.wfile = RecordingWriter()
        payload = {"points": [{"seed": seed} for seed in range(points)]}
        handler._reply(429, payload, headers=(("Retry-After", "2"),))
        assert len(handler.wfile.writes) == 1
        head, _, body = handler.wfile.writes[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 ")
        assert b"\r\nContent-Type: application/json" in head
        assert b"\r\nRetry-After: 2" in head
        assert b"Content-Length: %d" % len(body) in head
        assert json.loads(body) == payload

    def test_both_ends_set_tcp_nodelay(self, service, monkeypatch):
        _, client = service
        accepted = []
        original = RequestHandler.setup

        def recording_setup(handler):
            original(handler)
            accepted.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(RequestHandler, "setup", recording_setup)
        assert client.healthz() == {"status": "ok"}
        assert accepted == [1]
        sock = client._connection().sock
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1


class TestEndpoints:
    def test_healthz_and_metrics_shape(self, service):
        _, client = service
        assert client.healthz() == {"status": "ok"}
        snapshot = client.metrics()
        assert set(snapshot) >= {"service", "batching", "latency", "engine"}
        assert snapshot["service"]["draining"] is False
        assert "p99_seconds" in snapshot["latency"]

    def test_run_roundtrip(self, service):
        _, client = service
        payload = client.run("gzip", scheme="dmdc-local",
                             instructions=BUDGET, counters=True)
        assert payload["workload"] == "gzip"
        assert payload["scheme"] == "dmdc-local"
        assert payload["budget"] == BUDGET
        assert payload["summary"]["ipc"] > 0
        assert "lq.searches_assoc" in payload["counters"]

    def test_sweep_defaults_merge(self, service):
        _, client = service
        body = client.sweep(
            points=[{"scheme": "conventional"}, {"scheme": "dmdc"}],
            defaults={"workload": "mcf", "instructions": BUDGET, "seed": 5},
        )
        assert body["count"] == 2
        schemes = [point["scheme"] for point in body["points"]]
        assert schemes == ["conventional", "dmdc"]
        assert all(point["workload"] == "mcf" for point in body["points"])
        assert all(point["seed"] == 5 for point in body["points"])

    def test_experiment_endpoint(self, service):
        _, client = service
        body = client.experiment("table2", budget=300)
        assert body["id"] == "table2"
        assert body["artifact"].strip()

    @pytest.mark.parametrize("budget", ["0", "1000001", "-5", "12k"])
    def test_experiment_budget_outside_the_codec_range_is_400(self, service, budget):
        _, client = service
        status, payload = client.request("GET", f"/experiment/table2?budget={budget}")
        assert status == 400
        assert payload["kind"] == "schema"

    def test_experiment_under_a_malformed_environment_gets_a_reply(
            self, service, monkeypatch):
        _, client = service
        monkeypatch.setenv("REPRO_WORKLOADS_PER_GROUP", "abc")
        status, payload = client.request("GET", "/experiment/table2?budget=500")
        assert status == 400
        assert payload["kind"] == "config"
        assert "REPRO_WORKLOADS_PER_GROUP" in payload["error"]

    def test_experiment_simulation_error_is_500(self, service, monkeypatch):
        _, client = service

        def fail(exp_id, budget=None, **params):
            raise SimulationError("boom")

        monkeypatch.setattr("repro.experiments.registry.run_experiment", fail)
        status, payload = client.request("GET", "/experiment/table2?budget=500")
        assert (status, payload) == (500, {"error": "boom", "kind": "internal"})

    def test_traced_run_adds_digest_and_is_bit_identical(self, service):
        _, client = service
        plain = client.run("gzip", scheme="dmdc", instructions=BUDGET)
        traced = client.run("gzip", scheme="dmdc", instructions=BUDGET,
                            trace=True)
        assert "trace" not in plain
        digest = traced["trace"]
        assert digest["reconciled"] is True
        assert digest["events_emitted"] > 0
        assert set(digest) >= {"cycle_buckets", "structures", "replays",
                               "top_replay_sites", "windows", "filtering"}
        # The traced run's architectural summary equals the cached one's.
        assert traced["summary"] == plain["summary"]
        assert traced["key"] == plain["key"]

    def test_trace_must_be_boolean(self, service):
        _, client = service
        status, payload = client.request(
            "POST", "/run", {"workload": "gzip", "instructions": BUDGET,
                             "trace": "yes"})
        assert status == 400
        assert "boolean" in payload["error"]

    def test_trace_rejected_in_sweeps(self, service):
        _, client = service
        for body in (
            {"points": [{"workload": "gzip", "instructions": BUDGET,
                         "trace": True}]},
            {"points": [{"workload": "gzip"}],
             "defaults": {"instructions": BUDGET, "trace": True}},
        ):
            status, payload = client.request("POST", "/sweep", body)
            assert status == 400
            assert "POST /run" in payload["error"]

    def test_metrics_simulator_gauges_accumulate(self, service):
        _, client = service
        client.run("gzip", instructions=BUDGET)
        client.run("gzip", instructions=BUDGET, trace=True)
        snapshot = client.metrics()
        simulator = snapshot["simulator"]
        assert simulator["runs"] == 2
        assert simulator["instructions"] == 2 * BUDGET
        assert simulator["cycles"] > 0
        assert simulator["mean_ipc"] > 0
        assert simulator["traced_runs"] == 1
        assert simulator["traced_events"] > 0

    @pytest.mark.parametrize("status,method,path,body", [
        (400, "POST", "/run", {"workload": "no-such-workload"}),
        (400, "POST", "/run", {"workload": "gzip", "scheme": "magic"}),
        (400, "POST", "/run", {"workload": "gzip", "instructions": 0}),
        (400, "POST", "/run", {"workload": "gzip", "mystery": 1}),
        (400, "POST", "/sweep", {"points": []}),
        (404, "POST", "/no-such", {"workload": "gzip"}),
        (404, "GET", "/experiment/no-such", None),
        (404, "GET", "/no-such", None),
    ])
    def test_error_statuses(self, service, status, method, path, body):
        _, client = service
        got, payload = client.request(method, path, body)
        assert got == status
        assert "error" in payload

    def test_malformed_json_is_400(self, service):
        server, _ = service
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=30)
        try:
            connection.request("POST", "/run", body=b"{nope",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()


# -- the tentpole guarantees ---------------------------------------------
class TestCoalescing:
    def test_concurrent_identical_keys_share_one_simulation(self, service):
        server, client = service
        clients = 8
        barrier = threading.Barrier(clients)
        responses = [None] * clients

        def post(slot: int) -> None:
            barrier.wait()
            responses[slot] = client.run("gzip", scheme="dmdc",
                                         instructions=BUDGET, seed=11)

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        keys = {response["key"] for response in responses}
        ipcs = {response["summary"]["ipc"] for response in responses}
        assert len(keys) == 1 and len(ipcs) == 1
        snapshot = server.metrics_snapshot()
        assert snapshot["service"]["received"] == clients
        # However the 8 arrivals interleaved with batching, only one
        # simulation ever ran for this key.
        assert snapshot["engine"]["executed"] == 1
        assert (snapshot["service"]["unique_submitted"]
                + snapshot["service"]["coalesced_inflight"]) == clients

    def test_burst_with_duplication_executes_fewer_than_unique(self, service,
                                                              monkeypatch):
        server, client = service
        unique, requests_total = 20, 100  # 5x key duplication
        # Pre-warm a quarter of the keys: the burst must then execute
        # strictly fewer simulations than unique keys submitted.
        for seed in range(5):
            client.run("gzip", instructions=BUDGET, seed=seed)
        # Hold the batchers' engines until the whole burst is admitted,
        # so duplicates certainly arrive while their key is in flight,
        # however the host schedules the client threads.
        gate = threading.Event()

        def held(real_run):
            def held_run(requests):
                assert gate.wait(timeout=60.0), "the burst never fully arrived"
                return real_run(requests)
            return held_run

        for shard in server.shards.shards:
            monkeypatch.setattr(shard.engine, "run", held(shard.engine.run))
        responses = [None] * requests_total
        errors = []

        def post(slot: int) -> None:
            try:
                responses[slot] = client.run("gzip", instructions=BUDGET,
                                             seed=slot % unique)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(requests_total)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60.0
        while (server.metrics_snapshot()["service"]["received"]
               < requests_total + 5 and time.monotonic() < deadline):
            time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        by_seed = {}
        for slot, response in enumerate(responses):
            assert response is not None
            by_seed.setdefault(slot % unique, set()).add(response["key"])
        assert len(by_seed) == unique
        assert all(len(keys) == 1 for keys in by_seed.values())
        snapshot = server.metrics_snapshot()
        service_stats = snapshot["service"]
        assert service_stats["received"] == requests_total + 5
        assert service_stats["queue_depth"] == 0
        assert service_stats["in_flight"] == 0
        # The headline: fewer simulations than unique keys submitted —
        # coalescing collapsed duplicates and the cache served re-runs.
        assert snapshot["engine"]["executed"] == unique
        assert snapshot["engine"]["executed"] < service_stats["unique_submitted"]
        assert service_stats["coalesced_inflight"] > 0
        assert snapshot["batching"]["max_batch"] > 1


class TestBackpressure:
    def test_saturation_answers_429_with_retry_after(self, tiny_result):
        engine = StallEngine(tiny_result)
        server, thread, client = start_server(engine=engine, max_queue=2,
                                              batch_window=0.005)
        try:
            holders = [threading.Thread(
                target=lambda s=seed: client.run("gzip", instructions=BUDGET,
                                                 seed=s))
                for seed in (101, 102)]
            for holder in holders:
                holder.start()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if sum(server.batcher.depth()) >= 2:
                    break
                time.sleep(0.01)
            assert sum(server.batcher.depth()) == 2
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=30)
            try:
                connection.request(
                    "POST", "/run",
                    body=b'{"workload": "gzip", "seed": 103}',
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 429
                assert response.getheader("Retry-After") == "1"
                response.read()
            finally:
                connection.close()
            assert server.metrics.rejected_saturation == 1
            engine.gate.set()
            for holder in holders:
                holder.join(timeout=30)
        finally:
            engine.gate.set()
            stop_server(server, thread)

    def test_draining_answers_503(self, tiny_result):
        engine = StallEngine(tiny_result)
        engine.gate.set()
        server, thread, client = start_server(engine=engine)
        try:
            assert server.batcher.drain(timeout=5.0)
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            assert excinfo.value.payload["status"] == "draining"
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.run("gzip", instructions=BUDGET)
            assert excinfo.value.status == 503
            assert server.metrics.rejected_draining == 1
        finally:
            stop_server(server, thread)

    def test_request_timeout_answers_503(self, tiny_result):
        engine = StallEngine(tiny_result)
        server, thread, client = start_server(engine=engine,
                                              request_timeout=0.2)
        try:
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.run("gzip", instructions=BUDGET, seed=42)
            assert excinfo.value.status == 503
            assert "still executing" in str(excinfo.value)
            assert server.metrics.timeouts == 1
        finally:
            engine.gate.set()
            stop_server(server, thread)


class TestGracefulShutdown:
    def test_drain_completes_inflight_requests(self):
        server, thread, client = start_server(batch_window=0.05)
        responses = {}

        def post(slot: int) -> None:
            responses[slot] = client.run("gzip", instructions=BUDGET,
                                         seed=200 + slot)

        posters = [threading.Thread(target=post, args=(i,)) for i in range(3)]
        for poster in posters:
            poster.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and server.metrics.received < 3:
            time.sleep(0.01)
        assert server.drain_and_stop()
        thread.join(timeout=5.0)
        server.server_close()
        for poster in posters:
            poster.join(timeout=30)
        assert sorted(responses) == [0, 1, 2]
        assert all(r["summary"]["ipc"] > 0 for r in responses.values())
        assert server.metrics.completed >= 3

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", "0", "--jobs", "2", "--batch-window", "20"],
            cwd=REPO_ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.strip().rsplit(":", 1)[1])
            client = ServiceClient(port=port, timeout=60.0)
            assert client.healthz() == {"status": "ok"}

            outcome = {}

            def post() -> None:
                outcome["run"] = client.run("mcf", scheme="dmdc",
                                            instructions=5_000, seed=9)

            poster = threading.Thread(target=post)
            poster.start()
            # SIGTERM only once the point is admitted, so the drain has
            # genuine in-flight work to finish.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if client.metrics()["service"]["received"] >= 1:
                    break
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            poster.join(timeout=60)
            assert outcome["run"]["summary"]["ipc"] > 0
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()


# -- schema --------------------------------------------------------------
class TestSchema:
    def test_identical_payloads_identical_keys(self):
        a = parse_run_payload({"workload": "gzip", "scheme": "dmdc-local",
                               "instructions": 1000, "seed": 2})
        b = parse_run_payload({"workload": "gzip", "scheme": "dmdc-local",
                               "instructions": 1000, "seed": 2})
        assert a.cache_key() == b.cache_key()

    def test_budget_and_instructions_are_aliases(self):
        a = parse_run_payload({"workload": "gzip", "instructions": 1000})
        b = parse_run_payload({"workload": "gzip", "budget": 1000})
        assert a.cache_key() == b.cache_key()
        with pytest.raises(SchemaError):
            parse_run_payload({"workload": "gzip",
                               "instructions": 1000, "budget": 1000})

    def test_explicit_spec_and_overrides(self):
        request = parse_run_payload({
            "workload": {"name": "custom", "group": "INT",
                         "store_addr_dep_load": 0.2},
            "scheme": {"kind": "dmdc", "local": True},
            "overrides": {"lq_size": 48},
            "instructions": 1000,
        })
        assert request.config.lq_size == 48
        assert request.config.scheme.label() == "dmdc-local"
        with pytest.raises(SchemaError):
            parse_run_payload({"workload": "gzip",
                               "overrides": {"scheme": {"kind": "yla"}}})

    def test_defaults_do_not_leak_unknown_fields(self):
        with pytest.raises(SchemaError):
            parse_run_payload({"workload": "gzip"}, defaults={"mystery": 1})


# -- metrics -------------------------------------------------------------
class TestMetrics:
    def test_snapshot_shape_and_percentiles(self):
        metrics = ServiceMetrics()
        for latency in (0.1, 0.2, 0.3, 0.4):
            metrics.finished(latency)
        metrics.finished(0.5, error=True)
        metrics.observe_batch(3)
        metrics.admitted(coalesced=False)
        metrics.admitted(coalesced=True)
        snapshot = metrics.snapshot(queue_depth=2, in_flight=1,
                                    engine_stats={"executed": 4},
                                    draining=False)
        assert snapshot["service"]["completed"] == 4
        assert snapshot["service"]["errors"] == 1
        assert snapshot["service"]["queue_depth"] == 2
        assert snapshot["batching"]["max_batch"] == 3
        assert snapshot["latency"]["samples"] == 5
        assert snapshot["latency"]["p50_seconds"] == pytest.approx(0.3)
        assert snapshot["latency"]["p99_seconds"] == pytest.approx(0.5)
        assert snapshot["engine"]["executed"] == 4

    def test_empty_snapshot_has_null_latency_not_fake_zero(self):
        """Regression: /metrics polled before the first request completes
        must answer well-formed JSON with null latency fields, not a
        fabricated 0.0 that dashboards would plot as 'instant'."""
        snapshot = ServiceMetrics().snapshot()
        assert snapshot["latency"]["samples"] == 0
        assert snapshot["latency"]["p50_seconds"] is None
        assert snapshot["latency"]["p99_seconds"] is None
        assert snapshot["simulator"]["runs"] == 0
        assert snapshot["simulator"]["mean_ipc"] == 0.0
        import json as json_mod
        json_mod.dumps(snapshot)  # the payload must serialize as-is

    def test_percentile_edge_cases(self):
        from repro.service.metrics import percentile
        assert percentile([], 50) is None
        assert percentile([], 0) is None
        assert percentile([3.0], 0) == 3.0
        assert percentile([3.0], 100) == 3.0
        assert percentile([1.0, 2.0, 3.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0], 100) == 3.0
        # Out-of-range percentiles clamp instead of indexing garbage.
        assert percentile([1.0, 2.0], -5) == 1.0
        assert percentile([1.0, 2.0], 150) == 2.0

    def test_observe_simulation_folds_gauges(self, tiny_result):
        metrics = ServiceMetrics()
        metrics.observe_simulation(tiny_result)
        metrics.observe_simulation(tiny_result, traced=True, events=123)
        snapshot = metrics.snapshot()
        simulator = snapshot["simulator"]
        assert simulator["runs"] == 2
        assert simulator["instructions"] == 2 * tiny_result.committed
        assert simulator["cycles"] == 2 * tiny_result.cycles
        assert simulator["traced_runs"] == 1
        assert simulator["traced_events"] == 123
        assert simulator["mean_ipc"] == pytest.approx(tiny_result.ipc)
