"""Fan-out + backpressure semantics (PR: saturation-proof parallel sweeps).

Four layers:

* client retry policy — 429 ``Retry-After`` honoring (clamped, jittered,
  budgeted), 503-draining ``/healthz`` re-poll, 503-timeout re-submit,
  non-JSON error bodies, and the documented ``socket.timeout`` stance;
* the saturation integration bar — a sweep against a 1-slot-admission
  service completes (no ``ServiceHTTPError(429)`` escape) with a ledger
  byte-identical to an unloaded local run;
* the fan-out pool — N-worker runs produce byte-identical ledgers to
  1-worker runs, kills mid-fan-out resume with zero re-simulation, and
  poisoned points quarantine instead of sinking the sweep;
* lock discipline — the fan-out locks stay witness-clean against the
  static model with ``src/repro/sweeps`` in scope.
"""

import json
import socket
import threading

import pytest

from repro.analysis.conc import LockOrderWitness, analyze_paths
from repro.errors import ServiceError
from repro.exec.engine import ExecutionEngine
from repro.exec.options import EngineOptions
from repro.service import ServiceConfig, create_server
from repro.service.client import (
    _RETRYABLE,
    RetryPolicy,
    ServiceClient,
    ServiceHTTPError,
    error_kind,
)
from repro.sweeps import GridSpec, SweepError, run_sweep

BUDGET = 600


def small_grid(name: str = "fanout-test") -> GridSpec:
    return GridSpec(
        name=name,
        axes={"scheme": ["dmdc"], "table": [256, 512],
              "workload": ["gzip", "mcf"]},
        base={"instructions": BUDGET, "seed": 1},
        baseline="conventional",
    )


def serial_engine() -> ExecutionEngine:
    return ExecutionEngine(max_workers=1)


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# RetryPolicy / client behavior against a scripted transport
# ---------------------------------------------------------------------------

class ScriptedClient(ServiceClient):
    """A client whose wire is a scripted list of
    ``(status, payload, retry_after)`` responses per path prefix."""

    def __init__(self, script, **kwargs):
        super().__init__(**kwargs)
        self.script = list(script)
        self.exchanges = []

    def _request(self, method, path, body):
        self.exchanges.append((method, path))
        for i, (match, response) in enumerate(self.script):
            if path.startswith(match):
                del self.script[i]
                return response
        raise AssertionError(f"unscripted request {method} {path}")


def fast_policy(sleeps, **overrides):
    defaults = dict(max_attempts=8, max_total_wait=60.0,
                    max_retry_after=30.0, jitter=0.0,
                    healthz_poll=0.05, healthz_attempts=3,
                    sleep=sleeps.append, rng=lambda: 0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestRetryPolicy:
    def test_429_backs_off_per_retry_after_then_succeeds(self):
        sleeps = []
        saturated = (429, {"error": "full", "kind": "saturated"}, 3.0)
        client = ScriptedClient(
            [("/run", saturated), ("/run", saturated),
             ("/run", (200, {"ok": True}, None))],
            retry=fast_policy(sleeps))
        assert client.run("gzip") == {"ok": True}
        # Two waits, each exactly the server's hint (jitter pinned to 0).
        assert sleeps == [3.0, 3.0]

    def test_hint_is_clamped_and_budget_is_capped(self):
        sleeps = []
        saturated = (429, {"error": "full", "kind": "saturated"}, 1000.0)
        client = ScriptedClient(
            [("/run", saturated), ("/run", (200, {}, None))],
            retry=fast_policy(sleeps, max_retry_after=5.0))
        client.run("gzip")
        assert sleeps == [5.0]

        # A hint stream that exceeds the cumulative budget raises the
        # underlying 429 instead of waiting forever.
        sleeps = []
        client = ScriptedClient(
            [("/run", saturated)] * 8,
            retry=fast_policy(sleeps, max_retry_after=30.0,
                              max_total_wait=45.0))
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.run("gzip")
        assert excinfo.value.status == 429
        assert sum(sleeps) <= 45.0

    def test_jitter_stretches_the_wait(self):
        sleeps = []
        saturated = (429, {"error": "full", "kind": "saturated"}, 10.0)
        client = ScriptedClient(
            [("/run", saturated), ("/run", (200, {}, None))],
            retry=fast_policy(sleeps, jitter=0.2, rng=lambda: 1.0))
        client.run("gzip")
        assert sleeps == [pytest.approx(12.0)]

    def test_draining_repolls_healthz_then_retries(self):
        sleeps = []
        client = ScriptedClient(
            [("/run", (503, {"error": "draining", "kind": "draining"}, None)),
             ("/healthz", (503, {"status": "draining"}, None)),
             ("/healthz", (200, {"status": "ok"}, None)),
             ("/run", (200, {"ok": True}, None))],
            retry=fast_policy(sleeps))
        assert client.run("gzip") == {"ok": True}
        polls = [path for _, path in client.exchanges if path == "/healthz"]
        assert len(polls) == 2

    def test_draining_that_never_recovers_raises(self):
        sleeps = []
        script = [("/run", (503, {"error": "drain", "kind": "draining"},
                            None))]
        script += [("/healthz", (503, {"status": "draining"}, None))] * 3
        client = ScriptedClient(script, retry=fast_policy(sleeps))
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.run("gzip")
        assert excinfo.value.status == 503

    def test_timeout_retries_without_sleeping(self):
        sleeps = []
        client = ScriptedClient(
            [("/run", (503, {"error": "result timed out",
                             "kind": "timeout"}, None)),
             ("/run", (200, {"ok": True}, None))],
            retry=fast_policy(sleeps))
        assert client.run("gzip") == {"ok": True}
        assert sleeps == []

    def test_hard_errors_never_retry(self):
        for status, payload in ((400, {"error": "bad", "kind": "schema"}),
                                (500, {"error": "boom", "kind": "internal"}),
                                (404, {"error": "nope"})):
            client = ScriptedClient([("/run", (status, payload, None))],
                                    retry=fast_policy([]))
            with pytest.raises(ServiceHTTPError):
                client.run("gzip")
            assert client.script == []  # exactly one exchange consumed

    def test_no_policy_keeps_the_historical_raise(self):
        client = ScriptedClient(
            [("/run", (429, {"error": "full", "kind": "saturated"}, 1.0))])
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.run("gzip")
        assert excinfo.value.retry_after == 1.0

    def test_error_kind_sniffs_legacy_payloads(self):
        assert error_kind(429, {"error": "queue full"}) == "saturated"
        assert error_kind(503, {"error": "service is draining"}) == "draining"
        assert error_kind(503, {"error": "result timed out"}) == "timeout"
        assert error_kind(503, {"status": "draining"}) == "draining"
        assert error_kind(400, {"error": "bad"}) == "hard"
        assert error_kind(503, {"kind": "timeout"}) == "timeout"


class TestTransportEdges:
    def test_non_json_error_body_becomes_a_service_error(self):
        payload = ServiceClient._decode_body(502, b"<html>Bad Gateway</html>")
        assert payload["error"].startswith("HTTP 502")
        assert "<html>" in payload["raw"]

    def test_non_json_success_body_is_refused_loudly(self):
        with pytest.raises(ServiceError, match="non-JSON"):
            ServiceClient._decode_body(200, b"<html>proxy login</html>")

    def test_empty_body_decodes_to_empty_payload(self):
        assert ServiceClient._decode_body(204, b"") == {}

    def test_socket_timeout_is_not_blind_retried(self):
        # Documented policy: a timed-out request may still be executing
        # server-side; retransmitting doubles the load on a server that
        # is already too slow.  Connection-level resets stay retryable.
        assert not issubclass(socket.timeout, _RETRYABLE)
        assert issubclass(ConnectionResetError, _RETRYABLE)


# ---------------------------------------------------------------------------
# saturation integration: the sweep survives a 1-slot admission queue
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_queue_service():
    config = ServiceConfig(
        port=0, batch_window=0.01, max_queue=1, shards=1,
        request_timeout=60.0, drain_timeout=60.0,
        engine_options=EngineOptions(cache_enabled=False, max_workers=1),
        offload=False,
    )
    server = create_server(config)
    thread = threading.Thread(target=server.serve_forever,
                              name="test-saturated-serve", daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.batcher.close(timeout=5.0)
        thread.join(timeout=5.0)
        server.server_close()


class TestSaturatedSweep:
    def test_sweep_against_saturated_service_completes(
            self, tiny_queue_service, tmp_path):
        sleeps = []
        client = ServiceClient(port=tiny_queue_service.server_address[1],
                               timeout=60.0, retry=fast_policy(sleeps))
        grid = small_grid("saturated")
        # chunk=6 > the 1-slot queue: every full chunk 429s, so only
        # the executor's split into singletons can make progress.
        remote_path = tmp_path / "remote.jsonl"
        outcome = run_sweep(grid, client=client, chunk=6,
                            ledger=str(remote_path))
        assert outcome.complete
        assert outcome.accounting.retried >= 2  # at least two splits

        local_path = tmp_path / "local.jsonl"
        local = run_sweep(small_grid("saturated"), engine=serial_engine(),
                          ledger=str(local_path))
        assert local.complete
        assert read_bytes(remote_path) == read_bytes(local_path)


# ---------------------------------------------------------------------------
# local fan-out pool
# ---------------------------------------------------------------------------

class TestLocalFanout:
    def test_two_worker_ledger_is_byte_identical_to_one_worker(
            self, tmp_path):
        one = tmp_path / "one.jsonl"
        two = tmp_path / "two.jsonl"
        single = run_sweep(small_grid(), workers=1,
                           engine_factory=serial_engine, ledger=str(one))
        double = run_sweep(small_grid(), workers=2,
                           engine_factory=serial_engine, ledger=str(two),
                           chunk=1)
        assert single.complete and double.complete
        assert read_bytes(one) == read_bytes(two)
        assert double.accounting.mode == "fanout-local[2]"

        workers = double.accounting.workers
        assert len(workers) == 2
        assert sum(w["completed"] for w in workers) == 6
        assert sum(w["executed"] for w in workers) >= 6
        assert all(w["claimed"] >= 1 for w in workers)

    def test_matches_plain_local_backend_ledger(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        fanned = tmp_path / "fanned.jsonl"
        run_sweep(small_grid(), engine=serial_engine(), ledger=str(plain))
        run_sweep(small_grid(), workers=2, engine_factory=serial_engine,
                  ledger=str(fanned))
        assert read_bytes(plain) == read_bytes(fanned)

    def test_progress_streams_in_grid_order(self):
        seen = []
        outcome = run_sweep(small_grid(), workers=2,
                            engine_factory=serial_engine, chunk=1,
                            progress=lambda done, total, point, source:
                            seen.append((done, total, source)))
        assert outcome.complete
        # The reorder buffer serializes progress into grid order even
        # though two workers completed points out of order.
        assert [done for done, _, _ in seen] == list(range(1, 7))
        assert all(source in ("run", "memo", "cache", "unknown")
                   for _, _, source in seen)

    def test_kill_mid_fanout_resumes_with_zero_resimulation(self, tmp_path):
        ledger = tmp_path / "resume.jsonl"
        first = run_sweep(small_grid(), workers=2,
                          engine_factory=serial_engine, ledger=str(ledger),
                          limit=2, chunk=1)
        assert not first.complete
        assert len(first.entries) == 2

        second = run_sweep(small_grid(), workers=2,
                           engine_factory=serial_engine, ledger=str(ledger))
        assert second.complete
        acct = second.accounting
        assert acct.from_ledger == 2
        assert acct.submitted == 4
        assert sum(w["executed"] for w in acct.workers) == acct.executed
        # Zero re-simulation of the ledgered points: only the 4 missing
        # points went to the pool.  Speculative steals may duplicate a
        # *pending* execution (first completion wins), never a ledgered
        # one.
        assert 4 <= acct.executed <= 4 + acct.stolen

        straight = tmp_path / "straight.jsonl"
        run_sweep(small_grid(), engine=serial_engine(), ledger=str(straight))
        assert read_bytes(ledger) == read_bytes(straight)

    def test_chunk_caps_every_pool_batch(self):
        batches = []

        class RecordingEngine(ExecutionEngine):
            def run(self, requests):
                batches.append(len(requests))
                return super().run(requests)

        outcome = run_sweep(small_grid(), workers=1, chunk=2,
                            engine_factory=lambda: RecordingEngine(
                                max_workers=1))
        assert outcome.complete
        assert batches and max(batches) <= 2
        assert sum(batches) == 6

    def test_worker_count_validation(self):
        with pytest.raises(SweepError, match="not both"):
            run_sweep(small_grid(), client=object(), workers=2)
        with pytest.raises(SweepError, match=">= 1"):
            run_sweep(small_grid(), workers=0)
        with pytest.raises(SweepError, match="at least one"):
            run_sweep(small_grid(), workers=[])


class PoisonedEngine:
    """Wraps a real engine but refuses one content-addressed point."""

    def __init__(self, poison_key: str):
        self._inner = ExecutionEngine(max_workers=1)
        self._poison = poison_key
        self.progress = None

    @property
    def stats(self):
        return self._inner.stats

    def run(self, requests):
        if any(request.cache_key() == self._poison for request in requests):
            raise RuntimeError("poisoned point")
        self._inner.progress = self.progress
        try:
            return self._inner.run(requests)
        finally:
            self._inner.progress = None

    def close(self):
        self._inner.close()


class TestQuarantine:
    def poison_key(self):
        expansion = small_grid().expand()
        return expansion.keys[0], len(expansion)

    def test_poisoned_point_is_retried_on_another_worker(self, tmp_path):
        key, total = self.poison_key()
        guard = threading.Lock()
        built = []

        def factory():
            with guard:
                first = not built
                built.append(1)
            return PoisonedEngine(key) if first else serial_engine()

        outcome = run_sweep(small_grid(), workers=2, engine_factory=factory,
                            ledger=str(tmp_path / "heal.jsonl"), chunk=1)
        # The poisoned worker failed the point once; the healthy worker
        # completed it — the sweep is whole.
        assert outcome.complete
        assert outcome.accounting.failed == 0
        assert outcome.accounting.retried >= 1
        assert len(outcome.entries) == total

    def test_twice_poisoned_point_is_reported_not_fatal(self, tmp_path):
        key, total = self.poison_key()
        outcome = run_sweep(small_grid(), workers=2,
                            engine_factory=lambda: PoisonedEngine(key),
                            ledger=str(tmp_path / "sick.jsonl"), chunk=1)
        assert not outcome.complete
        acct = outcome.accounting
        assert acct.failed == 1
        assert len(acct.failed_points) == 1
        # Named by scheme/workload plus a key prefix, not just an index.
        assert key[:12] in acct.failed_points[0]
        assert "poisoned point" in acct.failed_points[0]
        # Every other point still completed and reached the ledger.
        assert len(outcome.entries) == total - 1
        assert "FAILED" in acct.format_block()


# ---------------------------------------------------------------------------
# lock discipline: witness-clean against the static model
# ---------------------------------------------------------------------------

class TestFanoutLockDiscipline:
    def test_fanout_locks_stay_inside_the_predicted_graph(self, tmp_path):
        analysis = analyze_paths(
            ["src/repro/service", "src/repro/exec", "src/repro/sweeps"])
        assert analysis.cycles() == []
        assert analysis.self_deadlocks() == []
        assert analysis.blocking_violations == []

        with LockOrderWitness() as witness:
            outcome = run_sweep(small_grid(), workers=2,
                                engine_factory=serial_engine,
                                ledger=str(tmp_path / "wit.jsonl"),
                                chunk=1)
        assert outcome.complete

        taken = witness.acquisitions()
        labels = {label for label, _ in taken}
        assert "_FanoutQueue._lock" in labels
        assert "_OrderedWriter._lock" in labels
        assert witness.cycle() is None
        assert witness.ordering_violations() == []
        unpredicted = witness.unpredicted_edges(analysis.predicted_edges())
        assert not unpredicted, witness.report()


# ---------------------------------------------------------------------------
# accounting surface
# ---------------------------------------------------------------------------

class TestAccountingSurface:
    def test_as_dict_carries_fanout_fields(self):
        outcome = run_sweep(small_grid(), workers=2,
                            engine_factory=serial_engine)
        payload = outcome.accounting.as_dict()
        assert payload["mode"] == "fanout-local[2]"
        assert len(payload["workers"]) == 2
        for stats in payload["workers"]:
            assert {"worker", "claimed", "completed", "executed",
                    "stolen", "failures"} <= set(stats)
        assert payload["failed"] == 0 and payload["failed_points"] == []
        block = outcome.accounting.format_block()
        assert "fanout    2 workers" in block
        assert json.dumps(payload)  # JSON-serializable end to end
