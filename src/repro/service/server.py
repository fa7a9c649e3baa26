"""The JSON-over-HTTP simulation service (``repro serve``).

Stdlib only: :class:`http.server.ThreadingHTTPServer` accepts concurrent
clients, each handler thread normalizes its payload into the engine's
content-address space (:mod:`repro.service.schema`), admits it to the
shard pool (:mod:`repro.service.shards` — N micro-batching queues, each
owning a private engine, routed by content-address hash), and blocks on
the shared ticket.  Endpoints:

========================  =====================================================
``POST /run``             one design point -> summary (``?counters=1`` for all;
                          ``"trace": true`` attaches the observability layer
                          and adds a ``trace`` digest to the response)
``POST /sweep``           ``{"points": [...], "defaults": {...}}`` -> list
``GET /experiment/<id>``  re-render one paper artifact through the engine
``GET /metrics``          queue depth, batch shape, dedup/cache rates, latency,
                          simulator gauges (instructions/cycles/replays served)
                          — aggregated totals plus one block per shard
``GET /healthz``          200 ok / 503 draining
========================  =====================================================

Backpressure is explicit: a full admission queue answers **429** with a
``Retry-After`` hint derived from current queue depth and the recently
observed drain rate, a draining service answers **503**, and a request
that outlives the per-request timeout answers **503** while its
simulation keeps running for the benefit of the cache and any later
retry.  ``SIGTERM``/``SIGINT`` stop admissions, drain every in-flight
point, then exit 0 (see :func:`serve`).
"""

import json
import signal
import sys
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ConfigError, ServiceError, SimulationError
from repro.exec.engine import EngineStats, ExecutionEngine, set_engine, use_engine
from repro.exec.options import EngineOptions
from repro.exec.request import RunRequest
from repro.service.batcher import Draining, ResultTimeout, Saturated
from repro.service.schema import (
    SchemaError,
    describe_result,
    parse_run_payload,
    parse_trace_flag,
)
from repro.service.shards import ShardPool
from repro.utils.sync import make_lock

#: Hard cap on request body size (a sweep of ~4k explicit spec points).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Hard cap on points per sweep — beyond this, split the sweep.
MAX_SWEEP_POINTS = 1024


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8351
    max_queue: int = 256          # total admission bound (pending + executing)
    max_batch: int = 64           # engine batch ceiling, per shard
    batch_window: float = 0.005   # seconds a batch may accumulate
    request_timeout: float = 120.0  # per-request wait before 503
    drain_timeout: float = 60.0   # SIGTERM drain bound
    engine_options: EngineOptions = field(default_factory=EngineOptions.from_env)
    #: Shard count; ``None`` defers to ``engine_options.resolve_shards()``
    #: (the ``REPRO_SHARDS`` environment default, 1 when unset).
    shards: Optional[int] = None
    #: Force simulations onto worker processes even for singleton batches;
    #: ``None`` means "when sharded" (see :class:`ShardPool`).
    offload: Optional[bool] = None

    def resolve_shards(self) -> int:
        if self.shards is not None:
            return max(1, self.shards)
        return self.engine_options.resolve_shards()


class ReproService(ThreadingHTTPServer):
    """HTTP server dispatching to a pool of engine shards.

    ``self.shards`` is the :class:`ShardPool`; ``self.batcher`` and
    ``self.metrics`` stay as the pool-backed facades older callers and
    the tests use (aggregate depth/drain/close, merged counters).
    ``self.engine`` is shard 0's engine — the pool primary that also
    serves experiment re-rendering and traced runs.
    """

    daemon_threads = True
    # The socketserver default backlog (5) resets connections under the
    # very bursts this service exists to absorb.
    request_queue_size = 128

    #: Ownership map for ``repro check --concurrency`` (REPRO009): the
    #: active-request ledger is bumped by every handler thread and read
    #: by the drain path, always under ``_active_lock`` (also reached
    #: via the ``_active_idle`` condition built over it).
    _GUARDED_BY = {"_active": "_active_lock"}

    def __init__(self, config: ServiceConfig,
                 engine: Optional[ExecutionEngine] = None) -> None:
        self.config = config
        self.shards = ShardPool.build(
            config.resolve_shards(),
            config.engine_options,
            max_queue=config.max_queue,
            max_batch=config.max_batch,
            batch_window=config.batch_window,
            offload=config.offload,
            engine=engine,
        )
        self.engine = self.shards.shards[0].engine
        self.batcher = self.shards
        self.metrics = self.shards.metrics
        self._active = 0
        self._active_lock = make_lock("ReproService._active_lock")
        self._active_idle = threading.Condition(self._active_lock)
        super().__init__((config.host, config.port), RequestHandler)

    # -- request accounting (for drain) ----------------------------------
    def request_started(self) -> None:
        with self._active_lock:
            self._active += 1

    def request_finished(self) -> None:
        with self._active_idle:
            self._active -= 1
            self._active_idle.notify_all()

    def wait_requests_done(self, timeout: float) -> bool:
        import time
        deadline = time.monotonic() + timeout
        with self._active_idle:
            while self._active > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._active_idle.wait(remaining)
        return True

    # -- metrics ----------------------------------------------------------
    def observe_result(self, request: RunRequest, result,
                       traced: bool = False, events: int = 0) -> None:
        """Fold one returned result into its *home shard's* gauges, so
        per-shard simulator accounting matches per-shard routing."""
        shard = self.shards.shard_for(request.cache_key())
        shard.metrics.observe_simulation(result, traced=traced, events=events)

    def metrics_snapshot(self) -> Dict[str, object]:
        """Aggregated totals (the pre-sharding schema) plus a ``shards``
        list with the same blocks per shard."""
        pending, executing = self.shards.depth()
        snapshot = self.shards.merged_metrics().snapshot(
            queue_depth=pending,
            in_flight=executing,
            engine_stats=self.shards.engine_stats(),
            draining=self.shards.draining,
        )
        snapshot["engine"]["setup_memo"] = EngineStats.setup_memo()
        per_shard: List[Dict[str, object]] = []
        for shard in self.shards.shards:
            shard_pending, shard_executing = shard.depth()
            entry = shard.metrics.snapshot(
                queue_depth=shard_pending,
                in_flight=shard_executing,
                engine_stats=shard.engine.stats.summary(),
                draining=shard.batcher.draining,
            )
            entry["shard"] = shard.index
            per_shard.append(entry)
        snapshot["shards"] = per_shard
        return snapshot

    # -- shutdown ---------------------------------------------------------
    def drain_and_stop(self) -> bool:
        """Graceful shutdown: admissions off, in-flight work completes."""
        drained = self.shards.drain(timeout=self.config.drain_timeout)
        handlers_done = self.wait_requests_done(timeout=self.config.drain_timeout)
        self.shutdown()
        self.shards.close(timeout=1.0)
        return drained and handlers_done


class RequestHandler(BaseHTTPRequestHandler):
    """One keep-alive connection.

    Replies leave in one write on a ``TCP_NODELAY`` socket.  A reply
    split into a header segment and a body segment would have its body
    held by Nagle until the client acknowledges the headers, and the
    client delays that ACK by 40 ms — the whole cost of a memo hit.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: ReproService  # narrowed for the helpers below

    # -- plumbing ---------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        # Access logs go to stderr only when the server asks for them.
        if getattr(self.server, "verbose", False):
            sys.stderr.write("service: %s\n" % (format % args))

    def _reply(self, status: int, payload: Dict[str, object],
               headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        # ``end_headers`` would flush the header block on its own; send
        # it with the body instead (see the class docstring).
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _read_json_body(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise SchemaError("a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise SchemaError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise SchemaError(f"request body is not valid JSON: {exc}") from None

    # -- routing ----------------------------------------------------------
    def do_GET(self) -> None:
        self._serve(self._route_get)

    def do_POST(self) -> None:
        self._serve(self._route_post)

    def _serve(self, route) -> None:
        """Answer one request through ``route``; every error it raises
        gets a reply (a ``ConfigError`` 400, a ``SimulationError`` 500)."""
        self.server.request_started()
        try:
            route(urlparse(self.path))
        except ServiceError as exc:
            self._service_error(exc)
        except ConfigError as exc:
            self._reply(400, {"error": str(exc), "kind": "config"})
        except SimulationError as exc:
            self._reply(500, {"error": str(exc), "kind": "internal"})
        finally:
            self.server.request_finished()

    def _route_get(self, url) -> None:
        if url.path == "/healthz":
            self._get_healthz()
        elif url.path == "/metrics":
            self._reply(200, self.server.metrics_snapshot())
        elif url.path.startswith("/experiment/"):
            self._get_experiment(url.path[len("/experiment/"):],
                                 parse_qs(url.query))
        else:
            self._reply(404, {"error": f"no such endpoint {url.path!r}"})

    def _route_post(self, url) -> None:
        if url.path == "/run":
            self._post_run(parse_qs(url.query))
        elif url.path == "/sweep":
            self._post_sweep(parse_qs(url.query))
        else:
            self._reply(404, {"error": f"no such endpoint {url.path!r}"})

    def _service_error(self, exc: ServiceError) -> None:
        # Every error payload carries a machine-readable ``kind`` so
        # clients can discriminate retryable backpressure (saturated /
        # draining / timeout) from hard errors without sniffing message
        # text — ``ServiceClient``'s RetryPolicy keys off it.
        if isinstance(exc, SchemaError):
            self._reply(400, {"error": str(exc), "kind": "schema"})
        elif isinstance(exc, Saturated):
            hint = self.server.shards.retry_after_hint()
            self._reply(429, {"error": str(exc), "kind": "saturated"},
                        headers=(("Retry-After", str(hint)),))
        elif isinstance(exc, Draining):
            self._reply(503, {"error": str(exc), "kind": "draining"})
        elif isinstance(exc, ResultTimeout):
            self.server.metrics.timed_out()
            self._reply(503, {"error": str(exc), "kind": "timeout"})
        else:
            self._reply(500, {"error": str(exc), "kind": "internal"})

    # -- endpoints --------------------------------------------------------
    def _get_healthz(self) -> None:
        if self.server.batcher.draining:
            self._reply(503, {"status": "draining", "kind": "draining"})
        else:
            self._reply(200, {"status": "ok"})

    def _want_counters(self, query: Dict[str, List[str]]) -> bool:
        flag = (query.get("counters") or ["0"])[-1].lower()
        return flag in ("1", "true", "yes")

    def _post_run(self, query: Dict[str, List[str]]) -> None:
        body = self._read_json_body()
        trace = parse_trace_flag(body)
        request = parse_run_payload(body)
        if trace:
            # A traced point always simulates (the event stream is a
            # per-run observation, never cached), so it runs as a direct
            # call on the pool primary's batching thread — the one thread
            # that may touch that engine — like ``GET /experiment/<id>``.
            from repro.obs.profile import profile_request

            ticket = self.server.shards.call(lambda: profile_request(request))
            result, digest = ticket.result(
                timeout=self.server.config.request_timeout)
            payload = describe_result(request, result,
                                      counters=self._want_counters(query))
            payload["trace"] = digest
            self.server.observe_result(
                request, result, traced=True,
                events=int(digest.get("events_emitted", 0)))
            self._reply(200, payload)
            return
        ticket = self.server.shards.submit(request)
        result = ticket.result(timeout=self.server.config.request_timeout)
        self.server.observe_result(request, result)
        self._reply(200, describe_result(request, result,
                                         counters=self._want_counters(query)))

    def _post_sweep(self, query: Dict[str, List[str]]) -> None:
        body = self._read_json_body()
        if not isinstance(body, dict) or not isinstance(body.get("points"), list):
            raise SchemaError('a sweep body is {"points": [...], "defaults": {...}}')
        defaults = body.get("defaults") or {}
        if not isinstance(defaults, dict):
            raise SchemaError("sweep 'defaults' must be a JSON object")
        points = body["points"]
        if not points:
            raise SchemaError("a sweep needs at least one point")
        if len(points) > MAX_SWEEP_POINTS:
            raise SchemaError(
                f"sweep of {len(points)} points over the {MAX_SWEEP_POINTS} "
                f"cap; split it")
        if "trace" in defaults or any(isinstance(point, dict) and "trace" in point
                                      for point in points):
            raise SchemaError(
                "'trace' is only supported on POST /run — a traced point "
                "always simulates, which defeats sweep deduplication")
        requests = [parse_run_payload(point, defaults) for point in points]
        tickets = self.server.shards.submit_many(requests)
        timeout = self.server.config.request_timeout
        counters = self._want_counters(query)
        completed = [ticket.result(timeout=timeout) for ticket in tickets]
        for request, result in zip(requests, completed):
            self.server.observe_result(request, result)
        results = [
            describe_result(request, result, counters=counters)
            for request, result in zip(requests, completed)
        ]
        self._reply(200, {"points": results, "count": len(results)})

    def _get_experiment(self, exp_id: str, query: Dict[str, List[str]]) -> None:
        from repro.experiments.registry import EXPERIMENTS, experiment_budget, run_experiment
        if exp_id not in EXPERIMENTS:
            self._reply(404, {"error": f"unknown experiment {exp_id!r}",
                              "choices": sorted(EXPERIMENTS)})
            return
        budget = None
        raw_budget = (query.get("budget") or [None])[-1]
        if raw_budget is not None:
            if not raw_budget.isdigit():
                raise SchemaError("budget must be a positive integer")
            try:
                budget = experiment_budget(int(raw_budget))
            except ConfigError as exc:
                raise SchemaError(str(exc)) from None

        def render() -> str:
            # Experiments resolve the process-wide engine; pin it to the
            # pool primary's for the duration (we are on that shard's
            # batching thread, the only thread that ever touches it).
            with use_engine(self.server.engine):
                _, text = run_experiment(exp_id, budget)
            return text

        ticket = self.server.shards.call(render)
        text = ticket.result(timeout=self.server.config.request_timeout)
        self._reply(200, {"id": exp_id, "artifact": text})


def create_server(config: Optional[ServiceConfig] = None,
                  engine: Optional[ExecutionEngine] = None) -> ReproService:
    """A ready-to-run service bound to ``config.host:config.port``.

    ``port=0`` binds an ephemeral port; read ``server.server_address``.
    """
    return ReproService(config or ServiceConfig(), engine)


def serve(config: Optional[ServiceConfig] = None,
          verbose: bool = False) -> int:
    """Run the service until SIGTERM/SIGINT, then drain and exit.

    Returns the process exit code: 0 when every in-flight request was
    completed during the drain, 1 otherwise.
    """
    server = create_server(config)
    server.verbose = verbose  # type: ignore[attr-defined]
    set_engine(server.engine)  # experiments / api calls share the engine
    host, port = server.server_address[0], server.server_address[1]
    stop = threading.Event()

    def _signalled(signum: int, frame: object) -> None:
        print(f"service: received signal {signum}, draining", file=sys.stderr)
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _signalled)

    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    # The one line tooling may parse: the bound address.
    print(f"repro serve: listening on http://{host}:{port}", flush=True)
    print(f"service: {len(server.shards)} shard(s) x "
          f"{server.engine.max_workers} worker(s), routing by content key",
          file=sys.stderr)
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    clean = server.drain_and_stop()
    thread.join(timeout=5.0)
    server.server_close()
    snapshot = server.metrics_snapshot()
    service = snapshot["service"]
    print(f"service: drained; {service['completed']} completed, "
          f"{service['errors']} errors, {service['timeouts']} timeouts",
          file=sys.stderr)
    return 0 if clean else 1
