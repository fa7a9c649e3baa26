"""``repro serve`` — the batched, backpressured simulation service.

Turns the one-shot execution engine into a long-lived daemon: concurrent
clients POST design points, the service normalizes them into the
engine's content-address space, coalesces duplicates in flight, executes
micro-batches on one persistent engine (process pool + memo + disk
cache), and reports itself through ``GET /metrics``.  See
``docs/service.md`` for the endpoint and backpressure contract.

Layers:

* :mod:`repro.service.schema` — JSON payloads -> :class:`RunRequest`s;
* :mod:`repro.service.batcher` — admission queue, in-flight dedup,
  micro-batching, graceful drain (one per shard);
* :mod:`repro.service.shards` — the shard pool: content-address routing
  across N (engine, batcher, metrics) triples;
* :mod:`repro.service.metrics` — counters + latency percentiles,
  per shard and merged;
* :mod:`repro.service.server` — the HTTP layer and ``serve()`` loop;
* :mod:`repro.service.client` — a stdlib keep-alive client (tests, CI
  smoke, ``repro sweep --service``).
"""

from repro.service.batcher import Draining, MicroBatcher, ResultTimeout, Saturated, Ticket
from repro.service.client import (
    RetryPolicy,
    ServiceClient,
    ServiceHTTPError,
    error_kind,
)
from repro.service.metrics import ServiceMetrics
from repro.service.schema import SchemaError, describe_result, parse_run_payload
from repro.service.server import (
    ReproService,
    ServiceConfig,
    create_server,
    serve,
)
from repro.service.shards import Shard, ShardPool, shard_for_key

__all__ = [
    "Draining",
    "MicroBatcher",
    "ReproService",
    "ResultTimeout",
    "RetryPolicy",
    "Saturated",
    "SchemaError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHTTPError",
    "ServiceMetrics",
    "Shard",
    "ShardPool",
    "Ticket",
    "create_server",
    "describe_result",
    "error_kind",
    "parse_run_payload",
    "serve",
    "shard_for_key",
]
