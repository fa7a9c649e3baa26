"""Micro-batching execution queue with in-flight request coalescing.

The service admits design points from many concurrent HTTP handler
threads; this module funnels them onto **one** batching thread that owns
the shared :class:`~repro.exec.engine.ExecutionEngine` (and therefore the
process pool, memo, and disk cache).  The queue provides the three
service-grade properties the one-shot CLI lacked:

* **in-flight dedup** — a point whose content key is already pending or
  executing shares that entry instead of enqueueing again, so N clients
  asking for the same design point cost one simulation;
* **micro-batching** — admitted points are drained in batches (after a
  short accumulation window, skipped when every pending point is already
  in the engine memo), amortizing engine dispatch and letting the
  engine's own planner dedup/cache logic see the whole batch at once;
  points that miss every cache then execute through the batched
  :func:`repro.sim.runner.run_many` entry, which shares trace generation
  and SoA kernel buffers across the micro-batch;
* **bounded admission** — at most ``max_queue`` distinct points may be
  pending+executing; beyond that :class:`Saturated` is raised, which the
  HTTP layer turns into an explicit 429 instead of unbounded queueing.

``drain()`` implements graceful shutdown: no new admissions, every
already-admitted point still completes.
"""

import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError, SimulationError
from repro.exec.engine import ExecutionEngine
from repro.exec.request import RunRequest
from repro.service.metrics import ServiceMetrics
from repro.sim.result import SimulationResult
from repro.utils.sync import holds, make_lock


class Saturated(ServiceError):
    """Admission queue full; maps to HTTP 429."""


class Draining(ServiceError):
    """The service is shutting down; maps to HTTP 503."""


class ResultTimeout(ServiceError):
    """The caller's wait deadline expired before the batch finished."""


class Ticket:
    """One admitted design point, shared by every coalesced waiter."""

    __slots__ = ("key", "request", "submitted_at", "_event", "_result", "_error")

    def __init__(self, key: str, request: RunRequest) -> None:
        self.key = key
        self.request = request
        self.submitted_at = time.monotonic()
        self._event = threading.Event()
        self._result: Optional[SimulationResult] = None
        self._error: Optional[BaseException] = None

    def resolve(self, result: Optional[SimulationResult],
                error: Optional[BaseException] = None) -> None:
        self._result = result
        self._error = error
        self._event.set()

    def result(self, timeout: Optional[float] = None) -> SimulationResult:
        """Block until the batch containing this point completes.

        Raises :class:`ResultTimeout` if ``timeout`` elapses first — the
        simulation itself keeps running and later waiters (or the disk
        cache) still benefit from it.
        """
        if not self._event.wait(timeout):
            what = self.request.describe() if self.request is not None else "job"
            raise ResultTimeout(
                f"{what} still executing after {timeout:.1f}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    @property
    def done(self) -> bool:
        return self._event.is_set()


class MicroBatcher:
    """Admission queue + single batching thread in front of one engine."""

    #: Ownership map for ``repro check --concurrency`` (REPRO009): every
    #: listed attribute may only be touched while ``_lock`` (reached via
    #: the ``_work``/``_idle`` conditions or the ``admission`` alias) is
    #: held.
    _GUARDED_BY = {
        "_pending": "_lock",
        "_executing": "_lock",
        "_jobs": "_lock",
        "_draining": "_lock",
        "_closed": "_lock",
    }

    def __init__(self, engine: ExecutionEngine, *,
                 max_queue: int = 256,
                 max_batch: int = 64,
                 batch_window: float = 0.005,
                 metrics: Optional[ServiceMetrics] = None,
                 name: str = "repro-batcher",
                 shard_index: Optional[int] = None) -> None:
        if max_queue < 1 or max_batch < 1:
            raise ValueError("max_queue and max_batch must be positive")
        self.engine = engine
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # ``shard_index`` orders same-label locks: the pool admits
        # cross-shard sweeps by taking batcher locks in ascending shard
        # order, and the lock-order witness checks exactly that.
        self._lock = make_lock("MicroBatcher._lock", index=shard_index)
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._pending: "OrderedDict[str, Ticket]" = OrderedDict()
        self._executing: Dict[str, Ticket] = {}
        self._jobs: Deque[Tuple[Callable[[], object], Ticket]] = deque()
        self._draining = False
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop, name=name, daemon=True)
        self._thread.start()

    # -- admission (handler threads) -------------------------------------
    def depth(self) -> Tuple[int, int]:
        """(pending, executing) sizes — the /metrics queue gauges."""
        with self._lock:
            return len(self._pending), len(self._executing)

    def submit(self, request: RunRequest) -> Ticket:
        """Admit one design point; coalesces onto any in-flight twin."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence[RunRequest]) -> List[Ticket]:
        """Admit a sweep atomically: all points are admitted or none.

        All-or-nothing keeps backpressure honest — a client never gets a
        half-admitted sweep that it then has to untangle on a 429.
        """
        keyed = [(request.cache_key(), request) for request in requests]
        with self.admission:
            if self._draining:
                for _ in keyed:
                    self.metrics.rejected(draining=True)
                raise Draining("service is draining; retry against a live replica")
            fresh = self.fresh_slots_needed([key for key, _ in keyed])
            room = self.free_slots()
            if fresh > room:
                for _ in keyed:
                    self.metrics.rejected(draining=False)
                raise Saturated(
                    f"admission queue full ({self.max_queue} points in "
                    f"flight; sweep needs {fresh} new slots, "
                    f"{max(room, 0)} free)")
            return self.admit(keyed)

    # -- lock-held admission primitives -----------------------------------
    # The shard pool admits one sweep across several batchers atomically
    # by holding every involved ``admission`` condition (in shard order)
    # while it checks room and inserts tickets.  These helpers assume the
    # caller holds ``self.admission``; ``submit_many`` above is the
    # single-batcher composition of the same pieces.
    @property
    def admission(self) -> threading.Condition:
        """The admission lock (a context manager); hold it across any
        sequence of the ``*_locked``-style helpers below."""
        return self._work

    @holds("_lock")
    def free_slots(self) -> int:
        """Admission slots currently free (caller holds ``admission``)."""
        return self.max_queue - len(self._pending) - len(self._executing)

    @holds("_lock")
    def fresh_slots_needed(self, keys: Sequence[str]) -> int:
        """Distinct keys in ``keys`` not already in flight here (caller
        holds ``admission``)."""
        fresh = set()
        for key in keys:
            if key not in self._pending and key not in self._executing:
                fresh.add(key)
        return len(fresh)

    @holds("_lock")
    def draining_locked(self) -> bool:
        """Whether admissions are off (caller holds ``admission``).

        The pool's cross-shard sweep path must use this rather than the
        ``draining`` property: it already holds every involved admission
        lock, and the property re-acquiring a non-reentrant lock would
        self-deadlock.
        """
        return self._draining

    @holds("_lock")
    def reject_all(self, count: int, draining: bool) -> None:
        """Account ``count`` rejected points (caller holds ``admission``)."""
        for _ in range(count):
            self.metrics.rejected(draining=draining)

    @holds("_lock")
    def admit(self, keyed: Sequence[Tuple[str, RunRequest]]) -> List[Ticket]:
        """Insert/coalesce pre-checked points (caller holds ``admission``)."""
        tickets = []
        for key, request in keyed:
            ticket = self._pending.get(key) or self._executing.get(key)
            coalesced = ticket is not None
            if ticket is None:
                ticket = Ticket(key, request)
                self._pending[key] = ticket
            tickets.append(ticket)
            self.metrics.admitted(coalesced=coalesced)
        self._work.notify()
        return tickets

    def call(self, fn: Callable[[], object]) -> Ticket:
        """Run ``fn`` on the batching thread (between batches).

        The engine is single-threaded by design; anything else that needs
        it — e.g. ``GET /experiment/<id>`` re-rendering a paper artifact —
        is serialized through here rather than growing engine locks.
        """
        with self._work:
            if self._draining:
                raise Draining("service is draining")
            ticket = Ticket("<job>", None)  # type: ignore[arg-type]
            self._jobs.append((fn, ticket))
            self._work.notify()
            return ticket

    # -- shutdown ---------------------------------------------------------
    @property
    def draining(self) -> bool:
        with self._work:
            return self._draining

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admissions and wait for every admitted point to resolve.

        Returns ``True`` when the queue emptied, ``False`` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            self._draining = True
            self._work.notify_all()
            while self._pending or self._executing or self._jobs:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining if remaining is not None else 0.1)
        return True

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain, then stop the batching thread."""
        drained = self.drain(timeout)
        with self._work:
            self._closed = True
            self._work.notify_all()
        self._thread.join(timeout=5.0)
        return drained

    # -- the batching thread ----------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._work:
                while not self._pending and not self._jobs and not self._closed:
                    self._work.wait()
                if self._closed and not self._pending and not self._jobs:
                    return
                job = self._jobs.popleft() if self._jobs else None
            if job is not None:
                self._run_job(*job)
                continue
            # Let a burst accumulate so concurrent misses land in one
            # engine batch and share trace generation (bounded: one
            # window, then take what's there).  A batch of memo hits
            # gains nothing from waiting, so it runs at once.
            if self.batch_window > 0 and not self._all_memoized():
                time.sleep(self.batch_window)
            with self._work:
                batch: List[Ticket] = []
                while self._pending and len(batch) < self.max_batch:
                    _, ticket = self._pending.popitem(last=False)
                    self._executing[ticket.key] = ticket
                    batch.append(ticket)
            if batch:
                self._run_batch(batch)

    def _all_memoized(self) -> bool:
        """Whether every pending point is already in the engine memo.

        Batching thread only: that thread owns the engine, so the memo
        read needs no lock of its own.
        """
        with self._work:
            keys = list(self._pending)
        return all(self.engine.memoized(key) for key in keys)

    def _run_job(self, fn: Callable[[], object], ticket: Ticket) -> None:
        try:
            outcome = fn()
        except Exception as exc:  # job errors surface to the one waiter
            self._finish(ticket, None, exc)
        else:
            self._finish(ticket, outcome, None)  # type: ignore[arg-type]

    def _run_batch(self, batch: List[Ticket]) -> None:
        self.metrics.observe_batch(len(batch))
        requests = [ticket.request for ticket in batch]
        try:
            results = self.engine.run(requests)
        except SimulationError:
            # One bad point fails an engine batch wholesale; fall back to
            # per-point execution so its batch-mates still succeed.
            for ticket in batch:
                try:
                    result = self.engine.run([ticket.request])[0]
                except SimulationError as exc:
                    self._finish(ticket, None, exc)
                else:
                    self._finish(ticket, result, None)
            return
        except Exception as exc:  # engine infrastructure failure
            for ticket in batch:
                self._finish(ticket, None, exc)
            return
        for ticket, result in zip(batch, results):
            self._finish(ticket, result, None)

    def _finish(self, ticket: Ticket, result, error) -> None:
        latency = time.monotonic() - ticket.submitted_at
        with self._idle:
            self._executing.pop(ticket.key, None)
            ticket.resolve(result, error)
            self.metrics.finished(latency, error=error is not None)
            self._idle.notify_all()
