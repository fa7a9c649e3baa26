"""The sweep executor: a grid's missing points across one or more backends.

:func:`run_fanout` is the one execution stage of
:func:`repro.sweeps.orchestrator.run_sweep`.  It partitions the pending
points of a grid across N backends — local engines (a borrowed
:class:`ExecutionEngine` or a pool of single-slot engine processes) or
``repro serve`` instances — and streams completed entries back into the
one :class:`~repro.sweeps.ledger.SweepLedger`.  A plain sweep is the
one-worker case: the same claiming, quarantine and ordered writing,
with worker 0 on the calling thread and no thread started.

Design, in the order the invariants demand it:

* **Dynamic claiming, not static partitioning.**  Workers pull batches
  of at most ``chunk`` points from a shared :class:`_FanoutQueue` as
  they finish (claims shrink toward the tail), so a slow backend never
  strands its fixed share.  When the queue runs dry a worker may
  **steal** one straggler — speculatively duplicating a point that is
  still in flight elsewhere.  Duplication is safe because points are
  content-addressed and the first completion wins.
* **Per-point quarantine.**  A failing batch is requeued as singletons;
  a failing singleton is retried once (on a different worker when
  there is one); a second failure marks the point *failed by name*
  without sinking the sweep — the outcome comes back ``complete=False``
  listing the casualties.  A saturated service is ridden out the same
  way: the client's :class:`~repro.service.client.RetryPolicy` backs
  off per request, and a batch it still cannot place splits into
  singletons.
* **The ledger stays the single writer in grid order.**  Workers finish
  out of order; the :class:`_OrderedWriter` reorder-buffers entries and
  appends only the contiguous grid-order prefix, so the final ledger is
  **byte-identical** to a 1-worker run, and a sweep killed mid-flight
  leaves a clean resumable prefix behind (zero re-simulation on
  resume).

Lock discipline (``repro check --concurrency`` analyzes this module):
the two locks — ``_FanoutQueue._lock`` and ``_OrderedWriter._lock`` —
are leaves of the project hierarchy and are never nested with each
other or anything else; every blocking operation (engine runs, HTTP
exchanges, ledger fsyncs) happens with no lock held.
"""

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.exec.engine import ExecutionEngine
from repro.exec.request import RunRequest
from repro.sweeps.ledger import SweepLedger
from repro.sweeps.points import ledger_entry
from repro.sweeps.result import WorkerStats
from repro.utils.sync import holds, make_lock

__all__ = ["SweepError", "run_fanout"]

#: A point is attempted at most this many times (original + one retry
#: on a different worker) before it is reported failed by name.
MAX_POINT_ATTEMPTS = 2


class SweepError(ReproError):
    """The sweep cannot proceed: bad arguments, a backend that disagrees
    on content addresses, or a crashed worker."""


@dataclass
class _Task:
    """One pending design point, threaded through the work queue."""

    seq: int                    # position in the pending sequence
    index: int                  # position in the full grid expansion
    request: RunRequest
    key: str
    point: Dict[str, Any]
    singleton: bool = False     # quarantined: must run alone
    stolen: bool = False        # already speculatively duplicated
    attempts: int = 0
    tried: Set[str] = field(default_factory=set)


class _FanoutQueue:
    """The shared work queue: claim / steal / quarantine / terminate.

    All mutable state is guarded by ``_lock`` (via the ``_work``
    condition built over it); workers block in :meth:`claim` until work
    appears or the sweep is finished.
    """

    _GUARDED_BY = {
        "_pending": "_lock",
        "_inflight": "_lock",
        "_completed": "_lock",
        "_failed": "_lock",
        "_active": "_lock",
        "_retried": "_lock",
        "_stolen": "_lock",
        "_abort": "_lock",
    }

    def __init__(self, tasks: Sequence[_Task],
                 worker_names: Sequence[str]) -> None:
        self._lock = make_lock("_FanoutQueue._lock")
        self._work = threading.Condition(self._lock)
        self._pending: List[_Task] = list(tasks)
        #: key -> (task, names of workers currently executing it).
        self._inflight: Dict[str, Tuple[_Task, Set[str]]] = {}
        self._completed: Set[str] = set()
        #: key -> (task, error text) for points that exhausted retries.
        self._failed: Dict[str, Tuple[_Task, str]] = {}
        self._active: Set[str] = set(worker_names)
        self._retried = 0
        self._stolen = 0
        self._abort: Optional[BaseException] = None

    # -- claiming ---------------------------------------------------------
    def claim(self, worker: str, chunk: int) -> List[_Task]:
        """Up to ``chunk`` tasks for ``worker``; ``[]`` means done.

        Blocks while the queue is momentarily empty but points are
        still in flight elsewhere (they may fail and requeue).  The
        claim size shrinks with the remaining backlog so the tail is
        spread across workers instead of lumped onto one.
        """
        with self._work:
            while True:
                if self._abort is not None:
                    return []
                batch = self._pick(worker, chunk)
                if batch:
                    for task in batch:
                        self._inflight[task.key] = (task, {worker})
                    return batch
                stolen = self._steal(worker)
                if stolen is not None:
                    return [stolen]
                if not self._pending and not self._inflight:
                    return []
                self._work.wait(timeout=1.0)

    @holds("_lock")
    def _pick(self, worker: str, chunk: int) -> List[_Task]:
        """Claimable pending tasks, preserving grid order (lock held)."""
        if not self._pending:
            return []
        share = len(self._pending) // max(1, len(self._active))
        take = max(1, min(chunk, share))
        picked: List[_Task] = []
        passed: List[_Task] = []
        while self._pending and len(picked) < take:
            task = self._pending.pop(0)
            if not self._claimable(task, worker):
                passed.append(task)
                continue
            if task.singleton and picked:
                passed.append(task)
                break
            picked.append(task)
            if task.singleton:
                break
        self._pending[:0] = passed
        return picked

    @holds("_lock")
    def _claimable(self, task: _Task, worker: str) -> bool:
        # A quarantined task avoids workers it already failed on —
        # unless every live worker failed it, when anyone may retry.
        return worker not in task.tried or self._active <= task.tried

    @holds("_lock")
    def _steal(self, worker: str) -> Optional[_Task]:
        """Speculatively duplicate one straggler (lock held)."""
        if self._pending:
            return None
        for key, (task, executors) in self._inflight.items():
            if (worker not in executors and not task.stolen
                    and worker not in task.tried):
                task.stolen = True
                executors.add(worker)
                self._stolen += 1
                return task
        return None

    # -- outcomes ---------------------------------------------------------
    def complete(self, task: _Task) -> bool:
        """First completion wins; duplicates report ``False``."""
        with self._work:
            if task.key in self._completed:
                return False
            self._completed.add(task.key)
            self._inflight.pop(task.key, None)
            # A straggler retry that lands after a quarantine verdict
            # still counts — completion always wins.
            self._failed.pop(task.key, None)
            self._pending = [t for t in self._pending if t.key != task.key]
            self._work.notify_all()
            return True

    def fail(self, task: _Task, worker: str, error: BaseException) -> str:
        """Record a singleton failure: ``requeued`` / ``failed`` /
        ``absorbed`` (another copy of a stolen task is still running,
        or the point already completed elsewhere)."""
        with self._work:
            task.tried.add(worker)
            task.attempts += 1
            if task.key in self._completed:
                self._work.notify_all()
                return "absorbed"
            entry = self._inflight.get(task.key)
            if entry is not None:
                entry[1].discard(worker)
                if entry[1]:
                    self._work.notify_all()
                    return "absorbed"
            self._inflight.pop(task.key, None)
            if task.attempts >= MAX_POINT_ATTEMPTS:
                self._failed[task.key] = (task, str(error))
                self._work.notify_all()
                return "failed"
            task.singleton = True
            self._retried += 1
            self._pending.insert(0, task)
            self._work.notify_all()
            return "requeued"

    def requeue_split(self, tasks: Sequence[_Task], worker: str) -> None:
        """A failed multi-point batch: requeue every point as a
        singleton (no attempt charged — the poison is one point, and
        the split isolates it)."""
        with self._work:
            requeued: List[_Task] = []
            for task in tasks:
                entry = self._inflight.get(task.key)
                if entry is not None:
                    entry[1].discard(worker)
                    if entry[1]:
                        continue
                self._inflight.pop(task.key, None)
                if task.key in self._completed:
                    continue
                task.singleton = True
                requeued.append(task)
            self._retried += len(requeued)
            self._pending[:0] = requeued
            self._work.notify_all()

    def abort(self, error: BaseException) -> None:
        """A fatal, non-quarantinable failure: stop every worker."""
        with self._work:
            if self._abort is None:
                self._abort = error
            self._work.notify_all()

    def retire(self, worker: str) -> None:
        """Worker exits: requeue anything only it was executing."""
        with self._work:
            self._active.discard(worker)
            orphaned: List[_Task] = []
            for key in list(self._inflight):
                task, executors = self._inflight[key]
                executors.discard(worker)
                if not executors:
                    del self._inflight[key]
                    orphaned.append(task)
            self._pending[:0] = orphaned
            self._work.notify_all()

    # -- terminal snapshot ------------------------------------------------
    def outcome(self) -> Tuple[int, int, List[Tuple[_Task, str]],
                               Optional[BaseException]]:
        with self._work:
            failures = sorted(self._failed.values(),
                              key=lambda pair: pair[0].seq)
            return self._retried, self._stolen, failures, self._abort


class _OrderedWriter:
    """Reorder buffer between out-of-order workers and the ledger.

    Completions are deposited under ``_lock``; exactly one thread at a
    time (the ``_flushing`` flag) pops the contiguous next-in-sequence
    run and performs the ledger appends **outside** the lock, so no
    file I/O ever happens while a lock is held and the ledger only ever
    grows as a grid-order prefix — the resume contract.
    """

    _GUARDED_BY = {
        "_buffer": "_lock",
        "_next": "_lock",
        "_flushing": "_lock",
        "_done": "_lock",
    }

    def __init__(self, ledger: Optional[SweepLedger],
                 entries_by_key: Dict[str, Dict[str, Any]],
                 points: Sequence[Dict[str, Any]],
                 progress: Optional[Callable[..., None]],
                 done: int, total: int) -> None:
        self._lock = make_lock("_OrderedWriter._lock")
        #: seq -> (index, key, entry, source), or None for a skipped
        #: (permanently failed) sequence slot.
        self._buffer: Dict[int, Optional[Tuple[int, str, Dict[str, Any],
                                               str]]] = {}
        self._next = 0
        self._flushing = False
        self._done = done
        self._ledger = ledger
        self._entries = entries_by_key
        self._points = points
        self._progress = progress
        self._total = total

    def complete(self, task: _Task, entry: Dict[str, Any],
                 source: str) -> None:
        self._deposit(task.seq, (task.index, task.key, entry, source))

    def skip(self, task: _Task) -> None:
        """Advance the sequence past a permanently failed point so the
        tail behind it still reaches the ledger."""
        self._deposit(task.seq, None)

    def done_count(self) -> int:
        with self._lock:
            return self._done

    def _deposit(self, seq: int,
                 item: Optional[Tuple[int, str, Dict[str, Any], str]]) -> None:
        with self._lock:
            self._buffer[seq] = item
            if self._flushing:
                return
            self._flushing = True
        self._drain()

    def _drain(self) -> None:
        while True:
            batch: List[Tuple[int, str, Dict[str, Any], str, int]] = []
            with self._lock:
                while self._next in self._buffer:
                    item = self._buffer.pop(self._next)
                    self._next += 1
                    if item is None:
                        continue
                    self._done += 1
                    index, key, entry, source = item
                    batch.append((index, key, entry, source, self._done))
                if not batch:
                    self._flushing = False
                    return
            for index, key, entry, source, done in batch:
                self._entries[key] = entry
                if self._ledger is not None:
                    self._ledger.append(entry)
                if self._progress is not None:
                    self._progress(done, self._total, self._points[index],
                                   source)


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------

class _LocalWorker:
    """One local engine: borrowed from the caller (``engine=``), or built
    and owned by this worker (``engine_factory``; the local pool gives
    each slot a single-slot engine whose simulations run offloaded in a
    worker process, so N workers occupy N cores instead of contending
    for one GIL)."""

    kind = "local"

    def __init__(self, name: str,
                 engine: Optional[ExecutionEngine] = None,
                 engine_factory: Optional[Callable[[], ExecutionEngine]]
                 = None) -> None:
        self.name = name
        self.engine = engine
        self._factory = engine_factory
        self._base = (0, 0, 0)

    def start(self) -> None:
        if self.engine is None:
            assert self._factory is not None
            self.engine = self._factory()
        stats = self.engine.stats
        self._base = (stats.executed, stats.memo_hits, stats.disk_hits)

    def execute(self, tasks: Sequence[_Task]
                ) -> List[Tuple[_Task, Dict[str, Any], str]]:
        engine = self.engine
        assert engine is not None
        sources: Dict[str, str] = {}
        prev = engine.progress

        def trap(done: int, total: int, request: RunRequest,
                 source: str) -> None:
            sources[request.cache_key()] = source
            if prev is not None:
                prev(done, total, request, source)

        engine.progress = trap
        try:
            results = engine.run([task.request for task in tasks])
        finally:
            engine.progress = prev
        out = []
        for task, result in zip(tasks, results):
            entry = ledger_entry(task.request, result.summary(),
                                 result.counters.as_dict(), key=task.key)
            # An unreported point gets an honest "unknown", never a
            # fabricated cache attribution.
            out.append((task, entry, sources.get(task.key, "unknown")))
        return out

    def finish(self, stats: WorkerStats) -> None:
        engine = self.engine
        if engine is None:
            return
        stats.executed = engine.stats.executed - self._base[0]
        stats.memo_hits = engine.stats.memo_hits - self._base[1]
        stats.disk_hits = engine.stats.disk_hits - self._base[2]
        if self._factory is not None:
            engine.close()


def _service_engine_stats(client: Any) -> Dict[str, float]:
    """Best-effort aggregate engine stats from a service /metrics scrape."""
    try:
        snapshot = client.metrics()
        engine = snapshot.get("engine", {})
        return {key: engine.get(key, 0)
                for key in ("executed", "memo_hits", "disk_hits")}
    except Exception:
        return {}


class _ServiceWorker:
    """One remote backend: a ``repro serve`` instance driven through a
    :class:`~repro.service.client.ServiceClient`.

    A client whose ``retry`` is ``None`` is given the default
    :class:`~repro.service.client.RetryPolicy` — a side effect on the
    caller's client, so that a busy service is waited out instead of
    failing the points it refuses.
    """

    kind = "service"

    def __init__(self, name: str, client: Any) -> None:
        self.name = name
        self.client = client
        self._before: Dict[str, float] = {}
        if getattr(client, "retry", False) is None:
            from repro.service.client import RetryPolicy
            client.retry = RetryPolicy()

    def start(self) -> None:
        self._before = _service_engine_stats(self.client)

    def execute(self, tasks: Sequence[_Task]
                ) -> List[Tuple[_Task, Dict[str, Any], str]]:
        body = self.client.sweep([task.point for task in tasks],
                                 counters=True)
        described = body.get("points", [])
        if len(described) != len(tasks):
            raise SweepError(
                f"worker {self.name}: service returned {len(described)} "
                f"results for a {len(tasks)}-point batch")
        out = []
        for task, desc in zip(tasks, described):
            if desc.get("key") != task.key:
                raise SweepError(
                    f"worker {self.name} disagrees on the content address "
                    f"of point {task.point!r} (ours {task.key[:12]}..., "
                    f"theirs {str(desc.get('key'))[:12]}...) — that backend "
                    f"is running different simulator sources")
            entry = ledger_entry(task.request, dict(desc["summary"]),
                                 dict(desc["counters"]), key=task.key)
            out.append((task, entry, "service"))
        return out

    def finish(self, stats: WorkerStats) -> None:
        after = _service_engine_stats(self.client)
        if self._before and after:
            # Best-effort: exact when this worker is the backend's only
            # client, an aggregate attribution otherwise.
            stats.executed = int(after["executed"]
                                 - self._before["executed"])
            stats.memo_hits = int(after["memo_hits"]
                                  - self._before["memo_hits"])
            stats.disk_hits = int(after["disk_hits"]
                                  - self._before["disk_hits"])


def _worker_loop(worker: Any, queue: _FanoutQueue, writer: _OrderedWriter,
                 stats: WorkerStats, chunk: int) -> None:
    start = time.perf_counter()
    try:
        worker.start()
        while True:
            tasks = queue.claim(worker.name, chunk)
            if not tasks:
                return
            stats.claimed += len(tasks)
            if any(task.stolen for task in tasks):
                stats.stolen += 1
            try:
                completions = worker.execute(tasks)
            except SweepError as exc:
                queue.abort(exc)
                return
            except Exception as exc:
                stats.failures += len(tasks)
                if len(tasks) > 1:
                    queue.requeue_split(tasks, worker.name)
                else:
                    verdict = queue.fail(tasks[0], worker.name, exc)
                    if verdict == "failed":
                        writer.skip(tasks[0])
                continue
            for task, entry, source in completions:
                if queue.complete(task):
                    writer.complete(task, entry, source)
                    stats.completed += 1
    except BaseException as exc:  # never let a worker die silently
        queue.abort(exc)
    finally:
        stats.wall_seconds = time.perf_counter() - start
        try:
            worker.finish(stats)
        except Exception:
            pass
        queue.retire(worker.name)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _build_workers(workers: Any, engine_template: Any,
                   engine_factory: Optional[Callable[[], ExecutionEngine]]
                   ) -> List[Any]:
    if isinstance(workers, int):
        if workers < 1:
            raise SweepError("workers must be >= 1")
        if engine_factory is None:
            options = getattr(engine_template, "options", None)

            def engine_factory() -> ExecutionEngine:
                return ExecutionEngine(options=options, max_workers=1,
                                       offload=True)

        return [_LocalWorker(f"local:{i}", engine_factory=engine_factory)
                for i in range(workers)]
    built: List[Any] = []
    for i, backend in enumerate(workers):
        if isinstance(backend, ExecutionEngine):
            built.append(_LocalWorker(f"local:{i}", engine=backend))
        else:
            built.append(_ServiceWorker(
                f"service:{getattr(backend, 'host', '?')}:"
                f"{getattr(backend, 'port', i)}", backend))
    if not built:
        raise SweepError("workers must name at least one backend")
    return built


def run_fanout(expansion: Any,
               pending: Sequence[Tuple[int, RunRequest, str]],
               entries_by_key: Dict[str, Dict[str, Any]],
               ledger_obj: Optional[SweepLedger],
               accounting: Any,
               progress: Optional[Callable[..., None]],
               done: int, total: int,
               workers: Any,
               chunk: int = 64,
               engine_template: Any = None,
               engine_factory: Optional[Callable[[], ExecutionEngine]] = None
               ) -> int:
    """Execute ``pending`` across the worker pool; see module docstring.

    ``workers`` is an int (a local pool of that many engines built by
    ``engine_factory``, default: single-slot offloading engines with
    ``engine_template``'s options) or a sequence of backends — each an
    :class:`ExecutionEngine` (borrowed, never closed) or a
    ``ServiceClient``.  Returns the new ``done`` count.  Mutates
    ``accounting`` with the mode, per-worker stats, retry/steal
    counters, and the names of permanently failed points (which also
    leave the outcome ``complete=False`` — they are *reported*, not
    fatal).
    """
    pool = _build_workers(workers, engine_template, engine_factory)
    kind = pool[0].kind
    accounting.mode = kind if len(pool) == 1 else f"fanout-{kind}[{len(pool)}]"
    tasks = [
        _Task(seq=seq, index=index, request=request, key=key,
              point=expansion.points[index])
        for seq, (index, request, key) in enumerate(pending)
    ]
    queue = _FanoutQueue(tasks, [worker.name for worker in pool])
    writer = _OrderedWriter(ledger_obj, entries_by_key, expansion.points,
                            progress, done, total)
    all_stats = [WorkerStats(worker=worker.name) for worker in pool]
    runs = [(worker, queue, writer, stats, chunk)
            for worker, stats in zip(pool, all_stats)]
    # Worker 0 runs on the calling thread: a one-backend sweep starts no
    # thread, and thread-local context (tracing spans) still encloses
    # its engine calls.
    threads = [threading.Thread(target=_worker_loop, args=run,
                                name=f"sweep-{run[0].name}")
               for run in runs[1:]]
    for thread in threads:
        thread.start()
    _worker_loop(*runs[0])
    for thread in threads:
        thread.join()

    retried, stolen, failures, abort = queue.outcome()
    if abort is not None:
        # A KeyboardInterrupt on the calling thread (worker 0) stays one.
        if isinstance(abort, ReproError) or not isinstance(abort, Exception):
            raise abort
        raise SweepError(f"sweep worker crashed: {abort}") from abort
    accounting.retried = retried
    accounting.stolen = stolen
    accounting.failed = len(failures)
    accounting.failed_points = [
        f"{task.point.get('scheme')}/{_workload_name(task.point)}"
        f" [{task.key[:12]}]: {error}"
        for task, error in failures
    ]
    accounting.workers = [stats.as_dict() for stats in all_stats]
    accounting.executed = sum(stats.executed for stats in all_stats)
    accounting.memo_hits = sum(stats.memo_hits for stats in all_stats)
    accounting.disk_hits = sum(stats.disk_hits for stats in all_stats)
    return writer.done_count()


def _workload_name(point: Dict[str, Any]) -> str:
    workload = point.get("workload")
    if isinstance(workload, dict):
        return str(workload.get("name", "?"))
    return str(workload)
