"""Deduplicating, caching executor shared by every experiment.

The engine takes batches of :class:`RunRequest`s, folds duplicates,
serves repeats from an in-process memo or the disk cache, and simulates
the remainder on one persistent process pool — torn down at interpreter
exit, not after every suite, so back-to-back experiments reuse warm
workers.  Worker failures are re-raised as :class:`SimulationError`
naming the exact (config, workload, budget, seed) job that died.
"""

import atexit
import time
from contextlib import contextmanager
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.exec.cache import ResultCache
from repro.exec.options import PARALLEL_ENV, EngineOptions
from repro.exec.request import RunRequest
from repro.sim.result import SimulationResult
from repro.sim.runner import lane_group, run_many, run_workload
from repro.sim.setup_memo import SETUP_MEMO

__all__ = [
    "PARALLEL_ENV",
    "EngineOptions",
    "EngineStats",
    "ExecutionEngine",
    "get_engine",
    "set_engine",
    "shutdown_engine",
    "use_engine",
    "worker_count",
]

#: Progress callback: (done, total, request, source) with source one of
#: ``"memo"``, ``"cache"``, ``"run"``.
ProgressFn = Callable[[int, int, RunRequest, str], None]


def worker_count() -> int:
    """Environment-default worker count (see :mod:`repro.exec.options`)."""
    return EngineOptions.from_env().resolve_workers()


def _execute(request: RunRequest) -> SimulationResult:
    """Run one request; module-level so process pools can pickle it."""
    return run_workload(
        request.config,
        request.resolve_workload(),
        max_instructions=request.budget,
        seed=request.seed,
    )


def _execute_batch(requests: List[RunRequest]) -> List[SimulationResult]:
    """Run a worker's whole share of a batch through one ``run_many``.

    Module-level so process pools can pickle it; batching inside the
    worker is what lets ``run_many`` amortize trace generation and
    prewarm across the jobs shipped to that worker.
    """
    return run_many(requests)


def _lane_groups(
    pending: List[Tuple[str, RunRequest]]
) -> List[List[Tuple[str, RunRequest]]]:
    """``pending`` as its lane groups (the points one host run serves,
    see :func:`repro.sim.runner.lane_group`), in first-appearance order;
    every other point is a group of its own."""
    groups: Dict[object, List[Tuple[str, RunRequest]]] = {}
    for key, request in pending:
        group = lane_group(request.config, request.workload_name,
                           request.seed, request.budget)
        groups.setdefault(key if group is None else group, []).append(
            (key, request))
    return list(groups.values())


def lane_slices(
    pending: List[Tuple[str, RunRequest]], parts: int
) -> List[List[Tuple[str, RunRequest]]]:
    """``pending`` stable-ordered by lane group (each group gathered at
    its first member's place) and cut into at most ``parts`` contiguous
    slices of about equal size, only at lane-group boundaries, so no
    slice parts a host run from its lanes."""
    groups = _lane_groups(pending)
    chunk = -(-len(pending) // parts)  # ceil division
    slices: List[List[Tuple[str, RunRequest]]] = []
    current: List[Tuple[str, RunRequest]] = []
    for group in groups:
        current.extend(group)
        if len(current) >= chunk:
            slices.append(current)
            current = []
    if current:
        slices.append(current)
    return slices


@dataclass
class EngineStats:
    """Cumulative planning/caching/execution accounting for one engine."""

    requested: int = 0      # requests submitted, duplicates included
    unique: int = 0         # distinct design points after dedup
    memo_hits: int = 0      # served from the in-process memo
    disk_hits: int = 0      # served from the disk cache
    executed: int = 0       # actually simulated
    wall_seconds: float = 0.0

    @property
    def duplicates(self) -> int:
        return self.requested - self.unique

    @property
    def hit_rate(self) -> float:
        """Fraction of unique points served without simulating."""
        if not self.unique:
            return 0.0
        return (self.memo_hits + self.disk_hits) / self.unique

    def summary(self) -> Dict[str, float]:
        return {
            "requested": self.requested,
            "unique": self.unique,
            "duplicates": self.duplicates,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "executed": self.executed,
            "hit_rate": self.hit_rate,
            "wall_seconds": self.wall_seconds,
        }

    @staticmethod
    def setup_memo() -> Dict[str, int]:
        """Counters of this process's setup memo: trace, warm-front-end
        and host-run hits and misses, trace evictions, and what it holds
        (traces, host runs, micro-ops).

        Per process, not per engine — every engine (and shard) in the
        process shares the memo, and pool workers keep their own — so
        they stay out of :meth:`summary`, whose fields sum across shards.
        """
        return SETUP_MEMO.stats()


class ExecutionEngine:
    """Plans, dedupes, caches, and runs batches of simulation requests."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 max_workers: Optional[int] = None,
                 progress: Optional[ProgressFn] = None,
                 options: Optional[EngineOptions] = None,
                 offload: bool = False) -> None:
        if options is not None:
            if cache is None:
                cache = options.build_cache()
            if max_workers is None:
                max_workers = options.resolve_workers()
        self.options = options
        self.cache = cache
        self.max_workers = max_workers if max_workers is not None else worker_count()
        self.progress = progress
        #: When set, every simulation is dispatched to the process pool —
        #: even a singleton batch that the default policy would run
        #: in-process.  The sharded service sets this so N shard engines
        #: occupy N cores instead of contending for one GIL.
        self.offload = offload
        self.stats = EngineStats()
        self._memo: Dict[str, SimulationResult] = {}
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle -------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- execution -------------------------------------------------------
    def run(self, requests: Sequence[RunRequest]) -> List[SimulationResult]:
        """Results for ``requests``, in order, simulating each unique point
        at most once (ever, given the disk cache)."""
        requests = list(requests)
        start = time.perf_counter()
        keys = [request.cache_key() for request in requests]
        unique: Dict[str, RunRequest] = {}
        for key, request in zip(keys, requests):
            unique.setdefault(key, request)
        self.stats.requested += len(requests)
        self.stats.unique += len(unique)

        total = len(unique)
        done = 0
        results: Dict[str, SimulationResult] = {}
        pending: List[Tuple[str, RunRequest]] = []
        for key, request in unique.items():
            hit, source = self._lookup(key, request)
            if hit is None:
                pending.append((key, request))
                continue
            results[key] = hit
            done += 1
            self._report(done, total, request, source)

        for key, request, result in self._run_pending(pending):
            self._memo[key] = result
            if self.cache is not None:
                self.cache.put(request, result, key=key)
            self.stats.executed += 1
            results[key] = result
            done += 1
            self._report(done, total, request, "run")

        self.stats.wall_seconds += time.perf_counter() - start
        return [results[key] for key in keys]

    def memoized(self, key: str) -> bool:
        """Whether the point with content key ``key`` is in the in-process
        memo, so a ``run`` of it would not simulate or read the disk."""
        return key in self._memo

    def _lookup(
        self, key: str, request: RunRequest
    ) -> Tuple[Optional[SimulationResult], Optional[str]]:
        if key in self._memo:
            self.stats.memo_hits += 1
            return self._memo[key], "memo"
        if self.cache is not None:
            result = self.cache.get(request, key=key)
            if result is not None:
                self._memo[key] = result
                self.stats.disk_hits += 1
                return result, "cache"
        return None, None

    def _run_pending(
        self, pending: List[Tuple[str, RunRequest]]
    ) -> Iterator[Tuple[str, RunRequest, SimulationResult]]:
        if not pending:
            return
        # Ship each worker a contiguous slice rather than one job at a
        # time: callers submit sweeps in (scheme, workload) order, so
        # slices keep same-trace jobs together and run_many can amortize
        # trace generation and prewarm inside the worker.  Slices are
        # cut only between lane groups, so no slice boundary parts a
        # host run from its lanes, and a batch that is one lane group
        # (a point, or ``repro compare``'s host and lane) runs in
        # process unless the engine offloads.
        slices = lane_slices(pending, max(1, self.max_workers))
        if not self.offload and len(slices) == 1:
            yield from self._run_serial(pending)
            return
        pool = self._ensure_pool()
        futures: Dict[Future, List[Tuple[str, RunRequest]]] = {}
        try:
            # A child that dies while later slices are still being
            # submitted breaks the pool under ``submit`` itself, so the
            # submit loop gets the same attribution as the wait loop.
            for part in slices:
                try:
                    future = pool.submit(
                        _execute_batch, [request for _, request in part])
                except BrokenProcessPool as exc:
                    raise self._slice_failed(part, exc) from exc
                futures[future] = part
            while futures:
                finished, _ = wait(futures, return_when=FIRST_EXCEPTION)
                for future in finished:
                    part = futures.pop(future)
                    exc = future.exception()
                    if exc is not None:
                        raise self._slice_failed(part, exc) from exc
                    for (key, request), result in zip(part, future.result()):
                        yield key, request, result
        finally:
            for future in futures:
                future.cancel()

    def _slice_failed(self, part: List[Tuple[str, RunRequest]],
                      exc: BaseException) -> SimulationError:
        """The error naming every job of a failed slice.  A broken pool
        is dropped here, so the engine's next ``run`` builds a fresh one."""
        if isinstance(exc, BrokenProcessPool):
            self.close()
        jobs = ", ".join(request.describe() for _, request in part)
        return SimulationError(f"simulation failed within batch [{jobs}]: {exc}")

    def _run_serial(
        self, pending: List[Tuple[str, RunRequest]]
    ) -> Iterator[Tuple[str, RunRequest, SimulationResult]]:
        """In-process path: one ``run_many`` over the whole batch.

        On any batch failure, fall back to per-request execution so the
        error is attributed to the exact design point that died (and its
        batch-mates still complete).
        """
        try:
            results = run_many([request for _, request in pending])
        except Exception:
            for key, request in pending:
                yield key, request, self._execute_with_context(request)
            return
        for (key, request), result in zip(pending, results):
            yield key, request, result

    @staticmethod
    def _execute_with_context(request: RunRequest) -> SimulationResult:
        try:
            return _execute(request)
        except Exception as exc:
            raise SimulationError(
                f"simulation failed for {request.describe()}: {exc}"
            ) from exc

    def _report(self, done: int, total: int, request: RunRequest, source: str) -> None:
        if self.progress is not None:
            self.progress(done, total, request, source)


# -- shared default engine ----------------------------------------------
_default_engine: Optional[ExecutionEngine] = None
#: Options the default engine was built from (``None`` when it was handed
#: over explicitly via :func:`set_engine`/:func:`use_engine`, in which
#: case environment changes never trigger a rebuild).
_default_options: Optional[EngineOptions] = None


def get_engine(options: Optional[EngineOptions] = None) -> ExecutionEngine:
    """The process-wide engine, rebuilt if its options changed.

    With no argument the engine follows the environment defaults
    (:meth:`EngineOptions.from_env`); passing explicit ``options`` pins
    it.  Sharing one engine across experiments is what turns N
    overlapping sweeps into one deduplicated one: its memo and pool
    persist between experiments.
    """
    global _default_engine, _default_options
    if _default_engine is not None and options is None and _default_options is None:
        return _default_engine  # explicitly installed: env changes don't evict
    desired = options if options is not None else EngineOptions.from_env()
    if _default_engine is None or desired != _default_options:
        if _default_engine is not None:
            _default_engine.close()
        _default_engine = ExecutionEngine(options=desired)
        _default_options = desired
    return _default_engine


def set_engine(engine: Optional[ExecutionEngine]) -> None:
    """Replace the process-wide engine (tests, custom CLI wiring)."""
    global _default_engine, _default_options
    if _default_engine is not None and _default_engine is not engine:
        _default_engine.close()
    _default_engine = engine
    _default_options = None


@contextmanager
def use_engine(engine: ExecutionEngine) -> Iterator[ExecutionEngine]:
    """Temporarily make ``engine`` the process-wide default.

    Unlike :func:`set_engine`, the previous default is restored (and not
    closed) on exit — for scoped wiring like the CLI's ``--all`` sweep.
    """
    global _default_engine, _default_options
    prev, prev_options = _default_engine, _default_options
    _default_engine, _default_options = engine, None
    try:
        yield engine
    finally:
        _default_engine, _default_options = prev, prev_options


def shutdown_engine() -> None:
    set_engine(None)


atexit.register(shutdown_engine)
