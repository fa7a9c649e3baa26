"""The sweep orchestrator: a grid in, a completed ledger out.

:func:`run_sweep` drives a :class:`GridSpec` (or a pre-rendered
:class:`GridExpansion`) to completion.  It serves what a prior run's
ledger already holds, then hands the missing points to the one
executor, :func:`repro.sweeps.fanout.run_fanout`, with a worker list:

* a plain call runs on ``[engine]`` (default: the shared
  :class:`ExecutionEngine` — dedup, memo, disk cache, process pool);
* ``client=`` runs on ``[client]``, a running (possibly sharded)
  ``repro serve`` instance reached through :class:`ServiceClient`;
* ``workers=`` names a pool: an int N of local single-slot engines, or
  a sequence of engines and service clients.

Every batch is at most ``chunk`` points.  Completed points stream to a
resumable JSONL ledger in grid order; re-running a half-finished sweep
re-serves finished points from the ledger by content address and only
simulates the remainder.  Every backend and every worker count emits a
byte-identical ledger for the same grid (the wire carries exactly the
summary/counter values the local path computes), which the service and
fan-out tests assert.

The returned :class:`SweepOutcome` carries the entries in grid order
plus a :class:`SweepAccounting` block — how many points the raw product
had, what predicates/dedup removed, and how many simulations actually
ran vs were served from ledger/memo/disk — the proof that repeat sweeps
are ~free.
"""

import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.exec.engine import ExecutionEngine, get_engine
from repro.exec.request import RunRequest
from repro.sweeps.fanout import SweepError, run_fanout
from repro.sweeps.grid import GridExpansion, GridSpec
from repro.sweeps.ledger import SweepLedger

__all__ = ["ProgressFn", "SweepAccounting", "SweepError", "SweepOutcome",
           "run_sweep"]

#: Orchestrator progress: ``(done, total, point, source)`` with source one
#: of ``"ledger"``, ``"memo"``, ``"cache"``, ``"run"``, ``"service"``.
ProgressFn = Callable[[int, int, Dict[str, Any], str], None]


@dataclass
class SweepAccounting:
    """Where every point of a sweep came from (and what it cost)."""

    mode: str = "local"
    total_points: int = 0       # points in the expanded grid
    raw_points: int = 0         # axis-product combinations before pruning
    excluded: int = 0           # dropped by include/exclude predicates
    collapsed: int = 0          # content-address duplicates in the grid
    baseline_points: int = 0    # injected baseline denominators
    from_ledger: int = 0        # served from a prior run's ledger
    submitted: int = 0          # sent to the backend this invocation
    executed: int = 0           # actually simulated (backend-reported)
    memo_hits: int = 0          # engine memo hits
    disk_hits: int = 0          # disk-cache hits
    retried: int = 0            # quarantine requeues (split or retried points)
    stolen: int = 0             # straggler tasks speculatively duplicated
    failed: int = 0             # points that exhausted their retries
    wall_seconds: float = 0.0
    #: Names of permanently failed points ("scheme/workload [key]: why").
    failed_points: List[str] = field(default_factory=list)
    #: Per-worker accounting dicts; see
    #: :class:`repro.sweeps.result.WorkerStats`.
    workers: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        """Fraction of submitted points served without simulating.

        An all-from-ledger re-run submits nothing and scores 1.0 — the
        repeat sweep was free.
        """
        if not self.submitted:
            return 1.0
        return max(0.0, (self.submitted - self.executed) / self.submitted)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "total_points": self.total_points,
            "raw_points": self.raw_points,
            "excluded": self.excluded,
            "collapsed": self.collapsed,
            "baseline_points": self.baseline_points,
            "from_ledger": self.from_ledger,
            "submitted": self.submitted,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "retried": self.retried,
            "stolen": self.stolen,
            "failed": self.failed,
            "failed_points": list(self.failed_points),
            "workers": list(self.workers),
            "hit_rate": self.hit_rate,
            "wall_seconds": self.wall_seconds,
        }

    def format_block(self) -> str:
        lines = [
            f"points    {self.total_points} "
            f"({self.raw_points} raw, {self.excluded} excluded, "
            f"{self.collapsed} collapsed, {self.baseline_points} baseline)",
            f"backend   {self.mode}",
            f"served    ledger {self.from_ledger} | submitted {self.submitted}"
            f" | simulated {self.executed}",
            f"cache     memo {self.memo_hits}, disk {self.disk_hits}, "
            f"hit rate {self.hit_rate:.1%}",
            f"wall      {self.wall_seconds:.2f}s",
        ]
        if self.workers:
            shares = ", ".join(
                f"{w['worker']} {w['completed']}" for w in self.workers)
            count = len(self.workers)
            lines.insert(3, f"fanout    {count} worker"
                            f"{'s' if count > 1 else ''} "
                            f"({shares}) | retried {self.retried} | "
                            f"stolen {self.stolen} | failed {self.failed}")
        for name in self.failed_points:
            lines.append(f"FAILED    {name}")
        return "\n".join(lines)


@dataclass
class SweepOutcome:
    """Everything :func:`run_sweep` produced, in grid order."""

    name: str
    points: List[Dict[str, Any]]
    keys: List[str]
    entries: List[Dict[str, Any]]   # completed ledger entries, grid order
    accounting: SweepAccounting
    complete: bool = True
    ledger_path: Optional[str] = None
    _report: Optional[object] = field(default=None, repr=False)

    def report(self, baseline: Optional[str] = None) -> "Any":
        """The paper-figure-style report over the completed entries."""
        from repro.sweeps.report import SweepReport
        return SweepReport.from_entries(self.entries, name=self.name,
                                        baseline=baseline)


def run_sweep(grid: Union[GridSpec, GridExpansion],
              *,
              engine: Optional[ExecutionEngine] = None,
              client: Optional[Any] = None,
              ledger: Optional[Union[str, SweepLedger]] = None,
              chunk: int = 64,
              progress: Optional[ProgressFn] = None,
              limit: Optional[int] = None,
              workers: Optional[Union[int, Sequence[Any]]] = None,
              engine_factory: Optional[Callable[[], ExecutionEngine]] = None
              ) -> SweepOutcome:
    """Execute a grid to completion (see the module docstring).

    ``engine`` and ``client`` select the backend (both ``None`` = the
    process-wide engine; both set is an error).  ``ledger`` is a JSONL
    path (or an opened :class:`SweepLedger`) enabling streaming +
    resume.  ``limit`` caps how many *missing* points this invocation
    simulates — the outcome comes back ``complete=False`` and a later
    call resumes; tests use it to model a killed orchestrator.

    ``chunk`` caps every batch a backend is handed (an engine run or a
    service ``/sweep`` request).  A point that fails is retried once and
    then reported by name in ``accounting.failed_points``, leaving the
    outcome ``complete=False``; only a backend that disagrees on content
    addresses (or a crashed worker) raises :class:`SweepError`.

    ``workers`` fans the missing points out across a pool
    (:mod:`repro.sweeps.fanout`): an int N runs a local pool of N
    single-slot engine processes (``engine`` serves as the options
    template, ``engine_factory`` overrides how they are built — tests
    inject serial engines), a sequence names the backends —
    :class:`ExecutionEngine` or
    :class:`~repro.service.client.ServiceClient` objects.  The ledger
    keeps its grid-order byte-identity contract regardless of worker
    count.
    """
    if engine is not None and client is not None:
        raise SweepError("pass engine= or client=, not both")
    if workers is not None and client is not None:
        raise SweepError("pass workers= or client=, not both")
    if chunk < 1:
        raise SweepError("chunk must be >= 1")
    expansion = grid.expand() if isinstance(grid, GridSpec) else grid
    accounting = SweepAccounting(
        total_points=len(expansion),
        raw_points=expansion.raw_points,
        excluded=expansion.excluded,
        collapsed=expansion.collapsed,
        baseline_points=expansion.baseline_added,
    )
    start = time.perf_counter()

    ledger_obj: Optional[SweepLedger]
    ledger_path: Optional[str]
    owns_ledger = isinstance(ledger, (str,)) or ledger is None
    if isinstance(ledger, SweepLedger):
        ledger_obj, ledger_path = ledger, ledger.path
    elif ledger is not None:
        ledger_obj, ledger_path = SweepLedger(ledger), ledger
    else:
        ledger_obj = ledger_path = None

    entries_by_key: Dict[str, Dict[str, Any]] = {}
    try:
        if ledger_obj is not None:
            prior = ledger_obj.open(expansion.digest(), expansion.name,
                                    len(expansion))
            wanted = set(expansion.keys)
            entries_by_key.update(
                {key: entry for key, entry in prior.items() if key in wanted})
        accounting.from_ledger = len(entries_by_key)

        total = len(expansion)
        done = 0
        pending: List[Tuple[int, RunRequest, str]] = []
        for index, (request, key) in enumerate(
                zip(expansion.requests, expansion.keys)):
            if key in entries_by_key:
                done += 1
                if progress is not None:
                    progress(done, total, expansion.points[index], "ledger")
            else:
                pending.append((index, request, key))

        if limit is not None:
            pending = pending[:max(0, limit)]
        accounting.submitted = len(pending)

        if workers is None:
            workers = [client if client is not None
                       else engine if engine is not None else get_engine()]
        done = run_fanout(expansion, pending, entries_by_key, ledger_obj,
                          accounting, progress, done, total, workers,
                          chunk=chunk, engine_template=engine,
                          engine_factory=engine_factory)
    finally:
        if ledger_obj is not None and owns_ledger:
            ledger_obj.close()

    accounting.wall_seconds = time.perf_counter() - start
    entries = [entries_by_key[key] for key in expansion.keys
               if key in entries_by_key]
    return SweepOutcome(
        name=expansion.name,
        points=list(expansion.points),
        keys=list(expansion.keys),
        entries=entries,
        accounting=accounting,
        complete=len(entries) == len(expansion),
        ledger_path=ledger_path,
    )
