"""Process-wide memo of per-trace setup: generated traces and warm front ends.

A synthetic trace is a pure function of its :class:`WorkloadSpec` and its
length — the run seed plays no part — and a prewarmed front end is a pure
function of that trace and the front-end geometry.  Sweeps run the same
few workloads under many design points, so both are built once per
process and shared:

* **traces**, keyed by canonical JSON of ``asdict(spec)`` plus the length
  (never by workload name: two specs may share a name).  Traces are
  frozen by the generator, and their SoA columns stay attached, so a hit
  also skips the column decode;
* **warm front ends**, keyed by the trace key plus the geometry of the
  L1I, L2, direction predictors and BTB.  The value is a copy of that
  state taken right after :meth:`Processor.prewarm`; a later processor
  gets its own copy instead of replaying every fetch;
* **host runs**, keyed by the trace key plus the budget and the host's
  :class:`MachineConfig`: a recording conventional or value run
  (:class:`~repro.sim.processor.HostRun`), whose event log and machine
  counters are the same under every seed while the invalidation
  injector is off.  ``run_many`` replays one into every later lane of
  that trace, budget and machine instead of stepping a host loop again.
  Only runs that happen anyway record;
* **snapshots** of a conventional host's machine at the cycles where
  verdict lanes diverged (:mod:`repro.sim.fork`), under the same key as
  the host run, so a later lane diverging there restores one instead of
  stepping the prefix again.

The memo is bounded by :data:`MAX_RETAINED_OPS`, charged with the
micro-ops its traces retain plus the event logs of its host runs and
the machine words of its snapshots, converted to micro-ops at their
measured memory cost.  Past the bound it evicts least recently used
traces together with their warm front ends, host runs and snapshots; a
trace that is the only one left sheds its least recently used host runs
with their snapshots instead, then the snapshots of the one it keeps.
One lock (from :func:`make_lock`, since the sharded service runs
several batcher threads per process) guards the tables; generation, prewarm and host
runs run outside it.  See the "setup memo"
section of ``docs/performance.md``.
"""

import json
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.isa.trace import Trace
from repro.sim.config import MachineConfig
from repro.utils.sync import make_lock
from repro.workloads import SyntheticWorkload

#: Upper bound on the micro-ops held by memoized traces, host-run logs
#: charged as ops, across the process.  A retained op costs about 330
#: bytes with its SoA columns (see ``docs/performance.md``), so the bound
#: is roughly 65 MB.
MAX_RETAINED_OPS = 200_000

#: Host-run log entries (or snapshot machine words) charged as one
#: retained op: a log entry costs 8 bytes and a snapshot word about 13,
#: both charged as 16 against an op's 330.
_LOG_ENTRIES_PER_OP = 20


def _host_run_charge(run: Any) -> int:
    """What a kept host run counts against :data:`MAX_RETAINED_OPS`."""
    return -(-len(run.events) // _LOG_ENTRIES_PER_OP)


def _snapshot_charge(snapshot: Any) -> int:
    """What a kept snapshot counts against :data:`MAX_RETAINED_OPS`."""
    return -(-snapshot.cells // _LOG_ENTRIES_PER_OP)


def trace_key(workload: Any, length: int) -> Optional[str]:
    """The content key of ``workload``'s trace of ``length`` ops.

    ``None`` when the workload is not a plain :class:`SyntheticWorkload`:
    an arbitrary ``generate()`` object (or a subclass) is not known to be
    a pure function of its spec, so it is never shared.
    """
    if type(workload) is not SyntheticWorkload:
        return None
    return json.dumps({"spec": asdict(workload.spec), "length": length},
                      sort_keys=True, separators=(",", ":"))


def front_end_geometry(config: MachineConfig) -> Tuple[Any, ...]:
    """Every config field that shapes the state :meth:`Processor.prewarm`
    leaves behind."""
    return (config.l1i_config(), config.l2_config(), config.bimodal_entries,
            config.gshare_entries, config.gshare_history, config.meta_entries,
            config.btb_entries, config.btb_assoc)


class FrontEnd:
    """A warm front end: predictor tables, BTB and L1I/L2 tag stores."""

    __slots__ = ("predictor", "l1i", "l2")

    def __init__(self, processor: Any) -> None:
        self.predictor = processor.predictor.copy_tables()
        self.l1i = processor.memory.l1i.copy_lines()
        self.l2 = processor.memory.l2.copy_lines()

    def restore(self, processor: Any) -> None:
        """Give a fresh ``processor`` its own copy of this state."""
        processor.predictor.load_tables(self.predictor)
        processor.memory.l1i.load_lines(self.l1i)
        processor.memory.l2.load_lines(self.l2)


class _Entry:
    __slots__ = ("trace", "fronts", "hosts", "snapshots", "charge")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.fronts: Dict[Tuple[Any, ...], FrontEnd] = {}
        #: (budget, host machine) -> its :class:`HostRun`, least recently
        #: used first.
        self.hosts: "OrderedDict[Tuple[int, MachineConfig], Any]" = OrderedDict()
        #: (budget, host machine) -> its kept snapshots, by cycle.
        self.snapshots: Dict[Tuple[int, MachineConfig], List[Any]] = {}
        #: What this entry counts against the bound.
        self.charge = len(trace)

    def drop_snapshots(self, host: Tuple[int, MachineConfig]) -> int:
        """Forget ``host``'s snapshots; returns their charge."""
        charge = sum(_snapshot_charge(s) for s in self.snapshots.pop(host, ()))
        self.charge -= charge
        return charge


class SetupMemo:
    """The bounded trace and warm-front-end tables plus their counters."""

    def __init__(self) -> None:
        self._lock = make_lock("SetupMemo._lock")
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.retained_ops = 0
        self.charged_ops = 0
        self.trace_hits = 0
        self.trace_misses = 0
        self.trace_evictions = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self.host_hits = 0
        self.host_misses = 0
        self.snapshot_hits = 0
        self.forks = 0

    def trace(self, key: str, workload: Any, length: int) -> Trace:
        """The shared trace under ``key``, generating it on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.trace_hits += 1
                return entry.trace
            self.trace_misses += 1
        trace = workload.generate(length).freeze()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # another thread generated it meanwhile
                return entry.trace
            self._entries[key] = _Entry(trace)
            self.retained_ops += len(trace)
            self.charged_ops += len(trace)
            self._evict()
        return trace

    def _evict(self) -> None:
        """Drop least recently used traces, then the last trace's least
        recently used host runs, until the charge fits the bound.  The
        most recently used trace and host run always stay.  Called with
        the lock held."""
        while self.charged_ops > MAX_RETAINED_OPS and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self.retained_ops -= len(evicted.trace)
            self.charged_ops -= evicted.charge
            self.trace_evictions += 1
        if self.charged_ops > MAX_RETAINED_OPS:
            last = next(iter(self._entries.values()))
            while self.charged_ops > MAX_RETAINED_OPS and len(last.hosts) > 1:
                host, run = last.hosts.popitem(last=False)
                charge = _host_run_charge(run)
                last.charge -= charge
                self.charged_ops -= charge + last.drop_snapshots(host)
            for host in list(last.snapshots):
                if self.charged_ops <= MAX_RETAINED_OPS:
                    break
                self.charged_ops -= last.drop_snapshots(host)

    def front_end(self, key: str, geometry: Tuple[Any, ...]) -> Optional[FrontEnd]:
        """The warm front end for (trace ``key``, ``geometry``), if held."""
        with self._lock:
            entry = self._entries.get(key)
            front = entry.fronts.get(geometry) if entry is not None else None
            if front is None:
                self.warm_misses += 1
            else:
                self.warm_hits += 1
            return front

    def keep_front_end(self, key: str, geometry: Tuple[Any, ...],
                       front: FrontEnd) -> None:
        """Hold ``front`` for as long as trace ``key`` stays memoized."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.fronts.setdefault(geometry, front)

    def host_run(self, key: str, budget: int, host: MachineConfig) -> Any:
        """The host run of machine ``host`` at ``budget`` over trace
        ``key``, if held."""
        with self._lock:
            entry = self._entries.get(key)
            run = entry.hosts.get((budget, host)) if entry is not None else None
            if run is None:
                self.host_misses += 1
            else:
                self.host_hits += 1
                entry.hosts.move_to_end((budget, host))
            return run

    def keep_host_run(self, key: str, budget: int, host: MachineConfig,
                      run: Any) -> None:
        """Hold ``run`` for as long as trace ``key`` stays memoized."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (budget, host) in entry.hosts:
                return
            entry.hosts[(budget, host)] = run
            charge = _host_run_charge(run)
            entry.charge += charge
            self.charged_ops += charge
            self._entries.move_to_end(key)
            self._evict()

    def snapshot(self, key: str, budget: int, host: MachineConfig,
                 cycle: int) -> Any:
        """The latest kept snapshot of machine ``host`` at ``budget`` over
        trace ``key`` at or before ``cycle``, if any."""
        with self._lock:
            entry = self._entries.get(key)
            best = None
            if entry is not None:
                for snapshot in entry.snapshots.get((budget, host), ()):
                    if snapshot.cycle > cycle:
                        break
                    best = snapshot
            return best

    def keep_snapshot(self, key: str, budget: int, host: MachineConfig,
                      snapshot: Any) -> None:
        """Hold ``snapshot`` beside its host run, for as long as both
        stay memoized."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (budget, host) not in entry.hosts:
                return
            kept = entry.snapshots.setdefault((budget, host), [])
            if any(other.cycle == snapshot.cycle for other in kept):
                return
            kept.append(snapshot)
            kept.sort(key=lambda other: other.cycle)
            charge = _snapshot_charge(snapshot)
            entry.charge += charge
            self.charged_ops += charge
            self._entries.move_to_end(key)
            self._evict()

    def count_fork(self, exact: bool) -> None:
        """Count one forked lane; ``exact`` when a kept snapshot at its
        divergence cycle served it (no prefix steps)."""
        with self._lock:
            self.forks += 1
            if exact:
                self.snapshot_hits += 1

    def stats(self) -> Dict[str, int]:
        """Counters since the last :meth:`clear` ("why was this point fast")."""
        with self._lock:
            return {
                "trace_hits": self.trace_hits,
                "trace_misses": self.trace_misses,
                "trace_evictions": self.trace_evictions,
                "warm_hits": self.warm_hits,
                "warm_misses": self.warm_misses,
                "host_hits": self.host_hits,
                "host_misses": self.host_misses,
                "traces": len(self._entries),
                "hosts": sum(len(entry.hosts) for entry in self._entries.values()),
                "snapshots": sum(len(kept) for entry in self._entries.values()
                                 for kept in entry.snapshots.values()),
                "snapshot_hits": self.snapshot_hits,
                "forks": self.forks,
                "retained_ops": self.retained_ops,
                "charged_ops": self.charged_ops,
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters (tests, cold benches)."""
        with self._lock:
            self._entries.clear()
            self.retained_ops = self.charged_ops = 0
            self.trace_hits = self.trace_misses = self.trace_evictions = 0
            self.warm_hits = self.warm_misses = 0
            self.host_hits = self.host_misses = 0
            self.snapshot_hits = self.forks = 0


#: The process's memo; every ``run_many`` batch goes through it.
SETUP_MEMO = SetupMemo()


class SetupBatch:
    """One ``run_many`` batch's view of the memo.

    It pins every trace and warm front end the batch has used, so the
    batch never rebuilds one even if the memo evicts it meanwhile (a
    batch over more distinct traces than the bound holds).  The memo is
    consulted once per distinct trace, and once per distinct (trace,
    geometry), per batch.
    """

    def __init__(self) -> None:
        self._traces: Dict[Any, Tuple[Trace, Optional[str]]] = {}
        self._fronts: Dict[Any, FrontEnd] = {}

    def trace(self, workload: Any, length: int) -> Tuple[Trace, Any]:
        """``workload``'s trace of ``length`` ops and its batch identity."""
        key = trace_key(workload, length)
        ident: Any = key if key is not None else (id(workload), length)
        pinned = self._traces.get(ident)
        if pinned is None:
            if key is None:
                trace = workload.generate(length)
            else:
                trace = SETUP_MEMO.trace(key, workload, length)
            pinned = self._traces[ident] = (trace, key)
        return pinned[0], ident

    def memoized(self, ident: Any) -> bool:
        """Whether the trace named ``ident`` is shared through the memo
        (custom ``generate()`` objects never are)."""
        return self._traces[ident][1] is not None

    def host_run(self, ident: Any, budget: int, host: MachineConfig) -> Any:
        """The memoized host run for a memoized trace, if held."""
        return SETUP_MEMO.host_run(self._traces[ident][1], budget, host)

    def keep_host_run(self, ident: Any, budget: int, host: MachineConfig,
                      run: Any) -> None:
        """Share ``run`` through the memo, beside its memoized trace."""
        SETUP_MEMO.keep_host_run(self._traces[ident][1], budget, host, run)

    def snapshot(self, ident: Any, budget: int, host: MachineConfig,
                 cycle: int) -> Any:
        """The memoized snapshot for a memoized trace (see
        :meth:`SetupMemo.snapshot`)."""
        return SETUP_MEMO.snapshot(self._traces[ident][1], budget, host, cycle)

    def keep_snapshot(self, ident: Any, budget: int, host: MachineConfig,
                      snapshot: Any) -> None:
        """Share ``snapshot`` through the memo, beside its host run."""
        SETUP_MEMO.keep_snapshot(self._traces[ident][1], budget, host, snapshot)

    def prewarm(self, processor: Any, ident: Any) -> None:
        """Warm ``processor``'s front end, replaying the trace only when
        no warm copy for its trace and geometry exists yet."""
        key = self._traces[ident][1]
        geometry = front_end_geometry(processor.config)
        front = self._fronts.get((ident, geometry))
        if front is None and key is not None:
            front = SETUP_MEMO.front_end(key, geometry)
        if front is None:
            processor.prewarm()
            front = FrontEnd(processor)
            if key is not None:
                SETUP_MEMO.keep_front_end(key, geometry, front)
        else:
            front.restore(processor)
        self._fronts[(ident, geometry)] = front
