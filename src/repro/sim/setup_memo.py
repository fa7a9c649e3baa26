"""Process-wide memo of per-trace setup: generated traces and warm front ends.

A synthetic trace is a pure function of its :class:`WorkloadSpec` and its
length — the run seed plays no part — and a prewarmed front end is a pure
function of that trace and the front-end geometry.  Sweeps run the same
few workloads under many design points, so both are built once per
process and shared:

* **traces**, keyed by canonical JSON of ``asdict(spec)`` plus the length
  (never by workload name: two specs may share a name), built once per
  distinct spec content and length (:func:`trace_key`).  Traces are
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
  Only runs that happen anyway record.  A held run brings the
  snapshots its forked verdict lanes keep on it, so a later lane of any
  seed diverging at the same cycle restores one instead of stepping the
  prefix again, and the forked runs themselves (their tail logs), so a
  later lane of the same machine whose verdicts reproduce a forked
  run's replays that tail instead of forking at all.  It keeps at most
  :data:`FORKED_RUNS_PER_MACHINE` forked runs per lane machine, and
  one of each distinct (fork cycle, tail).

The memo is bounded by :data:`MAX_RETAINED_OPS`, charged with the
micro-ops its traces retain plus the event logs of its host runs and of
their forked runs and the machine words of their snapshots, converted
to micro-ops at their measured memory cost.  Past the bound it evicts
least recently used traces together with their warm front ends and host
runs; a trace that is the only one left sheds its least recently used
host runs instead, then the snapshots and forked runs of the one it
keeps.  An evicted run that a batch still replays keeps serving that
batch's forks, uncharged.  One lock (from :func:`make_lock`, since the
sharded service runs several batcher threads per process) guards the
tables and every host run's snapshots and forked runs; generation,
prewarm, host runs, replays and prefix steps run outside it.  See the
"setup memo" section of ``docs/performance.md``.
"""

import json
from collections import OrderedDict
from dataclasses import asdict, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.isa.trace import Trace
from repro.sim.config import MachineConfig
from repro.utils.sync import make_lock
from repro.workloads import SyntheticWorkload, WorkloadSpec

#: Upper bound on the micro-ops held by memoized traces, host-run logs
#: charged as ops, across the process.  A retained op costs about 330
#: bytes with its SoA columns (see ``docs/performance.md``), so the bound
#: is roughly 65 MB.
MAX_RETAINED_OPS = 200_000

#: Host-run log entries (or snapshot machine words) charged as one
#: retained op: a log entry costs 4 or 8 bytes and a snapshot word about
#: 13, all charged as 16 against an op's 330.
_LOG_ENTRIES_PER_OP = 20

#: Forked runs a host run keeps per lane machine: a lane tries them
#: (one replay each) before it forks.
FORKED_RUNS_PER_MACHINE = 4


def _snapshot_charge(snapshot: Any) -> int:
    """What a kept snapshot counts against :data:`MAX_RETAINED_OPS`."""
    return -(-snapshot.cells // _LOG_ENTRIES_PER_OP)


def _log_charge(run: Any) -> int:
    """What a kept run's event log counts against :data:`MAX_RETAINED_OPS`."""
    return -(-len(run.events) // _LOG_ENTRIES_PER_OP)


def _host_run_charge(run: Any) -> int:
    """What a kept host run, with its snapshots and forked runs, counts
    against :data:`MAX_RETAINED_OPS`."""
    return (_log_charge(run)
            + sum(_snapshot_charge(snapshot) for snapshot in run.snapshots)
            + sum(map(_log_charge, run.forked)))


#: Trace keys already built, by :func:`_spec_identity` and length.
_TRACE_KEYS: Dict[Tuple[Any, int], str] = {}
#: Past this many, the table starts over (a service fed endless custom
#: specs stays bounded).
_MAX_TRACE_KEYS = 4096


def _typed(value: Any) -> Tuple[Any, ...]:
    """``value`` with its type, and a dict (a spec's only non-scalar
    fields are dicts of scalars) as its sorted typed items: hashable,
    and equal exactly when the JSON of the values is."""
    if isinstance(value, dict):
        return (dict, tuple(sorted((name, _typed(item)) for name, item in value.items())))
    return (type(value), value)


def _spec_identity(spec: Any) -> Tuple[Any, ...]:
    """A hashable stand-in for ``asdict(spec)`` (a spec holds a dict, so
    it does not hash itself), far cheaper than its JSON."""
    return tuple((name, _typed(getattr(spec, name))) for name in _SPEC_FIELDS)


_SPEC_FIELDS = tuple(field.name for field in fields(WorkloadSpec))


def trace_key(workload: Any, length: int) -> Optional[str]:
    """The content key of ``workload``'s trace of ``length`` ops: the
    canonical JSON of ``asdict`` of its spec and the length, built once
    per distinct spec and length.

    ``None`` when the workload is not a plain :class:`SyntheticWorkload`:
    an arbitrary ``generate()`` object (or a subclass) is not known to be
    a pure function of its spec, so it is never shared.
    """
    if type(workload) is not SyntheticWorkload:
        return None
    spec = workload.spec
    memo = (_spec_identity(spec), length)
    key = _TRACE_KEYS.get(memo)
    if key is None:
        if len(_TRACE_KEYS) >= _MAX_TRACE_KEYS:
            _TRACE_KEYS.clear()
        key = _TRACE_KEYS[memo] = json.dumps(
            {"spec": asdict(spec), "length": length},
            sort_keys=True, separators=(",", ":"))
    return key


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
    __slots__ = ("trace", "fronts", "hosts", "charge")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.fronts: Dict[Tuple[Any, ...], FrontEnd] = {}
        #: (budget, host machine) -> its :class:`HostRun`, least recently
        #: used first.
        self.hosts: "OrderedDict[Tuple[int, MachineConfig], Any]" = OrderedDict()
        #: What this entry counts against the bound.
        self.charge = len(trace)


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
        self.forked_run_hits = 0
        self.forked_run_misses = 0
        self.lane_walks = 0
        self.walk_checkpoints = 0

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
        recently used host runs, then the snapshots and forked runs of
        the runs it keeps, until the charge fits the bound.  The most
        recently used trace and host run always stay.  Called with the
        lock held."""
        while self.charged_ops > MAX_RETAINED_OPS and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self.retained_ops -= len(evicted.trace)
            self.charged_ops -= evicted.charge
            self.trace_evictions += 1
        if self.charged_ops > MAX_RETAINED_OPS:
            last = next(iter(self._entries.values()))
            while self.charged_ops > MAX_RETAINED_OPS and len(last.hosts) > 1:
                _, run = last.hosts.popitem(last=False)
                self._discharge(last, _host_run_charge(run))
            for run in last.hosts.values():
                if self.charged_ops <= MAX_RETAINED_OPS:
                    break
                self._discharge(last, _host_run_charge(run) - _log_charge(run))
                run.snapshots.clear()
                run.forked.clear()

    def _discharge(self, entry: _Entry, charge: int) -> None:
        entry.charge -= charge
        self.charged_ops -= charge

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
            self._charge(key, _host_run_charge(run))

    def _charge(self, key: str, charge: int) -> None:
        """Charge trace ``key``'s entry with what it now holds more, mark
        it most recently used and evict.  Called with the lock held."""
        self._entries[key].charge += charge
        self.charged_ops += charge
        self._entries.move_to_end(key)
        self._evict()

    def fork_snapshot(self, run: Any, cycle: int) -> Any:
        """Count one forked lane of host ``run`` and return the latest
        snapshot ``run`` keeps at or before ``cycle``, if any; one at
        ``cycle`` itself counts a snapshot hit (no prefix steps)."""
        with self._lock:
            best = None
            for snapshot in run.snapshots:
                if snapshot.cycle > cycle:
                    break
                best = snapshot
            self.forks += 1
            if best is not None and best.cycle == cycle:
                self.snapshot_hits += 1
            return best

    def keep_snapshot(self, run: Any, snapshot: Any) -> None:
        """Keep ``snapshot`` on host ``run`` (unless it keeps one at that
        cycle already), charged while the memo holds ``run``."""
        with self._lock:
            kept = run.snapshots
            if any(other.cycle == snapshot.cycle for other in kept):
                return
            kept.append(snapshot)
            kept.sort(key=lambda other: other.cycle)
            self._charge_holder(run, _snapshot_charge(snapshot))

    def _charge_holder(self, run: Any, charge: int) -> None:
        """Charge the entry holding host ``run``, if one does, with what
        the run now keeps more.  Called with the lock held."""
        for key, entry in self._entries.items():
            if any(held is run for held in entry.hosts.values()):
                self._charge(key, charge)
                break

    def forked_runs(self, run: Any, machine: MachineConfig) -> List[Any]:
        """The forked runs host ``run`` keeps for lanes of ``machine``,
        most recently used first."""
        with self._lock:
            return [forked for forked in run.forked if forked.machine == machine]

    def forked_run_hit(self, run: Any, forked: Any) -> None:
        """Count a lane that ``forked``, kept on host ``run``, served,
        and mark it most recently used."""
        with self._lock:
            self.forked_run_hits += 1
            kept = run.forked
            if forked in kept:
                kept.remove(forked)
                kept.insert(0, forked)

    def forked_run_miss(self) -> None:
        """Count a tail attempt whose lane's verdicts left the tail."""
        with self._lock:
            self.forked_run_misses += 1

    def count_walk(self, checkpoints: int) -> None:
        """Count one walk over a host run's log (:mod:`repro.sim.walk`)
        and the lane checkpoints it took."""
        with self._lock:
            self.lane_walks += 1
            self.walk_checkpoints += checkpoints

    def keep_forked_run(self, run: Any, forked: Any) -> None:
        """Keep ``forked``, a verdict lane's run forked from host ``run``,
        on ``run`` (most recently used), charged while the memo holds
        ``run``; unless ``run`` keeps one like it already (same machine,
        fork cycle and tail).  Past :data:`FORKED_RUNS_PER_MACHINE` for
        that machine the least recently used goes."""
        with self._lock:
            kept = run.forked
            same = [other for other in kept if other.machine == forked.machine]
            if any(other.fork_cycle == forked.fork_cycle
                   and other.events == forked.events for other in same):
                return
            kept.insert(0, forked)
            charge = _log_charge(forked)
            if len(same) >= FORKED_RUNS_PER_MACHINE:
                kept.remove(same[-1])
                charge -= _log_charge(same[-1])
            self._charge_holder(run, charge)

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
                "snapshots": sum(len(run.snapshots)
                                 for entry in self._entries.values()
                                 for run in entry.hosts.values()),
                "snapshot_hits": self.snapshot_hits,
                "forks": self.forks,
                "forked_runs": sum(len(run.forked)
                                   for entry in self._entries.values()
                                   for run in entry.hosts.values()),
                "forked_run_hits": self.forked_run_hits,
                "forked_run_misses": self.forked_run_misses,
                "lane_walks": self.lane_walks,
                "walk_checkpoints": self.walk_checkpoints,
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
            self.snapshot_hits = self.forks = self.forked_run_hits = 0
            self.forked_run_misses = self.lane_walks = self.walk_checkpoints = 0


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
