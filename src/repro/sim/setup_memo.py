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
  gets its own copy instead of replaying every fetch.

The memo is bounded by the micro-ops its traces retain
(:data:`MAX_RETAINED_OPS`), evicting least recently used traces together
with their warm front ends.  One lock (from :func:`make_lock`, since the
sharded service runs several batcher threads per process) guards the
tables; generation and prewarm run outside it.  See the "setup memo"
section of ``docs/performance.md``.
"""

import json
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.isa.trace import Trace
from repro.sim.config import MachineConfig
from repro.utils.sync import make_lock
from repro.workloads import SyntheticWorkload

#: Upper bound on the micro-ops held by memoized traces, across the
#: process.  A retained op costs about 330 bytes with its SoA columns
#: (see ``docs/performance.md``), so the bound is roughly 65 MB.
MAX_RETAINED_OPS = 200_000


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
    __slots__ = ("trace", "fronts")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.fronts: Dict[Tuple[Any, ...], FrontEnd] = {}


class SetupMemo:
    """The bounded trace and warm-front-end tables plus their counters."""

    def __init__(self) -> None:
        self._lock = make_lock("SetupMemo._lock")
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.retained_ops = 0
        self.trace_hits = 0
        self.trace_misses = 0
        self.trace_evictions = 0
        self.warm_hits = 0
        self.warm_misses = 0

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
            while self.retained_ops > MAX_RETAINED_OPS and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self.retained_ops -= len(evicted.trace)
                self.trace_evictions += 1
        return trace

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

    def stats(self) -> Dict[str, int]:
        """Counters since the last :meth:`clear` ("why was this point fast")."""
        with self._lock:
            return {
                "trace_hits": self.trace_hits,
                "trace_misses": self.trace_misses,
                "trace_evictions": self.trace_evictions,
                "warm_hits": self.warm_hits,
                "warm_misses": self.warm_misses,
                "traces": len(self._entries),
                "retained_ops": self.retained_ops,
            }

    def clear(self) -> None:
        """Drop every entry and zero the counters (tests, cold benches)."""
        with self._lock:
            self._entries.clear()
            self.retained_ops = 0
            self.trace_hits = self.trace_misses = self.trace_evictions = 0
            self.warm_hits = self.warm_misses = 0


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
