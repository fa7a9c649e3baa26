"""The observability recorder: an observer on the kernel's one seam.

:class:`ObservabilityRecorder` implements the observer protocol of
:class:`~repro.sim.pipetrace.PipelineTracer` and is attached as the
processor's ``tracer``, so the SoA kernel calls it at every event:

* pipeline events (:meth:`record`), forwarded to an internal
  :class:`~repro.sim.pipetrace.PipelineTracer` for the pipetrace-aligned
  timeline while accumulating attribution totals;
* replays (:meth:`replay`), with the detection site
  (commit/execution/coherence) and the simulator's ground-truth flag,
  from which it derives the verdict (true/false);
* scheme events, reached through the adapter's view:
  :meth:`store_classified`, :meth:`window_opened`, :meth:`window_closed`,
  :meth:`table_marked`, :meth:`table_probed` receive filter outcomes and
  checking-window/table activity.

Events carry seq, trace index and cycle; :meth:`bind` gives the recorder
the trace, which supplies each event's PC and whether it is a load or a
store.  Cycles the kernel's skipper jumps over have no event, so they
count as idle, exactly as a per-cycle stepper would classify them.

Attribution is streaming: cycle buckets, structure residency integrals,
and replay-site tallies are folded as events arrive, so memory stays
bounded regardless of run length.  :func:`attach_observer` wires one
recorder onto a freshly-built processor; :func:`detach_observer` undoes
it (a later run then takes the SoA kernel again).
"""

from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.obs.events import EventRing, JsonlSink, ObsEvent
from repro.sim.pipetrace import PipelineTracer

#: Cycle-classification bitmask per pipeline event kind.  A cycle with at
#: least one event is attributed to exactly one bucket by priority
#: (replay > commit > issue > dispatch > fetch > writeback); cycles with
#: no pipeline event at all are idle.
_BIT_REPLAY = 1
_BIT_COMMIT = 2
_BIT_ISSUE = 4
_BIT_DISPATCH = 8
_BIT_FETCH = 16
_BIT_WRITEBACK = 32

_KIND_BITS = {
    "commit": _BIT_COMMIT,
    "issue": _BIT_ISSUE,
    "reject": _BIT_ISSUE,
    "dispatch": _BIT_DISPATCH,
    "fetch": _BIT_FETCH,
    "complete": _BIT_WRITEBACK,
    "squash": _BIT_WRITEBACK,
}

#: Bucket names in classification priority order, plus the derived idle
#: remainder.  ``replay`` cycles are squash-and-refetch turnarounds;
#: ``writeback`` is a cycle whose only activity was completion/squash.
CYCLE_BUCKETS = ("replay", "commit", "issue", "dispatch", "fetch",
                 "writeback", "idle")

#: Pipeline event kinds counted by :meth:`ObservabilityRecorder.record`.
PIPELINE_KINDS = ("fetch", "dispatch", "issue", "reject", "complete",
                  "commit", "squash")

#: Replay detection sites, matching the three processor replay paths.
REPLAY_SITES = ("commit", "execution", "coherence")


class ReplaySite:
    """Per-PC replay tally with a cause breakdown."""

    __slots__ = ("pc", "count", "causes", "last_seq", "last_cycle")

    def __init__(self, pc: int):
        self.pc = pc
        self.count = 0
        self.causes: Dict[str, int] = {}
        self.last_seq = -1
        self.last_cycle = -1

    def to_dict(self) -> dict:
        return {"pc": self.pc, "count": self.count, "causes": dict(self.causes),
                "last_seq": self.last_seq, "last_cycle": self.last_cycle}


class ObservabilityRecorder:
    """Streaming event recorder + attribution accumulator (one per run)."""

    def __init__(self, ring_capacity: int = 4096,
                 jsonl_path: Optional[str] = None,
                 timeline_capacity: int = 256):
        self.ring = EventRing(ring_capacity)
        self.jsonl: Optional[JsonlSink] = (
            JsonlSink(jsonl_path) if jsonl_path else None)
        #: Internal pipetrace for the profile's timeline rendering.
        self.tracer = PipelineTracer(capacity=timeline_capacity)
        self.events_emitted = 0

        # -- pipeline event counts ----------------------------------------
        self.pipeline_counts: Dict[str, int] = {k: 0 for k in PIPELINE_KINDS}
        self.dispatch_loads = 0
        self.dispatch_stores = 0

        # -- cycle buckets (streaming) -------------------------------------
        self.cycle_buckets: Dict[str, int] = {b: 0 for b in CYCLE_BUCKETS}
        self._cur_cycle = -1
        self._cur_flags = 0

        # -- structure residency integrals ---------------------------------
        # Residency is summed at exit (commit or squash) from each
        # instruction's own dispatch cycle, so no per-entry storage is
        # needed: mean occupancy = residency / total cycles.
        self.rob_residency = 0
        self.lq_residency = 0
        self.sq_residency = 0
        self.rob_retired = 0
        self.rob_squashed = 0
        self.lq_retired = 0
        self.lq_squashed = 0
        self.sq_retired = 0
        self.sq_squashed = 0

        # -- replays --------------------------------------------------------
        self.replay_total = 0
        self.replays_by_site: Dict[str, int] = {s: 0 for s in REPLAY_SITES}
        self.replays_by_verdict: Dict[str, int] = {"true": 0, "false": 0,
                                                   "coherence": 0}
        self.replays_by_cause: Dict[str, int] = {}
        self.replay_sites: Dict[int, ReplaySite] = {}

        # -- scheme events ---------------------------------------------------
        self.stores_safe = 0
        self.stores_unsafe = 0
        self.windows_opened = 0
        self.windows_closed = 0
        self.window_cycles = 0
        self._window_open_cycle = -1
        self.table_marks = 0
        self.table_probes = 0
        self.table_probe_hits = 0
        self.finished = False

        # -- per-run state -------------------------------------------------
        #: The observed run's micro-ops, by trace index (see :meth:`bind`).
        self._ops = ()
        #: Dispatch cycle of every in-flight dispatched instruction, by
        #: seq, for the residency integrals.
        self._dispatched: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _emit(self, cycle: int, kind: str, seq: int, pc: int, detail: str) -> None:
        event = ObsEvent(cycle, kind, seq, pc, detail)
        self.ring.append(event)
        if self.jsonl is not None:
            self.jsonl.append(event)
        self.events_emitted += 1

    def _tick(self, cycle: int, bit: int) -> None:
        """Fold one pipeline event into the streaming cycle buckets.

        Events arrive cycle-monotonic (every stage of one kernel cycle
        shares its cycle), so a single current-cycle flag word suffices.
        """
        if cycle != self._cur_cycle:
            if self._cur_cycle >= 0:
                self._flush_bucket()
            self._cur_cycle = cycle
            self._cur_flags = bit
        else:
            self._cur_flags |= bit

    def _flush_bucket(self) -> None:
        flags = self._cur_flags
        buckets = self.cycle_buckets
        if flags & _BIT_REPLAY:
            buckets["replay"] += 1
        elif flags & _BIT_COMMIT:
            buckets["commit"] += 1
        elif flags & _BIT_ISSUE:
            buckets["issue"] += 1
        elif flags & _BIT_DISPATCH:
            buckets["dispatch"] += 1
        elif flags & _BIT_FETCH:
            buckets["fetch"] += 1
        elif flags:
            buckets["writeback"] += 1

    # ------------------------------------------------------------------
    # pipeline events
    # ------------------------------------------------------------------
    def bind(self, trace) -> None:
        """Take the observed run's trace (called before the first cycle)."""
        self._ops = trace.ops
        self.tracer.bind(trace)

    def record(self, kind: str, seq: int, trace_idx: int, cycle: int) -> None:
        """One pipeline event for one dynamic instruction."""
        self.tracer.record(kind, seq, trace_idx, cycle)
        self.pipeline_counts[kind] += 1
        self._tick(cycle, _KIND_BITS[kind])
        uop = self._ops[trace_idx]
        if kind == "commit" or kind == "squash":
            residency = cycle - self._dispatched.pop(seq) + 1
            self.rob_residency += residency
            if kind == "commit":
                self.rob_retired += 1
                if uop.is_load:
                    self.lq_residency += residency
                    self.lq_retired += 1
                elif uop.is_store:
                    self.sq_residency += residency
                    self.sq_retired += 1
            else:
                self.rob_squashed += 1
                if uop.is_load:
                    self.lq_residency += residency
                    self.lq_squashed += 1
                elif uop.is_store:
                    self.sq_residency += residency
                    self.sq_squashed += 1
        elif kind == "dispatch":
            self._dispatched[seq] = cycle
            if uop.is_load:
                self.dispatch_loads += 1
            elif uop.is_store:
                self.dispatch_stores += 1
        self._emit(cycle, kind, seq, uop.pc, "")

    def replay(self, seq: int, trace_idx: int, site: str, violated: bool,
               cycle: int) -> None:
        """One replay, from detection site ``site`` (see REPLAY_SITES).

        The verdict distinguishes the paper's taxonomy at the granularity
        the processor can see: a *true* replay squashes a load the
        ground-truth checker flagged premature (``violated``); a *false*
        one squashes a clean load; coherence-site replays are
        invalidation-ordering replays and are tallied separately.
        """
        self.tracer.replay(seq, trace_idx, site, violated, cycle)
        if site == "coherence":
            verdict = "coherence"
        elif violated:
            verdict = "true"
        else:
            verdict = "false"
        cause = site + ":" + verdict
        self.replay_total += 1
        self.replays_by_site[site] += 1
        self.replays_by_verdict[verdict] += 1
        self.replays_by_cause[cause] = self.replays_by_cause.get(cause, 0) + 1
        pc = self._ops[trace_idx].pc
        entry = self.replay_sites.get(pc)
        if entry is None:
            entry = ReplaySite(pc)
            self.replay_sites[pc] = entry
        entry.count += 1
        entry.causes[cause] = entry.causes.get(cause, 0) + 1
        entry.last_seq = seq
        entry.last_cycle = cycle
        self._tick(cycle, _BIT_REPLAY)
        self._emit(cycle, "replay", seq, pc, cause)

    # ------------------------------------------------------------------
    # scheme events
    # ------------------------------------------------------------------
    def store_classified(self, seq: int, trace_idx: int, safe: bool,
                         cycle: int) -> None:
        """A resolving store was classified by the scheme's filter.

        ``safe`` means the YLA/Bloom/age-hash filter proved no younger
        issued load can alias (a filter *hit*: the LQ search or checking
        work is skipped); unsafe stores pay the full checking cost.
        """
        pc = self._ops[trace_idx].pc
        if safe:
            self.stores_safe += 1
            self._emit(cycle, "store_safe", seq, pc, "")
        else:
            self.stores_unsafe += 1
            self._emit(cycle, "store_unsafe", seq, pc, "")

    def window_opened(self, cycle: int) -> None:
        self.windows_opened += 1
        self._window_open_cycle = cycle
        self._emit(cycle, "window_open", -1, -1, "")

    def window_closed(self, cycle: int, instrs: int, loads: int,
                      unsafe_stores: int) -> None:
        self._close_window(cycle, f"instrs={instrs} loads={loads} "
                                  f"unsafe_stores={unsafe_stores}")

    def _close_window(self, cycle: int, detail: str) -> None:
        self.windows_closed += 1
        # Mirrors the scheme's own checking.cycles accounting exactly.
        self.window_cycles += max(1, cycle - self._window_open_cycle + 1)
        self._window_open_cycle = -1
        self._emit(cycle, "window_close", -1, -1, detail)

    def table_marked(self, seq: int, trace_idx: int, cycle: int) -> None:
        self.table_marks += 1
        self._emit(cycle, "table_mark", seq, self._ops[trace_idx].pc, "")

    def table_probed(self, seq: int, trace_idx: int, hit: bool,
                     cycle: int) -> None:
        self.table_probes += 1
        if hit:
            self.table_probe_hits += 1
        self._emit(cycle, "table_probe", seq, self._ops[trace_idx].pc,
                   "hit" if hit else "miss")

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def finish(self, total_cycles: int) -> None:
        """Flush the streaming state; called once after the run completes.

        A checking window still open is closed at the run's last cycle,
        as the scheme's ``finalize`` closes it (which has no view to emit
        through).
        """
        if self.finished:
            return
        if self._window_open_cycle >= 0:
            self._close_window(total_cycles, "run end")
        if self._cur_cycle >= 0:
            self._flush_bucket()
            self._cur_cycle = -1
            self._cur_flags = 0
        classified = sum(self.cycle_buckets[b] for b in CYCLE_BUCKETS
                         if b != "idle")
        self.cycle_buckets["idle"] = max(0, total_cycles - classified)
        if self.jsonl is not None:
            self.jsonl.close()
        self.finished = True

    def top_replay_sites(self, n: int = 10) -> List[ReplaySite]:
        """The ``n`` program counters with the most replays, descending."""
        ranked = sorted(self.replay_sites.values(),
                        key=lambda site: (-site.count, site.pc))
        return ranked[:n]


def attach_observer(processor,
                    recorder: Optional[ObservabilityRecorder] = None,
                    **recorder_kwargs) -> ObservabilityRecorder:
    """Attach one recorder as ``processor``'s observer.

    Must run before the first cycle (the recorder needs to see every
    event from cycle zero for its attribution to reconcile).  The run
    takes the SoA kernel as usual — results are bit-identical either way
    (pinned by ``tests/test_obs_matrix.py``).
    """
    if processor.cycle != 0:
        raise SimulationError(
            "attach_observer requires a fresh processor (cycle 0); "
            f"this one is at cycle {processor.cycle}")
    if processor.tracer is not None:
        raise SimulationError(
            "processor already has a tracer; the recorder provides its own "
            "timeline (ObservabilityRecorder.tracer)")
    if recorder is None:
        recorder = ObservabilityRecorder(**recorder_kwargs)
    processor.tracer = recorder
    return recorder


def detach_observer(processor, recorder: ObservabilityRecorder) -> None:
    """Undo :func:`attach_observer`."""
    if processor.tracer is recorder:
        processor.tracer = None
