"""Per-instruction pipeline event tracing and timeline rendering.

Set a :class:`PipelineTracer` as ``Processor.tracer`` before running and
every pipeline event (fetch, dispatch, issue, reject, complete, commit,
squash, replay) is recorded.  ``render_timeline`` prints a Konata-style
text chart — one row per dynamic instruction, one column per cycle —
which makes dependence stalls, rejections, and replay squashes visible
at a glance.  Intended for debugging and for the examples; tracing adds
overhead, so production runs leave ``Processor.tracer`` unset.

:class:`PipelineTracer` also defines the observer protocol the SoA
kernel calls (:mod:`repro.sim.soa`): :meth:`~PipelineTracer.bind` once
per run, :meth:`~PipelineTracer.record` and :meth:`~PipelineTracer.replay`
per pipeline event, and the scheme events, which the timeline ignores.
Events name an instruction by its seq and trace index.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Event mnemonics in pipeline order (later events overwrite earlier ones
#: when they land on the same cycle in the rendered chart).
EVENT_CHARS = {
    "fetch": "F",
    "dispatch": "D",
    "issue": "I",
    "reject": "j",
    "complete": "C",
    "commit": "R",      # retire
    "squash": "x",
    "replay": "!",
}


@dataclass
class TracedInstr:
    """Event record of one dynamic instruction instance."""

    seq: int
    trace_idx: int
    mnemonic: str
    events: List[Tuple[int, str]] = field(default_factory=list)
    squashed: bool = False

    def cycle_of(self, kind: str) -> Optional[int]:
        for cycle, k in self.events:
            if k == kind:
                return cycle
        return None


class PipelineTracer:
    """Bounded recorder of pipeline events.

    ``capacity`` bounds memory: only the most recent ``capacity`` dynamic
    instructions are retained (older rows are dropped from the front).
    """

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        #: The traced run's micro-ops, by trace index (see :meth:`bind`).
        self._ops = ()
        self._instrs: Dict[int, TracedInstr] = {}
        self._order: List[int] = []
        self.events_recorded = 0
        #: Highest sequence number ever evicted from the ring.  New rows
        #: are created in increasing-seq order (the first event of every
        #: dynamic instruction is its fetch), so any absent seq at or
        #: below this mark was evicted — late events for it (a squash or
        #: completion arriving after eviction) must be dropped rather
        #: than resurrecting a partial row out of order.
        self._evicted_through = -1

    # -- recording --------------------------------------------------------
    def bind(self, trace) -> None:
        """Take the run's trace, which names each row's micro-op; the
        kernel calls it before the first cycle."""
        self._ops = trace.ops

    def record(self, kind: str, seq: int, trace_idx: int, cycle: int) -> None:
        """Record one event for the dynamic instruction ``seq``, an
        instance of micro-op ``trace_idx``.

        Events for instructions already evicted from the ring (and every
        event when ``capacity <= 0``) are counted but not retained, so
        :meth:`instr`/:meth:`latency` answer ``None`` for evicted rows
        instead of returning stale partial ones.
        """
        self.events_recorded += 1
        entry = self._instrs.get(seq)
        if entry is None:
            if self.capacity <= 0 or seq <= self._evicted_through:
                return
            entry = TracedInstr(seq, trace_idx, self._ops[trace_idx].cls.name)
            self._instrs[seq] = entry
            self._order.append(seq)
            if len(self._order) > self.capacity:
                dropped = self._order.pop(0)
                self._instrs.pop(dropped, None)
                if dropped > self._evicted_through:
                    self._evicted_through = dropped
        entry.events.append((cycle, kind))
        if kind == "squash":
            entry.squashed = True

    def replay(self, seq: int, trace_idx: int, site: str, violated: bool,
               cycle: int) -> None:
        """A replay squashes from ``seq``, detected at ``site``
        (``commit``, ``execution`` or ``coherence``); ``violated`` says
        the load truly issued prematurely."""
        self.record("replay", seq, trace_idx, cycle)

    # -- scheme events (not part of the timeline) -------------------------
    def store_classified(self, seq: int, trace_idx: int, safe: bool,
                         cycle: int) -> None:
        """A resolving store's filter verdict."""

    def window_opened(self, cycle: int) -> None:
        """A DMDC checking window opened."""

    def window_closed(self, cycle: int, instrs: int, loads: int,
                      unsafe_stores: int) -> None:
        """A DMDC checking window closed, with its commit totals."""

    def table_marked(self, seq: int, trace_idx: int, cycle: int) -> None:
        """An unsafe store marked the checking table at commit."""

    def table_probed(self, seq: int, trace_idx: int, hit: bool,
                     cycle: int) -> None:
        """A committing load probed the checking table."""

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def instructions(self) -> List[TracedInstr]:
        """Traced instructions, oldest first."""
        return [self._instrs[seq] for seq in self._order]

    def instr(self, seq: int) -> Optional[TracedInstr]:
        return self._instrs.get(seq)

    def latency(self, seq: int, start: str = "fetch", end: str = "commit") -> Optional[int]:
        """Cycles between two events of one instruction, if both happened."""
        entry = self._instrs.get(seq)
        if entry is None:
            return None
        a, b = entry.cycle_of(start), entry.cycle_of(end)
        if a is None or b is None:
            return None
        return b - a

    # -- rendering --------------------------------------------------------
    def render_timeline(self, first_seq: Optional[int] = None,
                        max_rows: int = 40, max_width: int = 100) -> str:
        """ASCII pipeline chart: rows are instructions, columns cycles."""
        rows = [e for e in self.instructions()
                if first_seq is None or e.seq >= first_seq][:max_rows]
        # An evicted window (first_seq below everything retained, or the
        # whole requested range dropped) renders as empty, never raises.
        cells = [c for e in rows for c, _ in e.events]
        if not cells:
            return "(no traced instructions)"
        start = min(cells)
        end = max(cells)
        width = min(end - start + 1, max_width)
        lines = [f"cycles {start}..{start + width - 1}"]
        for entry in rows:
            lane = [" "] * width
            for cycle, kind in entry.events:
                col = cycle - start
                if 0 <= col < width:
                    lane[col] = EVENT_CHARS.get(kind, "?")
            flag = "x" if entry.squashed else " "
            lines.append(
                f"{entry.seq:6d} {entry.mnemonic:7s}{flag}|{''.join(lane)}|"
            )
        legend = " ".join(f"{c}={k}" for k, c in EVENT_CHARS.items())
        lines.append(f"legend: {legend}")
        return "\n".join(lines)
