"""Conventional associative-LQ checking, with optional search filters.

``ConventionalScheme`` is the paper's baseline (Section 2): every resolving
store CAM-searches the LQ for younger issued loads to the same address and
replays from the oldest match.

``YlaFilteredScheme`` (Section 3) and ``BloomFilteredScheme`` (Figure 3 /
[18]) keep that machinery but skip the search when their filter proves no
younger (YLA) / no aliasing (BF) issued load exists.  A filtered search is
counted separately — that count is the energy the filter saves.

A sound filter only skips searches that would find no victim, so it
changes energy, never timing (the paper's Section 3 argument).  The SoA
kernel exploits that: it has one implementation of this file, the
conventional search (``_ConventionalSoaHooks``).  A filtered point runs
it with event recording on and then replays the recorded log through its
filter (:meth:`ConventionalScheme.replay_lane`); a batch replays one
conventional run's log into every filter point that shares it (filter
*lanes*, see :func:`repro.sim.runner.run_many`), and, when that run was
squash-free, into every ``conventional-storesets`` point (store sets
never train without a violation).  The object-path hooks below remain
the per-event reference.
"""

from typing import List, Optional

from repro.backend.dyninst import DynInstr
from repro.core.bloom import CountingBloomFilter
from repro.core.schemes.base import (
    EV_COMMIT,
    EV_COMMITS,
    EV_LOAD,
    EV_LOAD_SAFE,
    EV_RECOVERY,
    EV_STORE,
    EV_STORE_VICTIM,
    EV_WRONGPATH,
    CheckScheme,
    SoaHooks,
)
from repro.core.yla import YlaFile
from repro.errors import SimulationError
from repro.lsq.queues import LoadQueue, StoreQueue, lq_violation_search_soa
from repro.stats.counters import CounterSet


class ConventionalScheme(CheckScheme):
    """Baseline: unfiltered associative LQ search at store resolution."""

    uses_associative_lq = True
    name = "conventional"

    def __init__(self, coherence: bool = False):
        super().__init__()
        self.coherence = coherence
        self.lq: Optional[LoadQueue] = None
        self.sq: Optional[StoreQueue] = None
        self.line_bytes = 128

    def attach(self, lq: LoadQueue, sq: StoreQueue, line_bytes: int) -> None:
        """Bind the pipeline's queues; called once by the processor."""
        self.lq = lq
        self.sq = sq
        self.line_bytes = line_bytes

    # ------------------------------------------------------------------
    def _should_search(self, store: DynInstr) -> bool:
        """Filter hook; the baseline always searches."""
        return True

    def on_store_resolve(self, store: DynInstr, cycle: int) -> Optional[DynInstr]:
        if self.lq is None:
            raise SimulationError("scheme not attached to queues")
        self.stats.bump("stores.resolved")
        if not self._should_search(store):
            # The queue attribute is the canonical count; the processor
            # exports it as ``lq.searches_filtered`` when building the
            # result (bumping scheme stats here as well double-counted it).
            self.lq.searches_filtered += 1
            if self.obs is not None:
                self.obs.store_classified(store, True, cycle)
            return None
        if self.obs is not None:
            self.obs.store_classified(store, False, cycle)
        self.stats.bump("lq.searches")
        victim = self.lq.search_younger_issued(store)
        if victim is not None:
            self.stats.bump("replay.execution_time")
        return victim

    def on_load_issue(self, load: DynInstr, cycle: int) -> Optional[DynInstr]:
        if not self.coherence:
            return None
        # Load-load ordering (Section 2): the issuing load searches the LQ
        # for *younger* issued loads to the same line that saw an
        # invalidation; replay from the oldest such load.
        self.lq.inv_searches += 1
        line = load.addr & ~(self.line_bytes - 1)
        for other in self.lq.ring:
            if (
                other.seq > load.seq
                and other.issue_cycle >= 0
                and other.inv_marked
                and (other.addr & ~(self.line_bytes - 1)) == line
            ):
                self.stats.bump("replay.coherence")
                return other
        return None

    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        if not self.coherence:
            return
        # Every invalidation searches the whole LQ to mark matching loads.
        self.lq.inv_searches += 1
        for load in self.lq.ring:
            if load.issue_cycle >= 0 and (load.addr & ~(line_bytes - 1)) == line_addr:
                load.inv_marked = True

    def soa_hooks(self, kernel):
        return _ConventionalSoaHooks(self, kernel)

    # -- the search filter, by address (the baseline has none) -----------
    def _filter_load(self, addr: int, seq: int) -> None:
        """A load issued."""

    def _filter_safe(self, addr: int, seq: int) -> bool:
        """Probe at store resolution: True proves no victim exists."""
        return False

    def _filter_commit(self, addr: int) -> None:
        """An issued load committed."""

    def _filter_squash(self, last_kept_seq: int, load_addrs) -> None:
        """A replay squashed everything younger than ``last_kept_seq``,
        including issued loads at ``load_addrs``."""

    # -- lane route: replay a recorded conventional run --------------------
    def replay_lane(self, events: List[int], label: str,
                    coherence_replays: int = 0) -> None:
        """Book this scheme's run from a recorded conventional run's
        ``events``, driving the filter through them.

        Fresh ``stats`` get what the object-path hooks book
        (``stores.resolved``, ``lq.searches``, ``stores.safe``,
        ``replay.execution_time``, the filter's own), and the attached LQ
        its search counts.  The log leaves out the coherent load-load
        check, which no filter changes: ``coherence_replays`` is the
        recording run's count.  A store the filter calls safe although
        the recorded search found a victim raises
        :class:`SimulationError` naming ``label``, the store's seq and
        its address: the filter would have let a premature load retire.
        """
        lq = self.lq
        if lq is None:
            raise SimulationError("scheme not attached to queues")
        # Fresh stats: a point that recorded its own run has booked the
        # unfiltered search there, and the hooks replayed below bump here.
        self.stats = stats = CounterSet()
        safe = self._filter_safe
        searches = filtered = victims = 0
        i = 0
        n = len(events)
        while i < n:
            op = events[i]
            if op == EV_LOAD or op == EV_LOAD_SAFE:
                self._filter_load(events[i + 1], events[i + 2])
                i += 3
            elif op == EV_COMMIT:
                self._filter_commit(events[i + 1])
                i += 2
            elif op == EV_STORE or op == EV_STORE_VICTIM:
                addr = events[i + 1]
                seq = events[i + 2]
                if safe(addr, seq):
                    if op == EV_STORE_VICTIM:
                        raise SimulationError(
                            f"filter lane {label} called store seq={seq} "
                            f"addr={addr:#x} safe, but the host's LQ search "
                            f"found a victim")
                    filtered += 1
                else:
                    searches += 1
                    if op == EV_STORE_VICTIM:
                        victims += 1
                i += 4
            elif op == EV_COMMITS:
                i += 3
            elif op == EV_WRONGPATH:
                self.on_wrongpath_load(events[i + 1], events[i + 2])
                i += 3
            elif op == EV_RECOVERY:
                self.on_recovery(events[i + 1])
                i += 2
            else:  # EV_SQUASH
                count = events[i + 2]
                self._filter_squash(events[i + 1], events[i + 3:i + 3 + count])
                i += 3 + count
        for name, value in (("stores.resolved", searches + filtered),
                            ("stores.safe", filtered),
                            ("lq.searches", searches),
                            ("replay.execution_time", victims),
                            ("replay.coherence", coherence_replays)):
            if value:
                stats[name] = value
        lq.searches = searches
        lq.searches_filtered = filtered


class FilteredScheme(ConventionalScheme):
    """Conventional LQ whose search a filter may skip (YLA, Bloom).

    Subclasses supply the filter as the four address-level ``_filter_*``
    operations of :class:`ConventionalScheme` plus the (already
    address-level) wrong-path and recovery hooks.  Both routes drive the
    same methods: the object path through the scheme hooks below, the SoA
    kernel by :meth:`~ConventionalScheme.replay_lane` over a recorded
    conventional run (see the module docstring).
    """

    # -- object-path hooks ------------------------------------------------
    def _should_search(self, store: DynInstr) -> bool:
        if self._filter_safe(store.addr, store.seq):
            self.stats.bump("stores.safe")
            return False
        return True

    def on_load_issue(self, load: DynInstr, cycle: int) -> Optional[DynInstr]:
        self._filter_load(load.addr, load.seq)
        return super().on_load_issue(load, cycle)

    def on_squash(self, last_kept_seq: int, squashed_loads: List[DynInstr]) -> None:
        self._filter_squash(last_kept_seq, [load.addr for load in squashed_loads
                                            if load.issue_cycle >= 0])

    def on_commit(self, instr: DynInstr, cycle: int):
        if instr.is_load and instr.issue_cycle >= 0:
            self._filter_commit(instr.addr)
        return super().on_commit(instr, cycle)


class YlaFilteredScheme(FilteredScheme):
    """Conventional LQ + YLA-based search filtering (Section 3)."""

    name = "yla"

    def __init__(self, num_registers: int = 8, granularity_bytes: int = 8,
                 coherence: bool = False):
        super().__init__(coherence=coherence)
        self.yla = YlaFile(num_registers, granularity_bytes)

    def _filter_load(self, addr: int, seq: int) -> None:
        self.yla.observe_load_issue(addr, seq)

    def _filter_safe(self, addr: int, seq: int) -> bool:
        return self.yla.store_is_safe(addr, seq)

    def _filter_squash(self, last_kept_seq: int, load_addrs) -> None:
        self.yla.rollback(last_kept_seq)

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        self.yla.observe_load_issue(addr, age)
        self.stats.bump("yla.wrongpath_updates")

    def on_recovery(self, last_kept_seq: int) -> None:
        self.yla.rollback(last_kept_seq)

    def collect(self) -> None:
        self.stats["yla.compares"] = self.yla.compares
        self.stats["yla.updates"] = self.yla.updates


class BloomFilteredScheme(FilteredScheme):
    """Conventional LQ + counting-Bloom-filter search filtering [18]."""

    name = "bloom"

    def __init__(self, entries: int = 1024, coherence: bool = False):
        super().__init__(coherence=coherence)
        self.bloom = CountingBloomFilter(entries)
        self._phantoms: List[int] = []

    def _filter_load(self, addr: int, seq: int) -> None:
        self.bloom.insert(addr)

    def _filter_safe(self, addr: int, seq: int) -> bool:
        return not self.bloom.may_contain(addr)

    def _filter_commit(self, addr: int) -> None:
        self.bloom.remove(addr)

    def _filter_squash(self, last_kept_seq: int, load_addrs) -> None:
        for addr in load_addrs:
            self.bloom.remove(addr)

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        # Phantom wrong-path loads enter the filter and are backed out at
        # recovery, matching the counting filter's squash behaviour.
        self.bloom.insert(addr)
        self._phantoms.append(addr)

    def on_recovery(self, last_kept_seq: int) -> None:
        for addr in self._phantoms:
            self.bloom.remove(addr)
        self._phantoms.clear()

    def collect(self) -> None:
        self.stats["bloom.probes"] = self.bloom.probes
        self.stats["bloom.inserts"] = self.bloom.inserts
        self.stats["bloom.removes"] = self.bloom.removes
        self.stats["bloom.entries"] = self.bloom.entries
        self.stats["bloom.saturations"] = self.bloom.saturations


class _ConventionalSoaHooks(SoaHooks):
    """Slot-index transcription of :class:`ConventionalScheme`.

    ``stats.bump`` sites match the object-path hooks one for one; the
    LQ search-count attributes (which the object path bumps inside
    :meth:`LoadQueue.search_younger_issued`) are batched in locals and
    folded back once per run.  With coherence on, loads also get the
    load-load ordering walk, over the kernel's ``invm`` slot marks.
    """

    has_store_resolve = True

    def __init__(self, scheme, kernel):
        super().__init__(scheme, kernel)
        self._searches = 0
        if scheme.coherence:
            self.has_load_issue = True

    def on_load_issue(self, slot: int) -> int:
        """Coherent load-load ordering (only called with coherence on):
        replay from the oldest younger issued load to the same line that
        saw an invalidation."""
        s = self.scheme
        k = self.k
        s.lq.inv_searches += 1
        mask = ~(s.line_bytes - 1)
        line = k.addr[slot] & mask
        lseq = k.seq[slot]
        seq_ = k.seq
        icyc_ = k.icyc
        invm_ = k.invm
        addr_ = k.addr
        for other in k.lq:
            if (seq_[other] > lseq and icyc_[other] >= 0 and invm_[other]
                    and (addr_[other] & mask) == line):
                s.stats.bump("replay.coherence")
                return other
        return -1

    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        if not self.scheme.coherence:
            return
        # Every invalidation searches the whole LQ to mark matching loads.
        k = self.k
        self.scheme.lq.inv_searches += 1
        mask = ~(line_bytes - 1)
        icyc_ = k.icyc
        addr_ = k.addr
        invm_ = k.invm
        for slot in k.lq:
            if icyc_[slot] >= 0 and (addr_[slot] & mask) == line_addr:
                invm_[slot] = True

    def _search(self, slot: int) -> int:
        """The unfiltered path: bump, search the slot-array LQ, classify."""
        s = self.scheme
        k = self.k
        s.stats.bump("lq.searches")
        self._searches += 1
        addr = k.addr[slot]
        victim = lq_violation_search_soa(
            k.lq, k.seq, k.addr, k.size, k.icyc,
            k.seq[slot], addr, addr + k.size[slot])
        if victim >= 0:
            s.stats.bump("replay.execution_time")
        return victim

    def on_store_resolve(self, slot: int) -> int:
        self.scheme.stats.bump("stores.resolved")
        return self._search(slot)

    def fold(self) -> None:
        self.scheme.lq.searches += self._searches
