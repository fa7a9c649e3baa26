"""Conventional associative-LQ checking, with optional search filters.

``ConventionalScheme`` is the paper's baseline (Section 2): every resolving
store CAM-searches the LQ for younger issued loads to the same address and
replays from the oldest match.

``YlaFilteredScheme`` (Section 3) and ``BloomFilteredScheme`` (Figure 3 /
[18]) keep that machinery but skip the search when their filter proves no
younger (YLA) / no aliasing (BF) issued load exists.  A filtered search is
counted separately — that count is the energy the filter saves.

A sound filter only skips searches that would find no victim, so it
changes energy, never timing (the paper's Section 3 argument).  A run
filters inline: the filters' adapter (``_FilteredSoaHooks``) drives the
filter per event around the conventional search
(``_ConventionalSoaHooks``).  A batch replays one conventional run's
recorded log through the filter of every other filter point that shares
it, whatever that point's seed (filter *lanes*: the group's walk drives
the ``_filter_*`` ops, :mod:`repro.sim.walk`, see
:func:`repro.sim.runner.run_many`), and, when that run was squash-free,
into every ``conventional-storesets`` point (store sets never train
without a violation).
"""

from typing import List

from repro.core.bloom import CountingBloomFilter
from repro.core.schemes.base import CheckScheme, SoaHooks
from repro.core.yla import YlaFile
from repro.lsq.queues import lq_violation_search_soa


class ConventionalScheme(CheckScheme):
    """Baseline: unfiltered associative LQ search at store resolution."""

    uses_associative_lq = True
    name = "conventional"

    def __init__(self, coherence: bool = False, line_bytes: int = 128):
        super().__init__()
        self.coherence = coherence
        #: Coherence granule of the load-load ordering check.
        self.line_bytes = line_bytes
        #: Whole-LQ walks the coherence checks made (``lq.inv_searches``).
        #: The store-resolve searches are booked in ``stats``:
        #: ``lq.searches``, or ``stores.safe`` when a filter skipped one.
        self.inv_searches = 0

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


class FilteredScheme(ConventionalScheme):
    """Conventional LQ whose search a filter may skip (YLA, Bloom).

    Subclasses supply the filter as the four address-level ``_filter_*``
    operations of :class:`ConventionalScheme` plus the (already
    address-level) wrong-path and recovery hooks.  A run drives them
    inline through ``_FilteredSoaHooks``; a lane's walk over a recorded
    conventional run drives them per record (see the module docstring).
    """

    def soa_hooks(self, kernel):
        return _FilteredSoaHooks(self, kernel)


class YlaFilteredScheme(FilteredScheme):
    """Conventional LQ + YLA-based search filtering (Section 3)."""

    name = "yla"

    def __init__(self, num_registers: int = 8, granularity_bytes: int = 8,
                 coherence: bool = False, line_bytes: int = 128):
        super().__init__(coherence, line_bytes)
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

    def __init__(self, entries: int = 1024, coherence: bool = False,
                 line_bytes: int = 128):
        super().__init__(coherence, line_bytes)
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
    """The conventional LQ search at store resolve and, with coherence
    on, the load-load ordering walk at load issue over the view's
    invalidation marks (``invm``)."""

    has_store_resolve = True

    def __init__(self, scheme, kernel):
        super().__init__(scheme, kernel)
        if scheme.coherence:
            self.has_load_issue = True

    def on_load_issue(self, slot: int) -> int:
        """Coherent load-load ordering (only called with coherence on):
        replay from the oldest younger issued load to the same line that
        saw an invalidation."""
        s = self.scheme
        k = self.k
        s.inv_searches += 1
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
        self.scheme.inv_searches += 1
        mask = ~(line_bytes - 1)
        icyc_ = k.icyc
        addr_ = k.addr
        invm_ = k.invm
        for slot in k.lq:
            if icyc_[slot] >= 0 and (addr_[slot] & mask) == line_addr:
                invm_[slot] = True

    def on_store_resolve(self, slot: int) -> int:
        s = self.scheme
        k = self.k
        s.stats.bump("stores.resolved")
        if k.emit is not None:
            k.emit.store_classified(k.seq[slot], k.tidx[slot], False, k.cycle)
        s.stats.bump("lq.searches")
        addr = k.addr[slot]
        victim = lq_violation_search_soa(
            k.lq, k.seq, k.addr, k.size, k.icyc,
            k.seq[slot], addr, addr + k.size[slot])
        if victim != -1:
            s.stats.bump("replay.execution_time")
        return victim


class _FilteredSoaHooks(_ConventionalSoaHooks):
    """The conventional adapter with the scheme's search filter inline:
    every issued load enters the filter, a store the filter proves safe
    skips the LQ search, committed and squashed loads leave it."""

    has_load_issue = True
    commit_mode = 1

    def on_load_issue(self, slot: int) -> int:
        k = self.k
        self.scheme._filter_load(k.addr[slot], k.seq[slot])
        return super().on_load_issue(slot) if self.scheme.coherence else -1

    def on_store_resolve(self, slot: int) -> int:
        s = self.scheme
        k = self.k
        if not s._filter_safe(k.addr[slot], k.seq[slot]):
            return super().on_store_resolve(slot)
        s.stats.bump("stores.resolved")
        # The filtered-search count (``lq.searches_filtered``).
        s.stats.bump("stores.safe")
        if k.emit is not None:
            k.emit.store_classified(k.seq[slot], k.tidx[slot], True, k.cycle)
        return -1

    def on_commit_load(self, slot: int) -> bool:
        self.scheme._filter_commit(self.k.addr[slot])
        return False

    def on_squash(self, last_kept_seq: int, victims) -> None:
        k = self.k
        self.scheme._filter_squash(last_kept_seq, [
            k.addr[v] for v in victims if k.isld[v] and k.icyc[v] >= 0])
