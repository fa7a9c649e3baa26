"""Age-ordered load and store queues.

These model the paper's baseline LSQ (Section 2 and 5):

* loads may issue while older stores still have unresolved addresses
  (speculative issue);
* the SQ forwards from the youngest older store with a resolved, fully
  covering address and ready data;
* a store whose address matches but whose data is not ready — or which only
  partially covers the load — *rejects* the load, which retries later
  (the POWER4-style behaviour the paper assumes);
* a resolving store associatively searches the LQ for younger loads that
  issued prematurely (in the conventional scheme).

The queues themselves are scheme-agnostic; dependence-checking schemes
decide when the associative LQ search actually happens, which is the whole
point of the paper.

Both search methods are on the simulator's hottest path, so they iterate
the ring storage in place (no per-search list copies) and exit as soon as
the outcome can no longer change.  That discipline is machine-enforced:
``repro check --static`` registers both methods in its hot-function
catalogue (rules REPRO004/REPRO005 — no string-keyed counter bumps, no
growable allocations), and the shadow-oracle sanitizer
(:mod:`repro.analysis.sanitizer`) cross-checks every filter/replay
decision built on these searches against an independent associative
oracle; see ``docs/correctness.md``.
"""

import enum
from typing import Dict, NamedTuple, Optional

from repro.backend.dyninst import DynInstr
from repro.utils.ring import RingBuffer


class ForwardAction(enum.Enum):
    """Outcome of a load's SQ search at issue time."""

    CACHE = "cache"      # no conflicting older store: access the D-cache
    FORWARD = "forward"  # youngest older matching store supplies the data
    REJECT = "reject"    # matching store can't forward yet: retry later


class ForwardResult(NamedTuple):
    """Outcome of one forwarding search.

    A NamedTuple, built at most once per load issue attempt; the SoA
    kernel's :func:`sq_forward_search_soa` returns the same three facts as
    a plain tuple of ints and never constructs this type at all.
    """

    action: ForwardAction
    store: Optional[DynInstr]
    #: True when every older store in the SQ had a resolved address, i.e.
    #: the load is provably not a premature load (the paper's *safe load*).
    all_older_resolved: bool


_CACHE = ForwardAction.CACHE
_FORWARD = ForwardAction.FORWARD
_REJECT = ForwardAction.REJECT


class StoreQueue:
    """Age-ordered store queue with forwarding search."""

    def __init__(self, capacity: int):
        self.ring = RingBuffer(capacity)
        self.searches = 0
        self.searches_filtered = 0
        #: seq -> entry index for O(1) lookups by age (forwarding
        #: provenance checks); maintained by allocate/retire/squash.
        self.by_seq: Dict[int, DynInstr] = {}

    def __len__(self) -> int:
        return len(self.ring)

    @property
    def full(self) -> bool:
        return self.ring.full

    def allocate(self, store: DynInstr) -> None:
        self.ring.push(store)
        self.by_seq[store.seq] = store

    def retire_head(self, store: DynInstr) -> None:
        if self.ring.head() is not store:
            raise AssertionError("SQ retired out of order")
        self.ring.pop()
        del self.by_seq[store.seq]

    def squash_younger(self, last_kept_seq: int) -> None:
        for victim in self.ring.squash_younger(lambda s: s.seq <= last_kept_seq):
            del self.by_seq[victim.seq]

    def find(self, seq: int) -> Optional[DynInstr]:
        """The in-flight store with age ``seq``, or None."""
        return self.by_seq.get(seq)

    def search_for_forwarding(self, load: DynInstr, count_search: bool = True) -> ForwardResult:
        """Resolve a load's memory source against all older in-flight stores.

        Scans older stores youngest-first.  The youngest older store with a
        resolved overlapping address decides the outcome; unresolved older
        stores make the load speculative but do not block it.  The scan
        stops early once both facts are settled: an outcome has been found
        and an unresolved older store has been seen.
        """
        if count_search:
            self.searches += 1
        else:
            self.searches_filtered += 1
        load_seq = load.seq
        l_addr = load.addr
        l_end = l_addr + load.size
        all_resolved = True
        action = _CACHE
        match: Optional[DynInstr] = None
        # Byte-range overlap/containment is inlined (see utils.bitops for
        # the reference arithmetic); this loop runs once per issued load.
        for store in reversed(self.ring.items):
            if store.seq >= load_seq:
                continue
            if store.resolve_cycle < 0:
                all_resolved = False
                if match is not None:
                    break
                continue
            if match is None:
                s_addr = store.addr
                if s_addr < l_end and l_addr < s_addr + store.size:
                    match = store
                    if (
                        s_addr <= l_addr
                        and l_end <= s_addr + store.size
                        and store.pending_data == 0
                    ):
                        action = _FORWARD
                    else:
                        action = _REJECT
                    if not all_resolved:
                        break
        return ForwardResult(action, match, all_resolved)

    def oldest_unresolved_seq(self) -> Optional[int]:
        """Age of the oldest store without a resolved address, if any.

        Supports the paper's Section 3 SQ-filtering extension: loads older
        than every in-flight store can skip the SQ search entirely.
        """
        for store in self.ring:
            if store.resolve_cycle < 0:
                return store.seq
        return None


class LoadQueue:
    """Age-ordered load queue.

    In the conventional scheme this is a fully associative CAM searched by
    every resolving store; under DMDC it degenerates into a FIFO of hash
    keys (the search methods are simply never called, and the energy model
    charges the cheaper structure).
    """

    def __init__(self, capacity: int):
        self.ring = RingBuffer(capacity)
        self.searches = 0
        self.searches_filtered = 0
        self.inv_searches = 0

    def __len__(self) -> int:
        return len(self.ring)

    @property
    def full(self) -> bool:
        return self.ring.full

    def allocate(self, load: DynInstr) -> None:
        self.ring.push(load)

    def retire_head(self, load: DynInstr) -> None:
        if self.ring.head() is not load:
            raise AssertionError("LQ retired out of order")
        self.ring.pop()

    def squash_younger(self, last_kept_seq: int) -> None:
        self.ring.squash_younger(lambda l: l.seq <= last_kept_seq)

    def search_younger_issued(self, store: DynInstr) -> Optional[DynInstr]:
        """Conventional violation check: oldest younger load, already issued,
        overlapping the store's bytes.

        Conservative (as in real designs): forwarding provenance is not
        inspected, so a load that forwarded from a younger store still
        matches.  Returns the *oldest* such load — replaying from it covers
        every younger one; the age-ordered scan returns on the first match.
        """
        self.searches += 1
        s_seq = store.seq
        s_addr = store.addr
        s_end = s_addr + store.size
        for load in self.ring.items:
            if load.seq > s_seq and load.issue_cycle >= 0:
                l_addr = load.addr
                if s_addr < l_addr + load.size and l_addr < s_end:
                    return load
        return None


# ======================================================================
# Slot-array search kernels (the SoA cycle loop's LSQ)
# ======================================================================
#
# The SoA kernel (:mod:`repro.sim.soa`) keeps its LQ/SQ as plain lists of
# slot indices into parallel state arrays; these free functions are the
# exact transcriptions of the two searches above over that layout.  They
# return plain ints (action codes, slot indices) and bump no counters —
# the kernel accumulates search counts in locals and folds them into the
# queue objects once per run, so the externally visible totals match the
# object path bit for bit.

#: Integer action codes mirroring :class:`ForwardAction` member for member.
SOA_CACHE = 0
SOA_FORWARD = 1
SOA_REJECT = 2


def sq_forward_search_soa(sq_slots, seq_, addr_, size_, rcyc_, pdata_,
                          load_seq, l_addr, l_end):
    """:meth:`StoreQueue.search_for_forwarding` over slot arrays.

    ``sq_slots`` is the age-ordered list of SQ slot indices; the remaining
    array arguments are the kernel's parallel per-slot state.  Returns
    ``(action, match_slot, all_older_resolved)`` with ``match_slot`` -1
    for no match — the same three facts as :class:`ForwardResult`, with
    the same youngest-first scan and the same early exit.
    """
    all_resolved = True
    action = SOA_CACHE
    match = -1
    for slot in reversed(sq_slots):
        if seq_[slot] >= load_seq:
            continue
        if rcyc_[slot] < 0:
            all_resolved = False
            if match >= 0:
                break
            continue
        if match < 0:
            s_addr = addr_[slot]
            if s_addr < l_end and l_addr < s_addr + size_[slot]:
                match = slot
                if (
                    s_addr <= l_addr
                    and l_end <= s_addr + size_[slot]
                    and pdata_[slot] == 0
                ):
                    action = SOA_FORWARD
                else:
                    action = SOA_REJECT
                if not all_resolved:
                    break
    return action, match, all_resolved


def sq_has_unresolved_soa(sq_slots, rcyc_) -> bool:
    """:meth:`StoreQueue.oldest_unresolved_seq` truth-value over slot arrays
    (the livelock guard only asks *whether* an unresolved store exists)."""
    for slot in sq_slots:
        if rcyc_[slot] < 0:
            return True
    return False


def lq_violation_search_soa(lq_slots, seq_, addr_, size_, icyc_,
                            s_seq, s_addr, s_end) -> int:
    """:meth:`LoadQueue.search_younger_issued` over slot arrays.

    Returns the slot of the oldest younger issued overlapping load, or -1.
    """
    for slot in lq_slots:
        if seq_[slot] > s_seq and icyc_[slot] >= 0:
            l_addr = addr_[slot]
            if s_addr < l_addr + size_[slot] and l_addr < s_end:
                return slot
    return -1
