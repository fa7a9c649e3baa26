"""Age-ordered load/store queue searches over the SoA kernel's slots.

These model the paper's baseline LSQ (Section 2 and 5):

* loads may issue while older stores still have unresolved addresses
  (speculative issue);
* the SQ forwards from the youngest older store with a resolved, fully
  covering address and ready data;
* a store whose address matches but whose data is not ready, or which only
  partially covers the load, *rejects* the load, which retries later
  (the POWER4-style behaviour the paper assumes);
* a resolving store associatively searches the LQ for younger loads that
  issued prematurely (in the conventional scheme).

The kernel (:mod:`repro.sim.soa`) keeps its LQ and SQ as age-ordered
deques of slot indices into parallel per-slot columns; the searches below
walk them in place.  They return plain ints (action codes, slot indices)
and bump no counters: the kernel and the schemes book each search count
once.  Dependence-checking schemes decide when the associative LQ search
actually happens, which is the whole point of the paper.

The searches are on the simulator's hottest path, so they iterate the
queue storage in place (no per-search copies) and exit as soon as the
outcome can no longer change.  That discipline is machine-enforced:
``repro check --static`` registers them in its hot-function catalogue
(rules REPRO004/REPRO005: no string-keyed counter bumps, no growable
allocations), and the shadow-oracle sanitizer
(:mod:`repro.analysis.sanitizer`) cross-checks every filter/replay
decision built on them against an independent associative oracle; see
``docs/correctness.md``.
"""

#: Outcome of a load's forwarding search.
SOA_CACHE = 0    # no conflicting older store: access the D-cache
SOA_FORWARD = 1  # youngest older matching store supplies the data
SOA_REJECT = 2   # matching store can't forward yet: retry later


def sq_forward_search_soa(sq_slots, seq_, addr_, size_, rcyc_, pdata_,
                          load_seq, l_addr, l_end):
    """Resolve a load's memory source against all older in-flight stores.

    ``sq_slots`` is the age-ordered SQ; the remaining array arguments are
    the kernel's per-slot columns.  Scans older stores youngest-first: the
    youngest older store with a resolved overlapping address decides the
    action; unresolved older stores make the load speculative but do not
    block it.  The scan stops once an outcome is found and an unresolved
    older store seen.  Returns ``(action, match_slot,
    all_older_resolved)``, ``match_slot`` -1 for no match;
    ``all_older_resolved`` marks the paper's *safe load*.
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


def lq_violation_search_soa(lq_slots, seq_, addr_, size_, icyc_,
                            s_seq, s_addr, s_end) -> int:
    """Conventional violation check: the slot of the oldest younger load,
    already issued, overlapping the store's bytes, or -1.

    Conservative (as in real designs): forwarding provenance is not
    inspected, so a load that forwarded from a younger store still
    matches.  Replaying from the oldest match covers every younger one,
    so the age-ordered scan returns on the first.
    """
    for slot in lq_slots:
        if seq_[slot] > s_seq and icyc_[slot] >= 0:
            l_addr = addr_[slot]
            if s_addr < l_addr + size_[slot] and l_addr < s_end:
                return slot
    return -1
