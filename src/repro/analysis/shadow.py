"""Shadow associative oracle LQ/SQ for the memory-ordering sanitizer.

An independent, deliberately naive reimplementation of the ground-truth
store→load ordering semantics the paper's schemes must preserve (Section 2):
a load that issues before an older overlapping store's address resolves has
consumed stale data — *unless* it forwarded from a store younger than the
resolving one whose bytes fully cover it.

The oracle mirrors the in-flight LQ/SQ contents from the scheme hook
events alone (load issue, store resolve, commit, squash) and never reads
the pipeline's own ground-truth flags (the kernel's ``tvs`` column), so
it can cross-validate both the scheme under test *and* the simulator's
built-in checker.  Everything here is O(queue length) per event — the
oracle is a correctness tool, not a fast path.
"""

from typing import Dict, List, Optional


class ShadowLoad:
    """Oracle record of one issued, in-flight load."""

    __slots__ = ("seq", "addr", "size", "forward_store_seq", "violated_by")

    def __init__(self, seq: int, addr: int, size: int, forward_store_seq: int):
        self.seq = seq
        self.addr = addr
        self.size = size
        #: seq of the store the load forwarded from, or -1.
        self.forward_store_seq = forward_store_seq
        #: seq of the oldest resolving store this load truly violated
        #: (premature issue); -1 while clean.
        self.violated_by = -1


class ShadowStore:
    """Oracle record of one address-resolved, in-flight store."""

    __slots__ = ("seq", "addr", "size")

    def __init__(self, seq: int, addr: int, size: int):
        self.seq = seq
        self.addr = addr
        self.size = size


class ShadowLSQ:
    """Fully associative oracle load/store queues.

    Keyed by dynamic age (``seq``); dict insertion order is age order
    because issue/resolve events arrive with strictly increasing ages only
    between squashes, and squashes trim from the young end.
    """

    def __init__(self):
        self.loads: Dict[int, ShadowLoad] = {}
        self.stores: Dict[int, ShadowStore] = {}
        #: total loads the oracle ever flagged as true premature issues
        self.violations_flagged = 0

    # -- event mirroring --------------------------------------------------
    def load_issued(self, seq: int, addr: int, size: int,
                    forward_store_seq: int = -1) -> ShadowLoad:
        rec = ShadowLoad(seq, addr, size, forward_store_seq)
        self.loads[seq] = rec
        return rec

    def store_resolved(self, seq: int, addr: int, size: int) -> List[ShadowLoad]:
        """Associatively search the shadow LQ; flag true premature loads.

        Returns the loads *newly* flagged against this store.  A younger
        issued load overlapping the store's bytes is premature unless it
        forwarded from a store younger than this one that fully covers it
        (its data cannot be stale).
        """
        self.stores[seq] = ShadowStore(seq, addr, size)
        s_seq = seq
        s_addr = addr
        s_end = addr + size
        flagged: List[ShadowLoad] = []
        for rec in self.loads.values():
            if rec.seq <= s_seq or rec.violated_by >= 0:
                continue
            if s_addr >= rec.addr + rec.size or rec.addr >= s_end:
                continue
            if rec.forward_store_seq > s_seq:
                fwd = self.stores.get(rec.forward_store_seq)
                if (
                    fwd is not None
                    and fwd.addr <= rec.addr
                    and rec.addr + rec.size <= fwd.addr + fwd.size
                ):
                    continue
            rec.violated_by = s_seq
            self.violations_flagged += 1
            flagged.append(rec)
        return flagged

    def load_committed(self, seq: int) -> Optional[ShadowLoad]:
        return self.loads.pop(seq, None)

    def store_committed(self, seq: int) -> Optional[ShadowStore]:
        return self.stores.pop(seq, None)

    def squash_younger(self, last_kept_seq: int) -> None:
        for seq in [s for s in self.loads if s > last_kept_seq]:
            del self.loads[seq]
        for seq in [s for s in self.stores if s > last_kept_seq]:
            del self.stores[seq]

    # -- queries ----------------------------------------------------------
    def pending_violation_at_or_after(self, seq: int) -> bool:
        """Any flagged in-flight load aged ``seq`` or younger (i.e. covered
        by a squash-from-``seq`` replay)?"""
        return any(
            rec.violated_by >= 0 and rec.seq >= seq
            for rec in self.loads.values()
        )

    def __len__(self) -> int:
        return len(self.loads) + len(self.stores)
