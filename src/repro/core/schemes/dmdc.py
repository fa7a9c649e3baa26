"""Delayed Memory Dependence Checking (paper Section 4).

The scheme removes the associative LQ entirely:

1. At store resolution the YLA registers classify the store *safe* or
   *unsafe*.  An unsafe store's checking boundary is the YLA value of its
   bank — the youngest load that may have issued prematurely.
2. In **global** mode a single ``end_check`` register takes the max of all
   unsafe stores' boundaries at *issue* time; in **local** mode each store
   carries its own boundary and extends the window only when it *commits*
   (Section 4.4), keeping windows smaller.
3. When an unsafe store commits it marks the checking table (or the
   associative checking queue) and opens the checking window; every
   subsequently committing non-safe load indexes the table, and a hit
   replays it.  The window closes — and the table flash-clears — once
   commit passes the boundary.

With coherence support (Section 4.3) a second, cache-line-interleaved YLA
set bounds invalidation-triggered windows, and table entries gain an INV
bit whose first load hit promotes it to WRT (write-serialization rule).

The scheme also implements the Table 3/5 replay taxonomy: every replay is
classified as true, address-match (timing approximation; in-window ``X`` or
merged-window ``Y``), hash-conflict (before / ``X`` / ``Y``), invalidation-
induced, or queue-overflow.  Classification uses simulator-side ground
truth (issue/resolve timestamps) that the modelled hardware does not have.
"""

from typing import List, Optional

from repro.core.checking_table import CheckingTable, granule_bitmap
from repro.core.schemes.base import CheckScheme, SoaHooks
from repro.core.schemes.checking_queue import CheckingQueue
from repro.core.yla import NO_LOAD, YlaFile
from repro.utils.bitops import overlap


class _MarkedStore:
    """Classification record for one unsafe store active in the window.

    Built from the adapter's column reads, so it outlives the store's
    slot (the kernel recycles a slot as soon as its store retires).
    """

    __slots__ = ("seq", "addr", "size", "resolve_cycle", "boundary", "index", "bitmap")

    def __init__(self, seq: int, addr: int, size: int, resolve_cycle: int,
                 boundary: int, index: int):
        self.seq = seq
        self.addr = addr
        self.size = size
        self.resolve_cycle = resolve_cycle
        self.boundary = boundary
        self.index = index
        self.bitmap = granule_bitmap(addr, size)


class DmdcScheme(CheckScheme):
    """DMDC: commit-time, indexing-based dependence checking."""

    uses_associative_lq = False

    def __init__(
        self,
        table_entries: int = 2048,
        yla_registers: int = 8,
        local: bool = False,
        coherence: bool = False,
        safe_loads: bool = True,
        checking_queue_entries: Optional[int] = None,
        line_bytes: int = 128,
    ):
        super().__init__()
        self.local = local
        self.coherence = coherence
        self.safe_loads = safe_loads
        self.line_bytes = line_bytes
        self.yla = YlaFile(yla_registers, granularity_bytes=8)
        self.yla_line = YlaFile(yla_registers, granularity_bytes=line_bytes) if coherence else None
        if checking_queue_entries is not None:
            self.queue: Optional[CheckingQueue] = CheckingQueue(checking_queue_entries)
            self.table: Optional[CheckingTable] = None
        else:
            self.queue = None
            self.table = CheckingTable(table_entries)

        # end_check register(s)
        self._global_end = NO_LOAD   # global mode: pushed at unsafe-store issue
        self._active_end = NO_LOAD   # local mode + invalidation extensions
        #: Shadows the base-class attribute with live per-instance state;
        #: the kernel reads it every cycle, so it stays a plain bool.
        self.checking_active = False
        self._activation_cycle = -1
        self._overflow_pending = False

        # per-window commit counters
        self._w_instrs = 0
        self._w_loads = 0
        self._w_safe_loads = 0
        self._w_unsafe_stores = 0

        # classification state
        self._marked_stores: List[_MarkedStore] = []
        self._promoted_indices = set()
        self._inv_marked_indices = set()

    @property
    def name(self) -> str:  # type: ignore[override]
        base = "dmdc-local" if self.local else "dmdc-global"
        if self.queue is not None:
            base += "-queue"
        if self.coherence:
            base += "-coherent"
        return base

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        self.yla.observe_load_issue(addr, age)
        if self.yla_line is not None:
            self.yla_line.observe_load_issue(addr, age)
        self.stats.bump("yla.wrongpath_updates")

    # ------------------------------------------------------------------
    # checking window (the adapter below classifies, marks and probes)
    # ------------------------------------------------------------------
    def end_check(self) -> int:
        """The live checking boundary (the ``end_check`` register contents).

        The sanitizer's window probe asserts it never moves backwards
        while a window is open and that windows only terminate once
        commit passes it.
        """
        if self.local:
            return self._active_end
        return max(self._global_end, self._active_end)

    def _activate(self, cycle: int, emit) -> None:
        if not self.checking_active:
            self.checking_active = True
            self._activation_cycle = cycle
            self._w_instrs = 0
            self._w_loads = 0
            self._w_safe_loads = 0
            self._w_unsafe_stores = 0
            self.stats.bump("windows.opened")
            if emit is not None:
                emit.window_opened(cycle)

    def _terminate(self, cycle: int, emit) -> None:
        self.stats.bump("windows.closed")
        self.stats.bump("checking.cycles", max(1, cycle - self._activation_cycle + 1))
        if emit is not None:
            emit.window_closed(cycle, self._w_instrs, self._w_loads,
                               self._w_unsafe_stores)
        self.window_instrs.add(self._w_instrs)
        self.window_loads.add(self._w_loads)
        self.window_safe_loads.add(self._w_safe_loads)
        self.window_unsafe_stores.add(self._w_unsafe_stores)
        if self.table is not None:
            self.table.clear()
        else:
            self.queue.clear()
        self._marked_stores.clear()
        self._promoted_indices.clear()
        self._inv_marked_indices.clear()
        self.checking_active = False
        self._active_end = NO_LOAD
        self._overflow_pending = False

    # ------------------------------------------------------------------
    # recovery (a replay squash repairs the same way: the base adapter)
    # ------------------------------------------------------------------
    def on_recovery(self, last_kept_seq: int) -> None:
        self.yla.rollback(last_kept_seq)
        if self.yla_line is not None:
            self.yla_line.rollback(last_kept_seq)

    def finalize(self, cycle: int) -> None:
        # No view to emit through: an observer closes a window still
        # open at the run's end itself (ObservabilityRecorder.finish).
        if self.checking_active:
            self._terminate(cycle, None)

    def soa_hooks(self, kernel):
        return _DmdcSoaHooks(self, kernel)

    def collect(self) -> None:
        self.stats["yla.compares"] = self.yla.compares
        self.stats["yla.updates"] = self.yla.updates
        if self.yla_line is not None:
            self.stats["yla.compares"] += self.yla_line.compares
            self.stats["yla.updates"] += self.yla_line.updates
        if self.table is not None:
            self.stats["table.reads"] = self.table.reads
            self.stats["table.writes"] = self.table.writes
            self.stats["table.clears"] = self.table.clears
            self.stats["table.entries"] = self.table.entries
        if self.queue is not None:
            self.stats["ckq.reads"] = self.queue.reads
            self.stats["ckq.writes"] = self.queue.writes
            self.stats["ckq.entries"] = self.queue.entries
            self.stats["ckq.overflows"] = self.queue.overflows


class _DmdcSoaHooks(SoaHooks):
    """DMDC's checking: YLA updates and the FIFO LQ's hash-key write
    (``lq.keys_written``) at load issue, safe/unsafe classification at
    store resolve, table marks, probes and the replay taxonomy at commit,
    and, with coherence, invalidation-opened windows.  A squash takes the
    base adapter's recovery repair.
    """

    has_load_issue = True
    has_store_resolve = True
    commit_mode = 2

    def on_load_issue(self, slot: int) -> int:
        s = self.scheme
        k = self.k
        addr = k.addr[slot]
        lseq = k.seq[slot]
        s.yla.observe_load_issue(addr, lseq)
        if s.yla_line is not None:
            s.yla_line.observe_load_issue(addr, lseq)
        s.stats.bump("lq.keys_written")
        return -1

    def on_store_resolve(self, slot: int) -> int:
        s = self.scheme
        k = self.k
        s.stats.bump("stores.resolved")
        addr = k.addr[slot]
        sseq = k.seq[slot]
        yla_line = s.yla_line
        safe = s.yla.store_is_safe(addr, sseq)
        if yla_line is not None:
            # Both probes always run: each counts its own compares.
            safe = yla_line.store_is_safe(addr, sseq) or safe
        if safe:
            s.stats.bump("stores.safe")
            if k.emit is not None:
                k.emit.store_classified(sseq, k.tidx[slot], True, k.cycle)
            return -1
        s.stats.bump("stores.unsafe")
        if k.emit is not None:
            k.emit.store_classified(sseq, k.tidx[slot], False, k.cycle)
        k.unsafe[slot] = True
        boundary = s.yla.youngest_for(addr)
        if yla_line is not None:
            boundary = min(boundary, yla_line.youngest_for(addr))
        k.wend[slot] = boundary
        if not s.local:
            if boundary > s._global_end:
                s._global_end = boundary
        return -1

    def on_commit(self, slot: int, cycle: int) -> bool:
        s = self.scheme
        k = self.k
        if s.checking_active and k.isld[slot]:
            if self._commit_load_checked(slot, cycle):
                # The squash renumbers everything younger; the window will
                # terminate at the next commit, which re-executes cleanly
                # after the already-committed stores.
                return True
            s._w_loads += 1
            if k.safe[slot]:
                s._w_safe_loads += 1
        if k.isst[slot] and k.unsafe[slot]:
            self._commit_unsafe_store(slot, cycle)
        if s.checking_active:
            s._w_instrs += 1
            if k.seq[slot] >= s.end_check():
                s._terminate(cycle, k.emit)
        return False

    def _commit_unsafe_store(self, slot: int, cycle: int) -> None:
        s = self.scheme
        k = self.k
        emit = k.emit
        s._activate(cycle, emit)
        s._w_unsafe_stores += 1
        s.stats.bump("stores.unsafe_committed")
        if emit is not None:
            emit.table_marked(k.seq[slot], k.tidx[slot], cycle)
        addr = k.addr[slot]
        size = k.size[slot]
        if s.table is not None:
            index = s.table.mark_store(addr, size)
        else:
            index = -1
            if not s.queue.insert(k.seq[slot], addr, size):
                s._overflow_pending = True
        s._marked_stores.append(_MarkedStore(
            k.seq[slot], addr, size, k.rcyc[slot], k.wend[slot], index))
        if s.local and k.wend[slot] > s._active_end:
            s._active_end = k.wend[slot]

    def _commit_load_checked(self, slot: int, cycle: int) -> bool:
        s = self.scheme
        k = self.k
        if k.safe[slot] and (s.safe_loads or k.gbp[slot]):
            s.stats.bump("loads.safe_bypassed")
            return False
        if k.seq[slot] > s.end_check():
            # Past the boundary: this commit terminates the window.
            return False
        s.stats.bump("loads.checked")
        if s._overflow_pending:
            s._overflow_pending = False
            s.stats.bump("replay.overflow")
            return True
        addr = k.addr[slot]
        size = k.size[slot]
        if s.table is not None:
            outcome = s.table.check_load(addr, size)
            if outcome == CheckingTable.PROMOTED:
                s._promoted_indices.add(s.table.index(addr))
                s.stats.bump("inv.promotions")
            hit = outcome == CheckingTable.WRT_HIT
        else:
            hit = s.queue.check_load(addr, size) is not None
        if k.emit is not None:
            k.emit.table_probed(k.seq[slot], k.tidx[slot], hit, cycle)
        if not hit:
            return False
        self._classify_replay(slot)
        return True

    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        s = self.scheme
        if not s.coherence or s.yla_line is None or s.table is None:
            return
        s.stats.bump("inv.received")
        youngest = s.yla_line.youngest_for(line_addr)
        if youngest < oldest_inflight_seq:
            # No in-flight issued load to this line's bank: nothing to do.
            s.stats.bump("inv.filtered")
            return
        s.stats.bump("inv.marked")
        for index in s.table.mark_invalidation(line_addr, line_bytes):
            s._inv_marked_indices.add(index)
        s._activate(cycle, self.k.emit)
        if youngest > s._active_end:
            s._active_end = youngest

    # ------------------------------------------------------------------
    # replay taxonomy (Tables 3 and 5)
    # ------------------------------------------------------------------
    def _classify_replay(self, slot: int) -> None:
        s = self.scheme
        k = self.k
        if k.tvs[slot] >= 0:
            s.stats.bump("replay.true")
            return
        s.stats.bump("replay.false")
        l_addr = k.addr[slot]
        l_size = k.size[slot]
        addr_matches = [
            m for m in s._marked_stores
            if overlap(m.addr, m.size, l_addr, l_size)
        ]
        if addr_matches:
            self._classify_timing(slot, addr_matches, "addr")
            return
        if s.table is not None:
            index = s.table.index(l_addr)
            bits = granule_bitmap(l_addr, l_size)
            conflicts = [
                m for m in s._marked_stores
                if m.index == index and (m.bitmap & bits)
            ]
            if conflicts:
                self._classify_timing(slot, conflicts, "hash")
                return
            if index in s._promoted_indices or index in s._inv_marked_indices:
                s.stats.bump("replay.false.inv")
                return
            # A hash entry can also be hit through promotion granules set
            # by a different address; attribute to hashing.
            s.stats.bump("replay.false.hash.Y")
            return
        # Checking-queue mode: only exact-address matches exist.
        s.stats.bump("replay.false.addr.Y")

    def _classify_timing(self, slot: int, stores: List[_MarkedStore], kind: str) -> None:
        s = self.scheme
        k = self.k
        icyc = k.icyc[slot]
        lseq = k.seq[slot]
        issued_before = any(icyc < m.resolve_cycle for m in stores)
        in_window = any(m.seq < lseq <= m.boundary for m in stores)
        if kind == "hash" and issued_before:
            s.stats.bump("replay.false.hash.before")
        elif in_window:
            s.stats.bump(f"replay.false.{kind}.X")
        else:
            s.stats.bump(f"replay.false.{kind}.Y")
