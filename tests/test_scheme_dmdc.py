"""Unit tests for the DMDC scheme driven by hand-crafted events."""

from repro.core.schemes.dmdc import DmdcScheme
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from tests.reference_loop import DynInstr, SchemeDriver


def mk_store(seq, addr, size=8):
    uop = MicroOp(0x100, InstrClass.STORE, mem_addr=addr, mem_size=size, data_src=1)
    d = DynInstr(uop, seq, seq, False)
    return d


def mk_load(seq, addr, size=8, issue_cycle=1, safe=False):
    uop = MicroOp(0x200, InstrClass.LOAD, mem_addr=addr, mem_size=size, dst=2)
    d = DynInstr(uop, seq, seq, False)
    d.issue_cycle = issue_cycle
    d.safe = safe
    return d


def mk_alu(seq):
    d = DynInstr(MicroOp(0x300, InstrClass.IALU, srcs=(28,), dst=3), seq, seq, False)
    return d


def drive(scheme):
    """The scheme's kernel adapter over objects.  Adapters keep no state
    of their own (the scheme does), so each call may take a fresh one."""
    return SchemeDriver(scheme)


def resolve(scheme, store, cycle=0):
    store.resolve_cycle = cycle
    store.issue_cycle = cycle
    return drive(scheme).store_resolve(store)


class TestSafetyClassification:
    def test_store_safe_without_younger_loads(self):
        s = DmdcScheme()
        drive(s).load_issue(mk_load(3, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        assert not store.unsafe_store
        assert s.stats["stores.safe"] == 1

    def test_store_unsafe_with_younger_issued_load(self):
        s = DmdcScheme()
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        assert store.unsafe_store
        assert store.window_end == 9
        assert s.stats["stores.unsafe"] == 1

    def test_never_requests_execution_time_replay(self):
        s = DmdcScheme()
        drive(s).load_issue(mk_load(9, 0x100))
        assert resolve(s, mk_store(5, 0x100)) is None


class TestCheckingWindow:
    def test_window_opens_at_unsafe_store_commit(self):
        s = DmdcScheme()
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        assert not s.checking_active
        drive(s).commit(store, 10)
        assert s.checking_active

    def test_window_terminates_past_boundary(self):
        s = DmdcScheme()
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        drive(s).commit(store, 10)
        for seq in (6, 7, 8):
            assert not drive(s).commit(mk_alu(seq), 11)
            assert s.checking_active
        drive(s).commit(mk_alu(9), 12)   # boundary reached
        assert not s.checking_active
        assert s.table.marked_count == 0  # flash-cleared

    def test_load_in_window_same_address_replays(self):
        s = DmdcScheme()
        premature = mk_load(9, 0x100)
        drive(s).load_issue(premature)
        store = mk_store(5, 0x100)
        resolve(s, store, cycle=3)
        drive(s).commit(store, 10)
        assert drive(s).commit(premature, 11)
        assert s.stats["loads.checked"] == 1

    def test_disjoint_load_in_window_passes(self):
        s = DmdcScheme()
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        drive(s).commit(store, 10)
        assert not drive(s).commit(mk_load(8, 0x4000), 11)

    def test_safe_load_bypasses_checking(self):
        s = DmdcScheme(safe_loads=True)
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        drive(s).commit(store, 10)
        safe = mk_load(8, 0x100, safe=True)
        assert not drive(s).commit(safe, 11)
        assert s.stats["loads.safe_bypassed"] == 1

    def test_safe_load_checked_when_optimisation_off(self):
        s = DmdcScheme(safe_loads=False)
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store, cycle=3)
        drive(s).commit(store, 10)
        safe = mk_load(8, 0x100, safe=True)
        assert drive(s).commit(safe, 11)

    def test_window_stats_recorded(self):
        s = DmdcScheme()
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        drive(s).commit(store, 10)
        drive(s).commit(mk_load(7, 0x4000), 11)
        drive(s).commit(mk_alu(9), 12)
        assert s.window_instrs.count == 1
        assert s.window_loads.mean == 1.0
        assert s.window_unsafe_stores.mean == 1.0

    def test_finalize_closes_open_window(self):
        s = DmdcScheme()
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        drive(s).commit(store, 10)
        s.finalize(20)
        assert not s.checking_active
        assert s.stats["windows.closed"] == 1


class TestGlobalVsLocal:
    def _unsafe_store(self, scheme, seq, addr, youngest):
        drive(scheme).load_issue(mk_load(youngest, addr))
        store = mk_store(seq, addr)
        resolve(scheme, store)
        return store

    def test_global_end_pushed_at_issue(self):
        s = DmdcScheme(local=False)
        s1 = self._unsafe_store(s, 5, 0x100, youngest=9)
        # A second unsafe store pushes the global register before committing.
        s2 = self._unsafe_store(s, 7, 0x200, youngest=30)
        drive(s).commit(s1, 10)
        # Window now extends to 30 even though s2 has not committed.
        drive(s).commit(mk_alu(9), 11)
        assert s.checking_active

    def test_local_end_only_at_commit(self):
        s = DmdcScheme(local=True)
        s1 = self._unsafe_store(s, 5, 0x100, youngest=9)
        self._unsafe_store(s, 7, 0x200, youngest=30)  # never commits
        drive(s).commit(s1, 10)
        drive(s).commit(mk_alu(9), 11)   # s1's own boundary
        assert not s.checking_active

    def test_local_window_extends_on_second_commit(self):
        s = DmdcScheme(local=True)
        s1 = self._unsafe_store(s, 5, 0x100, youngest=9)
        s2 = self._unsafe_store(s, 7, 0x200, youngest=30)
        drive(s).commit(s1, 10)
        drive(s).commit(s2, 11)
        drive(s).commit(mk_alu(9), 12)
        assert s.checking_active  # boundary is now 30


class TestReplayClassification:
    def _window_with_store(self, s, store_seq=5, addr=0x100, youngest=9,
                           resolve_cycle=5):
        drive(s).load_issue(mk_load(youngest, addr))
        store = mk_store(store_seq, addr)
        store.resolve_cycle = resolve_cycle
        store.issue_cycle = resolve_cycle
        drive(s).store_resolve(store)
        drive(s).commit(store, 10)
        return store

    def test_true_replay(self):
        s = DmdcScheme()
        self._window_with_store(s)
        victim = mk_load(8, 0x100, issue_cycle=1)
        victim.true_violation_store = 5
        assert drive(s).commit(victim, 11)
        assert s.stats["replay.true"] == 1
        assert s.stats["replay.false"] == 0

    def test_addr_match_in_window_is_X(self):
        s = DmdcScheme()
        self._window_with_store(s, resolve_cycle=5)
        # Issued AFTER the store resolved, inside the window: timing approx.
        late = mk_load(8, 0x100, issue_cycle=9)
        assert drive(s).commit(late, 11)
        assert s.stats["replay.false.addr.X"] == 1

    def test_addr_match_outside_window_is_Y(self):
        s = DmdcScheme()
        self._window_with_store(s, youngest=7, resolve_cycle=5)
        # seq 8 > boundary 7: only checked because the window merged/stayed.
        stray = mk_load(8, 0x100, issue_cycle=9)
        s._active_end = 20  # simulate a merged, extended window
        assert drive(s).commit(stray, 11)
        assert s.stats["replay.false.addr.Y"] == 1

    def test_hash_conflict_before_store(self):
        s = DmdcScheme(table_entries=16)
        store = self._window_with_store(s, resolve_cycle=5)
        alias = next(
            qw * 8 for qw in range(1 << 12)
            if qw * 8 != 0x100 and s.table.index(qw * 8) == s.table.index(0x100)
        )
        early = mk_load(8, alias, issue_cycle=2)  # issued before store resolved
        assert drive(s).commit(early, 11)
        assert s.stats["replay.false.hash.before"] == 1

    def test_hash_conflict_after_store_in_window(self):
        s = DmdcScheme(table_entries=16)
        self._window_with_store(s, resolve_cycle=5)
        alias = next(
            qw * 8 for qw in range(1 << 12)
            if qw * 8 != 0x100 and s.table.index(qw * 8) == s.table.index(0x100)
        )
        late = mk_load(8, alias, issue_cycle=9)
        assert drive(s).commit(late, 11)
        assert s.stats["replay.false.hash.X"] == 1


class TestCoherence:
    def test_invalidation_filtered_when_no_inflight_loads(self):
        s = DmdcScheme(coherence=True)
        drive(s).invalidation(0x1000, 128, 0, 100)
        assert s.stats["inv.filtered"] == 1
        assert not s.checking_active

    def test_invalidation_opens_window(self):
        s = DmdcScheme(coherence=True)
        drive(s).load_issue(mk_load(9, 0x1008))
        drive(s).invalidation(0x1000, 128, 1, 3)
        assert s.checking_active
        assert s.stats["inv.marked"] == 1

    def test_second_load_to_invalidated_line_replays(self):
        s = DmdcScheme(coherence=True)
        drive(s).load_issue(mk_load(9, 0x1008))
        drive(s).invalidation(0x1000, 128, 1, 3)
        first = mk_load(7, 0x1008, issue_cycle=2)
        assert not drive(s).commit(first, 5)   # promotes
        second = mk_load(8, 0x1008, issue_cycle=3)
        assert drive(s).commit(second, 6)
        assert s.stats["replay.false.inv"] == 1

    def test_line_yla_makes_store_safe(self):
        """With two YLA sets a store is safe when either records an older age."""
        s = DmdcScheme(coherence=True)
        # A younger load to the same line but a different quad word: the
        # word-interleaved register for the store's bank stays old.
        drive(s).load_issue(mk_load(9, 0x1008))
        store = mk_store(5, 0x1000 + 8 * 3)
        resolve(s, store)
        # line register says unsafe, word register says safe -> safe overall
        assert not store.unsafe_store


class TestCheckingQueueMode:
    def test_exact_match_replays(self):
        s = DmdcScheme(checking_queue_entries=4)
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store, cycle=3)
        drive(s).commit(store, 10)
        assert drive(s).commit(mk_load(8, 0x100, issue_cycle=5), 11)

    def test_no_hash_conflicts(self):
        s = DmdcScheme(checking_queue_entries=4)
        drive(s).load_issue(mk_load(9, 0x100))
        store = mk_store(5, 0x100)
        resolve(s, store)
        drive(s).commit(store, 10)
        assert not drive(s).commit(mk_load(8, 0x77770, issue_cycle=5), 11)

    def test_overflow_forces_replay(self):
        s = DmdcScheme(checking_queue_entries=1)
        for seq, youngest in ((3, 40), (5, 41)):
            drive(s).load_issue(mk_load(youngest, 0x100 + seq * 64))
            store = mk_store(seq, 0x100 + seq * 64)
            resolve(s, store)
            drive(s).commit(store, 10)
        load = mk_load(30, 0x9000, issue_cycle=5)
        assert drive(s).commit(load, 12)
        assert s.stats["replay.overflow"] == 1


class TestNames:
    def test_variant_names(self):
        assert DmdcScheme().name == "dmdc-global"
        assert DmdcScheme(local=True).name == "dmdc-local"
        assert "queue" in DmdcScheme(checking_queue_entries=8).name
        assert "coherent" in DmdcScheme(coherence=True).name
