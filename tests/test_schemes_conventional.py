"""Unit tests for conventional/filtered dependence-checking schemes.

Each scheme's kernel adapter is driven over hand-built instruction
objects (:class:`tests.reference_loop.SchemeDriver`).  A resolving store
books one LQ search (``lq.searches``) or, when a filter proves it safe,
one filtered search (``stores.safe``).
"""

from repro.core.schemes.conventional import (
    BloomFilteredScheme,
    ConventionalScheme,
    YlaFilteredScheme,
)
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from tests.reference_loop import DynInstr, SchemeDriver


def mk_store(seq, addr, size=8):
    uop = MicroOp(0x100, InstrClass.STORE, mem_addr=addr, mem_size=size, data_src=1)
    d = DynInstr(uop, seq, seq, False)
    d.resolve_cycle = 1
    return d


def mk_load(seq, addr, size=8, issued=True):
    uop = MicroOp(0x200, InstrClass.LOAD, mem_addr=addr, mem_size=size, dst=2)
    d = DynInstr(uop, seq, seq, False)
    if issued:
        d.issue_cycle = 1
    return d


def searches(scheme):
    """(LQ searches, filtered searches) the scheme booked."""
    return scheme.stats["lq.searches"], scheme.stats["stores.safe"]


class TestConventional:
    def test_always_searches(self):
        s = ConventionalScheme()
        SchemeDriver(s).store_resolve(mk_store(1, 0x100))
        assert searches(s) == (1, 0)

    def test_detects_premature_load(self):
        s = ConventionalScheme()
        victim = mk_load(5, 0x100)
        d = SchemeDriver(s, lq=[victim])
        assert d.store_resolve(mk_store(2, 0x100)) is victim
        assert s.stats["replay.execution_time"] == 1

    def test_no_coherence_hooks_by_default(self):
        s = ConventionalScheme(coherence=False)
        SchemeDriver(s).invalidation(0x1000, 128, 0, 0)
        assert s.inv_searches == 0


class TestConventionalCoherence:
    def test_invalidation_marks_issued_loads(self):
        s = ConventionalScheme(coherence=True)
        in_line = mk_load(5, 0x1040)
        other = mk_load(6, 0x2000)
        SchemeDriver(s, lq=[in_line, other]).invalidation(0x1000, 128, 0, 0)
        assert in_line.inv_marked and not other.inv_marked
        assert s.inv_searches == 1

    def test_load_issue_replays_younger_marked_same_line(self):
        s = ConventionalScheme(coherence=True)
        younger = mk_load(7, 0x1040)
        younger.inv_marked = True
        victim = SchemeDriver(s, lq=[younger]).load_issue(mk_load(3, 0x1000))
        assert victim is younger
        assert s.stats["replay.coherence"] == 1

    def test_no_replay_for_unmarked(self):
        s = ConventionalScheme(coherence=True)
        d = SchemeDriver(s, lq=[mk_load(7, 0x1040)])
        assert d.load_issue(mk_load(3, 0x1000)) is None


class TestYlaFiltered:
    def test_filters_when_no_younger_load(self):
        s = YlaFilteredScheme(num_registers=8)
        d = SchemeDriver(s)
        d.load_issue(mk_load(3, 0x100))
        d.store_resolve(mk_store(5, 0x100))   # store younger: safe
        assert searches(s) == (0, 1)

    def test_searches_when_younger_load_issued(self):
        s = YlaFilteredScheme(num_registers=8)
        d = SchemeDriver(s)
        d.load_issue(mk_load(9, 0x100))
        d.store_resolve(mk_store(5, 0x100))
        assert searches(s) == (1, 0)

    def test_wrongpath_corruption_and_recovery(self):
        s = YlaFilteredScheme(num_registers=1)
        d = SchemeDriver(s)
        s.on_wrongpath_load(age=50, addr=0x100)
        d.store_resolve(mk_store(10, 0x100))
        assert searches(s) == (1, 0)  # corrupted: conservative search
        s.on_recovery(last_kept_seq=10)
        d.store_resolve(mk_store(11, 0x100))
        assert searches(s) == (1, 1)  # repaired

    def test_squash_rolls_back(self):
        s = YlaFilteredScheme(num_registers=1)
        d = SchemeDriver(s)
        d.load_issue(mk_load(30, 0x100))
        d.squash(20, [])
        assert s.yla.youngest_for(0x100) == 20

    def test_collect_exports_counters(self):
        s = YlaFilteredScheme()
        SchemeDriver(s).load_issue(mk_load(1, 0))
        s.collect()
        assert s.stats["yla.updates"] == 1


class TestBloomFiltered:
    def test_filters_unknown_address(self):
        s = BloomFilteredScheme(entries=256)
        d = SchemeDriver(s)
        d.load_issue(mk_load(3, 0x100))
        d.store_resolve(mk_store(5, 0x9990 * 8))
        assert searches(s) == (0, 1)

    def test_searches_on_aliasing_load_even_if_older(self):
        """The BF has no age information: an *older* issued load to the
        address forces the search (the weakness Figure 3 quantifies)."""
        s = BloomFilteredScheme(entries=256)
        d = SchemeDriver(s)
        d.load_issue(mk_load(3, 0x100))
        d.store_resolve(mk_store(5, 0x100))
        assert searches(s) == (1, 0)

    def test_commit_removes_from_filter(self):
        s = BloomFilteredScheme(entries=256)
        d = SchemeDriver(s)
        load = mk_load(3, 0x100)
        d.load_issue(load)
        assert not d.commit(load, 1)
        d.store_resolve(mk_store(5, 0x100))
        assert searches(s) == (0, 1)

    def test_squash_removes_issued_loads(self):
        s = BloomFilteredScheme(entries=256)
        d = SchemeDriver(s)
        load = mk_load(9, 0x100)
        d.load_issue(load)
        d.squash(5, [load])
        d.store_resolve(mk_store(6, 0x100))
        assert searches(s) == (0, 1)

    def test_wrongpath_phantoms_removed_at_recovery(self):
        s = BloomFilteredScheme(entries=256)
        s.on_wrongpath_load(50, 0x100)
        s.on_recovery(10)
        SchemeDriver(s).store_resolve(mk_store(11, 0x100))
        assert searches(s) == (0, 1)

    def test_collect(self):
        s = BloomFilteredScheme(entries=256)
        SchemeDriver(s).load_issue(mk_load(1, 0))
        s.collect()
        assert s.stats["bloom.inserts"] == 1
        assert s.stats["bloom.entries"] == 256
