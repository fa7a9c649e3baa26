"""Unit tests for conventional/filtered dependence-checking schemes."""

import pytest

from repro.backend.dyninst import DynInstr
from repro.core.schemes.conventional import (
    BloomFilteredScheme,
    ConventionalScheme,
    YlaFilteredScheme,
)
from repro.errors import SimulationError
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from repro.lsq.queues import LoadQueue


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


def attach(scheme):
    lq = LoadQueue(16)
    scheme.attach(lq, 128)
    return lq


class TestConventional:
    def test_unattached_raises(self):
        with pytest.raises(SimulationError):
            ConventionalScheme().on_store_resolve(mk_store(1, 0), 0)

    def test_always_searches(self):
        s = ConventionalScheme()
        lq = attach(s)
        s.on_store_resolve(mk_store(1, 0x100), 0)
        assert lq.searches == 1 and lq.searches_filtered == 0

    def test_detects_premature_load(self):
        s = ConventionalScheme()
        lq = attach(s)
        victim = mk_load(5, 0x100)
        lq.allocate(victim)
        assert s.on_store_resolve(mk_store(2, 0x100), 0) is victim
        assert s.stats["replay.execution_time"] == 1

    def test_no_coherence_hooks_by_default(self):
        s = ConventionalScheme(coherence=False)
        lq = attach(s)
        s.on_invalidation(0x1000, 128, 0, 0)
        assert lq.inv_searches == 0


class TestConventionalCoherence:
    def test_invalidation_marks_issued_loads(self):
        s = ConventionalScheme(coherence=True)
        lq = attach(s)
        in_line = mk_load(5, 0x1040)
        other = mk_load(6, 0x2000)
        lq.allocate(in_line)
        lq.allocate(other)
        s.on_invalidation(0x1000, 128, 0, 0)
        assert in_line.inv_marked and not other.inv_marked

    def test_load_issue_replays_younger_marked_same_line(self):
        s = ConventionalScheme(coherence=True)
        lq = attach(s)
        younger = mk_load(7, 0x1040)
        younger.inv_marked = True
        lq.allocate(younger)
        victim = s.on_load_issue(mk_load(3, 0x1000), 0)
        assert victim is younger
        assert s.stats["replay.coherence"] == 1

    def test_no_replay_for_unmarked(self):
        s = ConventionalScheme(coherence=True)
        lq = attach(s)
        lq.allocate(mk_load(7, 0x1040))
        assert s.on_load_issue(mk_load(3, 0x1000), 0) is None


class TestYlaFiltered:
    def test_filters_when_no_younger_load(self):
        s = YlaFilteredScheme(num_registers=8)
        lq = attach(s)
        s.on_load_issue(mk_load(3, 0x100), 0)
        s.on_store_resolve(mk_store(5, 0x100), 0)   # store younger: safe
        assert lq.searches == 0 and lq.searches_filtered == 1
        assert s.stats["stores.safe"] == 1

    def test_searches_when_younger_load_issued(self):
        s = YlaFilteredScheme(num_registers=8)
        lq = attach(s)
        s.on_load_issue(mk_load(9, 0x100), 0)
        s.on_store_resolve(mk_store(5, 0x100), 0)
        assert lq.searches == 1

    def test_wrongpath_corruption_and_recovery(self):
        s = YlaFilteredScheme(num_registers=1)
        lq = attach(s)
        s.on_wrongpath_load(age=50, addr=0x100)
        s.on_store_resolve(mk_store(10, 0x100), 0)
        assert lq.searches == 1  # corrupted: conservative search
        s.on_recovery(last_kept_seq=10)
        s.on_store_resolve(mk_store(11, 0x100), 0)
        assert lq.searches_filtered == 1  # repaired

    def test_squash_rolls_back(self):
        s = YlaFilteredScheme(num_registers=1)
        attach(s)
        s.on_load_issue(mk_load(30, 0x100), 0)
        s.on_squash(20, [])
        assert s.yla.youngest_for(0x100) == 20

    def test_collect_exports_counters(self):
        s = YlaFilteredScheme()
        attach(s)
        s.on_load_issue(mk_load(1, 0), 0)
        s.collect()
        assert s.stats["yla.updates"] == 1


class TestBloomFiltered:
    def test_filters_unknown_address(self):
        s = BloomFilteredScheme(entries=256)
        lq = attach(s)
        s.on_load_issue(mk_load(3, 0x100), 0)
        s.on_store_resolve(mk_store(5, 0x9990 * 8), 0)
        assert lq.searches_filtered == 1

    def test_searches_on_aliasing_load_even_if_older(self):
        """The BF has no age information: an *older* issued load to the
        address forces the search (the weakness Figure 3 quantifies)."""
        s = BloomFilteredScheme(entries=256)
        lq = attach(s)
        s.on_load_issue(mk_load(3, 0x100), 0)
        s.on_store_resolve(mk_store(5, 0x100), 0)
        assert lq.searches == 1

    def test_commit_removes_from_filter(self):
        s = BloomFilteredScheme(entries=256)
        lq = attach(s)
        load = mk_load(3, 0x100)
        s.on_load_issue(load, 0)
        s.on_commit(load, 1)
        s.on_store_resolve(mk_store(5, 0x100), 0)
        assert lq.searches_filtered == 1

    def test_squash_removes_issued_loads(self):
        s = BloomFilteredScheme(entries=256)
        lq = attach(s)
        load = mk_load(9, 0x100)
        s.on_load_issue(load, 0)
        s.on_squash(5, [load])
        s.on_store_resolve(mk_store(6, 0x100), 0)
        assert lq.searches_filtered == 1

    def test_wrongpath_phantoms_removed_at_recovery(self):
        s = BloomFilteredScheme(entries=256)
        lq = attach(s)
        s.on_wrongpath_load(50, 0x100)
        s.on_recovery(10)
        s.on_store_resolve(mk_store(11, 0x100), 0)
        assert lq.searches_filtered == 1

    def test_collect(self):
        s = BloomFilteredScheme(entries=256)
        attach(s)
        s.on_load_issue(mk_load(1, 0), 0)
        s.collect()
        assert s.stats["bloom.inserts"] == 1
        assert s.stats["bloom.entries"] == 256
