"""Unit tests for load/store queues and the forwarding protocol.

The object queues are the reference loop's (``tests/reference_loop.py``);
the slot searches the kernel runs must agree with them.
"""

import pytest

from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from repro.lsq.queues import (
    SOA_CACHE,
    SOA_FORWARD,
    SOA_REJECT,
    lq_violation_search_soa,
    sq_forward_search_soa,
)
from tests.reference_loop import DynInstr, ForwardAction, LoadQueue, StoreQueue


def mk_store(seq, addr, size=8, resolved=True, data_ready=True):
    uop = MicroOp(0x100 + 4 * seq, InstrClass.STORE, mem_addr=addr, mem_size=size,
                  data_src=1)
    d = DynInstr(uop, trace_idx=seq, seq=seq, fp_side=False)
    if resolved:
        d.resolve_cycle = 1
        d.issue_cycle = 1
    d.pending_data = 0 if data_ready else 1
    return d


def mk_load(seq, addr, size=8, issued=False):
    uop = MicroOp(0x200 + 4 * seq, InstrClass.LOAD, mem_addr=addr, mem_size=size, dst=2)
    d = DynInstr(uop, trace_idx=seq, seq=seq, fp_side=False)
    if issued:
        d.issue_cycle = 1
    return d


class TestForwarding:
    def test_no_older_stores_goes_to_cache(self):
        sq = StoreQueue(8)
        res = sq.search_for_forwarding(mk_load(5, 0x100))
        assert res.action == ForwardAction.CACHE
        assert res.all_older_resolved

    def test_full_cover_forwards(self):
        sq = StoreQueue(8)
        sq.allocate(mk_store(1, 0x100, size=8))
        res = sq.search_for_forwarding(mk_load(5, 0x100, size=4))
        assert res.action == ForwardAction.FORWARD
        assert res.store.seq == 1

    def test_partial_cover_rejects(self):
        sq = StoreQueue(8)
        sq.allocate(mk_store(1, 0x100, size=4))
        res = sq.search_for_forwarding(mk_load(5, 0x100, size=8))
        assert res.action == ForwardAction.REJECT

    def test_data_not_ready_rejects(self):
        sq = StoreQueue(8)
        sq.allocate(mk_store(1, 0x100, data_ready=False))
        res = sq.search_for_forwarding(mk_load(5, 0x100))
        assert res.action == ForwardAction.REJECT

    def test_youngest_older_store_wins(self):
        sq = StoreQueue(8)
        sq.allocate(mk_store(1, 0x100))
        sq.allocate(mk_store(2, 0x100))
        res = sq.search_for_forwarding(mk_load(5, 0x100))
        assert res.store.seq == 2

    def test_younger_stores_ignored(self):
        sq = StoreQueue(8)
        sq.allocate(mk_store(9, 0x100))
        res = sq.search_for_forwarding(mk_load(5, 0x100))
        assert res.action == ForwardAction.CACHE

    def test_unresolved_older_store_makes_speculative(self):
        sq = StoreQueue(8)
        sq.allocate(mk_store(1, 0x100, resolved=False))
        res = sq.search_for_forwarding(mk_load(5, 0x200))
        assert res.action == ForwardAction.CACHE
        assert not res.all_older_resolved

    def test_unresolved_does_not_block_forwarding_from_resolved(self):
        sq = StoreQueue(8)
        sq.allocate(mk_store(1, 0x100))
        sq.allocate(mk_store(2, 0x300, resolved=False))
        res = sq.search_for_forwarding(mk_load(5, 0x100))
        assert res.action == ForwardAction.FORWARD
        assert not res.all_older_resolved

    def test_search_counting(self):
        sq = StoreQueue(8)
        sq.search_for_forwarding(mk_load(1, 0), count_search=True)
        sq.search_for_forwarding(mk_load(2, 0), count_search=False)
        assert sq.searches == 1 and sq.searches_filtered == 1


class TestStoreQueueBookkeeping:
    def test_retire_order_enforced(self):
        sq = StoreQueue(8)
        s1, s2 = mk_store(1, 0), mk_store(2, 8)
        sq.allocate(s1)
        sq.allocate(s2)
        with pytest.raises(AssertionError):
            sq.retire_head(s2)
        sq.retire_head(s1)

    def test_oldest_unresolved(self):
        sq = StoreQueue(8)
        sq.allocate(mk_store(1, 0))
        sq.allocate(mk_store(2, 8, resolved=False))
        assert sq.oldest_unresolved_seq() == 2

    def test_squash_younger(self):
        sq = StoreQueue(8)
        for seq in (1, 2, 3):
            sq.allocate(mk_store(seq, seq * 8))
        sq.squash_younger(1)
        assert len(sq) == 1 and sq.ring.head().seq == 1

    def test_find_by_seq_tracks_allocate_retire_squash(self):
        sq = StoreQueue(8)
        stores = {seq: mk_store(seq, seq * 8) for seq in (1, 2, 3)}
        for store in stores.values():
            sq.allocate(store)
        assert sq.find(2) is stores[2]
        sq.retire_head(stores[1])
        assert sq.find(1) is None
        sq.squash_younger(2)
        assert sq.find(3) is None and sq.find(2) is stores[2]

class TestLoadQueueSearch:
    def test_finds_oldest_younger_issued_overlap(self):
        lq = LoadQueue(8)
        lq.allocate(mk_load(3, 0x100, issued=True))
        lq.allocate(mk_load(4, 0x100, issued=True))
        victim = lq.search_younger_issued(mk_store(2, 0x100))
        assert victim.seq == 3

    def test_ignores_unissued_and_older(self):
        lq = LoadQueue(8)
        lq.allocate(mk_load(1, 0x100, issued=True))    # older than store
        lq.allocate(mk_load(4, 0x100, issued=False))   # not issued
        assert lq.search_younger_issued(mk_store(2, 0x100)) is None

    def test_ignores_disjoint_addresses(self):
        lq = LoadQueue(8)
        lq.allocate(mk_load(4, 0x200, issued=True))
        assert lq.search_younger_issued(mk_store(2, 0x100)) is None

    def test_partial_overlap_detected(self):
        lq = LoadQueue(8)
        lq.allocate(mk_load(4, 0x104, size=4, issued=True))
        victim = lq.search_younger_issued(mk_store(2, 0x100, size=8))
        assert victim is not None

    def test_ring_iteration_is_age_ordered(self):
        lq = LoadQueue(8)
        lq.allocate(mk_load(1, 0, issued=True))
        lq.allocate(mk_load(2, 8, issued=False))
        assert [l.seq for l in lq.ring] == [1, 2]

    def test_search_counters(self):
        lq = LoadQueue(8)
        lq.search_younger_issued(mk_store(1, 0))
        assert lq.searches == 1


class TestSoaSearchEquivalence:
    """The slot-array search kernels must agree with the object methods on
    every queue population (randomized cross-check)."""

    _ACTION_CODE = {
        ForwardAction.CACHE: SOA_CACHE,
        ForwardAction.FORWARD: SOA_FORWARD,
        ForwardAction.REJECT: SOA_REJECT,
    }

    @staticmethod
    def _arrays(instrs):
        """Parallel slot arrays mirroring a list of DynInstrs (slot == index)."""
        seq_ = [d.seq for d in instrs]
        addr_ = [d.addr for d in instrs]
        size_ = [d.size for d in instrs]
        rcyc_ = [d.resolve_cycle for d in instrs]
        icyc_ = [d.issue_cycle for d in instrs]
        pdata_ = [d.pending_data for d in instrs]
        slots = list(range(len(instrs)))
        return slots, seq_, addr_, size_, rcyc_, icyc_, pdata_

    def test_forward_search_matches_object_path(self):
        import random

        rng = random.Random(1234)
        for _ in range(300):
            sq = StoreQueue(16)
            stores = []
            for i in range(rng.randrange(0, 9)):
                stores.append(mk_store(
                    seq=rng.randrange(0, 20),
                    addr=rng.randrange(0, 5) * 4,
                    size=rng.choice((4, 8)),
                    resolved=rng.random() < 0.7,
                    data_ready=rng.random() < 0.7,
                ))
            stores.sort(key=lambda s: s.seq)
            for s in stores:
                sq.allocate(s)
            load = mk_load(rng.randrange(0, 20), rng.randrange(0, 5) * 4,
                           size=rng.choice((4, 8)))
            expected = sq.search_for_forwarding(load)
            slots, seq_, addr_, size_, rcyc_, _, pdata_ = self._arrays(stores)
            action, match, all_resolved = sq_forward_search_soa(
                slots, seq_, addr_, size_, rcyc_, pdata_,
                load.seq, load.addr, load.addr + load.size)
            assert action == self._ACTION_CODE[expected.action]
            assert all_resolved == expected.all_older_resolved
            if expected.store is None:
                assert match == -1
            else:
                assert stores[match] is expected.store

    def test_violation_search_matches_object_path(self):
        import random

        rng = random.Random(99)
        for _ in range(300):
            lq = LoadQueue(16)
            loads = []
            for i in range(rng.randrange(0, 9)):
                loads.append(mk_load(
                    seq=rng.randrange(0, 20),
                    addr=rng.randrange(0, 5) * 4,
                    size=rng.choice((4, 8)),
                    issued=rng.random() < 0.7,
                ))
            loads.sort(key=lambda l: l.seq)
            for l in loads:
                lq.allocate(l)
            store = mk_store(rng.randrange(0, 20), rng.randrange(0, 5) * 4,
                             size=rng.choice((4, 8)))
            expected = lq.search_younger_issued(store)
            slots, seq_, addr_, size_, _, icyc_, _ = self._arrays(loads)
            victim = lq_violation_search_soa(
                slots, seq_, addr_, size_, icyc_,
                store.seq, store.addr, store.addr + store.size)
            if expected is None:
                assert victim == -1
            else:
                assert loads[victim] is expected
