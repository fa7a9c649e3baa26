"""Unit tests for functional units, physical registers, and DynInstr."""

import pytest

from tests.reference_loop import DynInstr, InstrState
from repro.backend.resources import FunctionalUnits, PhysRegFile
from repro.errors import ConfigError, SimulationError
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass


class TestFunctionalUnits:
    def test_pool_limits(self):
        fus = FunctionalUnits(int_alu=2, int_muldiv=1, fp_alu=2, fp_muldiv=1)
        fus.new_cycle()
        assert fus.try_acquire(InstrClass.IALU)
        assert fus.try_acquire(InstrClass.LOAD)   # loads share the int pool
        assert not fus.try_acquire(InstrClass.STORE)
        assert fus.try_acquire(InstrClass.IMUL)
        assert not fus.try_acquire(InstrClass.IDIV)  # muldiv pool exhausted
        assert fus.try_acquire(InstrClass.FALU)

    def test_new_cycle_restores(self):
        fus = FunctionalUnits(int_alu=1)
        fus.new_cycle()
        assert fus.try_acquire(InstrClass.IALU)
        assert not fus.try_acquire(InstrClass.IALU)
        fus.new_cycle()
        assert fus.try_acquire(InstrClass.IALU)

    def test_latencies(self):
        fus = FunctionalUnits()
        assert fus.latency(InstrClass.IALU) == 1
        assert fus.latency(InstrClass.IDIV) > fus.latency(InstrClass.IMUL)
        assert fus.latency(InstrClass.FDIV) > fus.latency(InstrClass.FMUL)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            FunctionalUnits(int_alu=0)


class TestPhysRegFile:
    def test_alloc_until_exhausted(self):
        regs = PhysRegFile(total=34)  # 2 free beyond architectural
        assert regs.try_allocate()
        assert regs.try_allocate()
        assert not regs.try_allocate()

    def test_release_returns_to_pool(self):
        regs = PhysRegFile(total=33)
        assert regs.try_allocate()
        regs.release()
        assert regs.try_allocate()

    def test_double_release_detected(self):
        regs = PhysRegFile(total=33)
        with pytest.raises(SimulationError):
            regs.release()

    def test_rejects_too_small(self):
        with pytest.raises(ConfigError):
            PhysRegFile(total=32)


class TestDynInstr:
    def _mk(self, cls=InstrClass.LOAD, **kw):
        uop = MicroOp(0x100, cls, mem_addr=kw.pop("addr", 0x80), mem_size=8,
                      dst=kw.pop("dst", 1))
        return DynInstr(uop, trace_idx=0, seq=5, fp_side=False)

    def test_initial_state(self):
        d = self._mk()
        assert d.state == InstrState.DISPATCHED
        assert not d.resolved and not d.squashed
        assert d.true_violation_store == -1

    def test_resolved_after_resolve_cycle(self):
        d = self._mk(cls=InstrClass.STORE, dst=None)
        d.resolve_cycle = 12
        assert d.resolved

    def test_flags_passthrough(self):
        assert self._mk(cls=InstrClass.LOAD).is_load
        d = DynInstr(MicroOp(0, InstrClass.BRANCH, taken=True, target=4), 0, 1, False)
        assert d.is_branch

    def test_addr_size_passthrough(self):
        d = self._mk(addr=0x88)
        assert d.addr == 0x88 and d.size == 8

    def test_repr(self):
        assert "LOAD" in repr(self._mk())
