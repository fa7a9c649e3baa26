"""Mutation-style self-tests: seeded bugs the tooling must catch.

Each test injects one classic defect into the machinery under test and
asserts the sanitizer (or a probe) flags it on the SoA kernel.  The
sanitizer checks every retire before the kernel's built-in
``OrderingViolationMissed`` check does, so a strict sanitizer raises
:class:`SanitizerError` first — proving the sanitizer makes the catch
itself, not the simulator's own bookkeeping.  One test blinds the
built-in ground-truth flags instead, which the shadow oracle must notice.
"""

import pytest

from repro.analysis.sanitizer import attach_sanitizer
from repro.core.checking_table import CheckingTable
from repro.core.yla import YlaFile
from repro.errors import OrderingViolationMissed, SanitizerError
from repro.isa.opcodes import InstrClass
from repro.sim.config import SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.soa import SoaKernel
from tests.conftest import TraceBuilder


def violation_trace(n_fill=30):
    b = TraceBuilder()
    b.fill(4)
    b.alu(dst=10, cls=InstrClass.IDIV)
    b.store(0x800, srcs=(10,), data_src=28)
    b.load(0x800, dst=11)
    b.fill(n_fill)
    return b.build()


class _BlindColumn(list):
    """A ground-truth column that drops every violation flag."""

    def __setitem__(self, slot, value):
        if value < 0:
            super().__setitem__(slot, value)


def _blind_builtin_checker(monkeypatch):
    """Disable the kernel's own ground-truth violation bookkeeping (its
    ``tvs`` column), so only the shadow oracle sees a premature load."""
    original = SoaKernel.__init__

    def blinded(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.tvs = _BlindColumn(self.tvs)

    monkeypatch.setattr(SoaKernel, "__init__", blinded)


def _sanitized_run(config, trace):
    proc = Processor(config, trace)
    sanitizer = attach_sanitizer(proc)
    proc.run(len(trace))
    return sanitizer.report


def _strict_run(config, trace):
    """A strict sanitized run that must stop at the seeded defect."""
    proc = Processor(config, trace)
    sanitizer = attach_sanitizer(proc, strict=True)
    with pytest.raises(SanitizerError):
        proc.run(len(trace))
    assert not sanitizer.report.clean
    return sanitizer.report


@pytest.fixture
def dmdc_cfg():
    return small_config(wrongpath_loads=False).with_scheme(
        SchemeConfig(kind="dmdc"))


class TestYlaOffByOne:
    """Seeded bug: the YLA update records ``age - 1`` instead of ``age``.

    A store one position older than the youngest issued load then looks
    safe and skips the LQ search — the exact unsoundness the YLA coverage
    probe exists to catch at the very first load issue."""

    def test_probe_catches(self, monkeypatch, dmdc_cfg):
        original = YlaFile.observe_load_issue

        def off_by_one(self, addr, age):
            original(self, addr, age - 1)

        monkeypatch.setattr(YlaFile, "observe_load_issue", off_by_one)
        report = _strict_run(dmdc_cfg, violation_trace())
        assert report.probe_failure_count > 0
        assert any("yla[" in f for f in report.probe_failures)

    def test_unmutated_run_is_clean(self, dmdc_cfg):
        report = _sanitized_run(dmdc_cfg, violation_trace())
        assert report.clean


class TestDroppedCheckingTableMark:
    """Seeded bug: an unsafe store commits without setting its WRT bits.

    The premature load then indexes a clear table at commit and retires
    un-replayed.  The shadow oracle's associative cross-check reports the
    missed violation at that retire, before the kernel's built-in check
    stops the run."""

    def test_shadow_oracle_catches(self, monkeypatch, dmdc_cfg):
        def dropped_mark(self, addr, size):
            self.writes += 1
            return self.index(addr)  # index computed, bits never set

        monkeypatch.setattr(CheckingTable, "mark_store", dropped_mark)
        proc = Processor(dmdc_cfg, violation_trace())
        sanitizer = attach_sanitizer(proc)
        with pytest.raises(OrderingViolationMissed):
            proc.run(200)
        report = sanitizer.report
        assert report.missed_violations > 0
        assert any("retired despite premature issue" in d
                   for d in report.missed_details)
        assert not report.clean

    def test_strict_mode_raises(self, monkeypatch, dmdc_cfg):
        def dropped_mark(self, addr, size):
            self.writes += 1
            return self.index(addr)

        monkeypatch.setattr(CheckingTable, "mark_store", dropped_mark)
        report = _strict_run(dmdc_cfg, violation_trace())
        assert report.missed_violations == 1


class TestBlindTableRead:
    """Seeded bug: ``check_load`` never sees a WRT hit (dropped read).

    Distinct from the dropped mark — the table holds the truth but the
    commit-time check ignores it; same observable unsoundness."""

    def test_shadow_oracle_catches(self, monkeypatch, dmdc_cfg):
        def blind_read(self, addr, size):
            self.reads += 1
            return CheckingTable.CLEAR

        monkeypatch.setattr(CheckingTable, "check_load", blind_read)
        report = _strict_run(dmdc_cfg, violation_trace())
        assert report.missed_violations > 0


class TestOverRollback:
    """Seeded bug: squash repair pulls YLA registers far below the kept
    age, forgetting live loads — rollback must clamp to *exactly*
    ``min(old, kept)``; the exactness probe flags both directions."""

    def test_probe_catches(self, monkeypatch, dmdc_cfg):
        def over_rollback(self, last_kept_age):
            for i in range(self.num_registers):
                if self._ages[i] > last_kept_age - 50:
                    self._ages[i] = last_kept_age - 50

        monkeypatch.setattr(YlaFile, "rollback", over_rollback)
        # The crafted violation forces a replay squash, which triggers the
        # mutated rollback and the exactness check.
        report = _strict_run(dmdc_cfg, violation_trace())
        assert report.probe_failure_count > 0
        assert any("rollback" in f for f in report.probe_failures)


class TestBuiltinCheckerCrossValidation:
    """Blinding the built-in checker alone (no scheme defect) must surface
    as oracle divergence — the shadow oracle flags the violation the
    built-in bookkeeping no longer records — while the scheme's own replay
    keeps the run sound."""

    def test_divergence_detected(self, monkeypatch, dmdc_cfg):
        _blind_builtin_checker(monkeypatch)
        report = _sanitized_run(dmdc_cfg, violation_trace())
        assert report.oracle_divergence > 0
        assert report.missed_violations == 0
