"""Tests for the structural invariant checker (and, through it, the kernel)."""

import pytest

from repro.analysis.sanitizer import attach_sanitizer
from repro.errors import SimulationError
from repro.sim.config import SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.soa import SoaKernel
from repro.sim.validate import check_invariants
from repro.workloads import SyntheticWorkload, WorkloadSpec, get_workload


class TestCheckerCatchesCorruption:
    def _stopped_kernel(self):
        """A kernel stopped at a small commit target, pipeline still full."""
        proc = Processor(small_config(), get_workload("gzip").generate(300))
        proc.prewarm()
        kernel = SoaKernel(proc)
        kernel.run(20, 10_000)
        assert len(kernel.rob) > 4
        check_invariants(kernel)  # healthy first
        return kernel

    def test_detects_iq_drift(self):
        kernel = self._stopped_kernel()
        kernel.iq_int += 1
        with pytest.raises(SimulationError, match="IQ"):
            check_invariants(kernel)

    def test_detects_register_leak(self):
        kernel = self._stopped_kernel()
        kernel.regs_int.free -= 1
        with pytest.raises(SimulationError, match="register leak"):
            check_invariants(kernel)

    def test_detects_rename_corruption(self):
        kernel = self._stopped_kernel()
        dst = kernel.t.dst
        writers = [slot for slot in kernel.rob if dst[kernel.tidx[slot]] >= 0]
        assert len(writers) >= 2
        # Point the youngest writer's register at an older writer.
        reg = dst[kernel.tidx[writers[-1]]]
        older = writers[0]
        kernel.rename[reg] = kernel.seq[older] << kernel.pbits | older
        with pytest.raises(SimulationError, match="rename"):
            check_invariants(kernel)

    def test_detects_age_disorder(self):
        kernel = self._stopped_kernel()
        rob = kernel.rob
        rob[0], rob[1] = rob[1], rob[0]
        with pytest.raises(SimulationError, match="age-ordered"):
            check_invariants(kernel)

    def test_detects_retired_slot_in_rob(self):
        kernel = self._stopped_kernel()
        kernel.state[kernel.rob[-1]] = 4  # committed
        with pytest.raises(SimulationError, match="committed instruction"):
            check_invariants(kernel)

    def test_detects_stale_queue_entry(self):
        kernel = self._stopped_kernel()
        assert kernel.lq
        kernel.rob.remove(kernel.lq[-1])
        with pytest.raises(SimulationError, match="stale LQ"):
            check_invariants(kernel)


class TestPipelineHoldsInvariants:
    """The real assertion: the kernel never violates the invariants,
    including across replays, rejections, and mispredictions (a sanitized
    run checks them at every retire)."""

    def _run_checked(self, config, trace, budget, monkeypatch):
        import repro.analysis.sanitizer as sanitizer_module

        checks = []

        def counted(kernel):
            checks.append(kernel)
            check_invariants(kernel)
        monkeypatch.setattr(sanitizer_module, "check_invariants", counted)
        proc = Processor(config, trace)
        attach_sanitizer(proc, strict=True)
        result = proc.run(budget)
        assert proc.kernel_used == "soa"
        assert len(checks) >= budget
        return result

    @pytest.mark.parametrize("scheme", [
        SchemeConfig(kind="conventional"),
        SchemeConfig(kind="dmdc"),
        SchemeConfig(kind="dmdc", local=True),
    ], ids=["conventional", "dmdc-global", "dmdc-local"])
    def test_clean_under_stress(self, scheme, monkeypatch):
        spec = WorkloadSpec(name="validate", conflict_per_kinstr=5.0,
                            store_addr_dep_load=0.2, rmw_fraction=0.2, seed=13)
        trace = SyntheticWorkload(spec).generate(1000)
        config = small_config().with_scheme(scheme)
        result = self._run_checked(config, trace, 800, monkeypatch)
        assert result.committed == 800
        assert result.counters["replays"] > 0

    def test_clean_with_wrongpath_and_invalidations(self, monkeypatch):
        config = small_config().with_scheme(
            SchemeConfig(kind="dmdc", coherence=True)
        ).with_overrides(invalidation_rate=100.0)
        result = self._run_checked(config, get_workload("mcf").generate(900),
                                   700, monkeypatch)
        assert result.committed == 700
        assert result.counters["inv.injected"] > 0
