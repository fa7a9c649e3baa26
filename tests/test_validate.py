"""Tests for the structural invariant checker (and, through it, the pipeline)."""

import pytest

from repro.errors import SimulationError
from repro.sim.config import SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.validate import check_invariants
from repro.workloads import SyntheticWorkload, WorkloadSpec, get_workload
from tests.object_loop import run_object_loop


class TestCheckerCatchesCorruption:
    def _warm_proc(self):
        proc = Processor(small_config(), get_workload("gzip").generate(300))
        for _ in range(500):
            proc.step()
            if len(proc.rob) > 4:
                break
        assert len(proc.rob) > 4
        check_invariants(proc)  # healthy first
        return proc

    def test_detects_iq_drift(self):
        proc = self._warm_proc()
        proc.iq_int_count += 1
        with pytest.raises(SimulationError, match="IQ"):
            check_invariants(proc)

    def test_detects_register_leak(self):
        proc = self._warm_proc()
        proc.regs_int.free -= 1
        with pytest.raises(SimulationError, match="register leak"):
            check_invariants(proc)

    def test_detects_rename_corruption(self):
        proc = self._warm_proc()
        victim = next(e for e in proc.rob if e.uop.dst is not None)
        older = Processor(small_config(), get_workload("gzip").generate(10))
        proc.rename[victim.uop.dst] = proc.rob.head()
        try:
            check_invariants(proc)
        except SimulationError:
            return
        # If head happened to be the youngest writer, corrupt differently.
        proc.rename[63] = victim
        with pytest.raises(SimulationError):
            check_invariants(proc)

    def test_detects_age_disorder(self):
        proc = self._warm_proc()
        if len(proc.rob) >= 2:
            proc.rob.items[0], proc.rob.items[1] = proc.rob.items[1], proc.rob.items[0]
            with pytest.raises(SimulationError, match="age-ordered"):
                check_invariants(proc)


class TestPipelineHoldsInvariants:
    """The real assertion: the pipeline never violates the invariants,
    including across replays, rejections, and mispredictions."""

    @pytest.mark.parametrize("scheme", [
        SchemeConfig(kind="conventional"),
        SchemeConfig(kind="dmdc"),
        SchemeConfig(kind="dmdc", local=True),
    ], ids=["conventional", "dmdc-global", "dmdc-local"])
    def test_clean_under_stress(self, scheme):
        spec = WorkloadSpec(name="validate", conflict_per_kinstr=5.0,
                            store_addr_dep_load=0.2, rmw_fraction=0.2, seed=13)
        trace = SyntheticWorkload(spec).generate(1000)
        config = small_config().with_scheme(scheme)
        proc = Processor(config, trace)
        result = run_object_loop(proc, 800, check_every=3)
        assert result.committed == 800

    def test_clean_with_wrongpath_and_invalidations(self):
        config = small_config().with_scheme(
            SchemeConfig(kind="dmdc", coherence=True)
        ).with_overrides(invalidation_rate=100.0)
        proc = Processor(config, get_workload("mcf").generate(900))
        result = run_object_loop(proc, 700, check_every=5)
        assert result.committed == 700
