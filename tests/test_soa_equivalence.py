"""Bit-exact equivalence of the SoA cycle kernel vs the object pipeline.

The structure-of-arrays kernel (:class:`repro.sim.soa.SoaKernel`) fuses
every pipeline stage into one loop over preallocated slot arrays.  It must
be behaviourally invisible: for every scheme family and workload, a run
through the kernel must produce a ``to_dict()`` payload bit-identical to
the object path forced via ``REPRO_NO_SOA=1`` — same cycles, same
counters, same histograms.  The scheme matrix is shared with the
sanitizer sweep so both correctness nets cover the same nine points; a
second matrix covers coherent configurations and injected invalidations.

The object loop steps every cycle while the kernel skips provably idle
ones, so every row here also checks the kernel's cycle skipper.

Observability seams (tracer, obs recorder, sanitizer) intentionally force
the object path; those runs must *still* match the kernel's results, so
the honest slow path and the kernel can never drift apart unnoticed.
"""

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX as SCHEMES
from repro.errors import SimulationError
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import run_trace
from repro.sim.soa import NO_SOA_ENV
from repro.workloads import get_workload

BUDGET = 2_500

WORKLOADS = ("gzip", "mcf")


def _coherence_rows():
    """Coherent conventional/YLA/Bloom/DMDC with injection off and at 100
    invalidations per 1000 cycles, plus injection into non-coherent DMDC."""
    rows = {}
    for kind in ("conventional", "yla", "bloom", "dmdc"):
        scheme = CONFIG2.with_scheme(SchemeConfig(kind=kind, coherence=True))
        for rate in (0, 100):
            rows[f"{kind}-coherent-inv{rate}"] = scheme.with_overrides(
                invalidation_rate=float(rate))
    rows["dmdc-inv100"] = CONFIG2.with_scheme(
        SchemeConfig(kind="dmdc")).with_overrides(invalidation_rate=100.0)
    return rows


COHERENCE_ROWS = _coherence_rows()

_TRACES = {}


def _trace(name):
    if name not in _TRACES:
        _TRACES[name] = get_workload(name).generate(BUDGET + 2_000)
    return _TRACES[name]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme_label", sorted(SCHEMES))
def test_soa_bit_identical(monkeypatch, workload, scheme_label):
    config = CONFIG2.with_scheme(SCHEMES[scheme_label])
    trace = _trace(workload)

    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    soa = run_trace(config, trace, max_instructions=BUDGET, seed=1)

    monkeypatch.setenv(NO_SOA_ENV, "1")
    obj = run_trace(config, trace, max_instructions=BUDGET, seed=1)

    assert soa.to_dict() == obj.to_dict()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("row", sorted(COHERENCE_ROWS))
def test_soa_bit_identical_coherence(monkeypatch, workload, row):
    config = COHERENCE_ROWS[row]
    trace = _trace(workload)

    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    kernel_proc = Processor(config, trace, seed=1)
    kernel_proc.prewarm()
    soa = kernel_proc.run(BUDGET)
    assert kernel_proc.kernel_used == "soa"

    monkeypatch.setenv(NO_SOA_ENV, "1")
    obj = run_trace(config, trace, max_instructions=BUDGET, seed=1)

    assert soa.to_dict() == obj.to_dict()


def test_injected_run_uses_kernel_without_skipping(monkeypatch):
    """The injector draws from the RNG every cycle, so skipped cycles
    would change the random stream: an injected run takes the kernel with
    its skipper off."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    proc = Processor(COHERENCE_ROWS["dmdc-coherent-inv100"],
                     _trace("gzip"), seed=1)
    proc.prewarm()
    result = proc.run(BUDGET)
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles == 0
    assert result.counters["inv.injected"] > 0


def test_soa_kernel_actually_engaged(monkeypatch):
    """Non-vacuousness: a plain run must actually take the kernel (else
    every equivalence assertion above compares the object path to
    itself) and skip idle cycles (else the rows never check the
    skipper)."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    proc = Processor(CONFIG2.with_scheme(SchemeConfig(kind="dmdc")),
                     _trace("gzip"), seed=1)
    proc.prewarm()
    proc.run(BUDGET)
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles > 0


def test_no_soa_env_forces_object_path(monkeypatch):
    """The object loop is the per-cycle reference: it never skips."""
    monkeypatch.setenv(NO_SOA_ENV, "1")
    proc = Processor(CONFIG2.with_scheme(SchemeConfig(kind="dmdc")),
                     _trace("gzip"), seed=1)
    proc.prewarm()
    proc.run(BUDGET)
    assert proc.kernel_used == "object"
    assert proc.fast_forwarded_cycles == 0


def test_attached_hook_forces_object_path_with_identical_results(monkeypatch):
    """The shadow-oracle sanitizer wraps the scheme and has no slot-array
    adapter, so a sanitized run takes the object loop and really checks
    events — and the fallback must agree with the kernel bit for bit."""
    from repro.analysis.sanitizer import attach_sanitizer

    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
    trace = _trace("mcf")

    kernel_proc = Processor(config, trace, seed=1)
    kernel_proc.prewarm()
    kernel_result = kernel_proc.run(BUDGET)
    assert kernel_proc.kernel_used == "soa"

    hooked_proc = Processor(config, trace, seed=1)
    sanitizer = attach_sanitizer(hooked_proc)
    hooked_proc.prewarm()
    hooked_result = hooked_proc.run(BUDGET)
    assert hooked_proc.kernel_used == "object"
    assert hooked_proc.fast_forwarded_cycles == 0
    assert sanitizer.report.events_checked > 0

    assert kernel_result.to_dict() == hooked_result.to_dict()


def test_soa_progress_guard_raises(monkeypatch):
    """The kernel carries the same livelock guard as ``Processor.step``
    (pinned here because the object-path variant in
    ``test_processor_basic`` pins only the slow loop)."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    proc = Processor(CONFIG2.with_scheme(SchemeConfig(kind="conventional")),
                     _trace("gzip"), seed=1)
    with pytest.raises(SimulationError, match="no forward progress"):
        proc.run(BUDGET, max_cycles=20)
    assert proc.kernel_used == "soa"
