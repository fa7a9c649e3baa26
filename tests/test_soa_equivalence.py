"""Bit-exact equivalence of the SoA cycle kernel vs the reference pipeline.

The structure-of-arrays kernel (:class:`repro.sim.soa.SoaKernel`) fuses
every pipeline stage into one loop over preallocated slot arrays.  It must
be behaviourally invisible: for every scheme family and workload, a run
through the kernel must produce a ``to_dict()`` payload bit-identical to
the per-cycle object loop, the reference in ``tests/reference_loop.py``:
same cycles, same counters, same histograms.
The scheme matrix is shared with the sanitizer sweep so both correctness
nets cover the same nine points; a second matrix covers coherent
configurations and injected invalidations.

The reference steps every cycle while the kernel skips provably idle
ones, so every row here also checks the kernel's cycle skipper.  A
sanitized kernel run must match the reference too, so the oracle checks
the loop that produces the numbers.
"""

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX as SCHEMES
from repro.core.schemes.conventional import _ConventionalSoaHooks
from repro.core.schemes.dmdc import _DmdcSoaHooks
from repro.core.schemes.garg import _GargSoaHooks
from repro.core.schemes.value import _ValueSoaHooks
from repro.errors import SimulationError
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.runner import run_trace
from repro.workloads import get_workload
from tests.reference_loop import ReferenceProcessor, run_reference

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
def test_soa_bit_identical(workload, scheme_label):
    config = CONFIG2.with_scheme(SCHEMES[scheme_label])
    trace = _trace(workload)

    soa = run_trace(config, trace, max_instructions=BUDGET, seed=1)
    obj = run_reference(config, trace, max_instructions=BUDGET, seed=1)

    assert soa.to_dict() == obj.to_dict()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("row", sorted(COHERENCE_ROWS))
def test_soa_bit_identical_coherence(workload, row):
    config = COHERENCE_ROWS[row]
    trace = _trace(workload)

    kernel_proc = Processor(config, trace, seed=1)
    kernel_proc.prewarm()
    soa = kernel_proc.run(BUDGET)
    assert kernel_proc.kernel_used == "soa"

    obj = run_reference(config, trace, max_instructions=BUDGET, seed=1)

    assert soa.to_dict() == obj.to_dict()


#: Each family's adapter and the checking methods its runs call.
ADAPTER_METHODS = {
    "dmdc": (_DmdcSoaHooks, ("on_store_resolve", "on_commit")),
    "garg": (_GargSoaHooks, ("on_store_resolve",)),
    "conventional": (_ConventionalSoaHooks, ("on_store_resolve",)),
    "value": (_ValueSoaHooks, ("on_commit_load",)),
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("kind", sorted(ADAPTER_METHODS))
def test_both_loops_call_the_same_adapter(monkeypatch, workload, kind):
    """A kernel run and the object-loop reference make the same number
    of calls into the family's one adapter, so the reference checks with
    the code the kernel ships."""
    cls, names = ADAPTER_METHODS[kind]
    calls = dict.fromkeys(names, 0)

    def spy(name):
        original = getattr(cls, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)
        return counted

    for name in names:
        monkeypatch.setattr(cls, name, spy(name))
    config = CONFIG2.with_scheme(SchemeConfig(kind=kind))
    counts = {}
    for loop, cls in (("soa", Processor), ("object", ReferenceProcessor)):
        proc = cls(config, _trace(workload), seed=1)
        proc.prewarm()
        proc.run(BUDGET)
        assert proc.kernel_used == loop
        counts[loop] = dict(calls)
        calls.update(dict.fromkeys(names, 0))

    assert counts["soa"] == counts["object"]
    assert all(counts["soa"].values())


def test_injected_run_uses_kernel_without_skipping():
    """The injector draws from the RNG every cycle, so skipped cycles
    would change the random stream: an injected run takes the kernel with
    its skipper off."""
    proc = Processor(COHERENCE_ROWS["dmdc-coherent-inv100"],
                     _trace("gzip"), seed=1)
    proc.prewarm()
    result = proc.run(BUDGET)
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles == 0
    assert result.counters["inv.injected"] > 0


def test_soa_kernel_actually_engaged():
    """Non-vacuousness: a plain run must actually take the kernel (else
    every equivalence assertion above compares the object path to
    itself) and skip idle cycles (else the rows never check the
    skipper)."""
    proc = Processor(CONFIG2.with_scheme(SchemeConfig(kind="dmdc")),
                     _trace("gzip"), seed=1)
    proc.prewarm()
    proc.run(BUDGET)
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles > 0


def test_reference_helper_steps_every_cycle():
    """The object loop is the per-cycle reference: it never skips, and
    it reaches the kernel's result."""
    config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
    kernel_proc = Processor(config, _trace("gzip"), seed=1)
    kernel_proc.prewarm()
    kernel_result = kernel_proc.run(BUDGET)
    proc = ReferenceProcessor(config, _trace("gzip"), seed=1)
    proc.prewarm()
    result = proc.run(BUDGET)
    assert proc.kernel_used == "object"
    assert proc.fast_forwarded_cycles == 0
    assert kernel_proc.fast_forwarded_cycles > 0
    assert result.to_dict() == kernel_result.to_dict()


def test_sanitized_run_takes_kernel_with_identical_results():
    """The shadow-oracle sanitizer wraps the scheme's kernel adapter: a
    sanitized run takes the kernel, skipper included, really checks
    events, and agrees with the object-loop reference bit for bit."""
    from repro.analysis.sanitizer import attach_sanitizer

    config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
    trace = _trace("mcf")

    hooked_proc = Processor(config, trace, seed=1)
    sanitizer = attach_sanitizer(hooked_proc)
    hooked_proc.prewarm()
    hooked_result = hooked_proc.run(BUDGET)
    assert hooked_proc.kernel_used == "soa"
    assert hooked_proc.fast_forwarded_cycles > 0
    assert sanitizer.report.events_checked > 0
    assert sanitizer.report.clean

    reference = run_reference(config, trace, max_instructions=BUDGET,
                                      seed=1)
    assert reference.to_dict() == hooked_result.to_dict()


def test_soa_progress_guard_raises():
    """The kernel carries the same livelock guard as the object-loop
    reference (pinned here because the variant in
    ``test_processor_basic`` pins only the reference)."""
    proc = Processor(CONFIG2.with_scheme(SchemeConfig(kind="conventional")),
                     _trace("gzip"), seed=1)
    with pytest.raises(SimulationError, match="no forward progress"):
        proc.run(BUDGET, max_cycles=20)
    assert proc.kernel_used == "soa"
