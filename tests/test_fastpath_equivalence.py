"""Cycle-exact equivalence of the cycle skipper vs. per-cycle stepping.

The SoA kernel's event-horizon cycle skipper must be behaviourally
invisible: for every scheme and workload, a plain run (kernel, skipping
idle cycles) must produce a `to_dict()` payload bit-identical to a traced
run, which takes the object loop and steps every cycle — same cycles,
same counters, same histograms.  Using a tracer as the reference (rather
than ``REPRO_NO_SOA``, which ``test_soa_equivalence`` uses) also pins the
tracer's bit-invisibility on every point.  The scheme matrix is shared
with the sanitizer sweep (:data:`repro.analysis.sanitizer.SCHEME_MATRIX`)
so both correctness suites always cover the same nine points.
"""

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX as SCHEMES
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.pipetrace import PipelineTracer
from repro.sim.processor import Processor
from repro.sim.soa import NO_SOA_ENV
from repro.workloads import get_workload

BUDGET = 2_500

WORKLOADS = ("gzip", "mcf")

_TRACES = {}


def _trace(name):
    if name not in _TRACES:
        _TRACES[name] = get_workload(name).generate(BUDGET + 2_000)
    return _TRACES[name]


def _run(config, trace, tracer=None):
    proc = Processor(config, trace, seed=1)
    proc.tracer = tracer
    proc.prewarm()
    return proc, proc.run(BUDGET)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme_label", sorted(SCHEMES))
def test_fastpath_bit_identical(monkeypatch, workload, scheme_label):
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    config = CONFIG2.with_scheme(SCHEMES[scheme_label])
    trace = _trace(workload)

    fast_proc, fast = _run(config, trace)
    slow_proc, slow = _run(config, trace, PipelineTracer(capacity=64))

    assert fast_proc.kernel_used == "soa"
    assert (slow_proc.kernel_used, slow_proc.fast_forwarded_cycles) == ("object", 0)
    assert fast.to_dict() == slow.to_dict()


def test_fast_forward_actually_skips(monkeypatch):
    """The skipper must be exercised, not just harmless: a normal run jumps
    over a nonzero number of idle cycles (otherwise these equivalence tests
    would be vacuous)."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
    proc, _ = _run(config, _trace("mcf"))
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles > 0
