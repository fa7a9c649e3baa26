"""A traced run is the plain run: same kernel, same skipped cycles.

The tracer rides the SoA kernel's one observation seam, so for every
scheme and workload a traced run takes the kernel, skips exactly the
idle cycles the plain run skips, and produces a bit-identical
``to_dict()`` payload — same cycles, same counters, same histograms.
(The skipper itself is checked against the per-cycle object loop in
``test_soa_equivalence``.)  The scheme matrix is shared with the
sanitizer sweep (:data:`repro.analysis.sanitizer.SCHEME_MATRIX`) so both
correctness suites always cover the same nine points.
"""

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX as SCHEMES
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.pipetrace import PipelineTracer
from repro.sim.processor import Processor
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
def test_fastpath_bit_identical(workload, scheme_label):
    config = CONFIG2.with_scheme(SCHEMES[scheme_label])
    trace = _trace(workload)

    plain_proc, plain = _run(config, trace)
    traced_proc, traced = _run(config, trace, PipelineTracer(capacity=64))

    assert (plain_proc.kernel_used, traced_proc.kernel_used) == ("soa", "soa")
    assert traced_proc.fast_forwarded_cycles == plain_proc.fast_forwarded_cycles
    assert traced_proc.tracer.events_recorded > 0
    assert plain.to_dict() == traced.to_dict()


def test_fast_forward_actually_skips():
    """The skipper must be exercised, not just harmless: a normal run jumps
    over a nonzero number of idle cycles (otherwise these equivalence tests
    would be vacuous)."""
    config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
    proc, _ = _run(config, _trace("mcf"))
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles > 0
