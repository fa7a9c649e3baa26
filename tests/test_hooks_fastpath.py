"""Attaching any observer must keep a run off the cycle skipper.

Only the SoA kernel skips externally-invisible idle cycles.  A tracer,
the observability recorder and the sanitizer all force the object loop,
which steps every cycle — an observer that missed skipped cycles would
silently under-record or under-check.  The observed result must still
equal the skipping run's, bit for bit.
"""

from repro.analysis.sanitizer import attach_sanitizer
from repro.obs import attach_observer, detach_observer
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.pipetrace import PipelineTracer
from repro.sim.processor import Processor
from repro.sim.soa import NO_SOA_ENV
from repro.workloads import get_workload

BUDGET = 2_500


def _processor():
    config = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
    trace = get_workload("mcf").generate(BUDGET + 2_000)
    return Processor(config, trace, seed=1)


def _run(proc):
    proc.prewarm()
    result = proc.run(BUDGET)
    return proc, result


def _assert_stepped_every_cycle(proc):
    assert proc.kernel_used == "object"
    assert proc.fast_forwarded_cycles == 0


def test_baseline_run_actually_skips(monkeypatch):
    """Guard: without observers this workload does fast-forward, so the
    tests below are not vacuous."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    proc, _ = _run(_processor())
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles > 0


def test_tracer_disables_skipping(monkeypatch):
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    proc = _processor()
    proc.tracer = PipelineTracer(capacity=64)
    proc, _ = _run(proc)
    _assert_stepped_every_cycle(proc)
    assert proc.tracer.events_recorded > 0


def test_sanitizer_disables_skipping(monkeypatch):
    """Regression: the sanitizer wraps the scheme and forwards unknown
    attributes to it, so it must refuse the kernel explicitly — else a
    sanitized run would skip cycles and check nothing."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    proc = _processor()
    sanitizer = attach_sanitizer(proc)
    proc, _ = _run(proc)
    _assert_stepped_every_cycle(proc)
    assert sanitizer.report.events_checked > 0


def test_observer_recorder_disables_skipping(monkeypatch):
    """Attaching the observability recorder must keep the run off the
    skipper like a tracer/sanitizer — and detaching it must bring the
    kernel and its skipper back."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    observed = _processor()
    attach_observer(observed)
    observed, _ = _run(observed)
    _assert_stepped_every_cycle(observed)

    detached = _processor()
    detach_observer(detached, attach_observer(detached))
    detached, _ = _run(detached)
    assert detached.kernel_used == "soa"
    assert detached.fast_forwarded_cycles > 0


def test_observed_result_matches_fastpath_result(monkeypatch):
    """Observer bit-invisibility composed with skipper equivalence."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    fast_proc, fast_result = _run(_processor())
    observed_proc = _processor()
    attach_observer(observed_proc)
    observed_proc, observed_result = _run(observed_proc)
    assert fast_proc.fast_forwarded_cycles > 0
    _assert_stepped_every_cycle(observed_proc)
    assert fast_result.to_dict() == observed_result.to_dict()


def test_sanitized_result_matches_fastpath_result(monkeypatch):
    """Even though the sanitizer forces per-cycle stepping, the simulated
    outcome equals the fast-forwarded run (skipper equivalence composed
    with sanitizer bit-invisibility)."""
    monkeypatch.delenv(NO_SOA_ENV, raising=False)
    fast_proc, fast_result = _run(_processor())
    sanitized_proc = _processor()
    attach_sanitizer(sanitized_proc)
    sanitized_proc, sanitized_result = _run(sanitized_proc)
    assert fast_proc.fast_forwarded_cycles > 0
    _assert_stepped_every_cycle(sanitized_proc)
    assert fast_result.to_dict() == sanitized_result.to_dict()
