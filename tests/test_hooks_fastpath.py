"""Observed runs take the SoA kernel, cycle skipper included.

A tracer, the observability recorder and the sanitizer all ride the
kernel: the observers through its one observation seam, the sanitizer as
an adapter wrapping the scheme's own.  Skipped cycles have no events, so
an observer loses nothing by them.  The observed result must still equal
the plain run's, bit for bit.
"""

from repro.analysis.sanitizer import attach_sanitizer
from repro.obs import attach_observer, detach_observer
from repro.sim.config import CONFIG2, SchemeConfig
from repro.sim.pipetrace import PipelineTracer
from repro.sim.processor import Processor
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


def _assert_skipped_like_plain(proc):
    """On the kernel, and skipping exactly the plain run's idle cycles."""
    plain, _ = _run(_processor())
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles == plain.fast_forwarded_cycles > 0


def test_baseline_run_actually_skips():
    """Guard: without observers this workload does fast-forward, so the
    tests below are not vacuous."""
    proc, _ = _run(_processor())
    assert proc.kernel_used == "soa"
    assert proc.fast_forwarded_cycles > 0


def test_tracer_keeps_skipping():
    proc = _processor()
    proc.tracer = PipelineTracer(capacity=64)
    proc, _ = _run(proc)
    _assert_skipped_like_plain(proc)
    assert proc.tracer.events_recorded > 0


def test_sanitizer_keeps_skipping():
    """The sanitizer wraps the scheme's kernel adapter: a sanitized run
    skips idle cycles and still checks every event."""
    proc = _processor()
    sanitizer = attach_sanitizer(proc)
    proc, _ = _run(proc)
    _assert_skipped_like_plain(proc)
    assert sanitizer.report.events_checked > 0
    assert sanitizer.report.probe_checks > 0


def test_observer_recorder_keeps_skipping():
    """The observability recorder rides the kernel like a tracer, and
    detaching it leaves a plain run."""
    observed = _processor()
    recorder = attach_observer(observed)
    observed, _ = _run(observed)
    _assert_skipped_like_plain(observed)
    assert recorder.events_emitted > 0

    detached = _processor()
    detach_observer(detached, attach_observer(detached))
    detached, _ = _run(detached)
    _assert_skipped_like_plain(detached)


def test_observed_result_matches_fastpath_result():
    """Observer bit-invisibility on the skipping kernel."""
    fast_proc, fast_result = _run(_processor())
    observed_proc = _processor()
    attach_observer(observed_proc)
    observed_proc, observed_result = _run(observed_proc)
    assert fast_proc.fast_forwarded_cycles > 0
    _assert_skipped_like_plain(observed_proc)
    assert fast_result.to_dict() == observed_result.to_dict()


def test_sanitized_result_matches_fastpath_result():
    """The sanitized run equals the plain one (sanitizer
    bit-invisibility on the skipping kernel)."""
    fast_proc, fast_result = _run(_processor())
    sanitized_proc = _processor()
    attach_sanitizer(sanitized_proc)
    sanitized_proc, sanitized_result = _run(sanitized_proc)
    assert fast_proc.fast_forwarded_cycles > 0
    _assert_skipped_like_plain(sanitized_proc)
    assert fast_result.to_dict() == sanitized_result.to_dict()
