"""Observer bit-invisibility sweep over the full scheme matrix.

Acceptance criteria for the observability layer, on the same nine scheme
configurations x two workloads the sanitizer and fast-path suites pin:

* attaching the full :class:`ObservabilityRecorder` (the kernel's one
  observation seam, which also carries scheme events) leaves the
  ``to_dict()`` payload of every run exactly equal to the plain run's —
  tracing is bit-invisible — and the run stays on the SoA kernel, cycle
  skipper included;
* the attribution reconciles **exactly** with the counters on every cell
  (every event seam fires once and only once, for every scheme);
* the sweep is not vacuous: schemes with windows/tables emit window and
  table events, filtered schemes emit safe-store events, and at least one
  cell replays.
"""

import pytest

from repro.analysis.sanitizer import SCHEME_MATRIX
from repro.obs import attach_observer, build_attribution
from repro.obs.profile import ProfileReport
from repro.sim.config import CONFIG2
from repro.sim.processor import Processor
from repro.sim.runner import run_trace
from repro.workloads import get_workload

BUDGET = 4_000

WORKLOADS = ("gzip", "mcf")

_TRACES = {}
_REPORTS = {}


def _trace(name):
    if name not in _TRACES:
        _TRACES[name] = get_workload(name).generate(BUDGET + 2_000)
    return _TRACES[name]


def _profiled(workload, scheme_label):
    """``profile_run``'s report for the point, with its processor."""
    key = (workload, scheme_label)
    if key not in _REPORTS:
        config = CONFIG2.with_scheme(SCHEME_MATRIX[scheme_label])
        processor = Processor(config, _trace(workload), seed=1)
        recorder = attach_observer(processor)
        processor.prewarm()
        result = processor.run(BUDGET)
        _REPORTS[key] = (ProfileReport(result, build_attribution(recorder, result),
                                       recorder), processor)
    return _REPORTS[key][0]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme_label", sorted(SCHEME_MATRIX))
def test_observer_is_bit_invisible(workload, scheme_label):
    report = _profiled(workload, scheme_label)
    processor = _REPORTS[(workload, scheme_label)][1]
    assert processor.kernel_used == "soa"
    assert processor.fast_forwarded_cycles > 0
    config = CONFIG2.with_scheme(SCHEME_MATRIX[scheme_label])
    plain = run_trace(config, _trace(workload), max_instructions=BUDGET, seed=1)
    assert report.result.to_dict() == plain.to_dict()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme_label", sorted(SCHEME_MATRIX))
def test_attribution_reconciles_exactly(workload, scheme_label):
    report = _profiled(workload, scheme_label)
    assert report.ok, (
        f"{workload}/{scheme_label}: "
        + "; ".join(f"{line.name} events={line.from_events} "
                    f"counters={line.from_counters}"
                    for line in report.attribution.mismatches()))
    buckets = report.attribution.cycle_buckets
    assert sum(buckets.values()) == report.result.cycles


def test_sweep_is_not_vacuous():
    """The seams must actually fire somewhere: windows on DMDC schemes,
    safe stores on filtered schemes, and replays on at least one cell."""
    window_events = 0
    safe_stores = 0
    replays = 0
    for workload in WORKLOADS:
        for scheme_label in sorted(SCHEME_MATRIX):
            recorder = _profiled(workload, scheme_label).recorder
            window_events += recorder.windows_opened
            safe_stores += recorder.stores_safe
            replays += recorder.replay_total
    assert window_events > 0
    assert safe_stores > 0
    assert replays > 0


def test_events_emitted_everywhere():
    for workload in WORKLOADS:
        for scheme_label in sorted(SCHEME_MATRIX):
            recorder = _profiled(workload, scheme_label).recorder
            assert recorder.events_emitted > 0
            assert recorder.pipeline_counts["commit"] == BUDGET
