"""Structured observability for the simulator (see ``docs/observability.md``).

The package turns the SoA kernel's one observer seam (``Processor.tracer``,
which also carries the schemes' events) into a typed event stream plus
exact per-structure attribution.  An observed run takes the kernel like
any other, cycle skipper included:

* :mod:`repro.obs.events` — the :class:`ObsEvent` record, the bounded
  in-memory :class:`EventRing`, and the :class:`JsonlSink` file writer;
* :mod:`repro.obs.recorder` — :class:`ObservabilityRecorder`, the
  observer that receives pipeline, replay and scheme events and
  accumulates cycle buckets, structure residency, and replay taxonomy
  while the simulation runs;
* :mod:`repro.obs.attribution` — reconciles the event-derived totals
  against the run's own :class:`~repro.stats.counters.CounterSet`,
  line by line and exactly;
* :mod:`repro.obs.profile` — the ``repro profile`` / ``repro.api.profile``
  entry points rendering the report, top replay sites, and a
  pipetrace-aligned timeline.

Observability costs one ``is None`` test per event site when off (the
kernel binds the observer to one local, the schemes read it from their
view), and attaching a recorder is proven bit-invisible across the full
scheme matrix (``tests/test_obs_matrix.py``).
"""

from repro.obs.attribution import AttributionReport, ReconLine, build_attribution
from repro.obs.events import EVENT_KINDS, EventRing, JsonlSink, ObsEvent
from repro.obs.recorder import (
    ObservabilityRecorder,
    attach_observer,
    detach_observer,
)
from repro.obs.profile import (
    ProfileReport,
    profile_request,
    profile_run,
    profile_workload,
)

__all__ = [
    "EVENT_KINDS",
    "ObsEvent",
    "EventRing",
    "JsonlSink",
    "ObservabilityRecorder",
    "attach_observer",
    "detach_observer",
    "AttributionReport",
    "ReconLine",
    "build_attribution",
    "ProfileReport",
    "profile_run",
    "profile_workload",
    "profile_request",
]
