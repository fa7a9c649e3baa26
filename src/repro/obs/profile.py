"""The ``repro profile`` entry points (CLI, API, and service).

A profile run is a plain simulation with one
:class:`~repro.obs.recorder.ObservabilityRecorder` attached: identical
results (bit-invisibility is pinned by ``tests/test_obs_matrix.py``),
plus the full attribution report, the top replay sites, and a
pipetrace-aligned timeline of the most recent instructions.

Profile runs bypass the execution engine's result cache on purpose — the
event stream is a per-run observation, not part of the content-addressed
result — so they always simulate.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.attribution import AttributionReport, build_attribution
from repro.obs.recorder import (
    ObservabilityRecorder,
    ReplaySite,
    attach_observer,
)
from repro.sim.config import MachineConfig
from repro.sim.processor import Processor
from repro.sim.result import SimulationResult
from repro.sim.runner import workload_trace
from repro.stats.report import format_table


@dataclass
class ProfileReport:
    """Everything one profiled run produced."""

    result: SimulationResult
    attribution: AttributionReport
    recorder: ObservabilityRecorder

    @property
    def ok(self) -> bool:
        """True when the attribution reconciles exactly with the counters."""
        return self.attribution.ok

    def top_sites(self, n: int = 10) -> List[ReplaySite]:
        return self.recorder.top_replay_sites(n)

    def timeline(self, max_rows: int = 32, max_width: int = 100) -> str:
        return self.recorder.tracer.render_timeline(
            max_rows=max_rows, max_width=max_width)

    def summary(self) -> Dict[str, object]:
        """Compact JSON-ready digest (the service's ``trace`` field)."""
        return {
            "events_emitted": self.recorder.events_emitted,
            "cycle_buckets": dict(self.attribution.cycle_buckets),
            "structures": {
                name: stats.get("occupancy_mean", 0.0)
                for name, stats in self.attribution.structures.items()
            },
            "replays": dict(self.attribution.replays),
            "top_replay_sites": [site.to_dict() for site in self.top_sites(5)],
            "windows": {
                "opened": self.recorder.windows_opened,
                "closed": self.recorder.windows_closed,
                "cycles": self.recorder.window_cycles,
            },
            "filtering": {
                "stores_safe": self.recorder.stores_safe,
                "stores_unsafe": self.recorder.stores_unsafe,
                "table_marks": self.recorder.table_marks,
                "table_probes": self.recorder.table_probes,
                "table_probe_hits": self.recorder.table_probe_hits,
            },
            "reconciled": self.ok,
        }

    def to_dict(self, include_events: bool = False) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "summary": self.result.summary(),
            "attribution": self.attribution.to_dict(),
            "trace": self.summary(),
        }
        if include_events:
            payload["events"] = [e.to_dict() for e in self.recorder.ring.events()]
        return payload

    def render(self, top: int = 10, timeline_rows: int = 24,
               timeline_width: int = 100) -> str:
        """The full human-readable profile (CLI output)."""
        parts = [self.attribution.render()]
        sites = self.top_sites(top)
        if sites:
            rows = []
            for site in sites:
                causes = ", ".join(f"{cause}={count}" for cause, count
                                   in sorted(site.causes.items()))
                rows.append([f"{site.pc:#x}", site.count, causes])
            parts.append(format_table(
                ["pc", "replays", "causes"], rows,
                title=f"Top {len(sites)} replay sites"))
        parts.append("Recent pipeline timeline:\n"
                     + self.timeline(timeline_rows, timeline_width))
        return "\n\n".join(parts)


def profile_run(config: MachineConfig, trace, *,
                instructions: Optional[int] = None,
                seed: int = 1,
                prewarm: bool = True,
                ring_capacity: int = 4096,
                jsonl_path: Optional[str] = None,
                timeline_capacity: int = 256) -> ProfileReport:
    """Simulate ``trace`` on ``config`` with full observability attached."""
    processor = Processor(config, trace, seed=seed)
    recorder = attach_observer(
        processor,
        ring_capacity=ring_capacity,
        jsonl_path=jsonl_path,
        timeline_capacity=timeline_capacity,
    )
    if prewarm:
        processor.prewarm()
    budget = instructions if instructions is not None else len(trace)
    result = processor.run(budget)
    attribution = build_attribution(recorder, result)
    return ProfileReport(result=result, attribution=attribution,
                         recorder=recorder)


def profile_workload(config: MachineConfig, workload, *,
                     instructions: int,
                     seed: int = 1,
                     ring_capacity: int = 4096,
                     jsonl_path: Optional[str] = None,
                     timeline_capacity: int = 256) -> ProfileReport:
    """Profile ``workload`` on its shared trace (with tail slack)."""
    trace = workload_trace(workload, instructions)
    return profile_run(config, trace, instructions=instructions, seed=seed,
                       ring_capacity=ring_capacity, jsonl_path=jsonl_path,
                       timeline_capacity=timeline_capacity)


def profile_request(request) -> Tuple[SimulationResult, Dict[str, object]]:
    """Profile one :class:`~repro.exec.request.RunRequest` (service path).

    Returns the (uncached) simulation result plus the compact trace
    summary for the response body.  The result is bit-identical to what
    the engine would have produced for the same request.
    """
    report = profile_workload(
        request.config, request.resolve_workload(),
        instructions=request.budget, seed=request.seed)
    return report.result, report.summary()
