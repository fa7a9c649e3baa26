"""Simulation results and derived metrics.

Raw counters live in :class:`~repro.stats.counters.CounterSet`; this class
adds the derived rates the paper reports (IPC, replays per million
committed instructions, safe-store percentage, checking-window shape).
"""

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.stats.counters import CounterSet, Histogram

#: Histogram-valued fields, serialized alongside the scalar counters.
HISTOGRAM_FIELDS = (
    "window_instrs",
    "window_loads",
    "window_safe_loads",
    "window_unsafe_stores",
)

#: Replay-taxonomy counter names (Tables 3 and 5 of the paper).
FALSE_REPLAY_CATEGORIES = (
    "replay.false.addr.X",
    "replay.false.addr.Y",
    "replay.false.hash.before",
    "replay.false.hash.X",
    "replay.false.hash.Y",
    "replay.false.inv",
)

@dataclass
class SimulationResult:
    """Everything measured in one (workload, config, scheme) run."""

    workload: str
    group: str
    config_name: str
    scheme_name: str
    cycles: int
    committed: int
    counters: CounterSet
    window_instrs: Histogram = field(default_factory=Histogram)
    window_loads: Histogram = field(default_factory=Histogram)
    window_safe_loads: Histogram = field(default_factory=Histogram)
    window_unsafe_stores: Histogram = field(default_factory=Histogram)
    #: Wall-clock seconds spent inside ``Processor.run`` for this result.
    #: Host-dependent, so excluded from equality and from :meth:`to_dict`
    #: (architectural results stay bit-comparable across machines).
    sim_seconds: float = field(default=0.0, compare=False)

    # -- headline rates ---------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def instructions_per_second(self) -> float:
        """Simulator throughput: committed instructions per wall-clock second."""
        return self.committed / self.sim_seconds if self.sim_seconds > 0 else 0.0

    def per_minstr(self, counter: str) -> float:
        """Events per one million committed instructions."""
        if not self.committed:
            return 0.0
        return 1e6 * self.counters[counter] / self.committed

    @property
    def replays_per_minstr(self) -> float:
        return self.per_minstr("replays")

    @property
    def false_replays_per_minstr(self) -> float:
        return self.per_minstr("replay.false") + self.per_minstr("replay.overflow")

    def false_replay_breakdown(self) -> Dict[str, float]:
        """Per-category false replays per million committed instructions."""
        return {name: self.per_minstr(name) for name in FALSE_REPLAY_CATEGORIES}

    # -- filtering metrics --------------------------------------------------
    @property
    def safe_store_fraction(self) -> float:
        """Fraction of resolved stores whose LQ check was filtered away.

        For filtered conventional schemes this is the filter hit rate; for
        DMDC it is the fraction classified safe by the YLA registers.
        """
        resolved = self.counters["stores.resolved"]
        if resolved:
            return self.counters["stores.safe"] / resolved
        # Unfiltered baseline: nothing is ever classified safe.
        return 0.0

    @property
    def safe_load_fraction(self) -> float:
        loads = self.counters["commit.loads"]
        return self.counters["commit.safe_loads"] / loads if loads else 0.0

    @property
    def checking_cycle_fraction(self) -> float:
        """Fraction of run cycles spent in DMDC checking mode."""
        return self.counters["checking.cycles_observed"] / self.cycles if self.cycles else 0.0

    # -- checking-window shape ------------------------------------------
    @property
    def mean_window_instrs(self) -> float:
        return self.window_instrs.mean

    @property
    def mean_window_loads(self) -> float:
        return self.window_loads.mean

    @property
    def mean_window_safe_loads(self) -> float:
        return self.window_safe_loads.mean

    @property
    def single_unsafe_store_window_fraction(self) -> float:
        """Fraction of checking windows containing exactly one unsafe store."""
        if not self.window_unsafe_stores.count:
            return 0.0
        ones = dict(self.window_unsafe_stores.items()).get(1, 0)
        return ones / self.window_unsafe_stores.count

    def lane_copy(self, scheme, host_counters: Tuple[str, ...],
                  own: Dict[str, int]) -> "SimulationResult":
        """A lane's result, built from this (recording host's) result.

        Keeps every counter except the ``host_counters`` the host's scheme
        booked, then adds the lane ``scheme``'s stats and the lane
        processor's ``own`` counters; the histograms are the lane
        scheme's.  The counters are a fresh set, so host and lane share
        no mutable state.
        """
        counters = CounterSet.from_dict({
            name: value for name, value in self.counters.as_dict().items()
            if name not in host_counters})
        counters.merge(scheme.stats)
        for name, value in own.items():
            counters[name] = value
        return replace(self, scheme_name=scheme.name, counters=counters, **{
            name: getattr(scheme, name) for name in HISTOGRAM_FIELDS})

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-friendly snapshot; :meth:`from_dict` round-trips it exactly."""
        return {
            "workload": self.workload,
            "group": self.group,
            "config_name": self.config_name,
            "scheme_name": self.scheme_name,
            "cycles": self.cycles,
            "committed": self.committed,
            "counters": self.counters.as_dict(),
            "histograms": {
                name: getattr(self, name).to_dict() for name in HISTOGRAM_FIELDS
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SimulationResult":
        histograms = payload.get("histograms", {})
        return cls(
            workload=payload["workload"],
            group=payload["group"],
            config_name=payload["config_name"],
            scheme_name=payload["scheme_name"],
            cycles=int(payload["cycles"]),
            committed=int(payload["committed"]),
            counters=CounterSet.from_dict(payload["counters"]),
            **{
                name: Histogram.from_dict(histograms.get(name, {}))
                for name in HISTOGRAM_FIELDS
            },
        )

    def summary(self) -> Dict[str, float]:
        """Compact headline dictionary (examples / quick inspection)."""
        return {
            "ipc": self.ipc,
            "cycles": self.cycles,
            "committed": self.committed,
            "replays_per_minstr": self.replays_per_minstr,
            "safe_store_fraction": self.safe_store_fraction,
            "safe_load_fraction": self.safe_load_fraction,
            "checking_cycle_fraction": self.checking_cycle_fraction,
        }
