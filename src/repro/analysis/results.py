"""Post-run analysis helpers.

Utilities downstream users need when comparing schemes and configurations
beyond the canned experiments: pairwise result comparison, per-workload
tables, counter diffing, and normalised summaries.  Everything consumes
plain :class:`~repro.sim.result.SimulationResult` objects, so analyses
compose with ad-hoc runs as well as the experiment runner's sweeps
(:mod:`repro.experiments.registry`).
"""

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sim.result import SimulationResult
from repro.stats.aggregate import geometric_mean
from repro.stats.report import format_table


@dataclass
class Comparison:
    """Pairwise comparison of one metric across two runs of one workload."""

    workload: str
    baseline: float
    candidate: float

    @property
    def ratio(self) -> float:
        return self.candidate / self.baseline if self.baseline else float("inf")

    @property
    def delta_pct(self) -> float:
        return 100.0 * (self.ratio - 1.0) if self.baseline else float("inf")


def compare_results(
    baseline: Mapping[str, SimulationResult],
    candidate: Mapping[str, SimulationResult],
    metric: Callable[[SimulationResult], float],
) -> List[Comparison]:
    """Compare a metric workload-by-workload across two sweeps.

    Only workloads present in both mappings are compared, so partial
    sweeps line up without fuss.
    """
    out = []
    for name in baseline:
        if name in candidate:
            out.append(Comparison(name, metric(baseline[name]), metric(candidate[name])))
    return out


def speedup_summary(
    baseline: Mapping[str, SimulationResult],
    candidate: Mapping[str, SimulationResult],
) -> Dict[str, float]:
    """Geometric-mean speedup (baseline cycles / candidate cycles) per group."""
    groups: Dict[str, List[float]] = {}
    for name, base in baseline.items():
        cand = candidate.get(name)
        if cand is None or cand.cycles == 0:
            continue
        groups.setdefault(base.group, []).append(base.cycles / cand.cycles)
    return {group: geometric_mean(vals) for group, vals in groups.items() if vals}


def counter_diff(
    a: SimulationResult,
    b: SimulationResult,
    min_relative: float = 0.05,
) -> List[Tuple[str, int, int]]:
    """Counters that differ between two runs by more than ``min_relative``.

    Returns ``(name, a_value, b_value)`` sorted by relative change, largest
    first — the quickest way to see *why* two runs diverge.
    """
    names = set(a.counters.as_dict()) | set(b.counters.as_dict())
    rows = []
    for name in names:
        va, vb = a.counters[name], b.counters[name]
        base = max(abs(va), abs(vb))
        if base == 0:
            continue
        if abs(va - vb) / base >= min_relative:
            rows.append((name, va, vb))
    rows.sort(key=lambda r: abs(r[1] - r[2]) / max(abs(r[1]), abs(r[2]), 1), reverse=True)
    return rows


def per_workload_table(
    results: Mapping[str, SimulationResult],
    metrics: Optional[Dict[str, Callable[[SimulationResult], float]]] = None,
    title: str = "Per-workload results",
) -> str:
    """Render one row per workload with the requested metric columns."""
    if metrics is None:
        metrics = {
            "IPC": lambda r: r.ipc,
            "replays/Minstr": lambda r: r.replays_per_minstr,
            "safe stores": lambda r: 100.0 * r.safe_store_fraction,
            "safe loads": lambda r: 100.0 * r.safe_load_fraction,
        }
    rows = []
    for name in sorted(results):
        result = results[name]
        rows.append([name, result.group]
                    + [f"{fn(result):.2f}" for fn in metrics.values()])
    return format_table(["workload", "group", *metrics.keys()], rows, title=title)


def outliers(
    results: Mapping[str, SimulationResult],
    metric: Callable[[SimulationResult], float],
    k: int = 3,
) -> Dict[str, List[Tuple[str, float]]]:
    """The ``k`` highest and lowest workloads for a metric."""
    scored = sorted(((metric(r), name) for name, r in results.items()))
    return {
        "lowest": [(name, value) for value, name in scored[:k]],
        "highest": [(name, value) for value, name in scored[-k:][::-1]],
    }
