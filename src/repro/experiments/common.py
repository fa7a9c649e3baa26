"""Helpers shared by the experiment modules and their runner.

Experiments run the whole 26-workload suite for each design point;
``REPRO_WORKLOADS_PER_GROUP=n`` sweeps a suite subset while iterating.
How a sweep becomes engine requests lives in
:mod:`repro.experiments.registry`, the one runner.
"""

import os
from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.sim.result import SimulationResult
from repro.workloads import FP_WORKLOADS, INT_WORKLOADS

WORKLOADS_PER_GROUP_ENV = "REPRO_WORKLOADS_PER_GROUP"


def suite_workloads() -> List[str]:
    """Workload names for experiments (full suite unless subset requested)."""
    # Suite-size trim is a harness knob, not an engine option: it picks
    # which experiments run, never how any single run behaves.
    per_group = os.environ.get(WORKLOADS_PER_GROUP_ENV)  # repro: noqa[REPRO011]
    if per_group:
        try:
            n = max(1, int(per_group))
        except ValueError:
            raise ConfigError(
                f"{WORKLOADS_PER_GROUP_ENV} must be an integer workload count, "
                f"got {per_group!r}"
            ) from None
        return INT_WORKLOADS[:n] + FP_WORKLOADS[:n]
    return INT_WORKLOADS + FP_WORKLOADS


def group_means(
    results: Dict[str, SimulationResult],
    metric: Callable[[SimulationResult], float],
) -> Dict[str, Dict[str, float]]:
    """Apply ``metric`` per workload and aggregate to INT/FP mean/min/max."""
    groups: Dict[str, List[float]] = {"INT": [], "FP": []}
    for result in results.values():
        groups.setdefault(result.group, []).append(metric(result))
    out = {}
    for group, vals in groups.items():
        if not vals:
            continue
        out[group] = {
            "mean": sum(vals) / len(vals),
            "min": min(vals),
            "max": max(vals),
            "n": len(vals),
        }
    return out
