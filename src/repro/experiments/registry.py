"""The experiment registry and its runner: the one route from a sweep to
the engine.

Each experiment module declares its design points once, in
``sweep(**params) -> {label: point}``, where a point is a
:class:`~repro.sim.config.MachineConfig` run on the whole suite or a
``(MachineConfig, workloads)`` pair naming its own workloads.  The runner
turns a sweep into :class:`~repro.exec.RunRequest`s (:func:`plan`), runs
them through the execution engine, regroups the results as
``results[label][workload]`` for the module's ``summarize(results,
**params)`` and renders the summary with its ``render(data)``.
:func:`run_all` runs any set of experiments as one engine batch, so
rendering all 17 artifacts simulates each unique design point once.
"""

from types import MappingProxyType, ModuleType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.exec.engine import ExecutionEngine, get_engine
from repro.exec.request import RunRequest
from repro.experiments import (
    ablation_storesets,
    ablation_table_size,
    ablation_wrongpath,
    checking_queue,
    fig2,
    fig3,
    fig4,
    fig5,
    related_work,
    safe_loads,
    sq_filter,
    table2,
    table3,
    table6,
    yla_energy,
)
from repro.experiments.common import suite_workloads
from repro.sim.result import SimulationResult
from repro.sim.runner import instruction_budget
from repro.sweeps.points import MAX_INSTRUCTIONS

#: One planned design point: its sweep label and its engine request.
Point = Tuple[str, RunRequest]


class Experiment(NamedTuple):
    """One reproducible paper artifact: a module's sweep, summary and
    rendering under the module parameters ``fixed`` by this artifact."""

    id: str
    paper_artifact: str
    module: ModuleType
    fixed: Mapping[str, object] = MappingProxyType({})


_LOCAL = MappingProxyType({"local": True})

EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in [
        Experiment("fig2", "Figure 2", fig2),
        Experiment("fig3", "Figure 3", fig3),
        Experiment("yla_energy", "Section 6.1 energy", yla_energy),
        Experiment("fig4", "Figure 4", fig4),
        Experiment("table2", "Table 2", table2),
        Experiment("table3", "Table 3", table3),
        Experiment("table4", "Table 4", table2, _LOCAL),
        Experiment("table5", "Table 5", table3, _LOCAL),
        Experiment("fig5", "Figure 5", fig5),
        Experiment("table6", "Table 6", table6),
        Experiment("safe_loads", "Section 6.2.2 safe loads", safe_loads),
        Experiment("checking_queue", "Section 6.2.3 checking queue", checking_queue),
        Experiment("sq_filter", "Section 3 SQ filtering", sq_filter),
        Experiment("ablation_table_size", "Ablation: checking-table size",
                   ablation_table_size),
        Experiment("ablation_wrongpath", "Ablation: wrong-path YLA corruption",
                   ablation_wrongpath),
        Experiment("ablation_storesets", "Extension: store-set prediction",
                   ablation_storesets),
        Experiment("related_work", "Section 7 comparison", related_work),
    ]
}


def experiment_budget(budget: Optional[int] = None) -> int:
    """``budget`` (``REPRO_INSTRUCTIONS`` or the default when ``None``),
    checked against the point codec's range."""
    budget = instruction_budget() if budget is None else budget
    if not isinstance(budget, int) or not 1 <= budget <= MAX_INSTRUCTIONS:
        raise ConfigError(
            f"experiment budget must be an instruction count in "
            f"[1, {MAX_INSTRUCTIONS}], got {budget!r}")
    return budget


def plan(exp_id: str, budget: Optional[int] = None, **params) -> List[Point]:
    """One experiment's design points, sweep-label-major, without running them."""
    exp = EXPERIMENTS[exp_id]
    budget = experiment_budget(budget)
    suite = suite_workloads()
    points: List[Point] = []
    for label, point in exp.module.sweep(**exp.fixed, **params).items():
        config, workloads = point if isinstance(point, tuple) else (point, suite)
        points.extend((label, RunRequest(config, workload, budget))
                      for workload in workloads)
    return points


def _summarize(exp: Experiment, points: Sequence[Point],
               results: Sequence[SimulationResult], params: Dict) -> Tuple[Dict, str]:
    by_label: Dict[str, Dict[str, SimulationResult]] = {}
    for (label, request), result in zip(points, results):
        by_label.setdefault(label, {})[request.workload_name] = result
    data = exp.module.summarize(by_label, **exp.fixed, **params)
    return data, exp.module.render(data)


def run_experiment(exp_id: str, budget: Optional[int] = None, **params) -> Tuple[Dict, str]:
    """Run one experiment by id through the process-wide engine and
    return ``(data, rendered_text)``."""
    points = plan(exp_id, budget, **params)
    results = get_engine().run([request for _, request in points])
    return _summarize(EXPERIMENTS[exp_id], points, results, params)


def run_all(exp_ids: Optional[Sequence[str]] = None,
            budget: Optional[int] = None,
            engine: Optional[ExecutionEngine] = None) -> List[Tuple[str, Dict, str]]:
    """Plan the named experiments (all when ``None``), run their design
    points as one deduplicated engine batch, and summarize each.

    Returns ``(experiment id, data, rendered text)`` triples in registry
    order.  Execution statistics accumulate on the engine's ``stats``.
    """
    engine = engine if engine is not None else get_engine()
    plans = [(exp_id, plan(exp_id, budget)) for exp_id in EXPERIMENTS
             if exp_ids is None or exp_id in exp_ids]
    results = iter(engine.run([request for _, points in plans for _, request in points]))
    return [
        (exp_id, *_summarize(EXPERIMENTS[exp_id], points,
                             [next(results) for _ in points], {}))
        for exp_id, points in plans
    ]
