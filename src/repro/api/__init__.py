"""The stable public facade of the DMDC reproduction.

``repro.api`` is the supported surface for scripts, notebooks, and the
``examples/`` directory: five verbs plus the vocabulary types they
speak.  Everything here runs through the shared execution engine, so
repeated design points are deduplicated and served from the
content-addressed result cache exactly like experiment sweeps and
service traffic.

    from repro import api

    result = api.run("gzip", scheme="dmdc-local", instructions=10_000)
    grid = api.sweep(["gzip", "mcf"], schemes=["conventional", "dmdc"])
    print(grid.table())          # scheme x workload IPC pivot
    print(grid.stats)            # cache/dedup accounting
    report = api.compare("mcf", scheme="dmdc")
    print(report.table())

``sweep`` also takes a declarative :class:`~repro.sweeps.GridSpec`
directly — the same object the ``repro sweep`` autopilot and the HTTP
service execute (one point codec across all three; see
``docs/sweeps.md``)::

    from repro.sweeps import GridSpec

    grid = api.sweep(GridSpec(
        axes={"scheme": ["dmdc"], "table": [512, 2048], "workload": ["gzip"]},
        base={"instructions": 8_000}))

Advanced internals (hand-built traces, direct pipeline access, engine
plumbing) live in :mod:`repro.api.advanced`.

Verbs:

* :func:`run` — one design point -> :class:`SimulationResult`;
* :func:`sweep` — a design-space grid in one deduplicated batch ->
  :class:`SweepResult`;
* :func:`compare` — candidate vs baseline with the paper's energy verdict;
* :func:`check` — the correctness tooling (lint, concurrency analysis and
  sanitizer) as data;
* :func:`profile` — one design point with full observability attached
  (cycle/structure attribution, replay sites, timeline); always
  simulates — the event stream is a per-run observation, not a cacheable
  result (see ``docs/observability.md``).
"""

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.analysis import (
    SCHEME_MATRIX,
    compare_results,
    per_workload_table,
    speedup_summary,
)
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.errors import ConfigError, ReproError, SimulationError
from repro.exec import RunRequest as _RunRequest
from repro.exec import get_engine as _get_engine
from repro.sim.config import (
    CONFIG1,
    CONFIG2,
    CONFIG3,
    SCHEME_LABELS,
    MachineConfig,
    SchemeConfig,
    scheme_matrix,
)
from repro.sim.result import SimulationResult
from repro.sim.runner import instruction_budget as _instruction_budget
from repro.sim.runner import workload_trace as _workload_trace
from repro.stats.report import format_table
from repro.sweeps.grid import GridExpansion, GridSpec
from repro.sweeps.points import NAMED_CONFIGS
from repro.sweeps.result import SweepResult
from repro.workloads import SUITE, SyntheticWorkload, WorkloadSpec, get_workload

__all__ = [
    # the verbs
    "run", "sweep", "compare", "check", "profile",
    # structured results
    "CompareReport", "SweepResult", "GridSpec",
    # vocabulary types and helpers (stable re-exports)
    "CONFIG1", "CONFIG2", "CONFIG3", "NAMED_CONFIGS",
    "MachineConfig", "SchemeConfig", "SCHEME_LABELS", "scheme_matrix",
    "SCHEME_MATRIX", "SimulationResult",
    "EnergyModel", "EnergyBreakdown",
    "SUITE", "SyntheticWorkload", "WorkloadSpec", "get_workload",
    "format_table", "per_workload_table", "speedup_summary", "compare_results",
    "ConfigError", "ReproError", "SimulationError",
    # the documented sharp-edged surface
    "advanced",
]

SchemeLike = Union[str, SchemeConfig]
ConfigLike = Union[str, MachineConfig]
WorkloadLike = Union[str, WorkloadSpec, SyntheticWorkload]


# -- coercion ------------------------------------------------------------
def _as_scheme(scheme: SchemeLike) -> SchemeConfig:
    if isinstance(scheme, SchemeConfig):
        return scheme
    return SchemeConfig.from_label(scheme)


def _as_machine(config: ConfigLike, scheme: SchemeLike,
                overrides: Optional[Dict] = None) -> MachineConfig:
    if isinstance(config, str):
        if config not in NAMED_CONFIGS:
            raise ConfigError(
                f"unknown config {config!r}; choices: {sorted(NAMED_CONFIGS)}")
        machine = NAMED_CONFIGS[config]
    else:
        machine = config
    machine = machine.with_scheme(_as_scheme(scheme))
    if overrides:
        machine = machine.with_overrides(**overrides)
    return machine


def _as_workload(workload: WorkloadLike) -> Union[str, WorkloadSpec]:
    if isinstance(workload, SyntheticWorkload):
        return workload.spec
    if isinstance(workload, str):
        get_workload(workload)  # validate the name eagerly
    return workload


def _workload_name(workload: WorkloadLike) -> str:
    if isinstance(workload, str):
        return workload
    if isinstance(workload, SyntheticWorkload):
        return workload.spec.name
    return workload.name


def _scheme_label(scheme: SchemeLike) -> str:
    return scheme if isinstance(scheme, str) else scheme.label()


# -- the verbs -----------------------------------------------------------
def run(workload: WorkloadLike,
        scheme: SchemeLike = "conventional",
        config: ConfigLike = "config2",
        *,
        instructions: Optional[int] = None,
        seed: int = 1,
        overrides: Optional[Dict] = None) -> SimulationResult:
    """Simulate one design point through the shared (caching) engine.

    ``workload`` is a suite name, a :class:`WorkloadSpec`, or a
    :class:`SyntheticWorkload`; ``scheme`` a canonical label (e.g.
    ``"dmdc-local"``) or a :class:`SchemeConfig`; ``config`` a named
    machine (``"config1"``..``"config3"``) or a :class:`MachineConfig`.
    ``overrides`` patches machine fields (e.g. ``{"lq_size": 48}``).
    """
    budget = instructions if instructions is not None else _instruction_budget()
    request = _RunRequest(_as_machine(config, scheme, overrides),
                          _as_workload(workload), budget, seed)
    return _get_engine().run([request])[0]


def sweep(workloads: Union[GridSpec, GridExpansion, Iterable[WorkloadLike]],
          schemes: Sequence[SchemeLike] = ("conventional", "dmdc"),
          config: ConfigLike = "config2",
          *,
          instructions: Optional[int] = None,
          seed: int = 1,
          overrides: Optional[Dict] = None,
          baseline: Optional[str] = None) -> SweepResult:
    """A design-space grid, planned as **one** engine batch.

    Takes either a declarative :class:`~repro.sweeps.GridSpec` (the same
    object ``repro sweep`` and the service execute) or the historical
    kwargs form ``sweep(workloads, schemes=..., ...)`` — the kwargs are a
    thin shim over :meth:`GridSpec.from_kwargs`, so both vocabularies
    normalize through one point codec and produce identical design
    points.

    Returns a :class:`SweepResult`: ``result[label][workload]`` as
    before, plus ``result[label, workload]``, ``result.table()``, and
    ``result.stats`` (cache/dedup accounting for this batch).
    """
    if isinstance(workloads, GridExpansion):
        expansion = workloads
    else:
        if isinstance(workloads, GridSpec):
            spec = workloads
        else:
            spec = GridSpec.from_kwargs(
                list(workloads), schemes, config,
                instructions=instructions, seed=seed, overrides=overrides,
                baseline=baseline)
        expansion = spec.expand()

    engine = _get_engine()
    stats = engine.stats
    before = (stats.memo_hits, stats.disk_hits, stats.executed)
    results = engine.run(expansion.requests)
    after = (stats.memo_hits, stats.disk_hits, stats.executed)

    grid: Dict[str, Dict[str, SimulationResult]] = {}
    for point, result in zip(expansion.points, results):
        workload = point["workload"]
        name = workload if isinstance(workload, str) else workload["name"]
        grid.setdefault(point["scheme"], {})[name] = result
    unique = len(expansion)
    executed = after[2] - before[2]
    return SweepResult(grid, list(expansion.points), {
        "requested": expansion.raw_points,
        "excluded": expansion.excluded,
        "collapsed": expansion.collapsed,
        "unique": unique,
        "memo_hits": after[0] - before[0],
        "disk_hits": after[1] - before[1],
        "executed": executed,
        "hit_rate": (unique - executed) / unique if unique else 1.0,
    })


@dataclass
class CompareReport:
    """Baseline vs candidate on one workload, with the energy verdict."""

    baseline: SimulationResult
    candidate: SimulationResult
    energy_baseline: EnergyBreakdown
    energy_candidate: EnergyBreakdown

    @property
    def lq_savings(self) -> float:
        """Fractional LQ energy saved by the candidate scheme."""
        if not self.energy_baseline.lq:
            return 0.0
        return 1 - self.energy_candidate.lq / self.energy_baseline.lq

    @property
    def net_savings(self) -> float:
        if not self.energy_baseline.total:
            return 0.0
        return 1 - self.energy_candidate.total / self.energy_baseline.total

    @property
    def slowdown(self) -> float:
        """Cycle overhead of the candidate (positive = slower)."""
        if not self.baseline.cycles:
            return 0.0
        return self.candidate.cycles / self.baseline.cycles - 1

    def table(self) -> str:
        base, cand = self.baseline, self.candidate
        rows = [
            ["IPC", f"{base.ipc:.3f}", f"{cand.ipc:.3f}"],
            ["LQ searches", base.counters["lq.searches_assoc"],
             cand.counters["lq.searches_assoc"]],
            ["replays", base.counters["replays"], cand.counters["replays"]],
            ["LQ energy", f"{self.energy_baseline.lq:.0f}",
             f"{self.energy_candidate.lq:.0f}"],
            ["total energy", f"{self.energy_baseline.total:.0f}",
             f"{self.energy_candidate.total:.0f}"],
        ]
        return format_table(["metric", base.scheme_name, cand.scheme_name], rows)

    def verdict(self) -> str:
        return (f"LQ savings {self.lq_savings:.1%}, "
                f"net {self.net_savings:.1%}, "
                f"slowdown {self.slowdown:+.2%}")


def compare(workload: WorkloadLike,
            scheme: SchemeLike = "dmdc",
            baseline: SchemeLike = "conventional",
            config: ConfigLike = "config2",
            *,
            instructions: Optional[int] = None,
            seed: int = 1,
            overrides: Optional[Dict] = None) -> CompareReport:
    """Run ``baseline`` and ``scheme`` side by side on one workload."""
    grid = sweep([workload], schemes=[baseline, scheme], config=config,
                 instructions=instructions, seed=seed, overrides=overrides)
    name = _workload_name(workload)
    base = grid[_scheme_label(baseline)][name]
    cand = grid[_scheme_label(scheme)][name]
    machine = _as_machine(config, baseline, overrides)
    model = EnergyModel(machine)
    return CompareReport(base, cand, model.evaluate(base), model.evaluate(cand))


#: Schemes that filter associative LQ searches by age: a sanitized run of
#: one of these must show *some* filtering activity, or the sweep proved
#: nothing about the mechanism under test.
_FILTERING_SCHEMES = frozenset(
    {"yla", "bloom", "dmdc", "dmdc-local", "dmdc-queue8"})


def check(paths: Optional[Sequence[str]] = None,
          *,
          static: bool = True,
          concurrency: bool = False,
          sanitize: bool = False,
          schemes: Optional[Sequence[str]] = None,
          workloads: Optional[Sequence[str]] = None,
          instructions: int = 6_000,
          config: ConfigLike = "config2",
          seed: int = 1,
          strict: bool = False) -> Dict[str, object]:
    """The correctness tooling as data (see ``docs/correctness.md``).

    Returns ``{"ok": bool, "static": [violations...],
    "concurrency": [violations...], "sanitize": [reports...]}`` with only
    the halves that were requested.  A sanitize entry is the run's
    sanitizer report plus its ``workload``, ``label``,
    ``filtered_searches`` and ``ok``: a filtering scheme (YLA, Bloom or
    the DMDC family) that filtered nothing is not ok even when clean.
    """
    from repro.analysis.conc import CONC_RULES
    from repro.analysis.lint import lint_paths
    from repro.analysis.sanitizer import run_sanitized

    labels = list(schemes) if schemes else sorted(SCHEME_MATRIX)
    unknown = [label for label in labels if label not in SCHEME_MATRIX]
    if sanitize and unknown:
        raise ConfigError(
            f"unknown sanitizer scheme(s) {', '.join(unknown)}; choices: "
            f"{', '.join(sorted(SCHEME_MATRIX))}")
    payload: Dict[str, object] = {}
    targets = list(paths) if paths else ["src"]
    if static:
        payload["static"] = [v._asdict() for v in lint_paths(targets)]
    if concurrency:
        payload["concurrency"] = [
            v._asdict() for v in lint_paths(targets, rules=CONC_RULES)]
    if sanitize:
        machine = _as_machine(config, "conventional")
        reports = []
        for name in (list(workloads) if workloads else ["gzip", "mcf"]):
            trace = _workload_trace(name, instructions)
            for label in labels:
                result, report = run_sanitized(
                    machine.with_scheme(SCHEME_MATRIX[label]), trace,
                    max_instructions=instructions, seed=seed, strict=strict)
                filtered = (result.counters["lq.searches_filtered"]
                            + result.counters["stores.safe"])
                entry = report.as_dict()
                entry.update(workload=name, label=label,
                             filtered_searches=int(filtered),
                             ok=report.clean and not (
                                 label in _FILTERING_SCHEMES and filtered == 0))
                reports.append(entry)
        payload["sanitize"] = reports
    payload["ok"] = (not payload.get("static") and not payload.get("concurrency")
                     and all(entry["ok"] for entry in payload.get("sanitize", ())))
    return payload


def profile(workload: WorkloadLike,
            scheme: SchemeLike = "dmdc",
            config: ConfigLike = "config2",
            *,
            instructions: Optional[int] = None,
            seed: int = 1,
            overrides: Optional[Dict] = None,
            ring_capacity: int = 4096,
            jsonl_path: Optional[str] = None,
            timeline_capacity: int = 256):
    """Simulate one design point with the observability layer attached.

    Returns a :class:`repro.obs.ProfileReport` bundling the (bit-identical)
    :class:`SimulationResult`, the per-structure/per-stage attribution with
    its counter reconciliation, and the recorder itself (event ring,
    replay sites, timeline).  Unlike :func:`run` this always simulates —
    the event stream is a per-run observation, not a cacheable artefact.
    ``jsonl_path`` additionally streams every event to disk as JSONL.
    """
    from repro.obs.profile import profile_workload
    machine = _as_machine(config, scheme, overrides)
    budget = instructions if instructions is not None else _instruction_budget()
    spec = _as_workload(workload)
    source = get_workload(spec) if isinstance(spec, str) else SyntheticWorkload(spec)
    return profile_workload(machine, source, instructions=budget, seed=seed,
                            ring_capacity=ring_capacity, jsonl_path=jsonl_path,
                            timeline_capacity=timeline_capacity)


from repro.api import advanced  # noqa: E402  (documented submodule surface)
