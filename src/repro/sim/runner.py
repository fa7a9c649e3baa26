"""Convenience entry points for running one workload on one machine."""

import os
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.isa.trace import Trace, validate_trace
from repro.sim.config import MachineConfig, SchemeConfig
from repro.sim.processor import Processor
from repro.sim.result import SimulationResult
from repro.sim.setup_memo import SetupBatch

#: Environment variable scaling every experiment's instruction budget.
INSTRUCTIONS_ENV = "REPRO_INSTRUCTIONS"
DEFAULT_INSTRUCTIONS = 12_000
#: Micro-ops generated past the committed-instruction budget, so the
#: pipeline never starves at the trace tail.
TRACE_TAIL_SLACK = 2_000


def instruction_budget(default: Optional[int] = None) -> int:
    """Per-run committed-instruction budget for experiments.

    The paper simulates 100M-instruction SimPoints; a pure-Python model
    cannot, so experiments default to a budget that keeps the full harness
    in CI-friendly time while past the warm-up transient.  Set
    ``REPRO_INSTRUCTIONS`` to scale every experiment up or down at once.
    """
    # Budget scaling is recorded in every result row (instructions field),
    # so the profile already captures it.  # repro: noqa[REPRO011]
    value = os.environ.get(INSTRUCTIONS_ENV)  # repro: noqa[REPRO011]
    if value:
        try:
            parsed = int(value)
        except ValueError:
            raise ConfigError(
                f"{INSTRUCTIONS_ENV} must be an integer instruction count, "
                f"got {value!r}"
            ) from None
        return max(1_000, parsed)
    return default if default is not None else DEFAULT_INSTRUCTIONS


def run_trace(
    config: MachineConfig,
    trace: Trace,
    max_instructions: Optional[int] = None,
    seed: int = 1,
    validate: bool = False,
    prewarm: bool = True,
) -> SimulationResult:
    """Run ``trace`` to completion (or budget) on ``config``.

    ``prewarm`` functionally warms the front end (I-cache, predictor) so a
    short run measures steady-state behaviour; see
    :meth:`Processor.prewarm`.
    """
    if validate:
        validate_trace(trace)
    budget = max_instructions if max_instructions is not None else len(trace)
    processor = Processor(config, trace, seed=seed)
    if prewarm:
        processor.prewarm()
    return processor.run(budget)


def run_workload(
    config: MachineConfig,
    workload,
    max_instructions: Optional[int] = None,
    seed: int = 1,
) -> SimulationResult:
    """Generate a workload's trace and run it: a one-element :func:`run_many`.

    ``workload`` is any object with ``generate(num_instructions) -> Trace``
    (see :mod:`repro.workloads`).  The trace is generated
    :data:`TRACE_TAIL_SLACK` ops longer than the budget.
    """
    return run_many([_Point(config, workload, max_instructions, seed)])[0]


class _Point(NamedTuple):
    """The request protocol :func:`run_many` reads (as ``RunRequest``)."""

    config: MachineConfig
    workload: Any
    budget: Optional[int]
    seed: int


def workload_trace(workload, budget: int) -> Trace:
    """The shared, frozen trace every run of ``workload`` at ``budget``
    committed instructions uses (:data:`TRACE_TAIL_SLACK` ops longer).

    ``workload`` is a suite name, a ``WorkloadSpec``, or any object with
    ``generate(n)``; spec-backed traces come from the setup memo.
    """
    return SetupBatch().trace(_resolve_workload(workload),
                              budget + TRACE_TAIL_SLACK)[0]


def _resolve_workload(workload):
    """Accept a suite name, a WorkloadSpec, or a generate()-bearing object."""
    if hasattr(workload, "generate"):
        return workload
    from repro.workloads import SyntheticWorkload, get_workload

    if isinstance(workload, str):
        return get_workload(workload)
    return SyntheticWorkload(workload)


#: Scheme kinds that share a conventional host run (see :func:`run_many`):
#: the host's own and the search filters that replay it as lanes.
_FILTER_KINDS = ("yla", "bloom")
_LANE_FAMILY = ("conventional",) + _FILTER_KINDS
#: A group member's role, in the order a group runs: the conventional
#: host, the search filters (the first hosts when there is no
#: conventional point), then the verdict lanes.
_HOST, _FILTER, _VERDICT = 0, 1, 2


def _is_verdict_lane(scheme: SchemeConfig) -> bool:
    """Whether a point times as its conventional run until a replay
    verdict of its own: non-coherent DMDC and Garg without store sets,
    and non-coherent ``conventional-storesets``."""
    if scheme.coherence:
        return False
    if scheme.kind in ("dmdc", "garg"):
        return not scheme.store_sets
    return scheme.kind == "conventional" and scheme.store_sets


def _role(scheme: SchemeConfig) -> int:
    if _is_verdict_lane(scheme):
        return _VERDICT
    return _FILTER if scheme.kind in _FILTER_KINDS else _HOST


def lane_host_config(config: MachineConfig) -> Optional[MachineConfig]:
    """The machine of the conventional run a ``config`` point shares.

    Conventional, YLA and Bloom points that differ only in their search
    filter time identically, so they share one host run: ``config`` with
    the scheme reduced to conventional, keeping ``coherence``,
    ``sq_filter`` and ``store_sets``.  A verdict lane (see
    :func:`run_many`) times as the plain conventional run until its
    first replay, so its scheme reduces to ``SchemeConfig(sq_filter=...)``.
    A ``value`` point is its own host: its timing, like the conventional
    machine's, is the same under every seed while the injector is off.
    None for every other scheme.
    """
    scheme = config.scheme
    if _is_verdict_lane(scheme):
        return config.with_scheme(SchemeConfig(sq_filter=scheme.sq_filter))
    if scheme.kind == "value":
        return config
    if scheme.kind not in _LANE_FAMILY:
        return None
    return config.with_scheme(SchemeConfig(
        coherence=scheme.coherence, sq_filter=scheme.sq_filter,
        store_sets=scheme.store_sets))


class LaneGroup(NamedTuple):
    """The key of the points one host run serves (see :func:`lane_group`)."""

    trace: Any
    budget: Any
    host: MachineConfig
    #: None unless the invalidation injector is on.
    seed: Optional[int]


def lane_group(config: MachineConfig, trace: Any, seed: int,
               budget: Any) -> Optional[LaneGroup]:
    """The lane group a point joins: points with the same trace, budget
    and :func:`lane_host_config` share one host run.  None for a point
    outside every lane family.

    The seed only draws the wrong-path loads, which change no timing and
    which every lane draws for itself, and the injected invalidations,
    which do change timing.  So the group names the seed only when the
    invalidation injector is on (``invalidation_rate > 0``).

    ``trace`` is whatever names the point's trace for the caller:
    :func:`run_many` passes the trace's content identity, the engine
    (before any trace exists) the workload name.
    """
    host = lane_host_config(config)
    if host is None:
        return None
    return LaneGroup(trace, budget, host,
                     seed if config.invalidation_rate > 0 else None)


def run_many(requests: Sequence) -> List[SimulationResult]:
    """Run a batch of design points, amortizing setup; results come back
    in request order.

    Each request carries ``config`` (a :class:`MachineConfig`),
    ``workload`` (a suite name, a ``WorkloadSpec``, or any object with
    ``generate(n)``), ``budget`` (``None`` for the environment default)
    and ``seed`` — :class:`repro.exec.request.RunRequest` satisfies the
    protocol as-is.

    Setup amortization, behaviour-neutral per element:

    * one generated trace — and therefore one SoA column decode — per
      distinct (workload content, budget), shared through the
      process-wide setup memo (:mod:`repro.sim.setup_memo`) with every
      other batch;
    * one prewarm per distinct (trace, front-end geometry), likewise
      shared: later processors get a copy of the warm state;
    * **lanes**: points in the same :func:`lane_group` form a group.
      Its host, the conventional point (else the first YLA/Bloom
      point), runs first and records the events lanes read, keeping
      its machine counters for them
      (:class:`~repro.sim.processor.HostRun`).  Every other
      YLA/Bloom point (a *filter lane*) gets its own
      ``Processor.run``, which replays that log and reports
      ``kernel_used == "lane"``.  A DMDC, Garg or
      ``conventional-storesets`` point (a *verdict lane*) replays it
      the same way when the host's run was squash-free, and steps its
      own kernel when it was not.  When the replay reaches a verdict
      that would change timing, the lane *forks*: it resumes its own
      kernel from a snapshot of the host's machine at that cycle,
      which the host run keeps for the group's later lanes (and, while
      the setup memo holds the run, for later batches), and so does
      the forked run itself: a later lane of the same machine whose
      verdicts reproduce its tail takes its result without forking
      (:meth:`~repro.sim.processor.Processor.replay`).  A group
      replays every verdict lane before it forks any, then forks
      them in ascending divergence cycle, so its prefix steps reach
      the latest divergence once.  A group without a host runs each
      point alone, recording nothing.  A ``value`` point is a group of
      its own machine: one value run serves every seed;
    * **shared host runs**: a group without a seed (the injector off)
      over a memoized trace looks its host run up in the setup memo
      first.  On a hit no point of the group steps a host loop: the
      conventional point is a lane too.  On a miss the group's host
      records even when it is alone, and the memo keeps its run for
      every later batch, whatever their seeds.

    Every element still gets a fresh :class:`Processor` with its own RNG
    stream and its own copy of the warm front end, and a lane draws its
    wrong-path loads from its own seed, so results are bit-identical to
    a fresh process running each request alone and seeds cannot leak
    across batch elements.
    """
    setup = SetupBatch()
    points: List[Tuple[Any, int, Trace, Any]] = []
    # Group key -> member indices, in first-appearance order; a point
    # outside every lane family is a group of its own.
    groups: Dict[Any, List[int]] = {}
    for index, request in enumerate(requests):
        budget = request.budget
        if budget is None:
            budget = instruction_budget()
        trace, ident = setup.trace(_resolve_workload(request.workload),
                                   budget + TRACE_TAIL_SLACK)
        points.append((request, budget, trace, ident))
        key = lane_group(request.config, ident, request.seed, budget)
        groups.setdefault(index if key is None else key, []).append(index)

    results: Dict[int, SimulationResult] = {}
    for key, members in groups.items():
        role = {i: _role(points[i][0].config.scheme) for i in members}
        members.sort(key=role.__getitem__)
        ident = points[members[0]][3]
        shared = (isinstance(key, LaneGroup) and key.seed is None
                  and setup.memoized(ident))
        recorded = setup.host_run(ident, key.budget, key.host) if shared else None
        record = (recorded is None and role[members[0]] != _VERDICT
                  and (shared or len(members) > 1))
        forks: List[Tuple[int, Processor]] = []
        for index in members:
            request, budget, trace, ident = points[index]
            processor = Processor(request.config, trace, seed=request.seed)
            if recorded is not None and (role[index] != _VERDICT
                                         or recorded.squash_free):
                # A diverging verdict lane forks from the host's
                # machine, so a lane needs no warm front end of its own.
                processor.replay_from = recorded
                if processor.replay() is None:
                    forks.append((index, processor))
                else:  # ``run`` returns the replay's result
                    results[index] = processor.run(budget)
                continue
            processor.record_events = record and index == members[0]
            setup.prewarm(processor, ident)
            results[index] = processor.run(budget)
            if processor.recorded is not None:
                recorded = processor.recorded
                if shared:
                    setup.keep_host_run(ident, budget, key.host, recorded)
        forks.sort(key=lambda fork: fork[1].divergence)
        for index, processor in forks:
            results[index] = processor.run(points[index][1])
    return [results[index] for index in range(len(points))]
