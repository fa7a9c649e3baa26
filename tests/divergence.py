"""First divergent cycle: bisect two machines on stop cycles.

When a "lane equals its lone run" or "fork equals its lone run" check
fails, two unequal ``to_dict()`` blobs say what differs at the end, not
where it started.  These helpers step two kernels to a cycle boundary
(``SoaKernel.run``'s stop cycle), dump a canonical state of each (ROB,
LQ, SQ and fetch-buffer seqs, the rename table, the counter locals and
the scheme's ``end_check``) and bisect for the first cycle whose dumps
differ: the per-cycle state-dump comparison simulator test benches use
between two implementations.
"""

import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.processor import Processor
from repro.sim.runner import TRACE_TAIL_SLACK, _resolve_workload, lane_host_config
from repro.sim.setup_memo import SetupBatch
from repro.sim.soa import CHECKING_COUNT, SoaKernel

Dump = Dict[str, Any]


def state_dump(kernel: SoaKernel, scheme: bool = True) -> Dump:
    """The canonical state of a stopped kernel; with ``scheme`` also the
    checking-cycle count and the scheme's ``end_check`` (DMDC only)."""
    seq = kernel.seq
    pbits = kernel.pbits
    dump: Dump = {
        "cycle": kernel.cycle,
        "committed": kernel.committed,
        "rob": [seq[slot] for slot in kernel.rob],
        "lq": [seq[slot] for slot in kernel.lq],
        "sq": [seq[slot] for slot in kernel.sq],
        "fetch": [seq[slot] for slot in kernel.fetch_buf],
        "rename": [enc >> pbits if enc >= 0 else -1 for enc in kernel.rename],
        "counts": kernel.counts[:CHECKING_COUNT] + [
            kernel.n_squash, kernel.n_guard_trips, kernel.n_gt_violations],
    }
    if scheme:
        dump["checking"] = kernel.counts[CHECKING_COUNT]
        end_check = getattr(kernel.scheme, "end_check", None)
        dump["end_check"] = end_check() if end_check is not None else None
    return dump


def first_divergent_cycle(dumps: Callable[[int], Tuple[Dump, Dump]],
                          lo: int, hi: int) -> Optional[int]:
    """A cycle ``c`` in ``[lo, hi]`` whose two dumps differ while those
    of ``c - 1`` agree (the first such cycle when a divergence, once
    there, stays), or None when the dumps agree at ``hi``.

    ``dumps(c)`` steps both machines afresh to the boundary of cycle
    ``c`` and dumps them.
    """
    a, b = dumps(lo)
    if a != b:
        return lo
    a, b = dumps(hi)
    if a == b:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        a, b = dumps(mid)
        if a == b:
            lo = mid
        else:
            hi = mid
    return hi


def _processor(point) -> Tuple[Processor, SetupBatch, Any, Any]:
    setup = SetupBatch()
    trace, ident = setup.trace(_resolve_workload(point.workload),
                               point.budget + TRACE_TAIL_SLACK)
    return Processor(point.config, trace, seed=point.seed), setup, trace, ident


def _limits(point, trace) -> Tuple[int, int]:
    return min(point.budget, len(trace)), max(200_000, point.budget * 60)


def lone_kernel(point, stop: int, config=None) -> SoaKernel:
    """``point`` (or its machine under ``config``) stepped from cycle 0
    to the boundary of ``stop``."""
    if config is not None:
        point = point._replace(config=config)
    processor, setup, trace, ident = _processor(point)
    setup.prewarm(processor, ident)
    kernel = SoaKernel(processor)
    kernel.run(*_limits(point, trace), stop=stop)
    return kernel


def forked_kernel(point, host, stop: int) -> SoaKernel:
    """``point``, a verdict lane of the host run ``host``, forked where
    its replay diverges and stepped to the boundary of ``stop``.  It
    forks from a private copy of ``host`` with no snapshots kept, so its
    prefix is its own, never one the host run (or the setup memo)
    kept."""
    processor, _, trace, _ = _processor(point)
    target, max_cycles = _limits(point, trace)
    checking = processor._replay_lane(host)
    assert checking < 0, "the lane's replay does not diverge"
    kernel = processor._fork(host._replace(), -1 - checking, target,
                             max_cycles)
    kernel.run(target, max_cycles, stop=stop)
    return kernel


def explain_fork(point, host, cycles: int) -> str:
    """Where a forked ``point`` first leaves its lone run."""
    fork_cycle = forked_kernel(point, host, 0).cycle
    cycle = first_divergent_cycle(
        lambda c: (state_dump(lone_kernel(point, c)),
                   state_dump(forked_kernel(point, host, c))),
        fork_cycle, cycles)
    return (f"{point.config.scheme.label()} on {point.workload}: forked at "
            f"cycle {fork_cycle}, first differs from its lone run at "
            f"cycle {cycle}")


def explain_lane(point, cycles: int) -> str:
    """Where ``point``'s lone run first leaves its host's machine, which
    a lane claims it times as throughout (scheme state left out)."""
    host = lane_host_config(point.config)
    cycle = first_divergent_cycle(
        lambda c: (state_dump(lone_kernel(point, c, host), scheme=False),
                   state_dump(lone_kernel(point, c), scheme=False)),
        0, cycles)
    return (f"{point.config.scheme.label()} on {point.workload}: its lone "
            f"run first differs from its host's machine at cycle {cycle}")


def finish(processor: Processor, kernel: SoaKernel, budget: int):
    """Run a stopped ``kernel`` of ``processor`` to the end: its result."""
    target = min(budget, len(processor.trace))
    return processor._finish(kernel, target, max(200_000, budget * 60),
                             time.perf_counter())
