"""Forked verdict lanes: step no cycle a conventional run already stepped.

A DMDC or Garg point times exactly as its conventional host until the
first verdict that changes timing (a commit replay, or an issue or
resolve hook naming a victim): DMDC checks only at commit.  A *verdict
lane* whose replay of the host's log reaches such a verdict at cycle
*D* therefore does not step its own loop from cycle 0.  It restores a
:class:`~repro.sim.soa.Snapshot` of the conventional machine taken at or
before *D*, replays its own scheme and wrong-path model over exactly
the log records of earlier cycles, and resumes its own kernel from
there (:meth:`repro.sim.processor.Processor._fork`).

The snapshots come from :class:`LaneForks`, one per ``run_many`` lane
group.  The setup memo keeps them beside the host run they belong to,
so a later lane of any seed that diverges at the same cycle restores
one and steps no prefix at all.  When none is kept at *D*, one
conventional *prefix kernel* per group steps forward from the latest
kept snapshot before *D* (or from cycle 0), stops at *D* and keeps a
snapshot there: lanes that ask in ascending order of *D* pay max(*D*)
of prefix instead of the sum.
"""

from typing import Any, List, Optional

from repro.errors import SimulationError
from repro.sim.config import MachineConfig
from repro.sim.processor import Processor
from repro.sim.setup_memo import SETUP_MEMO, SetupBatch
from repro.sim.soa import Snapshot, SoaKernel


class LaneForks:
    """Snapshots of one lane group's conventional host machine, and the
    prefix kernel that takes them.

    ``host`` is the group's host :class:`MachineConfig`, ``seed`` the
    group's seed when the invalidation injector makes timing depend on
    it (else any).  With ``shared`` the snapshots live in the setup memo
    beside the group's memoized host run; otherwise only as long as
    this object.
    """

    def __init__(self, setup: SetupBatch, ident: Any, trace: Any, budget: int,
                 host: MachineConfig, seed: int, shared: bool) -> None:
        self.setup = setup
        self.ident = ident
        self.trace = trace
        self.budget = budget
        self.host = host
        self.seed = seed
        self.shared = shared
        self._kept: List[Snapshot] = []
        self._prefix: Optional[SoaKernel] = None

    def snapshot(self, cycle: int, target: int, max_cycles: int) -> Snapshot:
        """The latest conventional snapshot at or before ``cycle``: a kept
        one at ``cycle`` itself, else one the prefix kernel steps to
        ``cycle`` and keeps."""
        kept = self._lookup(cycle)
        exact = kept is not None and kept.cycle == cycle
        SETUP_MEMO.count_fork(exact)
        if exact:
            return kept
        prefix = self._prefix
        if (prefix is None or prefix.cycle > cycle
                or (kept is not None and prefix.cycle < kept.cycle)):
            prefix = self._prefix = self._start(kept)
        prefix.run(target, max_cycles, stop=cycle)
        if prefix.cycle != cycle:
            raise SimulationError(
                f"the conventional prefix on {self.trace.name} committed "
                f"{prefix.committed} instructions by cycle {prefix.cycle}, "
                f"before a lane's fork cycle {cycle}")
        snapshot = Snapshot(prefix)
        self._keep(snapshot)
        return snapshot

    def _start(self, kept: Optional[Snapshot]) -> SoaKernel:
        """A conventional kernel at ``kept``, or a warm one at cycle 0."""
        processor = Processor(self.host, self.trace, seed=self.seed)
        if kept is None:
            self.setup.prewarm(processor, self.ident)
        kernel = SoaKernel(processor)
        if kept is not None:
            kept.restore(kernel)
        return kernel

    def _lookup(self, cycle: int) -> Optional[Snapshot]:
        if self.shared:
            return self.setup.snapshot(self.ident, self.budget, self.host, cycle)
        best = None
        for snapshot in self._kept:
            if snapshot.cycle <= cycle:
                best = snapshot
        return best

    def _keep(self, snapshot: Snapshot) -> None:
        if self.shared:
            self.setup.keep_snapshot(self.ident, self.budget, self.host, snapshot)
        else:
            self._kept.append(snapshot)
            self._kept.sort(key=lambda kept: kept.cycle)
