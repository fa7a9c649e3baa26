"""Value-based memory ordering of Cain & Lipasti [5] (ISCA 2004).

The other end of the design space in the paper's related work: ignore
address and timing information entirely.  Every load **re-executes at
commit** and compares the returned value with the value it used; a
mismatch (caused by an ordering violation) triggers a replay.  No load
queue of any kind is needed — the price is one extra data-cache access
per committed load ("the downside of the approach is the elevated memory
bandwidth requirement").

The timing model does not carry data values; the simulator's ground-truth
violation flag stands in for the value comparison (it is exactly the set
of loads whose re-executed value would differ).  The pipeline charges the
commit-time cache re-access when ``reexecutes_loads`` is set, which is
where the bandwidth/energy cost shows up in the evaluation.

The original paper adds replay/filtering optimisations to cut the
re-execution rate; this implements the naive scheme the comparison in
Section 7 refers to.
"""

from repro.core.schemes.base import CheckScheme, SoaHooks


class ValueBasedScheme(CheckScheme):
    """Commit-time load re-execution; no LQ, no searches, no filtering.

    Its timing does not depend on its seed while the invalidation
    injector is off, so one recorded value run serves every seed: a
    lane's re-executions are the run's committed loads plus the loads
    that replayed instead, one squash each (:mod:`repro.sim.walk`).
    """

    uses_associative_lq = False
    #: The pipeline re-accesses the D-cache for every committing load.
    reexecutes_loads = True
    name = "value"

    def soa_hooks(self, kernel):
        return _ValueSoaHooks(self, kernel)


class _ValueSoaHooks(SoaHooks):
    """The value comparison of a committing load.  The pipeline charges
    the commit-time D-cache re-access itself (``reexecutes_loads``)."""

    commit_mode = 1

    def on_commit_load(self, slot: int) -> bool:
        s = self.scheme
        s.stats.bump("value.reexecutions")
        if self.k.tvs[slot] >= 0:
            # The re-executed value differs: squash and refetch the load.
            s.stats.bump("replay.true")
            return True
        return False
