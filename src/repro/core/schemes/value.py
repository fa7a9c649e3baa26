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

from typing import List

from repro.core.schemes.base import (
    EV_COMMIT,
    EV_LOAD,
    EV_LOAD_GUARDED,
    EV_LOAD_SAFE,
    EV_MISPREDICT,
    EV_SQUASH,
    EV_STORE,
    EV_STORE_VICTIM,
    CheckScheme,
    SoaHooks,
)


class ValueBasedScheme(CheckScheme):
    """Commit-time load re-execution; no LQ, no searches, no filtering."""

    uses_associative_lq = False
    #: The pipeline re-accesses the D-cache for every committing load.
    reexecutes_loads = True
    name = "value"

    def soa_hooks(self, kernel):
        return _ValueSoaHooks(self, kernel)

    def replay_lane(self, events: List[int], wrongpath) -> None:
        """Book this scheme's run from a recorded value run's ``events``.

        The value machine's timing does not depend on its seed while the
        invalidation injector is off (its wrong-path loads reach no
        state), so one recorded run serves every seed: the re-executions
        are the committed loads (``EV_COMMIT``) plus the loads that
        replayed instead (one squash each), and ``wrongpath``, the lane's
        own :class:`~repro.frontend.wrongpath.WrongPathModel`, sees every
        logged load issue and draws the lane's wrong-path loads at every
        mispredict mark.
        """
        observe = wrongpath.observe_address
        draw = wrongpath.loads_for_mispredict
        loads = replays = 0
        i = 0
        n = len(events)
        while i < n:
            op = events[i]
            if op == EV_LOAD or op == EV_LOAD_SAFE or op == EV_LOAD_GUARDED:
                observe(events[i + 1])
                i += 4
            elif op == EV_COMMIT:
                loads += 1
                i += 2
            elif op == EV_MISPREDICT:
                for age, addr in draw(events[i + 1]):
                    self.on_wrongpath_load(age, addr)
                i += 3
            elif op == EV_SQUASH:
                replays += 1
                i += 5 + events[i + 4]
            elif op == EV_STORE or op == EV_STORE_VICTIM:
                i += 5
            else:  # EV_COMMITS, EV_RECOVERY, EV_MARK
                i += 3
        if loads + replays:
            self.stats["value.reexecutions"] = loads + replays
        if replays:
            self.stats["replay.true"] = replays


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
