"""One walk per lane group: a host run's log, decoded once for all of its lanes.

A group's points share one recorded run (:class:`~repro.sim.processor.HostRun`,
see :func:`repro.sim.runner.run_many`).  Its lanes all read the same
event log, so :func:`walk_lanes` decodes each record once and hands it
to every live lane:

* each distinct seed's wrong-path model observes every load issue and
  draws at every mispredict once (lanes of one seed draw from identical
  streams, ``DeterministicRng(seed, "proc:<trace>")``), and every lane of
  that seed sees the same draws;
* the host-derived view columns a verdict adapter reads (``icyc``,
  ``rcyc``, ``safe``, ``gbp`` and the ROB-tail ``rob``) are written once,
  into columns every verdict lane's :class:`~repro.sim.soa.LaneView`
  shares; a lane owns only ``unsafe``, ``wend`` and its marks;
* then each lane's own code runs: a conventional-family lane's search
  filter (the scheme's ``_filter_*`` ops), a DMDC or Garg lane's
  ``SoaHooks`` adapter behind the kernel's gates, and a value lane's
  re-execution count, which, like a plain conventional lane's searches,
  the log alone gives.

A lane's hooks see exactly the calls, in exactly the order, that a
replay of the log through that lane alone makes.  A verdict lane whose
hook names a victim (or that meets a retired ground-truth mark) leaves
the walk at that verdict's cycle, its *divergence* *D*; the rest go on.

This module is the only code that reads a recorded log, a host run's or
a forked run's tail.  Whatever a diverging lane does next, walking kept
forked runs' tails or forking its own kernel, starts from a
:class:`Checkpoint` of the lane at the boundary of *D*.  For a verdict
lane whose machine has a kept forked run forked at some cycle *F*
(:attr:`HostRun.forked`), the walk checkpoints the lane at *F*, which
serves it when *D* is *F*.  Every other diverging lane gets its
checkpoint from :func:`checkpoint_lanes`: a second walk of the same loop
over the lanes that lack one, each from a fresh scheme and model, which
a lane leaves once checkpointed at its *D*.  A walk tracks, per seq,
where loads issued and stores resolved (a tail's ground-truth marks
derive from them) only when it has a checkpoint to take.

A *tail walk* (:func:`walk_tail`) is the same loop over one lane,
resumed from its checkpoint into a forked run's tail.  The tail holds
the forked run's squashes, so the walk follows each one the lane's own
verdict reproduces: the victim a load-issue or store-resolve hook just
named, with the squash record right after its record, or the lane's
own commit-time replay of the head.  Any other verdict that differs
from the log makes the lane leave: the tail does not serve it.

Every rejection of a host run's log raises
:class:`~repro.errors.SimulationError` naming a lane: a filter that calls
a store safe although the host's search found a victim, a squash in the
log of a verdict lane's host, a host log that retires past the trace
or other than its committed count, and a lane whose checkpoint walk
takes no checkpoint at the divergence its first walk reported.  The
same faults in a tail make its lane leave.
"""

import pickle
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.schemes.base import (
    EV_COMMIT,
    EV_COMMITS,
    EV_LOAD,
    EV_LOAD_GUARDED,
    EV_LOAD_SAFE,
    EV_MARK,
    EV_MISPREDICT,
    EV_RECOVERY,
    EV_SQUASH,
    EV_STORE,
    EV_STORE_VICTIM,
    CheckScheme,
    SoaHooks,
)
from repro.core.schemes.conventional import ConventionalScheme
from repro.core.schemes.value import ValueBasedScheme
from repro.errors import SimulationError
from repro.sim.setup_memo import SETUP_MEMO
from repro.sim.soa import LaneView, lane_column

#: Lane kinds.
FILTER, VALUE, VERDICT = 0, 1, 2

#: A cycle or seq no record reaches: no checkpoint pending, no squashed
#: range ahead of the commit head.
_NEVER = 1 << 62

#: The host-derived columns every verdict lane of a walk shares, and the
#: per-seq tracking a tail's marks derive from.
_SHARED = ("safe", "gbp", "icyc", "rcyc")
_TRACKED = ("ipos", "ihead", "rpos")

#: The load-issue opcodes.
_LOADS = frozenset((EV_LOAD, EV_LOAD_SAFE, EV_LOAD_GUARDED))


class Checkpoint:
    """A verdict lane at the boundary of ``cycle``: its scheme (pickled),
    a copy of its own columns (``unsafe``, ``wend``) and of its
    wrong-path model, with copies of the walk's host-derived and
    tracking columns, logged marks and cursors there (shared by the
    lanes checkpointed at that cycle).  :meth:`resume` gives each tail
    walk, and the lane's fork, their own copies."""

    __slots__ = ("cycle", "scheme", "wrongpath", "unsafe", "wend", "host",
                 "marks", "state")

    def __init__(self, cycle: int, lane: "Lane", host: Dict[str, Any],
                 marks: Dict[int, int], state: Tuple[int, ...]) -> None:
        self.cycle = cycle
        # A pickle round trip copies a scheme about three times faster
        # than ``copy.deepcopy``.
        self.scheme = pickle.dumps(lane.scheme, pickle.HIGHEST_PROTOCOL)
        self.wrongpath = lane.wrongpath.copy()
        self.unsafe = lane.view.unsafe[:]
        self.wend = lane.view.wend[:]
        self.host = host
        self.marks = marks
        #: The host log's length (a tail's record positions count on
        #: from it), (head, retired, last, stage) of the walk, then the
        #: lane's checking-cycle count: where a tail walk starts.
        self.state = state

    def resume(self, trace) -> Tuple[CheckScheme, object, LaneView, Tuple[int, ...]]:
        """A scheme, wrong-path model and view (one that can follow a
        squash) in this state, with the walk's cursors: copies, so the
        checkpoint serves a tail walk each and then the lane's fork."""
        columns = {name: column[:] for name, column in self.host.items()}
        columns["unsafe"] = self.unsafe[:]
        columns["wend"] = self.wend[:]
        view = LaneView(trace, tail=True, columns=columns)
        view.tvs.logged.update(self.marks)
        return (pickle.loads(self.scheme), self.wrongpath.copy(), view,
                self.state)


class Lane:
    """One processor's part of a walk, and what the walk left it:
    ``divergence`` (None when the lane timed as its host throughout,
    then ``checking`` is its ``checking.cycles_observed``), the
    ``checkpoint`` at that cycle if one was taken, and ``seconds``, its
    share of the walks' time.

    A verdict lane is checkpointed at each of its ``fork_cycles`` it is
    live at: by default the fork cycles of the forked runs its host
    keeps for its machine."""

    __slots__ = ("label", "kind", "scheme", "hooks", "view", "wrongpath",
                 "fork_cycles", "live", "filtered", "checking", "divergence",
                 "checkpoint", "seconds")

    def __init__(self, processor, host,
                 fork_cycles: Optional[Tuple[int, ...]] = None) -> None:
        scheme = processor.scheme
        self.label = processor.config.scheme.label()
        self.scheme = scheme
        self.hooks: Optional[SoaHooks] = None
        self.view: Optional[LaneView] = None
        self.wrongpath = processor.wrongpath
        self.fork_cycles: Tuple[int, ...] = ()
        if isinstance(scheme, ConventionalScheme):
            self.kind = FILTER
        elif isinstance(scheme, ValueBasedScheme):
            self.kind = VALUE
        else:
            self.kind = VERDICT
            self.fork_cycles = fork_cycles if fork_cycles is not None else tuple(
                sorted({run.fork_cycle
                        for run in SETUP_MEMO.forked_runs(host, processor.config)}))
        self.live = True
        self.filtered = 0
        self.checking = 0
        self.divergence: Optional[int] = None
        self.checkpoint: Optional[Checkpoint] = None
        self.seconds = 0.0


def _host_squash(label: str, op: int, at: int) -> SimulationError:
    return SimulationError(
        f"verdict lane {label} met a squash in its host's log "
        f"(opcode {op} at record offset {at})")


def _past(gaps: List[tuple], head: int) -> Tuple[int, int]:
    """The commit head ``head`` past every squashed range in ``gaps`` (a
    :class:`~repro.sim.soa.LaneView`'s) that starts there, and the first
    seq of the next one ahead (:data:`_NEVER` without one)."""
    while gaps and gaps[0][0] == head:
        head = gaps.pop(0)[1]
    return head, (gaps[0][0] if gaps else _NEVER)


def _overrides(obj, name: str, base: type) -> bool:
    """Whether ``obj``'s class defines ``name`` other than ``base`` does
    (a no-op hook is not worth a call per record)."""
    return getattr(type(obj), name) is not getattr(base, name)


def _address_hook(lane: Lane, name: str):
    """``lane``'s wrong-path or recovery hook, which every adapter of an
    (unobserved) lane forwards to its scheme; None when a no-op."""
    if _overrides(lane.scheme, name, CheckScheme):
        return getattr(lane.scheme, name)
    return None


def walk_lanes(host, processors: Sequence) -> List[Lane]:
    """Walk ``host``'s log once for every processor in ``processors`` (lanes
    of one group: one trace, one machine but for the scheme); each gets
    its :class:`Lane` as ``processor.lane``.

    A lane that leaves the walk keeps its polluted scheme and model; its
    tail attempts and its fork start from its checkpoint at its
    divergence instead (:func:`checkpoint_lanes`).  A
    lane that stays has its scheme's stats booked (and, for a verdict
    lane, ``finalize`` called at the host's cycle count); its
    ``wrongpath`` is its seed's shared model, which counts its draws.
    """
    t0 = time.perf_counter()  # repro: noqa[REPRO001]
    lanes = [Lane(processor, host) for processor in processors]
    _walk(host, processors, lanes, t0, leave=False)
    for processor, lane in zip(processors, lanes):
        processor.lane = lane
    return lanes


def checkpoint_lanes(host, processors: Sequence) -> None:
    """Give every verdict lane in ``processors`` that left its walk over
    ``host``'s log a :class:`Checkpoint` at its divergence cycle, in one
    more walk over the lanes that have none.

    Each of those lanes starts from a fresh scheme and model
    (``Processor._fresh``), is checkpointed at its divergence alone and
    leaves the walk there; the walk stops once no lane is live.  Its time
    joins each lane's ``seconds``.  A lane the walk leaves without a
    checkpoint raises :class:`~repro.errors.SimulationError` naming it:
    its first walk met its divergence there.
    """
    t0 = time.perf_counter()  # repro: noqa[REPRO001]
    processors = [processor for processor in processors
                  if processor.lane.checkpoint is None]
    if not processors:
        return
    lanes = []
    for processor in processors:
        processor._fresh()
        lanes.append(Lane(processor, host, (processor.lane.divergence,)))
    _walk(host, processors, lanes, t0, leave=True)
    for processor, lane in zip(processors, lanes):
        if lane.checkpoint is None:
            raise SimulationError(
                f"verdict lane {lane.label} took no checkpoint at cycle "
                f"{processor.lane.divergence}, where its walk diverged")
        processor.lane.checkpoint = lane.checkpoint
        processor.lane.seconds += lane.seconds


def walk_tail(tail, processor, resumed) -> Optional[Lane]:
    """Walk the forked run ``tail``'s log for ``processor``, a verdict lane
    that left its walk at ``tail.fork_cycle``, from ``resumed``: its
    checkpoint there, resumed (:meth:`Checkpoint.resume`).

    The lane draws its own wrong-path loads (the resumed model, on its
    seed) and must reproduce the tail verdict for verdict, squashes
    included.  Then it timed exactly as the forked run, and the lane is
    returned, its scheme finalized at ``tail.cycles`` and ``checking``
    its ``checking.cycles_observed``.  A lane that leaves is a miss:
    None.  A tail walk counts as no lane walk.
    """
    lane = Lane(processor, tail, ())
    lane.scheme, lane.wrongpath, view, state = resumed
    _Walk(tail, processor.trace, [lane], [processor], False,
          (view, state)).run()
    lane.view = lane.hooks = None
    return lane if lane.live else None


def _walk(host, processors: Sequence, lanes: List[Lane], t0: float,
          leave: bool) -> None:
    """Walk ``host``'s log for ``lanes``, one per processor, and share the
    time since ``t0`` among them."""
    walk = _Walk(host, processors[0].trace, lanes, processors, leave)
    walk.run()
    share = (time.perf_counter() - t0) / len(lanes)  # repro: noqa[REPRO001]
    for lane in lanes:
        lane.seconds = share
        # The walk's views and adapters go with it; a checkpoint keeps
        # copies of what a tail needs.
        lane.view = lane.hooks = None
    SETUP_MEMO.count_walk(walk.checkpoints)


class _Walk:
    """The state of one walk; :meth:`run` is its loop.  With ``leave``
    (:func:`checkpoint_lanes`) a lane leaves once checkpointed.  With
    ``resume``, a resumed checkpoint's view and cursors (:func:`walk_tail`),
    it is a tail walk of its one lane from there, which follows the
    squashes the lane reproduces."""

    def __init__(self, host, trace, lanes: List[Lane], processors: Sequence,
                 leave: bool, resume: Optional[Tuple[LaneView, Tuple[int, ...]]] = None
                 ) -> None:
        self.host = host
        self.lanes = lanes
        self.leave = leave
        self.follow = resume is not None
        self.verdicts = [lane for lane in lanes if lane.kind == VERDICT]
        # One wrong-path model per distinct stream: the first lane's.
        models: Dict[Tuple, object] = {}
        for processor, lane in zip(processors, lanes):
            rng = processor.rng
            config = processor.config
            key = (rng.seed, rng.purpose, config.wrongpath_mean_loads,
                   config.wrongpath_loads)
            lane.wrongpath = models.setdefault(key, lane.wrongpath)
        self.models = list(models.values())
        self.marks: Dict[int, int] = {}
        #: The host-derived columns, which only verdict lanes read.
        self.view: Optional[LaneView] = None
        self.tracked: Optional[Dict[str, Any]] = None
        #: Fork cycles still ahead, ascending; tracking only with some.
        self.pending = sorted({cycle for lane in self.verdicts
                               for cycle in lane.fork_cycles})
        self.checkpoints = 0
        #: (base, head, retired, last, stage) where the walk starts.
        self.cursors = (0, 0, 0, 0, -1)
        if resume is not None:
            # A tail walk: its lane's view holds every column, tracking
            # included, and its marks.
            view, state = resume
            (lane,) = self.verdicts
            self.view = lane.view = view
            self.marks = view.tvs.logged
            self.tracked = {name: getattr(view, name) for name in _TRACKED}
            self.cursors = state[:5]
            lane.checking = state[5]
            lane.hooks = lane.scheme.soa_hooks(view)
            return
        if not self.verdicts:
            return
        view = self.view = LaneView(trace)
        shared = {name: getattr(view, name) for name in _SHARED}
        shared["rob"] = view.rob
        for lane in self.verdicts:
            lane.view = LaneView(trace, columns=shared)
            lane.view.tvs.logged = self.marks
            lane.hooks = lane.scheme.soa_hooks(lane.view)
        if self.pending:
            self.tracked = {name: lane_column(view.n, 0 if name == "ihead" else -1)
                            for name in _TRACKED}

    def _bind(self) -> tuple:
        """The live lanes' calls, per record kind."""
        live = [lane for lane in self.lanes if lane.live]
        verdicts = tuple(lane for lane in live if lane.kind == VERDICT)
        filters = [lane for lane in live if lane.kind == FILTER]
        models = [model for model in self.models
                  if any(lane.wrongpath is model for lane in live)]
        draws = tuple(
            (model.loads_for_mispredict,
             tuple(hook for hook in (_address_hook(lane, "on_wrongpath_load")
                                     for lane in live if lane.wrongpath is model)
                   if hook is not None))
            for model in models)
        recoveries = tuple(hook for hook in (_address_hook(lane, "on_recovery")
                                             for lane in live)
                           if hook is not None)
        return (
            bool(live),
            verdicts,
            tuple(model.observe_address for model in models),
            draws,
            tuple(lane.scheme._filter_load for lane in filters
                  if _overrides(lane.scheme, "_filter_load", ConventionalScheme)),
            tuple((lane, lane.scheme._filter_safe) for lane in filters
                  if _overrides(lane.scheme, "_filter_safe", ConventionalScheme)),
            tuple(lane.scheme._filter_commit for lane in filters
                  if _overrides(lane.scheme, "_filter_commit", ConventionalScheme)),
            tuple(lane.scheme._filter_squash for lane in filters
                  if _overrides(lane.scheme, "_filter_squash", ConventionalScheme)),
            recoveries,
            tuple((lane, lane.hooks.on_load_issue) for lane in verdicts
                  if lane.hooks.has_load_issue),
            tuple((lane, lane.hooks.on_store_resolve) for lane in verdicts
                  if lane.hooks.has_store_resolve),
            tuple((lane, lane.scheme, lane.view.unsafe, lane.hooks.on_commit)
                  for lane in verdicts if lane.hooks.commit_mode == 2),
            tuple((lane, lane.hooks.on_commit_load) for lane in verdicts
                  if lane.hooks.commit_mode == 1),
        )

    def _leave(self, lane: Lane, cycle: int) -> bool:
        """``lane``'s verdict at ``cycle`` changes timing: it leaves (True,
        for the caller to rebind)."""
        lane.live = False
        lane.divergence = cycle
        if lane.checkpoint is not None and lane.checkpoint.cycle != cycle:
            lane.checkpoint = None
        return True

    def _checkpoint(self, cycle: int,
                    state: Tuple[int, int, int, int]) -> Tuple[int, bool]:
        """Checkpoint, at the boundary of ``cycle``, every live lane with a
        fork cycle there; returns the next pending fork cycle, and whether
        a lane left (with ``leave``, for the caller to rebind)."""
        pending = self.pending
        left = False
        while pending and pending[0] <= cycle:
            if pending.pop(0) != cycle:
                continue  # no record in that cycle: no lane diverges there
            host: Optional[Dict[str, Any]] = None
            for lane in self.verdicts:
                if lane.live and cycle in lane.fork_cycles:
                    if host is None:
                        host = {name: getattr(self.view, name)[:] for name in _SHARED}
                        for name, column in self.tracked.items():
                            host[name] = column[:]
                        marks = dict(self.marks)
                    lane.checkpoint = Checkpoint(
                        cycle, lane, host, marks,
                        (len(self.host.events),) + state + (lane.checking,))
                    self.checkpoints += 1
                    if self.leave:
                        lane.live = False
                        left = True
        return (pending[0] if pending else _NEVER), left

    def _follows(self, at: int, victim: int, cycle: int) -> bool:
        """Whether a tail walk's log squashes from ``victim`` in ``cycle``
        at record position ``at``: the squash that a hook just named,
        right after its record, so the lane reproduces it."""
        log = self.host.events
        return (self.follow and at + 4 < len(log) and log[at] == EV_SQUASH
                and log[at + 1] == victim - 1 and log[at + 2] == cycle)

    def run(self) -> None:
        """Walk the log once, driving every live lane.  Record kinds are
        tested most frequent first; a lane that leaves rebinds the calls
        before the next record.  A tail walk ends when its lane leaves."""
        host = self.host
        log = host.events
        n = len(log)
        view = self.view
        if view is not None:
            addr_ = view.addr
            isst_ = view.isst
            isld_ = view.isld
            safe_ = view.safe
            gbp_ = view.gbp
            icyc_ = view.icyc
            rcyc_ = view.rcyc
            rob = view.rob
            gaps = view.gaps
            limit = view.n
        tracked = self.tracked
        track = tracked is not None
        if track:
            ipos_ = tracked["ipos"]
            ihead_ = tracked["ihead"]
            rpos_ = tracked["rpos"]
        follow = self.follow
        loads = _LOADS
        marks = self.marks
        ck_next = self.pending[0] if self.pending else _NEVER
        (live, verdicts, observes, draws, f_loads, f_safes, f_commits,
         f_squashes, recoveries, v_loads, v_stores, v_mode2,
         v_mode1) = self._bind()
        left = False   # a lane left during the record
        # base: the record position of the log's first record (a tail's
        # count on from its host's log); head: the next seq to retire;
        # last: the cycle of the previous commit stage; stage: the cycle
        # of the last issue, writeback or fetch record.
        base, head, retired, last, stage = self.cursors
        gap = _NEVER   # first seq of the next squashed range ahead of head
        expect = -1    # the victim a hook just named, whose squash comes next
        stores = victims = squashes = 0
        i = 0
        while i < n:
            op = log[i]
            if op == EV_COMMIT:
                if f_commits:
                    for filter_commit in f_commits:
                        filter_commit(log[i + 1])
                i += 2
            elif op in loads:
                addr = log[i + 1]
                seq = log[i + 2]
                if verdicts:
                    # A checkpoint precedes the record's every call.
                    cycle = log[i + 3]
                    if cycle >= ck_next:
                        ck_next, left = self._checkpoint(
                            cycle, (head, retired, last, stage))
                    if track:
                        if follow and (seq >= limit or addr_[seq] != addr):
                            self._leave(verdicts[0], cycle)
                            break  # not an op the lane fetched there
                        ipos_[seq] = base + i
                        ihead_[seq] = head
                        stage = cycle
                    icyc_[seq] = cycle
                    if op != EV_LOAD:
                        safe_[seq] = True
                        if op == EV_LOAD_GUARDED:
                            gbp_[seq] = True
                    for lane, hook in v_loads:
                        expect = hook(seq)
                        if expect >= 0 and not self._follows(i + 4, expect, cycle):
                            left = self._leave(lane, cycle)
                for observe in observes:
                    observe(addr)
                if f_loads:
                    for filter_load in f_loads:
                        filter_load(addr, seq)
                i += 4
            elif op == EV_COMMITS:
                if verdicts:
                    cycle = log[i + 1]
                    if cycle >= ck_next:
                        ck_next, left = self._checkpoint(
                            cycle, (head, retired, last, stage))
                    count = log[i + 2]
                    retired += count
                    end = head + count
                    while True:
                        rest = 0
                        if end > gap:
                            # A squashed range the tail walk followed:
                            # retire up to it, then on past it.
                            rest = end - gap
                            end = gap
                        if end > limit:
                            if not follow:
                                raise SimulationError(
                                    f"verdict lane {verdicts[0].label} retired seq "
                                    f"{end - 1} past the end of its {limit}-op trace")
                            left = self._leave(verdicts[0], cycle)
                            break
                        for lane, scheme, unsafe_, commit in v_mode2:
                            if scheme.checking_active:
                                lane.checking += cycle - last
                            seq = head
                            while seq < end:
                                if not scheme.checking_active:
                                    # Outside a window only an unsafe store
                                    # acts: skip to the next one flagged.
                                    seq = unsafe_.find(1, seq, end)
                                    if seq < 0:
                                        break
                                    if not isst_[seq]:
                                        seq += 1
                                        continue
                                if commit(seq, cycle):
                                    left = self._leave(lane, cycle)
                                    break
                                seq += 1
                        for lane, commit_load in v_mode1:
                            seq = head
                            while seq < end:
                                if isld_[seq] and commit_load(seq):
                                    left = self._leave(lane, cycle)
                                    break
                                seq += 1
                        last = cycle
                        head = end
                        if head == gap:
                            head, gap = _past(gaps, head)
                        if left or not rest:
                            break
                        end = head + rest
                    if marks and min(marks) < head:
                        # A marked load retired: the kernel would have raised.
                        for lane in verdicts:
                            if lane.live:
                                left = self._leave(lane, cycle)
                i += 3
            elif op == EV_STORE or op == EV_STORE_VICTIM:
                addr = log[i + 1]
                seq = log[i + 2]
                stores += 1
                victim = op == EV_STORE_VICTIM
                if victim:
                    victims += 1
                for lane, filter_safe in f_safes:
                    if filter_safe(addr, seq):
                        if victim:
                            raise SimulationError(
                                f"filter lane {lane.label} called store seq={seq} "
                                f"addr={addr:#x} safe, but the host's LQ search "
                                f"found a victim")
                        lane.filtered += 1
                if verdicts:
                    if victim and not follow:
                        raise _host_squash(verdicts[0].label, op, i)
                    cycle = log[i + 4]
                    if cycle >= ck_next:
                        ck_next, left = self._checkpoint(
                            cycle, (head, retired, last, stage))
                    if track:
                        if follow and (seq >= limit or addr_[seq] != addr):
                            self._leave(verdicts[0], cycle)
                            break  # not an op the lane fetched there
                        rpos_[seq] = base + i
                        stage = cycle
                    icyc_[seq] = rcyc_[seq] = cycle
                    # Garg flushes from the first live seq younger than
                    # the store, if the recorded ROB tail reaches it.
                    younger = seq + 1
                    for start, stop in gaps:
                        if younger == start:
                            younger = stop
                    rob[0] = younger if younger <= log[i + 3] else seq
                    expect = -1
                    for lane, hook in v_stores:
                        expect = hook(seq)
                        if expect >= 0 and not (
                                victim and self._follows(i + 5, expect, cycle)):
                            left = self._leave(lane, cycle)
                    if victim and expect < 0:
                        # The tail's victim, which the lane does not name.
                        left = self._leave(verdicts[0], cycle)
                i += 5
            elif op == EV_MARK:
                marks[log[i + 1]] = log[i + 2]
                i += 3
            elif op == EV_MISPREDICT:
                if verdicts:
                    cycle = log[i + 2]
                    if cycle >= ck_next:
                        ck_next, left = self._checkpoint(
                            cycle, (head, retired, last, stage))
                    stage = cycle
                for draw, calls in draws:
                    for age, addr in draw(log[i + 1]):
                        for call in calls:
                            call(age, addr)
                i += 3
            elif op == EV_RECOVERY:
                if verdicts:
                    cycle = log[i + 2]
                    if cycle >= ck_next:
                        ck_next, left = self._checkpoint(
                            cycle, (head, retired, last, stage))
                    stage = cycle
                for recover in recoveries:
                    recover(log[i + 1])
                i += 3
            else:  # EV_SQUASH
                if verdicts:
                    if not follow:
                        raise _host_squash(verdicts[0].label, op, i)
                    lane = verdicts[0]
                    boundary = log[i + 1] + 1
                    cycle = log[i + 2]
                    if expect >= 0:
                        expect = -1  # the hook's record checked boundary and cycle
                    elif (boundary != head or head >= limit or cycle < last
                          or cycle <= stage
                          or not lane.hooks.gated_commit(head, cycle)):
                        self._leave(lane, cycle)
                        break  # not the lane's own replay of its commit head
                    if not view.squash(boundary, log[i + 3], head):
                        self._leave(lane, cycle)
                        break
                    limit = view.n
                    head, gap = _past(gaps, head)
                    # The DMDC and Garg adapters repair by the kept seq alone.
                    lane.hooks.on_squash(boundary - 1, ())
                squashes += 1
                count = log[i + 4]
                for filter_squash in f_squashes:
                    filter_squash(log[i + 1], log[i + 5:i + 5 + count])
                i += 5 + count
            if left:
                left = False
                (live, verdicts, observes, draws, f_loads, f_safes, f_commits,
                 f_squashes, recoveries, v_loads, v_stores, v_mode2,
                 v_mode1) = self._bind()
                if not live:
                    break
        self._book(retired, last, stores, victims, squashes)

    def _book(self, retired: int, last: int, stores: int, victims: int,
              squashes: int) -> None:
        """Book what the log gave every lane that stayed to its end."""
        host = self.host
        verdicts = [lane for lane in self.verdicts if lane.live]
        for lane in verdicts:
            if retired != host.committed or lane.view.tvs.disagree:
                if self.follow:
                    # The lane did not time as the forked run.
                    self._leave(lane, host.cycles)
                    return
                raise SimulationError(
                    f"verdict lane {lane.label} retired {retired} instructions, "
                    f"but its host committed {host.committed} before cycle "
                    f"{host.cycles}")
        for lane in verdicts:
            scheme = lane.scheme
            if scheme.checking_active:
                lane.checking += host.cycles - 1 - last
            scheme.finalize(host.cycles)
            lane.checkpoint = None
        coherence = host.counters["replays.coherence"]
        for lane in self.lanes:
            stats = lane.scheme.stats
            if lane.kind == FILTER:
                booked = (("stores.resolved", stores),
                          ("stores.safe", lane.filtered),
                          ("lq.searches", stores - lane.filtered),
                          ("replay.execution_time", victims),
                          ("replay.coherence", coherence))
            elif lane.kind == VALUE:
                # A recording run logs every load it commits.
                booked = (("value.reexecutions",
                           host.counters["commit.loads"] + squashes),
                          ("replay.true", squashes))
            else:
                continue
            for name, value in booked:
                if value:
                    stats[name] = value
