"""The per-cycle object loop: the reference the SoA kernel is tested against.

``Processor.run`` steps the structure-of-arrays kernel
(:mod:`repro.sim.soa`), which skips provably idle cycles.  This module
keeps the pipeline that kernel was transcribed from, stage for stage:
:class:`ReferenceProcessor` steps every cycle over :class:`DynInstr`
objects held in age-ordered :class:`RingBuffer` queues and skips nothing.
It calls each scheme's kernel adapter directly, over an
:class:`ObjectView` of the objects, behind the kernel's own gates
(``has_load_issue``, ``has_store_resolve``, ``gated_commit``), so it checks
with the code the kernel ships.  ``tests/test_soa_equivalence.py``
compares the two loops' results bit for bit.

:class:`SchemeDriver` drives one adapter over hand-built
:class:`DynInstr` objects, for the scheme unit tests.
"""

import enum
import heapq
from collections import Counter, deque
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set

from repro.errors import OrderingViolationMissed, SimulationError
from repro.isa.instruction import MicroOp
from repro.isa.opcodes import InstrClass
from repro.sim.processor import Processor

_INF = float("inf")


# ======================================================================
# In-flight instructions and age-ordered queues
# ======================================================================
class InstrState(enum.IntEnum):
    DISPATCHED = 0   # in ROB/IQ, waiting for operands
    READY = 1        # operands available, waiting for issue bandwidth
    ISSUED = 2       # executing / waiting on memory
    COMPLETED = 3    # result produced, waiting for in-order commit
    COMMITTED = 4
    SQUASHED = 5


class DynInstr:
    """One fetched instance of a trace micro-op.

    The same micro-op can be in flight several times across replays; each
    instance gets a fresh, strictly increasing ``seq``: the *age* that
    every mechanism in the paper compares.
    """

    __slots__ = (
        "uop", "trace_idx", "seq", "state", "fp_side",
        # static facts copied out of the micro-op once at fetch
        "is_load", "is_store", "is_branch", "addr", "size",
        # dependence tracking
        "pending_ops", "pending_data", "consumers",
        # timing
        "fetch_cycle", "issue_cycle", "resolve_cycle",
        # memory behaviour
        "safe", "forward_store_seq", "true_violation_store",
        "true_violation_pc", "guard_bypass", "inv_marked",
        # DMDC store state
        "unsafe_store", "window_end",
        # branch state
        "pred_snapshot",
        # bookkeeping
        "in_iq",
    )

    def __init__(self, uop: MicroOp, trace_idx: int, seq: int, fp_side: bool):
        self.uop = uop
        self.trace_idx = trace_idx
        self.seq = seq
        self.state = InstrState.DISPATCHED
        self.fp_side = fp_side
        self.is_load = uop.is_load
        self.is_store = uop.is_store
        self.is_branch = uop.is_branch
        self.addr = uop.mem_addr
        self.size = uop.mem_size
        self.pending_ops = self.pending_data = 0
        self.consumers: List = []
        self.fetch_cycle = self.issue_cycle = self.resolve_cycle = -1
        self.forward_store_seq = -1
        self.true_violation_store = self.true_violation_pc = -1
        self.window_end = -1
        self.safe = self.guard_bypass = False
        self.inv_marked = self.unsafe_store = False
        self.in_iq = False
        self.pred_snapshot: Optional[tuple] = None

    @property
    def resolved(self) -> bool:
        """A memory op's address is resolved once it has issued through the AGU."""
        return self.resolve_cycle >= 0

    @property
    def squashed(self) -> bool:
        return self.state == InstrState.SQUASHED

    def __repr__(self) -> str:
        return (
            f"<DynInstr seq={self.seq} {self.uop.cls.name} state={self.state.name}"
            f" pc={self.uop.pc:#x}>"
        )


class RingBuffer:
    """Bounded FIFO with tail-side truncation for squash support.

    Allocation at the tail, retirement at the head, squash from the tail;
    age order is insertion order.  ``items`` is the backing list, stable
    for the buffer's lifetime, so callers may cache it.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.items: List = []

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator:
        """Iterate oldest to youngest."""
        return iter(self.items)

    def __getitem__(self, idx):
        return self.items[idx]

    @property
    def full(self) -> bool:
        return len(self.items) >= self.capacity

    @property
    def free(self) -> int:
        return self.capacity - len(self.items)

    def head(self) -> Optional[object]:
        """Oldest entry, or None when empty."""
        return self.items[0] if self.items else None

    def tail(self) -> Optional[object]:
        """Youngest entry, or None when empty."""
        return self.items[-1] if self.items else None

    def push(self, item) -> None:
        """Allocate ``item`` at the tail; raises when full."""
        if len(self.items) >= self.capacity:
            raise OverflowError("ring buffer full")
        self.items.append(item)

    def pop(self):
        """Retire and return the oldest entry; raises when empty."""
        if not self.items:
            raise IndexError("ring buffer empty")
        return self.items.pop(0)

    def squash_younger(self, keep) -> List:
        """Drop entries from the tail while ``keep(entry)`` is False and
        return them, oldest first."""
        squashed = []
        items = self.items
        while items and not keep(items[-1]):
            squashed.append(items.pop())
        squashed.reverse()
        return squashed

    def clear(self) -> None:
        self.items.clear()


class ForwardAction(enum.Enum):
    """Outcome of a load's SQ search at issue time."""

    CACHE = "cache"      # no conflicting older store: access the D-cache
    FORWARD = "forward"  # youngest older matching store supplies the data
    REJECT = "reject"    # matching store can't forward yet: retry later


class ForwardResult(NamedTuple):
    """Outcome of one forwarding search (the kernel's
    ``sq_forward_search_soa`` returns the same three facts as ints)."""

    action: ForwardAction
    store: Optional[DynInstr]
    #: True when every older store in the SQ had a resolved address, i.e.
    #: the load is provably not a premature load (the paper's *safe load*).
    all_older_resolved: bool


class StoreQueue:
    """Age-ordered store queue with forwarding search."""

    def __init__(self, capacity: int):
        self.ring = RingBuffer(capacity)
        self.searches = 0
        self.searches_filtered = 0
        #: seq -> store, for forwarding provenance checks.
        self.by_seq: Dict[int, DynInstr] = {}

    def __len__(self) -> int:
        return len(self.ring)

    def allocate(self, store: DynInstr) -> None:
        self.ring.push(store)
        self.by_seq[store.seq] = store

    def retire_head(self, store: DynInstr) -> None:
        if self.ring.head() is not store:
            raise AssertionError("SQ retired out of order")
        self.ring.pop()
        del self.by_seq[store.seq]

    def squash_younger(self, last_kept_seq: int) -> None:
        for victim in self.ring.squash_younger(lambda s: s.seq <= last_kept_seq):
            del self.by_seq[victim.seq]

    def find(self, seq: int) -> Optional[DynInstr]:
        """The in-flight store with age ``seq``, or None."""
        return self.by_seq.get(seq)

    def search_for_forwarding(self, load: DynInstr, count_search: bool = True) -> ForwardResult:
        """Resolve a load's memory source against all older in-flight stores.

        Scans older stores youngest-first.  The youngest older store with a
        resolved overlapping address decides the outcome; unresolved older
        stores make the load speculative but do not block it.  The scan
        stops once an outcome is found and an unresolved older store seen.
        """
        if count_search:
            self.searches += 1
        else:
            self.searches_filtered += 1
        load_seq = load.seq
        l_addr = load.addr
        l_end = l_addr + load.size
        all_resolved = True
        action = ForwardAction.CACHE
        match: Optional[DynInstr] = None
        for store in reversed(self.ring.items):
            if store.seq >= load_seq:
                continue
            if store.resolve_cycle < 0:
                all_resolved = False
                if match is not None:
                    break
                continue
            if match is None:
                s_addr = store.addr
                if s_addr < l_end and l_addr < s_addr + store.size:
                    match = store
                    if (
                        s_addr <= l_addr
                        and l_end <= s_addr + store.size
                        and store.pending_data == 0
                    ):
                        action = ForwardAction.FORWARD
                    else:
                        action = ForwardAction.REJECT
                    if not all_resolved:
                        break
        return ForwardResult(action, match, all_resolved)

    def oldest_unresolved_seq(self) -> Optional[int]:
        """Age of the oldest store without a resolved address, if any."""
        for store in self.ring:
            if store.resolve_cycle < 0:
                return store.seq
        return None


class LoadQueue:
    """Age-ordered load queue."""

    def __init__(self, capacity: int):
        self.ring = RingBuffer(capacity)
        self.searches = 0

    def __len__(self) -> int:
        return len(self.ring)

    def allocate(self, load: DynInstr) -> None:
        self.ring.push(load)

    def squash_younger(self, last_kept_seq: int) -> None:
        self.ring.squash_younger(lambda l: l.seq <= last_kept_seq)

    def search_younger_issued(self, store: DynInstr) -> Optional[DynInstr]:
        """Conventional violation check: the oldest younger load, already
        issued, overlapping the store's bytes (the kernel's
        ``lq_violation_search_soa`` over objects)."""
        self.searches += 1
        s_seq = store.seq
        s_addr = store.addr
        s_end = s_addr + store.size
        for load in self.ring.items:
            if load.seq > s_seq and load.issue_cycle >= 0:
                l_addr = load.addr
                if s_addr < l_addr + load.size and l_addr < s_end:
                    return load
        return None


# ======================================================================
# The adapters' view of the objects
# ======================================================================
class _Column:
    """An :class:`ObjectView` column: one :class:`DynInstr` attribute."""

    __slots__ = ("attr",)

    def __init__(self, attr: str) -> None:
        self.attr = attr

    def __getitem__(self, instr: DynInstr):
        return getattr(instr, self.attr)

    def __setitem__(self, instr: DynInstr, value) -> None:
        setattr(instr, self.attr, value)


class ObjectView:
    """A scheme adapter's view over :class:`DynInstr` objects: the slot
    is the object, ``view.addr[instr]`` is ``instr.addr``,
    ``view.wend[instr]`` is ``instr.window_end``.  ``lq`` and ``rob`` are
    age-ordered sequences of objects.  Unobserved.
    """

    seq = _Column("seq")
    addr = _Column("addr")
    size = _Column("size")
    isld = _Column("is_load")
    isst = _Column("is_store")
    safe = _Column("safe")
    gbp = _Column("guard_bypass")
    unsafe = _Column("unsafe_store")
    wend = _Column("window_end")
    rcyc = _Column("resolve_cycle")
    icyc = _Column("issue_cycle")
    tvs = _Column("true_violation_store")
    invm = _Column("inv_marked")
    emit = None

    __slots__ = ("lq", "rob")

    def __init__(self, lq: Sequence[DynInstr] = (),
                 rob: Sequence[DynInstr] = ()) -> None:
        self.lq = lq
        self.rob = rob


class SchemeDriver:
    """One scheme's adapter over an :class:`ObjectView`, called as the
    reference loop calls it: behind the kernel's gates, with no victim
    as None and a commit replay as True."""

    def __init__(self, scheme, lq: Sequence[DynInstr] = (),
                 rob: Sequence[DynInstr] = ()) -> None:
        self.scheme = scheme
        self.hooks = scheme.soa_hooks(ObjectView(lq, rob))

    def load_issue(self, load: DynInstr) -> Optional[DynInstr]:
        hooks = self.hooks
        victim = hooks.on_load_issue(load) if hooks.has_load_issue else -1
        return None if victim == -1 else victim

    def store_resolve(self, store: DynInstr) -> Optional[DynInstr]:
        hooks = self.hooks
        victim = hooks.on_store_resolve(store) if hooks.has_store_resolve else -1
        return None if victim == -1 else victim

    def commit(self, instr: DynInstr, cycle: int) -> bool:
        return self.hooks.gated_commit(instr, cycle)

    def squash(self, last_kept_seq: int, victims: List[DynInstr]) -> None:
        self.hooks.on_squash(last_kept_seq, victims)

    def invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                     oldest_inflight_seq: int) -> None:
        self.hooks.on_invalidation(line_addr, line_bytes, cycle,
                                   oldest_inflight_seq)


# Enum members hoisted to module level: attribute access on an Enum class
# goes through a metaclass descriptor.  Members are singletons, so
# identity tests are exact.
_DISPATCHED = InstrState.DISPATCHED
_READY = InstrState.READY
_ISSUED = InstrState.ISSUED
_COMPLETED = InstrState.COMPLETED
_COMMITTED = InstrState.COMMITTED
_SQUASHED = InstrState.SQUASHED
_FWD_FORWARD = ForwardAction.FORWARD
_FWD_REJECT = ForwardAction.REJECT
_FWD_CACHE = ForwardAction.CACHE
_CLS_STORE = InstrClass.STORE
_CLS_LOAD = InstrClass.LOAD


# ======================================================================
# The reference pipeline
# ======================================================================
class ReferenceProcessor(Processor):
    """A :class:`Processor` whose :meth:`run` steps the per-cycle object
    loop (:meth:`step`) instead of the kernel.  Sets ``kernel_used`` to
    ``"object"``."""

    def __init__(self, config, trace, seed: int = 1):
        super().__init__(config, trace, seed=seed)
        #: Per-event counts by counter name, booked into ``counters``
        #: once the run ends.
        self.hot: Counter = Counter()
        self.rob = RingBuffer(config.rob_size)
        self.lq = LoadQueue(config.lq_size)
        self.sq = StoreQueue(config.sq_size)
        #: The scheme's adapter over the objects.
        self.hooks = self.scheme.soa_hooks(ObjectView(self.lq.ring.items,
                                                      self.rob.items))
        self.next_seq = 0
        self.fetch_idx = 0
        self.fetch_buffer: deque = deque()
        self.fetch_resume_cycle = 0
        self.fetch_blocked_branch: Optional[DynInstr] = None
        self._last_fetch_line = -1
        self.rename: Dict[int, DynInstr] = {}
        self.iq_int_count = 0
        self.iq_fp_count = 0
        self._ready: List = []  # heap of (seq, DynInstr)
        self._completions: Dict[int, List[DynInstr]] = {}
        self._retries: Dict[int, List[DynInstr]] = {}
        self._commit_target = _INF
        self._replay_streak: Dict[int, int] = {}
        self._force_nonspec: Set[int] = set()
        self._squashed_this_cycle = False

    def run(self, max_instructions: int, max_cycles: Optional[int] = None):
        """Step the object loop until ``max_instructions`` commit."""
        if max_cycles is None:
            max_cycles = max(200_000, max_instructions * 60)
        target = min(max_instructions, len(self.trace))
        self._commit_target = target
        self.kernel_used = "object"
        while self.committed < target:
            self.step()
            if self.cycle > max_cycles:
                raise SimulationError(
                    f"no forward progress: {self.committed}/{target} "
                    f"committed after {self.cycle} cycles on {self.trace.name}")
        self.scheme.finalize(self.cycle)
        # Booked as the kernel books them: these three even when zero,
        # every other event count only once its event happened.
        hot = self.hot
        counters = self.counters
        counters["checking.cycles_observed"] = hot["checking.cycles_observed"]
        counters["sq.searches_assoc"] = hot["sq.searches"]
        counters["sq.searches_filtered_age"] = hot["sq.searches_filtered_age"]
        for name, value in hot.items():
            if value:
                counters[name] = value
        self._count_components()
        return self._result()

    def step(self) -> None:
        """Advance one cycle (commit -> writeback -> issue -> dispatch -> fetch)."""
        self._squashed_this_cycle = False
        if self.scheme.checking_active:
            self.hot["checking.cycles_observed"] += 1
        cycle = self.cycle
        # Each stage is gated on the cheap "can it possibly act?" test, the
        # same gates the kernel uses.
        rob_items = self.rob.items
        if rob_items and rob_items[0].state is _COMPLETED:
            self._stage_commit()
        events = self._completions.pop(cycle, None)
        if events is not None:
            self._stage_complete(events)
        if self._ready or self._retries:
            self._stage_issue()
        if self.fetch_buffer:
            self._stage_dispatch()
        if self.fetch_blocked_branch is not None or cycle < self.fetch_resume_cycle:
            self.hot["fetch.stall_cycles"] += 1
        elif len(self.fetch_buffer) < self.config.fetch_buffer and self.fetch_idx < len(self.trace):
            self._stage_fetch()
        if self.invalidations.enabled:
            self._inject_invalidations()
        self.cycle += 1

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def _schedule_completion(self, cycle: int, instr: DynInstr) -> None:
        self._completions.setdefault(cycle, []).append(instr)

    def _schedule_retry(self, cycle: int, load: DynInstr) -> None:
        self._retries.setdefault(cycle, []).append(load)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _stage_commit(self) -> None:
        rob_items = self.rob.items
        hooks = self.hooks
        cycle = self.cycle
        for _ in range(self.config.width):
            if self.committed >= self._commit_target:
                return
            if not rob_items:
                break
            head = rob_items[0]
            if head.state is not _COMPLETED:
                break
            if hooks.gated_commit(head, cycle):
                self.hot["replays"] += 1
                self.hot["replays.commit_time"] += 1
                self._squash_from(head)
                return
            if head.is_load and head.true_violation_store >= 0:
                raise OrderingViolationMissed(
                    f"load seq={head.seq} addr={head.addr:#x} retired despite a "
                    f"premature issue past store seq={head.true_violation_store} "
                    f"under scheme {self.scheme.name}"
                )
            self._retire(head)

    def _retire(self, instr: DynInstr) -> None:
        instr.state = _COMMITTED
        self.rob.items.pop(0)
        hot = self.hot
        uop = instr.uop
        if uop.dst is not None:
            (self.regs_fp if uop.dst >= 32 else self.regs_int).release()
            if self.rename.get(uop.dst) is instr:
                del self.rename[uop.dst]
        if instr.is_load:
            lq_items = self.lq.ring.items
            if not lq_items or lq_items[0] is not instr:
                raise AssertionError("LQ retired out of order")
            lq_items.pop(0)
            hot["commit.loads"] += 1
            if self.scheme.reexecutes_loads:
                # Value-based checking: every load re-accesses the cache.
                self.memory.read(instr.addr)
                hot["dcache.reexecutions"] += 1
            if instr.safe:
                hot["commit.safe_loads"] += 1
        elif instr.is_store:
            self.sq.retire_head(instr)
            self.memory.write(instr.addr)
            hot["commit.stores"] += 1
        elif instr.is_branch:
            hot["commit.branches"] += 1
        self.committed += 1
        hot["commit.instructions"] += 1
        self._replay_streak.pop(instr.trace_idx, None)
        self._force_nonspec.discard(instr.trace_idx)

    # ------------------------------------------------------------------
    # Writeback / completion
    # ------------------------------------------------------------------
    def _stage_complete(self, events: List[DynInstr]) -> None:
        """Writeback for the completions scheduled at the current cycle."""
        hot = self.hot
        for instr in events:
            state = instr.state
            if state is _SQUASHED or state is _COMPLETED:
                continue
            instr.state = _COMPLETED
            if instr.uop.dst is not None:
                hot["regfile.writes"] += 1
            if instr.consumers:
                self._wake_consumers(instr)
            if instr.is_branch:
                self._resolve_branch(instr)

    def _wake_consumers(self, producer: DynInstr) -> None:
        consumers = producer.consumers
        hot = self.hot
        ready = self._ready
        for consumer, kind in consumers:
            if consumer.state is _SQUASHED:
                continue
            hot["iq.wakeups"] += 1
            if kind == "op":
                consumer.pending_ops -= 1
                if consumer.pending_ops == 0 and consumer.state is _DISPATCHED:
                    consumer.state = _READY
                    heapq.heappush(ready, (consumer.seq, consumer))
            else:  # store data
                consumer.pending_data -= 1
                if (
                    consumer.pending_data == 0
                    and consumer.is_store
                    and consumer.resolve_cycle >= 0
                    and consumer.state is _ISSUED
                ):
                    self._schedule_completion(self.cycle + 1, consumer)
        consumers.clear()

    def _resolve_branch(self, branch: DynInstr) -> None:
        uop = branch.uop
        mispredicted = self.predictor.resolve(uop.pc, uop.taken, branch.pred_snapshot)
        if uop.taken:
            self.predictor.btb.install(uop.pc, uop.target)
        if self.fetch_blocked_branch is branch:
            self.fetch_blocked_branch = None
            self.fetch_resume_cycle = self.cycle + self.config.branch_penalty
            if mispredicted:
                self.hot["branch.mispredicts"] += 1
                self.hooks.on_recovery(branch.seq)
            else:
                self.hot["branch.misfetches"] += 1

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------
    def _stage_issue(self) -> None:
        cycle = self.cycle
        ready = self._ready
        retries = self._retries.pop(cycle, None)
        if retries is not None:
            for load in retries:
                if load.state is _READY:
                    heapq.heappush(ready, (load.seq, load))
        if not ready:
            return
        fus = self.fus
        fus.new_cycle()
        width = self.config.width
        ports_left = self.config.dcache_ports
        issued = 0
        deferred: List[DynInstr] = []
        while ready and issued < width:
            _, instr = heapq.heappop(ready)
            if instr.state is not _READY:
                continue
            if instr.is_load:
                outcome, ports_left = self._try_issue_load(instr, ports_left, deferred)
                if outcome:
                    issued += 1
                if self._squashed_this_cycle:
                    break
            elif instr.is_store:
                if not fus.try_acquire(_CLS_STORE):
                    deferred.append(instr)
                    continue
                self._issue_store(instr)
                issued += 1
                if self._squashed_this_cycle:
                    break
            else:
                if not fus.try_acquire(instr.uop.cls):
                    deferred.append(instr)
                    continue
                self._issue_alu(instr)
                issued += 1
        for instr in deferred:
            heapq.heappush(ready, (instr.seq, instr))

    def _free_iq_entry(self, instr: DynInstr) -> None:
        if instr.in_iq:
            instr.in_iq = False
            if instr.fp_side:
                self.iq_fp_count -= 1
            else:
                self.iq_int_count -= 1

    def _issue_alu(self, instr: DynInstr) -> None:
        instr.state = _ISSUED
        instr.issue_cycle = self.cycle
        self._free_iq_entry(instr)
        hot = self.hot
        hot["issue.instructions"] += 1
        hot["regfile.reads"] += len(instr.uop.srcs)
        hot["fu.ops"] += 1
        self._schedule_completion(
            self.cycle + self.fus.latency_by_cls[instr.uop.cls], instr)

    def _issue_store(self, store: DynInstr) -> None:
        """AGU issue: the store's address resolves now."""
        store.state = _ISSUED
        store.issue_cycle = self.cycle
        store.resolve_cycle = self.cycle
        self._free_iq_entry(store)
        hot = self.hot
        hot["issue.stores"] += 1
        hot["regfile.reads"] += len(store.uop.srcs)
        if self.storesets is not None:
            self.storesets.store_resolved(store.uop.pc, store.seq)
        self._ground_truth_store_resolve(store)
        if store.pending_data == 0:
            self._schedule_completion(self.cycle + 1, store)
        # else: completion is scheduled when the data producer completes.
        hooks = self.hooks
        if hooks.has_store_resolve:
            victim = hooks.on_store_resolve(store)
            if victim != -1 and not victim.squashed:
                hot["replays"] += 1
                hot["replays.execution_time"] += 1
                self._squash_from(victim)

    def _ground_truth_store_resolve(self, store: DynInstr) -> None:
        """Flag younger loads that truly issued prematurely past this store.

        A load is exempt when it forwarded from a store *younger* than this
        one that fully covered it (its data cannot be stale).
        """
        s_addr, s_seq = store.addr, store.seq
        s_end = s_addr + store.size
        sq_by_seq = self.sq.by_seq
        for load in self.lq.ring.items:
            if load.seq > s_seq and load.issue_cycle >= 0:
                l_addr = load.addr
                l_end = l_addr + load.size
                if (
                    s_addr < l_end
                    and l_addr < s_end
                    and load.state is not _COMMITTED
                    and load.true_violation_store < 0
                ):
                    if load.forward_store_seq > s_seq:
                        fwd = sq_by_seq.get(load.forward_store_seq)
                        if (
                            fwd is not None
                            and fwd.addr <= l_addr
                            and l_end <= fwd.addr + fwd.size
                        ):
                            continue
                    load.true_violation_store = s_seq
                    load.true_violation_pc = store.uop.pc
                    self.hot["groundtruth.violations"] += 1

    def _try_issue_load(self, load: DynInstr, ports_left: int, deferred: List[DynInstr]):
        """Attempt to issue one load; returns (issued?, ports_left)."""
        hot = self.hot
        if load.trace_idx in self._force_nonspec:
            # Livelock guard: after repeated replays this load waits until
            # every older store has resolved (it then issues as a safe load).
            oldest = self.sq.oldest_unresolved_seq()
            if oldest is not None and oldest < load.seq:
                self._schedule_retry(self.cycle + 1, load)
                return False, ports_left
        if self.storesets is not None:
            blocker = self.storesets.blocking_store(load.uop.pc, load.seq)
            if blocker is not None:
                # Predicted dependent on an in-flight unresolved store: wait.
                hot["storesets.load_delays"] += 1
                self._schedule_retry(self.cycle + 2, load)
                return False, ports_left
        if ports_left <= 0:
            deferred.append(load)
            return False, ports_left
        if not self.fus.try_acquire(_CLS_LOAD):
            deferred.append(load)
            return False, ports_left

        # Section 3 extension: a load older than every in-flight store can
        # skip the SQ search (tracked by an oldest-store-age register).
        sq_items = self.sq.ring.items
        if self.config.scheme.sq_filter and (not sq_items or load.seq < sq_items[0].seq):
            self.hot["sq.searches_filtered_age"] += 1
            result_action = _FWD_CACHE
            all_older_resolved = True
            fwd_store = None
        else:
            result_action, fwd_store, all_older_resolved = \
                self.sq.search_for_forwarding(load)
            hot["sq.searches"] += 1

        if result_action is _FWD_REJECT:
            hot["load.rejections"] += 1
            self._schedule_retry(self.cycle + self.config.reject_retry_delay, load)
            return True, ports_left  # consumed bandwidth this cycle

        load.state = _ISSUED
        load.issue_cycle = self.cycle
        self._free_iq_entry(load)
        hot["issue.loads"] += 1
        hot["regfile.reads"] += len(load.uop.srcs)
        load.safe = all_older_resolved
        if load.trace_idx in self._force_nonspec and all_older_resolved:
            # Guard-tripped loads issued with every older store resolved are
            # provably violation-free; they bypass commit-time checking even
            # when the safe-load optimisation is disabled (ablation), which
            # guarantees forward progress.
            load.guard_bypass = True
        if load.safe:
            hot["load.safe_at_issue"] += 1
        self.wrongpath.observe_address(load.addr)
        if self.invalidations.enabled:
            self.invalidations.observe(load.addr)

        if result_action is _FWD_FORWARD:
            load.forward_store_seq = fwd_store.seq
            hot["load.forwarded"] += 1
            latency = 1 + self.config.l1d_latency
        else:
            ports_left -= 1
            hot["dcache.reads"] += 1
            latency = 1 + self.memory.read(load.addr)
        self._schedule_completion(self.cycle + latency, load)

        hooks = self.hooks
        if hooks.has_load_issue:
            victim = hooks.on_load_issue(load)
            if victim != -1 and not victim.squashed:
                hot["replays"] += 1
                hot["replays.coherence"] += 1
                self._squash_from(victim)
        return True, ports_left

    # ------------------------------------------------------------------
    # Dispatch (rename + allocate)
    # ------------------------------------------------------------------
    def _stage_dispatch(self) -> None:
        buf = self.fetch_buffer
        cycle = self.cycle
        decode_latency = self.config.decode_latency
        if cycle < buf[0].fetch_cycle + decode_latency:
            return  # front of the buffer is still in decode
        dispatched = 0
        hot = self.hot
        rename = self.rename
        ready = self._ready
        rob_items = self.rob.items
        lq_items = self.lq.ring.items
        sq_items = self.sq.ring.items
        while buf and dispatched < self.config.width:
            instr = buf[0]
            if cycle < instr.fetch_cycle + decode_latency:
                break
            uop = instr.uop
            if len(rob_items) >= self.config.rob_size:
                hot["stall.rob_full"] += 1
                break
            if instr.fp_side:
                if self.iq_fp_count >= self.config.iq_fp:
                    hot["stall.iq_full"] += 1
                    break
            elif self.iq_int_count >= self.config.iq_int:
                hot["stall.iq_full"] += 1
                break
            is_load = instr.is_load
            is_store = instr.is_store
            if is_load and len(lq_items) >= self.config.lq_size:
                hot["stall.lq_full"] += 1
                break
            if is_store and len(sq_items) >= self.config.sq_size:
                hot["stall.sq_full"] += 1
                break
            dst = uop.dst
            if dst is not None:
                regs = self.regs_fp if dst >= 32 else self.regs_int
                if not regs.try_allocate():
                    hot["stall.regs_full"] += 1
                    break

            buf.popleft()
            rob_items.append(instr)  # capacity pre-checked above
            instr.in_iq = True
            if instr.fp_side:
                self.iq_fp_count += 1
            else:
                self.iq_int_count += 1
            if is_load:
                lq_items.append(instr)
                hot["lq.writes"] += 1
            elif is_store:
                sq_items.append(instr)
                self.sq.by_seq[instr.seq] = instr
                hot["sq.writes"] += 1
                if self.storesets is not None:
                    self.storesets.store_dispatched(uop.pc, instr.seq)
            pending = 0
            for reg in uop.srcs:
                producer = rename.get(reg)
                if producer is not None and producer.state < _COMPLETED:
                    producer.consumers.append((instr, "op"))
                    pending += 1
            instr.pending_ops = pending
            data_src = uop.data_src
            if data_src is not None:
                producer = rename.get(data_src)
                if producer is not None and producer.state < _COMPLETED:
                    producer.consumers.append((instr, "data"))
                    instr.pending_data = 1
            if dst is not None:
                rename[dst] = instr
            if pending == 0:
                instr.state = _READY
                heapq.heappush(ready, (instr.seq, instr))
            dispatched += 1
        if dispatched:
            hot["rename.ops"] += dispatched
            hot["rob.writes"] += dispatched

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------
    def _stage_fetch(self) -> None:
        # step() has already ruled out the stall cases (blocked branch,
        # resume timer) and confirmed buffer room and trace supply.
        cycle = self.cycle
        buf = self.fetch_buffer
        hot = self.hot
        predictor = self.predictor
        fetched = 0
        try:
            while (
                fetched < self.config.width
                and len(buf) < self.config.fetch_buffer
                and self.fetch_idx < len(self.trace)
            ):
                uop = self.trace.ops[self.fetch_idx]
                line = uop.pc >> 6
                if line != self._last_fetch_line:
                    hot["icache.reads"] += 1
                    lat = self.memory.fetch(uop.pc)
                    self._last_fetch_line = line
                    if lat > self.config.l1i_latency:
                        # I-cache miss: the line arrives later; retry then.
                        self.fetch_resume_cycle = cycle + lat
                        hot["fetch.icache_miss"] += 1
                        return
                instr = DynInstr(uop, self.fetch_idx, self.next_seq, uop.fp_side)
                self.next_seq += 1
                instr.fetch_cycle = cycle
                buf.append(instr)
                self.fetch_idx += 1
                fetched += 1
                if uop.is_branch:
                    predicted_taken, snapshot = predictor.predict(uop.pc)
                    instr.pred_snapshot = snapshot
                    hot["bpred.lookups"] += 1
                    if predicted_taken != uop.taken:
                        # Stall-on-mispredict: fetch halts until resolution.
                        # Wrong-path loads issue during the shadow and corrupt
                        # the YLA registers now; recovery repairs them when the
                        # branch resolves (the paper's reset remedy).
                        self.fetch_blocked_branch = instr
                        for age, addr in self.wrongpath.loads_for_mispredict(instr.seq):
                            self.hooks.on_wrongpath_load(age, addr)
                        return
                    if predicted_taken and predictor.btb.lookup(uop.pc) is None:
                        # Misfetch: direction right but no target until decode,
                        # a short front-end bubble, not a full resolution stall.
                        hot["branch.misfetches"] += 1
                        self.fetch_resume_cycle = cycle + 2
                        return
                    if uop.taken:
                        # Correctly predicted taken branch ends the fetch group.
                        return
        finally:
            if fetched:
                hot["fetch.instructions"] += fetched

    # ------------------------------------------------------------------
    # Squash / replay
    # ------------------------------------------------------------------
    def _squash_from(self, instr: DynInstr) -> None:
        """Squash ``instr`` and everything younger; refetch from its slot."""
        self._squashed_this_cycle = True
        boundary = instr.seq
        if self.storesets is not None:
            if instr.is_load and instr.true_violation_pc >= 0:
                self.storesets.record_violation(instr.uop.pc, instr.true_violation_pc)
            self.storesets.squash(boundary - 1)
        self.fetch_idx = instr.trace_idx
        self._last_fetch_line = -1
        for buffered in self.fetch_buffer:
            buffered.state = _SQUASHED
        self.fetch_buffer.clear()
        squashed = self.rob.squash_younger(lambda e: e.seq < boundary)
        for victim in squashed:
            victim.state = _SQUASHED
            self._free_iq_entry(victim)
            if victim.uop.dst is not None:
                (self.regs_fp if victim.uop.dst >= 32 else self.regs_int).release()
            self.hot["squash.instructions"] += 1
        self.lq.squash_younger(boundary - 1)
        self.sq.squash_younger(boundary - 1)
        self.rename.clear()
        for survivor in self.rob:
            if survivor.uop.dst is not None:
                self.rename[survivor.uop.dst] = survivor
        self.hooks.on_squash(boundary - 1, squashed)
        if self.fetch_blocked_branch is not None and self.fetch_blocked_branch.squashed:
            self.fetch_blocked_branch = None
        self.fetch_resume_cycle = self.cycle + self.config.replay_penalty
        streak = self._replay_streak.get(instr.trace_idx, 0) + 1
        self._replay_streak[instr.trace_idx] = streak
        if streak >= self.config.replay_guard:
            self._force_nonspec.add(instr.trace_idx)
            self.hot["replay.guard_trips"] += 1

    # ------------------------------------------------------------------
    # Coherence traffic injection
    # ------------------------------------------------------------------
    def _inject_invalidations(self) -> None:
        line = self.invalidations.maybe_invalidate()
        if line is None:
            return
        self.hot["inv.injected"] += 1
        self.memory.invalidate(line)
        head = self.rob.head()
        oldest = head.seq if head is not None else self.next_seq
        self.hooks.on_invalidation(line, self.config.l2_line_bytes, self.cycle, oldest)


def run_reference(config, trace, max_instructions=None, seed=1, prewarm=True):
    """:func:`repro.sim.runner.run_trace` on the reference loop."""
    processor = ReferenceProcessor(config, trace, seed=seed)
    if prewarm:
        processor.prewarm()
    budget = max_instructions if max_instructions is not None else len(trace)
    return processor.run(budget)
