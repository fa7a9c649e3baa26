"""Trace-driven cycle-level out-of-order pipeline.

Models an 8-wide superscalar core in the style of SimpleScalar's
out-of-order simulator, as configured in the paper's Table 1:

* fetch through an I-cache with a combined bimodal/gshare predictor and
  BTB; fetch stalls at a mispredicted (or BTB-missing taken) branch and
  resumes ``branch_penalty`` cycles after the branch resolves — the
  standard trace-driven treatment of wrong-path execution.  Wrong-path
  *loads* still matter to the paper (they corrupt YLA), so their effect is
  injected by :class:`~repro.frontend.wrongpath.WrongPathModel`;
* rename/dispatch into ROB + split INT/FP issue queues + LQ/SQ, blocking
  on any full resource;
* oldest-first issue with functional-unit and D-cache-port bandwidth;
  loads issue speculatively past unresolved older stores, forward from the
  SQ, or are rejected and retried (POWER4-style);
* in-order commit; stores write the D-cache at commit;
* memory-ordering violations cause a squash-and-refetch from the violating
  load (execution-time for conventional schemes, commit-time for DMDC).

A simulator-side ground-truth checker flags every *true* premature load at
store resolution; any scheme that lets such a load retire un-replayed
raises :class:`~repro.errors.OrderingViolationMissed`.  The flags also feed
DMDC's replay taxonomy (Tables 3/5 of the paper).

:meth:`Processor.run` steps the structure-of-arrays kernel
(:mod:`repro.sim.soa`), which skips provably idle cycles; traced,
profiled and sanitized runs take it too, through its one observation
seam (``Processor.tracer``) and the sanitizer's adapter
(``Processor.sanitizer``).  The object loop here (:meth:`Processor.step`
and its stages) is the per-cycle reference the equivalence tests
compare it with: nothing in the package calls it, and results are
bit-identical (enforced by ``tests/test_soa_equivalence.py`` and
``tests/test_golden_digests.py``); see ``docs/performance.md``.
A point that ``run_many`` batches with a conventional host run may step
neither loop: a YLA or Bloom point replays the host's recorded events
through its filter (a *filter lane*), and a DMDC, Garg or store-set point
replays a squash-free host's events through its scheme, stepping its own
loop only if a replay verdict would change timing (a *verdict lane*);
see :class:`HostRun`.
"""

import heapq
import time
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.backend.dyninst import DynInstr, InstrState
from repro.backend.resources import FunctionalUnits, PhysRegFile
from repro.coherence.injector import InvalidationInjector
from repro.core.schemes import CheckScheme, CommitDecision, build_scheme
from repro.core.storesets import StoreSetPredictor
from repro.core.schemes.conventional import ConventionalScheme
from repro.errors import OrderingViolationMissed, SimulationError
from repro.frontend.branch_predictor import CombinedPredictor
from repro.frontend.wrongpath import WrongPathModel
from repro.isa.opcodes import InstrClass
from repro.isa.trace import Trace
from repro.lsq.queues import ForwardAction, LoadQueue, StoreQueue
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.config import MachineConfig
from repro.sim.result import SimulationResult
from repro.sim.soa import LaneView, SoaKernel, replay_verdicts
from repro.stats.counters import CounterSet, HotCounters
from repro.utils.rng import DeterministicRng
from repro.utils.ring import RingBuffer

_INF = float("inf")

# Enum members hoisted to module level: attribute access on an Enum class
# goes through a metaclass descriptor, which is measurable inside the
# per-cycle loops.  Members are singletons, so identity tests are exact.
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


class HostRun(NamedTuple):
    """A recording kernel run, which lanes replay: its result, its event
    log (:mod:`repro.sim.soa`) and the names of the counters its scheme
    booked, which a lane's result takes from the lane's own scheme."""

    result: SimulationResult
    events: List[int]
    scheme_counters: Tuple[str, ...]

    @property
    def squash_free(self) -> bool:
        """No replay squashed anything: every fetched op committed, in
        seq order, so verdict lanes may replay the log."""
        return self.result.counters["replays"] == 0


class Processor:
    """One core running one trace under one dependence-checking scheme."""

    def __init__(self, config: MachineConfig, trace: Trace, seed: int = 1):
        self.config = config
        self.trace = trace
        self.rng = DeterministicRng(seed, f"proc:{trace.name}")

        self.predictor = CombinedPredictor(
            bimodal_entries=config.bimodal_entries,
            gshare_entries=config.gshare_entries,
            history_bits=config.gshare_history,
            meta_entries=config.meta_entries,
            btb_entries=config.btb_entries,
            btb_assoc=config.btb_assoc,
        )
        self.memory = MemoryHierarchy(
            config.l1i_config(), config.l1d_config(), config.l2_config(),
            config.memory_latency,
        )
        self.fus = FunctionalUnits(
            config.int_alu, config.int_muldiv, config.fp_alu, config.fp_muldiv
        )
        self.regs_int = PhysRegFile(config.regs_int)
        self.regs_fp = PhysRegFile(config.regs_fp)
        self.rob: RingBuffer = RingBuffer(config.rob_size)
        self.lq = LoadQueue(config.lq_size)
        self.sq = StoreQueue(config.sq_size)
        self.scheme = self._new_scheme()
        self.wrongpath = WrongPathModel(
            self.rng.child("wrongpath"),
            mean_loads_per_mispredict=config.wrongpath_mean_loads,
            enabled=config.wrongpath_loads,
        )
        self.storesets = StoreSetPredictor() if config.scheme.store_sets else None
        self.invalidations = InvalidationInjector(
            self.rng.child("invalidations"),
            config.invalidation_rate,
            config.l2_line_bytes,
        )

        # Pipeline state
        self.cycle = 0
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
        self.committed = 0
        self._commit_target = _INF
        self.counters = CounterSet()
        self.hot = HotCounters()
        self._checking_cycles = 0
        self._replay_streak: Dict[int, int] = {}
        self._force_nonspec: Set[int] = set()
        self._squashed_this_cycle = False
        #: Idle cycles the SoA kernel's skipper jumped over (diagnostic
        #: only — deliberately NOT a counter, so results stay bit-identical
        #: with the object loop, which steps every cycle).
        self.fast_forwarded_cycles = 0
        #: Cached injector gate: when off, the per-cycle injection call and
        #: the per-load address tracking are provably dead and skipped.
        self._inv_enabled = self.invalidations.enabled
        # Hot-path caches: config scalars and the stable backing lists of
        # the age-ordered queues, bound once so the per-cycle loops touch
        # locals instead of attribute chains.  RingBuffer documents its
        # ``items`` list object as stable for the buffer's lifetime.
        self._width = config.width
        self._decode_latency = config.decode_latency
        self._fetch_cap = config.fetch_buffer
        self._iq_int_cap = config.iq_int
        self._iq_fp_cap = config.iq_fp
        self._ports = config.dcache_ports
        self._reject_delay = config.reject_retry_delay
        self._fwd_latency = 1 + config.l1d_latency
        self._l1i_latency = config.l1i_latency
        self._sq_filter = config.scheme.sq_filter
        self._rob_items = self.rob.items
        self._rob_cap = config.rob_size
        self._lq_items = self.lq.ring.items
        self._lq_cap = config.lq_size
        self._sq_items = self.sq.ring.items
        self._sq_cap = config.sq_size
        self._sq_by_seq = self.sq.by_seq
        self._trace_ops = trace.ops
        self._trace_len = len(trace)
        self._fu_latency_by_cls = self.fus.latency_by_cls
        #: The run's observer, or None: a
        #: :class:`~repro.sim.pipetrace.PipelineTracer` or an
        #: :class:`~repro.obs.recorder.ObservabilityRecorder`, which the
        #: kernel calls at every pipeline, replay and scheme event.
        self.tracer = None
        #: The :class:`~repro.analysis.sanitizer.MemoryOrderSanitizer`
        #: wrapping the scheme's kernel adapter, or None.
        self.sanitizer = None
        #: Reusable slot-pool buffers.  ``run_many`` seeds them so
        #: same-geometry batch elements share one allocation; otherwise
        #: :meth:`run` fills them.
        self.soa_buffers = None
        #: Which route the last :meth:`run` took: ``"soa"`` (the kernel)
        #: or ``"lane"`` (a lane that replayed a host's log instead) —
        #: bench/result provenance.
        self.kernel_used = "soa"
        #: Lanes (see ``docs/performance.md``).  A recording kernel run
        #: logs the events a lane reads and leaves its :class:`HostRun` in
        #: ``recorded``.  ``run_many`` sets ``record_events`` on a group's
        #: host and ``replay_from`` on its lanes, whose :meth:`run` replays
        #: that log and steps no cycle loop, unless a verdict lane's
        #: replay reaches a verdict that would change timing: then it
        #: steps its own kernel.
        self.record_events = False
        self.recorded: Optional[HostRun] = None
        self.replay_from: Optional[HostRun] = None

    # ==================================================================
    # Public driver
    # ==================================================================
    def prewarm(self, instructions: Optional[int] = None) -> None:
        """Functionally warm the I-cache, L2 code lines, and branch predictor.

        The paper measures 100M-instruction SimPoints where front-end
        structures are in steady state; short Python-scale runs would
        otherwise spend most of their cycles on cold code misses.  Data
        caches are deliberately *not* prewarmed — data-stream misses are a
        real steady-state effect the timing run must see.
        """
        n = len(self.trace) if instructions is None else min(instructions, len(self.trace))
        predictor = self.predictor
        memory = self.memory
        btb_install = predictor.btb.install
        for uop in self.trace.ops[:n]:
            memory.fetch(uop.pc)
            if uop.is_branch:
                _, snapshot = predictor.predict(uop.pc)
                predictor.resolve(uop.pc, uop.taken, snapshot)
                if uop.taken:
                    btb_install(uop.pc, uop.target)
        # The warm-up should not leak into reported statistics.
        memory.l1i.hits = memory.l1i.misses = memory.l1i.evictions = 0
        memory.l2.hits = memory.l2.misses = memory.l2.evictions = 0
        predictor.lookups = 0
        predictor.mispredictions = 0
        predictor.btb.hits = predictor.btb.misses = 0

    def run(self, max_instructions: int, max_cycles: Optional[int] = None) -> SimulationResult:
        """Simulate until ``max_instructions`` commit (or trace/cycles end)."""
        if max_cycles is None:
            max_cycles = max(200_000, max_instructions * 60)
        target = min(max_instructions, len(self.trace))
        self._commit_target = target
        replay_seconds = 0.0
        host = self.replay_from
        if host is not None:
            t0 = time.perf_counter()  # repro: noqa[REPRO001]
            if self._replay_lane(host):
                self.kernel_used = "lane"
                result = self._lane_result(host)
                self.cycle = result.cycles
                self.committed = result.committed
                result.sim_seconds = time.perf_counter() - t0  # repro: noqa[REPRO001]
                return result
            replay_seconds = time.perf_counter() - t0  # repro: noqa[REPRO001]
        # Kernel construction (trace column decode, slot-pool allocation)
        # happens before the clock starts: like trace generation it is
        # per-trace setup amortised across runs, not cycle-loop work, and
        # ``sim_seconds`` is defined as the cost of the cycle loop alone.
        # A kernel starts from a fresh pipeline (prewarm is functional
        # only), so a processor runs once.
        if self.cycle or self.committed or self.fetch_idx:
            raise SimulationError(
                f"processor on {self.trace.name} already ran "
                f"({self.committed} committed by cycle {self.cycle})")
        if self.record_events and not isinstance(self.scheme, ConventionalScheme):
            # Lanes replay a conventional run's log: only the
            # conventional family (search filters included) times alike.
            raise SimulationError(f"scheme {self.scheme.name} cannot host lanes")
        kernel = SoaKernel(self, self.soa_buffers, self.record_events)
        self.soa_buffers = kernel.b
        # Wall-clock is measurement-only (sim_seconds for the perf harness);
        # it never feeds back into simulated state.
        t0 = time.perf_counter()  # repro: noqa[REPRO001]
        self.kernel_used = "soa"
        kernel.run(target, max_cycles)
        sim_seconds = replay_seconds + time.perf_counter() - t0  # repro: noqa[REPRO001]
        self.scheme.finalize(self.cycle)
        result = self._build_result()
        if kernel.events is not None:
            self.recorded = HostRun(result, kernel.events,
                                    tuple(self.scheme.stats.as_dict()))
        result.sim_seconds = sim_seconds
        return result

    def _new_scheme(self) -> CheckScheme:
        """A fresh scheme for this machine, bound to the pipeline's queues."""
        scheme = build_scheme(self.config.scheme, self.config)
        if isinstance(scheme, ConventionalScheme):
            scheme.attach(self.lq, self.config.l2_line_bytes)
        elif hasattr(scheme, "attach_rob"):
            scheme.attach_rob(self.rob)
        return scheme

    def _replay_lane(self, host: HostRun) -> bool:
        """Run this point's scheme over the run ``host`` recorded.

        The conventional family (search filters, store sets) replays the
        conventional search; DMDC and Garg drive their kernel adapters
        through :func:`~repro.sim.soa.replay_verdicts`.  False when that
        replay reaches a verdict that changes timing: the scheme is then
        rebuilt fresh, for this processor's own loop.
        """
        scheme = self.scheme
        label = self.config.scheme.label()
        result = host.result
        if isinstance(scheme, ConventionalScheme):
            scheme.replay_lane(host.events, label,
                               result.counters["replays.coherence"])
            return True
        view = LaneView(self.trace)
        checking = replay_verdicts(scheme.soa_hooks(view), view, host.events,
                                   result.cycles, result.committed, label)
        if checking < 0:
            self.scheme = self._new_scheme()
            return False
        self._checking_cycles = checking
        scheme.finalize(result.cycles)
        return True

    def _lane_result(self, host: HostRun) -> SimulationResult:
        """This point's result once :meth:`_replay_lane` replayed ``host``."""
        self.scheme.collect()
        return host.result.lane_copy(self.scheme, host.scheme_counters,
                                     self._lane_counters())

    def step(self) -> None:
        """Advance one cycle (commit -> writeback -> issue -> dispatch -> fetch)."""
        self._squashed_this_cycle = False
        if self.scheme.checking_active:
            self._checking_cycles += 1
        cycle = self.cycle
        # Each stage is gated on the cheap "can it possibly act?" test so an
        # idle stage costs one comparison instead of a call + prologue.  The
        # gates read the same state the stage's own early-exit would.
        rob_items = self._rob_items
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
            self.hot.fetch_stall_cycles += 1
        elif len(self.fetch_buffer) < self._fetch_cap and self.fetch_idx < self._trace_len:
            self._stage_fetch()
        if self._inv_enabled:
            self._inject_invalidations()
        self.cycle += 1

    # ==================================================================
    # Event scheduling
    # ==================================================================
    def _schedule_completion(self, cycle: int, instr: DynInstr) -> None:
        events = self._completions.get(cycle)
        if events is None:
            self._completions[cycle] = [instr]
        else:
            events.append(instr)

    def _schedule_retry(self, cycle: int, load: DynInstr) -> None:
        events = self._retries.get(cycle)
        if events is None:
            self._retries[cycle] = [load]
        else:
            events.append(load)

    # ==================================================================
    # Commit
    # ==================================================================
    def _stage_commit(self) -> None:
        rob_items = self._rob_items
        scheme = self.scheme
        cycle = self.cycle
        for _ in range(self._width):
            if self.committed >= self._commit_target:
                return
            if not rob_items:
                break
            head = rob_items[0]
            if head.state is not _COMPLETED:
                break
            decision = scheme.on_commit(head, cycle)
            if decision == CommitDecision.REPLAY:
                self.hot.replays += 1
                self.hot.replays_commit_time += 1
                self._squash_from(head)
                return
            if head.is_load and head.true_violation_store >= 0:
                raise OrderingViolationMissed(
                    f"load seq={head.seq} addr={head.addr:#x} retired despite a "
                    f"premature issue past store seq={head.true_violation_store} "
                    f"under scheme {scheme.name}"
                )
            self._retire(head)

    def _retire(self, instr: DynInstr) -> None:
        instr.state = _COMMITTED
        instr.commit_cycle = self.cycle
        self._rob_items.pop(0)
        hot = self.hot
        uop = instr.uop
        if uop.dst is not None:
            (self.regs_fp if uop.dst >= 32 else self.regs_int).release()
            if self.rename.get(uop.dst) is instr:
                del self.rename[uop.dst]
        if instr.is_load:
            lq_items = self._lq_items
            if not lq_items or lq_items[0] is not instr:
                raise AssertionError("LQ retired out of order")
            lq_items.pop(0)
            hot.commit_loads += 1
            if self.scheme.reexecutes_loads:
                # Value-based checking: every load re-accesses the cache.
                self.memory.read(instr.addr)
                hot.dcache_reexecutions += 1
            if instr.safe:
                hot.commit_safe_loads += 1
        elif instr.is_store:
            self.sq.retire_head(instr)
            self.memory.write(instr.addr)
            hot.commit_stores += 1
        elif instr.is_branch:
            hot.commit_branches += 1
        self.committed += 1
        hot.commit_instructions += 1
        self._replay_streak.pop(instr.trace_idx, None)
        self._force_nonspec.discard(instr.trace_idx)

    # ==================================================================
    # Writeback / completion
    # ==================================================================
    def _stage_complete(self, events: List[DynInstr]) -> None:
        """Writeback for the completions scheduled at the current cycle
        (already popped from the schedule by :meth:`step`)."""
        cycle = self.cycle
        hot = self.hot
        for instr in events:
            state = instr.state
            if state is _SQUASHED or state is _COMPLETED:
                continue
            instr.state = _COMPLETED
            instr.complete_cycle = cycle
            if instr.uop.dst is not None:
                hot.regfile_writes += 1
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
            hot.iq_wakeups += 1
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
                self.hot.branch_mispredicts += 1
                self.scheme.on_recovery(branch.seq)
            else:
                self.hot.branch_misfetches += 1

    # ==================================================================
    # Issue / execute
    # ==================================================================
    def _stage_issue(self) -> None:
        cycle = self.cycle
        ready = self._ready
        retries = self._retries.pop(cycle, None)
        if retries is not None:
            for load in retries:
                if load.state is _READY:
                    heapq.heappush(ready, (load.seq, load))
        if not ready:
            return  # nothing to issue: the FU reset below would be a no-op
        fus = self.fus
        fus.new_cycle()
        width = self._width
        ports_left = self._ports
        issued = 0
        # One small list per non-idle issue cycle; accepted (the heap pops
        # below need somewhere allocation-order-independent to park
        # bandwidth-deferred entries).
        deferred: List[DynInstr] = []  # repro: noqa[REPRO005]
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
        cycle = self.cycle
        instr.state = _ISSUED
        instr.issue_cycle = cycle
        if instr.in_iq:  # _free_iq_entry, inlined (hot leaf)
            instr.in_iq = False
            if instr.fp_side:
                self.iq_fp_count -= 1
            else:
                self.iq_int_count -= 1
        hot = self.hot
        hot.issue_instructions += 1
        hot.regfile_reads += len(instr.uop.srcs)
        hot.fu_ops += 1
        when = cycle + self._fu_latency_by_cls[instr.uop.cls]
        completions = self._completions
        events = completions.get(when)
        if events is None:
            completions[when] = [instr]
        else:
            events.append(instr)

    def _issue_store(self, store: DynInstr) -> None:
        """AGU issue: the store's address resolves now."""
        store.state = _ISSUED
        store.issue_cycle = self.cycle
        store.resolve_cycle = self.cycle
        self._free_iq_entry(store)
        hot = self.hot
        hot.issue_stores += 1
        hot.regfile_reads += len(store.uop.srcs)
        if self.storesets is not None:
            self.storesets.store_resolved(store.uop.pc, store.seq)
        self._ground_truth_store_resolve(store)
        if store.pending_data == 0:
            self._schedule_completion(self.cycle + 1, store)
        # else: completion is scheduled when the data producer completes.
        victim = self.scheme.on_store_resolve(store, self.cycle)
        if victim is not None and not victim.squashed:
            hot.replays += 1
            hot.replays_execution_time += 1
            self._squash_from(victim)

    def _ground_truth_store_resolve(self, store: DynInstr) -> None:
        """Flag younger loads that truly issued prematurely past this store.

        A load is exempt when it forwarded from a store *younger* than this
        one that fully covered it (its data cannot be stale).
        """
        s_addr, s_seq = store.addr, store.seq
        s_end = s_addr + store.size
        sq_by_seq = self._sq_by_seq
        for load in self._lq_items:
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
                    self.hot.groundtruth_violations += 1

    def _try_issue_load(self, load: DynInstr, ports_left: int, deferred: List[DynInstr]):
        """Attempt to issue one load; returns (issued?, ports_left)."""
        hot = self.hot
        if load.trace_idx in self._force_nonspec and self.sq.oldest_unresolved_seq() is not None:
            # Livelock guard: after repeated replays this load waits until
            # every older store has resolved (it then issues as a safe load).
            self._schedule_retry(self.cycle + 1, load)
            return False, ports_left
        if self.storesets is not None:
            blocker = self.storesets.blocking_store(load.uop.pc, load.seq)
            if blocker is not None:
                # Predicted dependent on an in-flight unresolved store: wait.
                hot.storesets_load_delays += 1
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
        sq = self.sq
        sq_items = self._sq_items
        if self._sq_filter and (not sq_items or load.seq < sq_items[0].seq):
            sq.searches_filtered += 1
            result_action = _FWD_CACHE
            all_older_resolved = True
            fwd_store = None
        else:
            result_action, fwd_store, all_older_resolved = sq.search_for_forwarding(load)
            hot.sq_searches += 1

        if result_action is _FWD_REJECT:
            load.rejections += 1
            hot.load_rejections += 1
            self._schedule_retry(self.cycle + self._reject_delay, load)
            return True, ports_left  # consumed bandwidth this cycle

        load.state = _ISSUED
        load.issue_cycle = self.cycle
        self._free_iq_entry(load)
        hot.issue_loads += 1
        hot.regfile_reads += len(load.uop.srcs)
        load.speculative_issue = not all_older_resolved
        load.safe = all_older_resolved
        if load.trace_idx in self._force_nonspec and all_older_resolved:
            # Guard-tripped loads issued with every older store resolved are
            # provably violation-free; they bypass commit-time checking even
            # when the safe-load optimisation is disabled (ablation), which
            # guarantees forward progress.
            load.guard_bypass = True
        if load.safe:
            hot.load_safe_at_issue += 1
        self.wrongpath.observe_address(load.addr)
        if self._inv_enabled:
            self.invalidations.observe(load.addr)

        if result_action is _FWD_FORWARD:
            load.forward_store_seq = fwd_store.seq
            hot.load_forwarded += 1
            latency = self._fwd_latency
        else:
            ports_left -= 1
            hot.dcache_reads += 1
            latency = 1 + self.memory.read(load.addr)
        self._schedule_completion(self.cycle + latency, load)

        victim = self.scheme.on_load_issue(load, self.cycle)
        if victim is not None and not victim.squashed:
            hot.replays += 1
            hot.replays_coherence += 1
            self._squash_from(victim)
        return True, ports_left

    # ==================================================================
    # Dispatch (rename + allocate)
    # ==================================================================
    def _stage_dispatch(self) -> None:
        buf = self.fetch_buffer
        if not buf:
            return
        cycle = self.cycle
        decode_latency = self._decode_latency
        if cycle < buf[0].fetch_cycle + decode_latency:
            return  # front of the buffer is still in decode
        dispatched = 0
        hot = self.hot
        width = self._width
        rename = self.rename
        ready = self._ready
        rob_items = self._rob_items
        rob_cap = self._rob_cap
        lq_items = self._lq_items
        lq_cap = self._lq_cap
        sq_items = self._sq_items
        sq_cap = self._sq_cap
        iq_fp_cap = self._iq_fp_cap
        iq_int_cap = self._iq_int_cap
        while buf and dispatched < width:
            instr = buf[0]
            if cycle < instr.fetch_cycle + decode_latency:
                break
            uop = instr.uop
            if len(rob_items) >= rob_cap:
                hot.stall_rob_full += 1
                break
            if instr.fp_side:
                if self.iq_fp_count >= iq_fp_cap:
                    hot.stall_iq_full += 1
                    break
            elif self.iq_int_count >= iq_int_cap:
                hot.stall_iq_full += 1
                break
            is_load = instr.is_load
            is_store = instr.is_store
            if is_load and len(lq_items) >= lq_cap:
                hot.stall_lq_full += 1
                break
            if is_store and len(sq_items) >= sq_cap:
                hot.stall_sq_full += 1
                break
            dst = uop.dst
            if dst is not None:
                regs = self.regs_fp if dst >= 32 else self.regs_int
                if not regs.try_allocate():
                    hot.stall_regs_full += 1
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
                hot.lq_writes += 1
            elif is_store:
                sq_items.append(instr)
                self._sq_by_seq[instr.seq] = instr
                hot.sq_writes += 1
                if self.storesets is not None:
                    self.storesets.store_dispatched(uop.pc, instr.seq)
            # Dependence wiring (inlined — the old _wire_dependences call).
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
            hot.rename_ops += dispatched
            hot.rob_writes += dispatched

    # ==================================================================
    # Fetch
    # ==================================================================
    def _stage_fetch(self) -> None:
        # step() has already ruled out the stall cases (blocked branch,
        # resume timer) and confirmed buffer room and trace supply.
        cycle = self.cycle
        uops = self._trace_ops
        trace_len = self._trace_len
        buf = self.fetch_buffer
        hot = self.hot
        memory = self.memory
        predictor = self.predictor
        l1i_latency = self._l1i_latency
        fetch_cap = self._fetch_cap
        width = self._width
        fetch_idx = self.fetch_idx
        seq = self.next_seq
        last_line = self._last_fetch_line
        fetched = 0
        try:
            while (
                fetched < width
                and len(buf) < fetch_cap
                and fetch_idx < trace_len
            ):
                uop = uops[fetch_idx]
                line = uop.pc >> 6
                if line != last_line:
                    hot.icache_reads += 1
                    lat = memory.fetch(uop.pc)
                    last_line = line
                    if lat > l1i_latency:
                        # I-cache miss: the line arrives later; retry then.
                        self.fetch_resume_cycle = cycle + lat
                        hot.fetch_icache_miss += 1
                        return
                instr = DynInstr(uop, fetch_idx, seq, uop.fp_side)
                seq += 1
                instr.fetch_cycle = cycle
                buf.append(instr)
                fetch_idx += 1
                fetched += 1
                if uop.is_branch:
                    predicted_taken, snapshot = predictor.predict(uop.pc)
                    instr.pred_snapshot = snapshot
                    hot.bpred_lookups += 1
                    mispredicted = predicted_taken != uop.taken
                    instr.mispredicted = mispredicted
                    if mispredicted:
                        # Stall-on-mispredict: fetch halts until resolution.
                        # Wrong-path loads issue during the shadow and corrupt
                        # the YLA registers now; recovery repairs them when the
                        # branch resolves (the paper's reset remedy).  Stores
                        # resolving inside the shadow see the corrupted YLA.
                        self.fetch_blocked_branch = instr
                        for age, addr in self.wrongpath.loads_for_mispredict(instr.seq):
                            self.scheme.on_wrongpath_load(age, addr)
                        return
                    if predicted_taken and predictor.btb.lookup(uop.pc) is None:
                        # Misfetch: direction right but no target until decode —
                        # a short front-end bubble, not a full resolution stall.
                        hot.branch_misfetches += 1
                        self.fetch_resume_cycle = cycle + 2
                        return
                    if uop.taken:
                        # Correctly predicted taken branch ends the fetch group.
                        return
        finally:
            # Localized cursors written back on every exit path.
            self.fetch_idx = fetch_idx
            self.next_seq = seq
            self._last_fetch_line = last_line
            if fetched:
                hot.fetch_instructions += fetched

    # ==================================================================
    # Squash / replay
    # ==================================================================
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
            buffered.state = InstrState.SQUASHED
        self.fetch_buffer.clear()
        squashed = self.rob.squash_younger(lambda e: e.seq < boundary)
        for victim in squashed:
            victim.state = InstrState.SQUASHED
            self._free_iq_entry(victim)
            if victim.uop.dst is not None:
                (self.regs_fp if victim.uop.dst >= 32 else self.regs_int).release()
            self.hot.squash_instructions += 1
        self.lq.squash_younger(boundary - 1)
        self.sq.squash_younger(boundary - 1)
        self.rename.clear()
        for survivor in self.rob:
            if survivor.uop.dst is not None:
                self.rename[survivor.uop.dst] = survivor
        self.scheme.on_squash(boundary - 1, squashed)
        if self.fetch_blocked_branch is not None and self.fetch_blocked_branch.squashed:
            self.fetch_blocked_branch = None
        self.fetch_resume_cycle = self.cycle + self.config.replay_penalty
        streak = self._replay_streak.get(instr.trace_idx, 0) + 1
        self._replay_streak[instr.trace_idx] = streak
        if streak >= self.config.replay_guard:
            self._force_nonspec.add(instr.trace_idx)
            self.hot.replay_guard_trips += 1

    # ==================================================================
    # Coherence traffic injection
    # ==================================================================
    def _inject_invalidations(self) -> None:
        line = self.invalidations.maybe_invalidate()
        if line is None:
            return
        self.hot.inv_injected += 1
        self.memory.invalidate(line)
        head = self.rob.head()
        oldest = head.seq if head is not None else self.next_seq
        self.scheme.on_invalidation(line, self.config.l2_line_bytes, self.cycle, oldest)

    # ==================================================================
    # Results
    # ==================================================================
    def _lane_counters(self) -> Dict[str, int]:
        """The processor counters a lane books itself instead of taking
        its host's: checking-window cycles, LQ searches and store sets."""
        own = {"checking.cycles_observed": self._checking_cycles,
               "lq.searches_assoc": self.lq.searches,
               "lq.searches_filtered": self.lq.searches_filtered}
        if self.storesets is not None:
            own["storesets.violations_recorded"] = self.storesets.violations_recorded
            own["storesets.merges"] = self.storesets.merges
        return own

    def _build_result(self) -> SimulationResult:
        self.hot.fold_into(self.counters)
        self.counters["cycles"] = self.cycle
        for name, value in self._lane_counters().items():
            self.counters[name] = value
        self.counters["lq.inv_searches"] = self.lq.inv_searches
        self.counters["sq.searches_assoc"] = self.sq.searches
        self.counters["sq.searches_filtered_age"] = self.sq.searches_filtered
        self.counters["bpred.mispredicts"] = self.predictor.mispredictions
        self.counters["wrongpath.loads"] = self.wrongpath.injected
        self.counters["dcache.accesses"] = self.memory.l1d.accesses
        self.counters["dcache.misses"] = self.memory.l1d.misses
        self.counters["icache.accesses"] = self.memory.l1i.accesses
        self.counters["icache.misses"] = self.memory.l1i.misses
        self.counters["l2.accesses"] = self.memory.l2.accesses
        self.counters["l2.misses"] = self.memory.l2.misses
        self.scheme.collect()
        self.counters.merge(self.scheme.stats)
        return SimulationResult(
            workload=self.trace.name,
            group=self.trace.group,
            config_name=self.config.name,
            scheme_name=self.scheme.name,
            cycles=self.cycle,
            committed=self.committed,
            counters=self.counters,
            window_instrs=self.scheme.window_instrs,
            window_loads=self.scheme.window_loads,
            window_safe_loads=self.scheme.window_safe_loads,
            window_unsafe_stores=self.scheme.window_unsafe_stores,
        )
