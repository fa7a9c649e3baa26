"""Structure-of-arrays cycle kernel: the one cycle loop.

A pipeline of per-stage methods over per-instruction objects spends most
of its time in CPython dispatch: ~50 function calls and attribute chains
per committed instruction.  This module expresses the cycle-level
semantics of :mod:`repro.sim.processor` over preallocated parallel
arrays instead:

* every in-flight instruction occupies a **slot** in a fixed pool the
  kernel allocates for its run; all per-instruction state (`seq`,
  `state`, `addr`, timestamps, dependence counts) lives in parallel
  lists indexed by slot;
* the ROB/LQ/SQ are deques of slot numbers in age order, so retire pops
  the head and a squash pops the tail in O(victims), no object walks;
* cycle-indexed ring buffers (completions, retries) carry **encoded
  identity ints** ``(seq << PBITS) | slot`` — scheduling an event is one
  list append, draining a cycle is one indexed read, and a stale event for
  a squashed-and-reused slot is detected by one integer compare;
* the pipeline stages are fused into one loop in :meth:`SoaKernel.run`,
  and scheme callbacks receive slot indices (see the ``soa_hooks``
  adapters in :mod:`repro.core.schemes`);
* event counters are local ints, booked into ``Processor.counters`` in
  one fold when the loop ends.

Every run that steps a cycle loop takes this kernel: observed, coherent
and injected runs included.  It skips idle cycles: an event-horizon
skipper jumps to the next cycle in which any stage can act, and stays
off while the invalidation injector is live (the injector draws from the
RNG every cycle).

**Stop, resume, copy.**  :meth:`SoaKernel.run` can stop at a cycle
boundary and resume later, bit-identically to an uninterrupted run, and
a :class:`Snapshot` copies a stopped machine (kernel and components, not
the scheme side).  A diverging verdict lane resumes its own kernel from
a snapshot of its host's machine, which the host run keeps
(:meth:`repro.sim.processor.Processor._fork`); that kernel records its
tail, which the host run keeps too, for later lanes of its machine.

**Observation.**  ``Processor.tracer`` (a
:class:`~repro.sim.pipetrace.PipelineTracer` or an
:class:`~repro.obs.recorder.ObservabilityRecorder`) is bound to one local
``emit`` that each event site tests once with ``emit is not None``;
events carry seq, trace index and cycle.  Scheme events reach it through
the adapter's view (``k.emit``; ``k.cycle`` is kept current at store
resolve).  The shadow-oracle sanitizer is an adapter wrapping the
scheme's own, called at every retire (``commit_mode`` 3).

**Lane recording.**  YLA and Bloom filtering changes energy, never
timing, so a run built with ``record=True`` logs the events a filter or
verdict lane reads into :attr:`SoaKernel.events`, a flat int list of
records (opcodes in :mod:`repro.core.schemes.base`):

* load issue: address, seq and cycle, the opcode saying whether every
  older store's address was known (the load is safe at issue) and
  whether the replay guard made it wait for them;
* store resolve: address, seq, the ROB tail seq and cycle, the opcode
  saying whether the hook named a live victim, after a record per load
  the ground-truth check marked premature (load seq, store seq);
* mispredicted fetch: the branch seq and cycle.  The run's own
  wrong-path loads are not logged: they are the seed's one effect while
  the invalidation injector is off, and they never change timing, so
  the log is the same under every seed and each lane draws its own from
  its own seed;
* branch recovery: seq and cycle;
* squash: last kept seq, cycle, the first seq the refetch uses, then the
  addresses of the squashed issued loads; it follows the record of the
  load issue or store resolve whose hook named the victim, or, for a
  commit-time replay, the cycle's commit stage record;
* load commit: address;
* commit stage: the cycle and how many instructions it retired.

The cycle stamps let a log split at any cycle boundary: a walk
checkpoints a diverging lane before the first record of its fork cycle,
and a lane of a kept forked run resumes from there into the tail.

One local ``rec`` bool guards every site.  A recording run is
conventional, filters inline or is a value run, and calls its own hooks
as usual; its lanes (filter points, value points of other seeds) walk
its log after the loop, all of a group's in one walk
(:func:`repro.sim.walk.walk_lanes`).  A squash-free run's log also
serves *verdict lanes*: DMDC and Garg time as the conventional machine
until their first replay, so the walk drives their adapters through the
log over seq-indexed :class:`LaneView` columns and drops a lane at its
first verdict that would change timing, where the lane forks from its
checkpoint there.  A forked lane's run records too, and its tail serves
later lanes of its machine whose verdicts reproduce every one it
recorded (:func:`repro.sim.walk.walk_tail`: the same walk, over one
lane, from its checkpoint).  The walk is the only decoder of any log.
:func:`repro.sim.runner.run_many` walks one
conventional run's log for every lane that shares its trace, budget and
machine, whatever the lane's seed (unless the invalidation injector is
on), and keeps the log in the setup memo for later batches.

The kernel is **bit-identical** to the per-cycle object pipeline it was
transcribed from, which the test suite keeps as its reference
(``tests/reference_loop.py``): same counters, same cycle counts, same
RNG stream.  ``tests/test_soa_equivalence.py`` enforces that over the
scheme × workload matrix and its coherence rows, and
``tests/test_golden_digests.py`` pins the results for the whole suite.
The reference steps every cycle, so those tests also check the skipper.
:func:`repro.sim.validate.check_invariants` is the kernel's structural
oracle.  See ``docs/performance.md``.

Slot identity: a slot is recycled as soon as its instruction retires or is
squashed, and ``next_seq`` never rolls back on a squash, so live sequence
numbers are *not* contiguous — a slot can only be named safely together
with the seq it was bound to.  Hence the encoded ints everywhere an
instruction outlives a queue position (event schedules, the ready heap,
consumer lists, the rename map).
"""

import heapq
from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Set

from repro.backend.resources import FunctionalUnits
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
)
from repro.errors import OrderingViolationMissed, SimulationError
from repro.lsq.queues import (
    SOA_CACHE,
    SOA_FORWARD,
    SOA_REJECT,
    sq_forward_search_soa,
)

#: Slot states (the ``state`` column), in pipeline order: dependence
#: wiring compares ``state < _ST_COMPLETED``.
_ST_DISPATCHED = 0   # in ROB/IQ, waiting for operands
_ST_READY = 1        # operands available, waiting for issue bandwidth
_ST_ISSUED = 2       # executing / waiting on memory
_ST_COMPLETED = 3    # result produced, waiting for in-order commit
_ST_COMMITTED = 4
_ST_SQUASHED = 5

#: Dispatch-stall cause codes the fast-forward probe reports (mirroring
#: the resource checks of the inline dispatch stage, in order).
_STALL_NONE = 0
_STALL_ROB = 1
_STALL_IQ = 2
_STALL_LQ = 3
_STALL_SQ = 4
_STALL_REGS = 5

#: Length of :attr:`SoaKernel.counts`, and the place of the checking-cycle
#: count in it (last).
_N_COUNTS = 42
CHECKING_COUNT = _N_COUNTS - 1


class TraceSoA:
    """Per-trace micro-op fields decoded once into parallel arrays.

    Decoding amortizes across every run of the same trace (all schemes of
    a sweep, every batch element of :func:`repro.sim.runner.run_many`): the
    kernel indexes plain lists instead of touching ``MicroOp`` attributes
    per fetch/dispatch/issue.
    """

    __slots__ = (
        "n", "pc", "line", "fu_pool", "fu_lat", "srcs", "nsrcs", "dst",
        "data_src", "addr", "size", "isld", "isst", "isbr", "fp",
        "taken", "target", "maxreg",
    )

    def __init__(self, ops) -> None:
        n = len(ops)
        self.n = n
        self.pc = pc = [0] * n
        self.line = line = [0] * n
        self.fu_pool = fu_pool = [0] * n
        self.fu_lat = fu_lat = [0] * n
        self.srcs = srcs = [()] * n
        self.nsrcs = nsrcs = [0] * n
        self.dst = dst = [-1] * n
        self.data_src = data_src = [-1] * n
        self.addr = addr = [0] * n
        self.size = size = [0] * n
        self.isld = isld = [False] * n
        self.isst = isst = [False] * n
        self.isbr = isbr = [False] * n
        self.fp = fp = [False] * n
        self.taken = taken = [False] * n
        self.target = target = [0] * n
        pool_index = FunctionalUnits._POOL_INDEX
        latency = FunctionalUnits.latency_by_cls
        maxreg = 0  # sizes the kernel's flat rename table
        # One int object per distinct fetch line: memoized traces keep
        # their columns, and the loop would otherwise allocate one per op.
        lines = {}
        for i, uop in enumerate(ops):
            pc[i] = uop.pc
            ln = uop.pc >> 6
            line[i] = lines.setdefault(ln, ln)
            cls = uop.cls
            fu_pool[i] = pool_index[cls]
            fu_lat[i] = latency[cls]
            srcs[i] = uop.srcs
            nsrcs[i] = len(uop.srcs)
            for reg in uop.srcs:
                if reg > maxreg:
                    maxreg = reg
            if uop.dst is not None:
                dst[i] = uop.dst
                if uop.dst > maxreg:
                    maxreg = uop.dst
            if uop.data_src is not None:
                data_src[i] = uop.data_src
                if uop.data_src > maxreg:
                    maxreg = uop.data_src
            if uop.mem_addr is not None:
                addr[i] = uop.mem_addr
            if uop.mem_size is not None:
                size[i] = uop.mem_size
            isld[i] = uop.is_load
            isst[i] = uop.is_store
            isbr[i] = uop.is_branch
            fp[i] = uop.fp_side
            taken[i] = uop.taken
            if uop.target is not None:
                target[i] = uop.target
        self.maxreg = maxreg


def trace_soa(trace) -> TraceSoA:
    """Decoded arrays for ``trace``, cached on the trace object."""
    cached = getattr(trace, "_soa_cache", None)
    if cached is None or cached.n != len(trace.ops):
        cached = TraceSoA(trace.ops)
        try:
            trace._soa_cache = cached
        except AttributeError:  # slotted/frozen trace stand-ins: skip cache
            pass
    return cached


class SoaKernel:
    """One run of one processor through the fused SoA cycle loop.

    Construction binds the processor's components (memory, predictor,
    scheme, store sets...) and allocates the run's own slot columns;
    :meth:`run` executes the cycle loop and books every counter it kept
    into the processor's ``counters`` once, at the end.
    """

    def __init__(self, processor, record: bool = False) -> None:
        p = processor
        self.p = p
        config = p.config
        self.t = trace_soa(p.trace)

        # Slot pool: at most ``rob_size`` dispatched plus ``fetch_buffer``
        # fetched-but-not-dispatched instructions are live (one leaves the
        # fetch buffer exactly when it enters the ROB).  Every slot field
        # is (re)initialised at fetch; adapters read the columns as
        # ``k.seq`` etc.
        pool = config.rob_size + config.fetch_buffer + 8
        self.pbits = pool.bit_length()
        self.pmask = (1 << self.pbits) - 1
        self.free: List[int] = list(range(pool - 1, -1, -1))
        self.seq = [-1] * pool
        self.tidx = [0] * pool
        self.state = [0] * pool
        self.fcyc = [0] * pool
        self.icyc = [-1] * pool
        self.rcyc = [-1] * pool
        self.addr = [0] * pool
        self.size = [0] * pool
        self.isld = [False] * pool
        self.isst = [False] * pool
        self.isbr = [False] * pool
        self.fp = [False] * pool
        self.pops = [0] * pool
        self.pdata = [0] * pool
        self.tvs = [-1] * pool
        self.tvpc = [-1] * pool
        self.fwdseq = [-1] * pool
        self.safe = [False] * pool
        self.gbp = [False] * pool
        self.unsafe = [False] * pool
        self.wend = [-1] * pool
        self.invm = [False] * pool
        self.snap = [None] * pool
        self.cons: List[list] = [[] for _ in range(pool)]

        # Age-ordered queues as slot deques (O(1) head pops at retire;
        # squash cuts pop the tail, so no mid-queue surgery ever happens).
        self.rob: deque = deque()
        self.lq: deque = deque()
        self.sq: deque = deque()
        self.sq_by_seq: Dict[int, int] = {}
        # Occupancy filters for the two O(queue) association walks.  Byte
        # overlap implies 8-byte-granule overlap, so a granule miss proves
        # no match exists and the walk is skipped; a hit falls back to the
        # exact walk.  ``sq_unresolved`` counts SQ stores with unknown
        # addresses (rcyc < 0), which the granule map cannot represent.
        self.sq_granules: Dict[int, int] = {}
        self.lq_granules: Dict[int, int] = {}
        self.sq_unresolved = 0
        # Flat rename table (arch reg -> producer enc, -1 when unmapped):
        # register ids are small dense ints, so a list beats a dict on the
        # dispatch/retire hot paths.
        self.rename: List[int] = [-1] * max(64, self.t.maxreg + 1)
        self._rename_clear: List[int] = [-1] * len(self.rename)

        # Event schedules as cycle-indexed rings of enc-int lists.  The
        # furthest anything is ever scheduled is one full memory miss (or
        # the slowest FU / the reject retry delay), so a power-of-two ring
        # spanning that horizon replaces the dict + key-heap pair: schedule
        # is one append, consume is one indexed read per cycle.
        memory = p.memory
        horizon = 4 + max(
            getattr(memory, "_d_mem", 1 << 12),
            max(FunctionalUnits.latency_by_cls),
            config.reject_retry_delay,
        )
        ring_size = 1 << horizon.bit_length()
        self.ring_mask = ring_size - 1
        self.completion_ring: List[List[int]] = [[] for _ in range(ring_size)]
        self.retry_ring: List[List[int]] = [[] for _ in range(ring_size)]
        self.ready: List[int] = []  # heap of enc (seq-ordered)

        # Scalar pipeline state (instance attrs so the cold squash path
        # can mutate them; the hot loop reads them a few times per cycle).
        self.cycle = 0
        self.next_seq = 0
        self.fetch_idx = 0
        self.fetch_buf: deque = deque()  # slots in fetch order (small)
        self.resume_cycle = 0
        self.blocked_branch = -1  # enc, or -1
        self.last_line = -1
        self.committed = 0
        self.iq_int = 0
        self.iq_fp = 0
        self.replay_streak: Dict[int, int] = {}
        self.force_nonspec: Set[int] = set()

        #: The loop's counter locals, kept here between a stop and the
        #: resumed run; ``counts[CHECKING_COUNT]`` is
        #: ``checking.cycles_observed``.
        self.counts: List[int] = [0] * _N_COUNTS
        # Cold-path counters, folded with the loop's locals at the end.
        self.n_squash = 0
        self.n_guard_trips = 0
        self.n_gt_violations = 0

        # Component bindings --------------------------------------------
        self.memory = p.memory
        self.predictor = p.predictor
        self.scheme = p.scheme
        self.storesets = p.storesets
        self.wrongpath = p.wrongpath
        self.invalidations = p.invalidations
        self.regs_int = p.regs_int
        self.regs_fp = p.regs_fp
        self.fu_caps = p.fus._caps_list
        self.fu_avail = p.fus._avail_list
        #: The run's observer (``Processor.tracer``), or None: the one
        #: observation seam, which adapters read as ``k.emit``.
        self.emit = p.tracer
        if self.emit is not None:
            self.emit.bind(p.trace)
        #: The scheme's adapter, wrapped by the sanitizer when one is
        #: attached.
        hooks = p.scheme.soa_hooks(self)
        if p.sanitizer is not None:
            hooks = p.sanitizer.wrap(hooks)
        self.hooks = hooks
        #: The lane event log (see the module docstring), or None
        #: when this run records nothing.
        self.events: Optional[List[int]] = [] if record else None

        # Config scalars ------------------------------------------------
        self.width = config.width
        self.decode_latency = config.decode_latency
        self.fetch_cap = config.fetch_buffer
        self.iq_int_cap = config.iq_int
        self.iq_fp_cap = config.iq_fp
        self.rob_cap = config.rob_size
        self.lq_cap = config.lq_size
        self.sq_cap = config.sq_size
        self.ports = config.dcache_ports
        self.reject_delay = config.reject_retry_delay
        self.fwd_latency = 1 + config.l1d_latency
        self.l1i_latency = config.l1i_latency
        self.branch_penalty = config.branch_penalty
        self.replay_penalty = config.replay_penalty
        self.replay_guard = config.replay_guard
        self.sq_filter = config.scheme.sq_filter
        self.line_bytes = config.l2_line_bytes
        self.reexec_loads = p.scheme.reexecutes_loads

    # ------------------------------------------------------------------
    # The fused cycle loop
    # ------------------------------------------------------------------
    def run(self, target: int, max_cycles: int,
            stop: Optional[int] = None) -> None:
        """Simulate until ``target`` instructions commit, or until the
        boundary of cycle ``stop``.

        One Python frame runs every stage, in the order commit,
        writeback, issue, dispatch, fetch, then the injected coherence
        traffic, each behind a cheap "can it act?" gate; a stage reads
        state the earlier stages of the same cycle left.

        A run that stops before ``target`` writes every local back (the
        scalar cursors onto the kernel and the processor, the counter
        locals into :attr:`counts`) and books nothing into the
        processor's counters; a later call resumes where it stopped, and
        stopping then resuming equals the uninterrupted run.  The
        skipper clamps its jump to ``stop``, and, resumed, jumps on from
        there: an idle stretch split at a stop books the same counts.
        The run that commits ``target`` folds the counters.
        """
        if stop is not None and self.cycle >= stop:
            return
        # --- local bindings (hot state) --------------------------------
        p = self.p
        t = self.t
        pbits = self.pbits
        pmask = self.pmask
        seq_ = self.seq
        tidx_ = self.tidx
        state_ = self.state
        fcyc_ = self.fcyc
        icyc_ = self.icyc
        rcyc_ = self.rcyc
        addr_ = self.addr
        size_ = self.size
        isld_ = self.isld
        isst_ = self.isst
        isbr_ = self.isbr
        fp_ = self.fp
        pops_ = self.pops
        pdata_ = self.pdata
        tvs_ = self.tvs
        tvpc_ = self.tvpc
        fwdseq_ = self.fwdseq
        safe_ = self.safe
        gbp_ = self.gbp
        unsafe_ = self.unsafe
        invm_ = self.invm
        snap_ = self.snap
        cons_ = self.cons
        free_slots = self.free
        rob = self.rob
        lq = self.lq
        sq = self.sq
        sq_by_seq = self.sq_by_seq
        sqg = self.sq_granules
        lqg = self.lq_granules
        rename = self.rename
        ready = self.ready
        cring = self.completion_ring
        rring = self.retry_ring
        rmask = self.ring_mask
        ring_span = rmask + 1
        fetch_buf = self.fetch_buf
        replay_streak = self.replay_streak
        force_nonspec = self.force_nonspec

        tpc = t.pc
        tline = t.line
        tpool = t.fu_pool
        tlat = t.fu_lat
        tsrcs = t.srcs
        tnsrcs = t.nsrcs
        tdst = t.dst
        tdsrc = t.data_src
        taddr = t.addr
        tsize = t.size
        tisld = t.isld
        tisst = t.isst
        tisbr = t.isbr
        tfp = t.fp
        ttaken = t.taken
        ttarget = t.target
        trace_len = min(t.n, len(p.trace))

        heappush = heapq.heappush
        heappop = heapq.heappop

        scheme = self.scheme
        hooks = self.hooks
        storesets = self.storesets
        memory = self.memory
        mem_read = memory.read
        mem_write = memory.write
        mem_fetch = memory.fetch
        predictor = self.predictor
        pred_predict = predictor.predict
        pred_resolve = predictor.resolve
        btb_lookup = predictor.btb.lookup
        btb_install = predictor.btb.install
        regs_int = self.regs_int
        regs_fp = self.regs_fp
        fu_caps = self.fu_caps
        fu_avail = self.fu_avail
        wp_addrs = self.wrongpath._recent_addrs

        width = self.width
        decode_latency = self.decode_latency
        fetch_cap = self.fetch_cap
        iq_int_cap = self.iq_int_cap
        iq_fp_cap = self.iq_fp_cap
        rob_cap = self.rob_cap
        lq_cap = self.lq_cap
        sq_cap = self.sq_cap
        ports = self.ports
        reject_delay = self.reject_delay
        fwd_latency = self.fwd_latency
        l1i_latency = self.l1i_latency
        sq_filter = self.sq_filter
        reexec_loads = self.reexec_loads
        has_load_hook = hooks.has_load_issue
        has_store_hook = hooks.has_store_resolve
        commit_mode = hooks.commit_mode  # 0 none, 1 loads, 2 windowed, 3 all
        hook_load = hooks.on_load_issue
        hook_store = hooks.on_store_resolve
        hook_commit_load = hooks.on_commit_load
        hook_commit = hooks.on_commit
        # The observer (see the module docstring): one local gates every
        # event site.
        emit = self.emit
        # Lane recording (see the module docstring): one local gates
        # every site.
        log = self.events
        rec = log is not None
        # The invalidation injector draws from the RNG every cycle, so a
        # skipped cycle would change the random stream.  One local gates
        # all three injector sites: the skipper, the per-load address
        # tracking and the end-of-cycle draw.
        injector = self.invalidations
        inv_on = injector.enabled
        inv_observe = injector.observe
        inv_draw = injector.maybe_invalidate

        cycle = self.cycle
        committed = self.committed
        ff_cycles = 0

        # --- event counters as locals (kept in ``counts`` across a stop,
        # folded once, after the loop that commits the target) ----------
        (n_replays, n_replays_commit, n_replays_exec, n_replays_coh,
         n_commit, n_commit_loads, n_commit_safe, n_commit_stores,
         n_commit_branches, n_reexec, n_regw, n_regr, n_wakeups,
         n_mispredicts, n_misfetches, n_issue, n_issue_loads,
         n_issue_stores, n_fu, n_sq_search, n_sq_filtered, n_rejections,
         n_safe_at_issue, n_forwarded, n_dreads, n_ss_delays, n_stall_rob,
         n_stall_iq, n_stall_lq, n_stall_sq, n_stall_regs, n_lq_writes,
         n_sq_writes, n_rename, n_rob_writes, n_fetch_stall, n_fetch,
         n_icache_miss, n_icache_reads, n_bpred, n_inv,
         checking_cycles) = self.counts

        limit_plus_one = max_cycles + 1
        # The loop leaves at the first boundary of ``halt``: a stop before
        # the cycle limit, or the limit itself (which raises).
        stop_at = stop if stop is not None and stop < limit_plus_one else -1
        halt = limit_plus_one if stop_at < 0 else stop_at

        while committed < target:
            # ===== event-horizon fast forward: jump to the next cycle in
            # which any stage can act, accounting the idle bookkeeping
            # counters of the skipped cycles in closed form.
            if not inv_on and not ready:
                head_can_commit = rob and state_[rob[0]] == _ST_COMPLETED
                if not head_can_commit:
                    ff_target = halt
                    stall_code = _STALL_NONE
                    can_act = False
                    if fetch_buf:
                        first = fetch_buf[0]
                        decode_ready = fcyc_[first] + decode_latency
                        if cycle < decode_ready:
                            if decode_ready < ff_target:
                                ff_target = decode_ready
                        else:
                            # Read-only dispatch probe (stall cause or "can act").
                            ti = tidx_[first]
                            if len(rob) >= rob_cap:
                                stall_code = _STALL_ROB
                            elif (iq_fp_cap <= self.iq_fp) if tfp[ti] else (iq_int_cap <= self.iq_int):
                                stall_code = _STALL_IQ
                            elif tisld[ti] and len(lq) >= lq_cap:
                                stall_code = _STALL_LQ
                            elif tisst[ti] and len(sq) >= sq_cap:
                                stall_code = _STALL_SQ
                            elif tdst[ti] >= 0 and (
                                (regs_fp if tdst[ti] >= 32 else regs_int).free <= 0
                            ):
                                stall_code = _STALL_REGS
                            else:
                                can_act = True
                    if not can_act:
                        blocked = self.blocked_branch != -1
                        resume = self.resume_cycle
                        if (not blocked and len(fetch_buf) < fetch_cap
                                and self.fetch_idx < trace_len):
                            if cycle >= resume:
                                can_act = True
                            elif resume < ff_target:
                                ff_target = resume
                        if not can_act:
                            # Earliest scheduled completion/retry: scan the
                            # rings forward.  Nothing is ever scheduled past
                            # the ring horizon, and the scan stops at the
                            # first event, so the cost is O(cycles skipped).
                            # The scan starts AT the current cycle: events
                            # already due this cycle pin skipped to 0, they
                            # are drained by the stages below, never jumped.
                            scan = cycle
                            scan_end = cycle + ring_span
                            if ff_target < scan_end:
                                scan_end = ff_target
                            while scan < scan_end:
                                if cring[scan & rmask] or rring[scan & rmask]:
                                    ff_target = scan
                                    break
                                scan += 1
                            skipped = ff_target - cycle
                            if skipped >= 1:
                                if scheme.checking_active:
                                    checking_cycles += skipped
                                if blocked:
                                    n_fetch_stall += skipped
                                elif resume > cycle:
                                    n_fetch_stall += (
                                        resume if resume < ff_target else ff_target
                                    ) - cycle
                                if stall_code == _STALL_ROB:
                                    n_stall_rob += skipped
                                elif stall_code == _STALL_IQ:
                                    n_stall_iq += skipped
                                elif stall_code == _STALL_LQ:
                                    n_stall_lq += skipped
                                elif stall_code == _STALL_SQ:
                                    n_stall_sq += skipped
                                elif stall_code == _STALL_REGS:
                                    n_stall_regs += skipped
                                ff_cycles += skipped
                                cycle = ff_target
                                if cycle == stop_at:
                                    break

            squashed_this_cycle = False
            if scheme.checking_active:
                checking_cycles += 1

            # ===== commit + retire ========================================
            if rob and state_[rob[0]] == _ST_COMPLETED:
                first = committed
                slots_left = width
                while slots_left:
                    slots_left -= 1
                    if committed >= target:
                        break
                    if not rob:
                        break
                    head = rob[0]
                    if state_[head] != _ST_COMPLETED:
                        break
                    # Scheme commit decision, gated by mode so schemes with
                    # no commit behaviour pay nothing per instruction.
                    replay = False
                    if commit_mode == 2:
                        if scheme.checking_active or (isst_[head] and unsafe_[head]):
                            replay = hook_commit(head, cycle)
                    elif commit_mode == 1:
                        if isld_[head]:
                            replay = hook_commit_load(head)
                    elif commit_mode == 3:
                        replay = hook_commit(head, cycle)
                    if replay:
                        n_replays += 1
                        n_replays_commit += 1
                        if emit is not None:
                            emit.replay(seq_[head], tidx_[head], "commit",
                                        tvs_[head] >= 0, cycle)
                        if rec and committed != first:
                            # The cycle's retirements precede its squash.
                            log += (EV_COMMITS, cycle, committed - first)
                            first = committed
                        self.cycle = cycle
                        self._squash_from(head)
                        squashed_this_cycle = True
                        break
                    if isld_[head] and tvs_[head] >= 0:
                        raise OrderingViolationMissed(
                            f"load seq={seq_[head]} addr={addr_[head]:#x} retired "
                            f"despite a premature issue past store "
                            f"seq={tvs_[head]} under scheme {scheme.name}"
                        )
                    # ---- retire ----
                    ti = tidx_[head]
                    state_[head] = _ST_COMMITTED
                    if emit is not None:
                        emit.record("commit", seq_[head], ti, cycle)
                    rob.popleft()
                    dst = tdst[ti]
                    if dst >= 0:
                        regs = regs_fp if dst >= 32 else regs_int
                        regs.free += 1
                        if rename[dst] == seq_[head] << pbits | head:
                            rename[dst] = -1
                    if isld_[head]:
                        if not lq or lq[0] != head:
                            raise AssertionError("LQ retired out of order")
                        lq.popleft()
                        a = addr_[head]
                        g = a >> 3
                        gend = (a + size_[head] - 1) >> 3
                        while g <= gend:
                            n = lqg[g] - 1
                            if n:
                                lqg[g] = n
                            else:
                                del lqg[g]
                            g += 1
                        n_commit_loads += 1
                        if rec:
                            log += (EV_COMMIT, a)
                        if reexec_loads:
                            mem_read(addr_[head])
                            n_reexec += 1
                        if safe_[head]:
                            n_commit_safe += 1
                    elif isst_[head]:
                        if not sq or sq[0] != head:
                            raise AssertionError("SQ retired out of order")
                        sq.popleft()
                        del sq_by_seq[seq_[head]]
                        a = addr_[head]
                        g = a >> 3
                        gend = (a + size_[head] - 1) >> 3
                        while g <= gend:
                            n = sqg[g] - 1
                            if n:
                                sqg[g] = n
                            else:
                                del sqg[g]
                            g += 1
                        mem_write(addr_[head])
                        n_commit_stores += 1
                    elif isbr_[head]:
                        n_commit_branches += 1
                    committed += 1
                    n_commit += 1
                    if replay_streak:
                        replay_streak.pop(ti, None)
                    if force_nonspec:
                        force_nonspec.discard(ti)
                    free_slots.append(head)
                if rec and committed != first:
                    log += (EV_COMMITS, cycle, committed - first)

            # ===== writeback ===============================================
            events = cring[cycle & rmask]
            if events:
                for v in events:
                    slot = v & pmask
                    if seq_[slot] != v >> pbits:
                        continue  # squashed, slot since recycled
                    st = state_[slot]
                    if st == _ST_SQUASHED or st == _ST_COMPLETED:
                        continue
                    state_[slot] = _ST_COMPLETED
                    ti = tidx_[slot]
                    if emit is not None:
                        emit.record("complete", seq_[slot], ti, cycle)
                    if tdst[ti] >= 0:
                        n_regw += 1
                    cons = cons_[slot]
                    if cons:
                        # ---- wake consumers ----
                        for c in cons:
                            cslot = (c >> 1) & pmask
                            if (seq_[cslot] != c >> (pbits + 1)
                                    or state_[cslot] == _ST_SQUASHED):
                                continue  # consumer squashed (slot maybe reused)
                            n_wakeups += 1
                            if not (c & 1):  # operand
                                pops_[cslot] -= 1
                                if pops_[cslot] == 0 and state_[cslot] == _ST_DISPATCHED:
                                    state_[cslot] = _ST_READY
                                    heappush(ready, seq_[cslot] << pbits | cslot)
                            else:  # store data
                                pdata_[cslot] -= 1
                                if (pdata_[cslot] == 0 and isst_[cslot]
                                        and rcyc_[cslot] >= 0
                                        and state_[cslot] == _ST_ISSUED):
                                    cring[(cycle + 1) & rmask].append(
                                        seq_[cslot] << pbits | cslot)
                        cons.clear()
                    if isbr_[slot]:
                        # ---- resolve branch ----
                        mispredicted = pred_resolve(tpc[ti], ttaken[ti], snap_[slot])
                        if ttaken[ti]:
                            btb_install(tpc[ti], ttarget[ti])
                        if self.blocked_branch == v:
                            self.blocked_branch = -1
                            self.resume_cycle = cycle + self.branch_penalty
                            if mispredicted:
                                n_mispredicts += 1
                                if rec:
                                    log += (EV_RECOVERY, seq_[slot], cycle)
                                hooks.on_recovery(seq_[slot])
                            else:
                                n_misfetches += 1
                events.clear()

            # ===== issue ===================================================
            rev = rring[cycle & rmask]
            if ready or rev:
                if rev:
                    for v in rev:
                        slot = v & pmask
                        if seq_[slot] == v >> pbits and state_[slot] == _ST_READY:
                            heappush(ready, v)
                    rev.clear()
                if ready:
                    fu_avail[:] = fu_caps  # FunctionalUnits.new_cycle
                    ports_left = ports
                    issued = 0
                    # One small list per non-idle issue cycle; parks
                    # bandwidth-deferred entries until the cycle's picks
                    # are done.
                    deferred: List[int] = []  # repro: noqa[REPRO005]
                    while ready and issued < width:
                        v = heappop(ready)
                        slot = v & pmask
                        if seq_[slot] != v >> pbits or state_[slot] != _ST_READY:
                            continue
                        ti = tidx_[slot]
                        if isld_[slot]:
                            # ---- _try_issue_load, inlined ----
                            la = addr_[slot]
                            lseq = seq_[slot]
                            nonspec = bool(force_nonspec) and ti in force_nonspec
                            if (nonspec and self.sq_unresolved
                                    and self._older_store_unresolved(lseq)):
                                rring[(cycle + 1) & rmask].append(v)
                            elif storesets is not None and storesets.blocking_store(
                                    tpc[ti], lseq) is not None:
                                n_ss_delays += 1
                                rring[(cycle + 2) & rmask].append(v)
                            elif ports_left <= 0:
                                deferred.append(v)
                            elif fu_avail[0] <= 0:  # loads use the int-ALU pool
                                deferred.append(v)
                            else:
                                fu_avail[0] -= 1
                                l_end = la + size_[slot]
                                if sq_filter and (not sq or lseq < seq_[sq[0]]):
                                    n_sq_filtered += 1
                                    action = SOA_CACHE
                                    fwd_slot = -1
                                    all_resolved = True
                                else:
                                    n_sq_search += 1
                                    # Granule fast path: with every SQ
                                    # address known and none sharing a
                                    # granule with the load, the walk can
                                    # only answer (CACHE, -1, True).
                                    g = la >> 3
                                    gend = (l_end - 1) >> 3
                                    while g <= gend and g not in sqg:
                                        g += 1
                                    if g > gend and not self.sq_unresolved:
                                        action = SOA_CACHE
                                        fwd_slot = -1
                                        all_resolved = True
                                    else:
                                        action, fwd_slot, all_resolved = \
                                            sq_forward_search_soa(
                                                sq, seq_, addr_, size_,
                                                rcyc_, pdata_,
                                                lseq, la, l_end)
                                if action == SOA_REJECT:
                                    n_rejections += 1
                                    if emit is not None:
                                        emit.record("reject", lseq, ti, cycle)
                                    rring[(cycle + reject_delay) & rmask].append(v)
                                    issued += 1  # consumed bandwidth
                                else:
                                    state_[slot] = _ST_ISSUED
                                    icyc_[slot] = cycle
                                    if emit is not None:
                                        emit.record("issue", lseq, ti, cycle)
                                    g = la >> 3
                                    gend = (l_end - 1) >> 3
                                    while g <= gend:
                                        lqg[g] = lqg.get(g, 0) + 1
                                        g += 1
                                    # issue frees the IQ entry
                                    if fp_[slot]:
                                        self.iq_fp -= 1
                                    else:
                                        self.iq_int -= 1
                                    n_issue_loads += 1
                                    n_regr += tnsrcs[ti]
                                    safe_[slot] = all_resolved
                                    gbp_[slot] = nonspec and all_resolved
                                    if all_resolved:
                                        n_safe_at_issue += 1
                                    # WrongPath.observe_address (bounded deque)
                                    wp_addrs.append(la)
                                    if inv_on:
                                        inv_observe(la)
                                    if action == SOA_FORWARD:
                                        fwdseq_[slot] = seq_[fwd_slot]
                                        n_forwarded += 1
                                        latency = fwd_latency
                                    else:
                                        fwdseq_[slot] = -1
                                        ports_left -= 1
                                        n_dreads += 1
                                        latency = 1 + mem_read(la)
                                    cring[(cycle + latency) & rmask].append(v)
                                    if rec:
                                        log += ((EV_LOAD_GUARDED if nonspec
                                                 else EV_LOAD_SAFE)
                                                if all_resolved else EV_LOAD,
                                                la, lseq, cycle)
                                    if has_load_hook:
                                        victim = hook_load(slot)
                                        if victim >= 0 and state_[victim] != _ST_SQUASHED:
                                            n_replays += 1
                                            n_replays_coh += 1
                                            if emit is not None:
                                                emit.replay(seq_[victim], tidx_[victim], "coherence",
                                                            tvs_[victim] >= 0, cycle)
                                            self.cycle = cycle
                                            self._squash_from(victim)
                                            squashed_this_cycle = True
                                    issued += 1
                            if squashed_this_cycle:
                                break
                        elif isst_[slot]:
                            if fu_avail[0] <= 0:  # stores use the int-ALU pool
                                deferred.append(v)
                                continue
                            fu_avail[0] -= 1
                            # ---- _issue_store, inlined ----
                            state_[slot] = _ST_ISSUED
                            icyc_[slot] = cycle
                            rcyc_[slot] = cycle
                            if emit is not None:
                                emit.record("issue", seq_[slot], ti, cycle)
                                self.cycle = cycle  # scheme events read k.cycle
                            self.sq_unresolved -= 1
                            if fp_[slot]:  # issue frees the IQ entry
                                self.iq_fp -= 1
                            else:
                                self.iq_int -= 1
                            n_issue_stores += 1
                            n_regr += tnsrcs[ti]
                            sseq = seq_[slot]
                            if storesets is not None:
                                storesets.store_resolved(tpc[ti], sseq)
                            sa = addr_[slot]
                            s_end = sa + size_[slot]
                            g = sa >> 3
                            gend = (s_end - 1) >> 3
                            while g <= gend:
                                sqg[g] = sqg.get(g, 0) + 1
                                g += 1
                            # ---- ground-truth premature-load check ----
                            # Gated by the issued-load granule map: a miss
                            # proves no issued in-flight load overlaps, so
                            # the LQ walk would mark nothing.
                            g = sa >> 3
                            while g <= gend and g not in lqg:
                                g += 1
                            if g <= gend:
                                for lslot in lq:
                                    if seq_[lslot] > sseq and icyc_[lslot] >= 0:
                                        la2 = addr_[lslot]
                                        l_end2 = la2 + size_[lslot]
                                        if (sa < l_end2 and la2 < s_end
                                                and state_[lslot] != _ST_COMMITTED
                                                and tvs_[lslot] < 0):
                                            fs = fwdseq_[lslot]
                                            if fs > sseq:
                                                fwd = sq_by_seq.get(fs)
                                                if (fwd is not None
                                                        and addr_[fwd] <= la2
                                                        and l_end2 <= addr_[fwd] + size_[fwd]):
                                                    continue
                                            tvs_[lslot] = sseq
                                            tvpc_[lslot] = tpc[ti]
                                            self.n_gt_violations += 1
                                            if rec:
                                                log += (EV_MARK, seq_[lslot], sseq)
                            if pdata_[slot] == 0:
                                cring[(cycle + 1) & rmask].append(v)
                            if has_store_hook:
                                victim = hook_store(slot)
                                if victim >= 0 and state_[victim] != _ST_SQUASHED:
                                    if rec:
                                        log += (EV_STORE_VICTIM, sa, sseq,
                                                seq_[rob[-1]], cycle)
                                    n_replays += 1
                                    n_replays_exec += 1
                                    if emit is not None:
                                        emit.replay(seq_[victim], tidx_[victim], "execution",
                                                    tvs_[victim] >= 0, cycle)
                                    self.cycle = cycle
                                    self._squash_from(victim)
                                    squashed_this_cycle = True
                                elif rec:
                                    log += (EV_STORE, sa, sseq, seq_[rob[-1]],
                                            cycle)
                            issued += 1
                            if squashed_this_cycle:
                                break
                        else:
                            pool = tpool[ti]
                            if fu_avail[pool] <= 0:
                                deferred.append(v)
                                continue
                            fu_avail[pool] -= 1
                            # ---- _issue_alu, inlined ----
                            state_[slot] = _ST_ISSUED
                            icyc_[slot] = cycle
                            if emit is not None:
                                emit.record("issue", seq_[slot], ti, cycle)
                            if fp_[slot]:  # issue frees the IQ entry
                                self.iq_fp -= 1
                            else:
                                self.iq_int -= 1
                            n_issue += 1
                            n_regr += tnsrcs[ti]
                            n_fu += 1
                            cring[(cycle + tlat[ti]) & rmask].append(v)
                            issued += 1
                    for v in deferred:
                        heappush(ready, v)

            # ===== dispatch (rename + allocate) ============================
            if fetch_buf and cycle >= fcyc_[fetch_buf[0]] + decode_latency:
                dispatched = 0
                while fetch_buf and dispatched < width:
                    slot = fetch_buf[0]
                    if cycle < fcyc_[slot] + decode_latency:
                        break
                    ti = tidx_[slot]
                    if len(rob) >= rob_cap:
                        n_stall_rob += 1
                        break
                    if tfp[ti]:
                        if self.iq_fp >= iq_fp_cap:
                            n_stall_iq += 1
                            break
                    elif self.iq_int >= iq_int_cap:
                        n_stall_iq += 1
                        break
                    is_load = tisld[ti]
                    is_store = tisst[ti]
                    if is_load and len(lq) >= lq_cap:
                        n_stall_lq += 1
                        break
                    if is_store and len(sq) >= sq_cap:
                        n_stall_sq += 1
                        break
                    dst = tdst[ti]
                    if dst >= 0:
                        regs = regs_fp if dst >= 32 else regs_int
                        if regs.free <= 0:  # PhysRegFile.try_allocate
                            n_stall_regs += 1
                            break
                        regs.free -= 1
                        regs.allocations += 1
                    fetch_buf.popleft()
                    sseq = seq_[slot]
                    if emit is not None:
                        emit.record("dispatch", sseq, ti, cycle)
                    rob.append(slot)
                    enc = sseq << pbits | slot
                    if tfp[ti]:
                        self.iq_fp += 1
                    else:
                        self.iq_int += 1
                    if is_load:
                        lq.append(slot)
                        invm_[slot] = False
                        n_lq_writes += 1
                    elif is_store:
                        sq.append(slot)
                        sq_by_seq[sseq] = slot
                        self.sq_unresolved += 1
                        n_sq_writes += 1
                        if storesets is not None:
                            storesets.store_dispatched(tpc[ti], sseq)
                    # ---- dependence wiring ----
                    pending = 0
                    for reg in tsrcs[ti]:
                        pe = rename[reg]
                        if pe >= 0:
                            pslot = pe & pmask
                            if seq_[pslot] == pe >> pbits and state_[pslot] < _ST_COMPLETED:
                                cons_[pslot].append(enc << 1)
                                pending += 1
                    pops_[slot] = pending
                    dsrc = tdsrc[ti]
                    if dsrc >= 0:
                        pe = rename[dsrc]
                        if pe >= 0:
                            pslot = pe & pmask
                            if seq_[pslot] == pe >> pbits and state_[pslot] < _ST_COMPLETED:
                                cons_[pslot].append(enc << 1 | 1)
                                pdata_[slot] = 1
                    if dst >= 0:
                        rename[dst] = enc
                    if pending == 0:
                        state_[slot] = _ST_READY
                        heappush(ready, enc)
                    dispatched += 1
                if dispatched:
                    n_rename += dispatched
                    n_rob_writes += dispatched

            # ===== fetch ===================================================
            if self.blocked_branch != -1 or cycle < self.resume_cycle:
                n_fetch_stall += 1
            elif len(fetch_buf) < fetch_cap and self.fetch_idx < trace_len:
                fetch_idx = self.fetch_idx
                nseq = self.next_seq
                last_line = self.last_line
                fetched = 0
                while (fetched < width and len(fetch_buf) < fetch_cap
                        and fetch_idx < trace_len):
                    ti = fetch_idx
                    line = tline[ti]
                    if line != last_line:
                        n_icache_reads += 1
                        lat = mem_fetch(tpc[ti])
                        last_line = line
                        if lat > l1i_latency:
                            self.resume_cycle = cycle + lat
                            n_icache_miss += 1
                            break
                    # ---- allocate + initialise a slot
                    slot = free_slots.pop()
                    seq_[slot] = nseq
                    tidx_[slot] = ti
                    state_[slot] = _ST_DISPATCHED
                    fcyc_[slot] = cycle
                    icyc_[slot] = -1
                    rcyc_[slot] = -1
                    addr_[slot] = taddr[ti]
                    size_[slot] = tsize[ti]
                    isld_[slot] = tisld[ti]
                    isst_[slot] = tisst[ti]
                    isbr_[slot] = tisbr[ti]
                    fp_[slot] = tfp[ti]
                    pdata_[slot] = 0
                    tvs_[slot] = -1
                    tvpc_[slot] = -1
                    unsafe_[slot] = False
                    c = cons_[slot]
                    if c:
                        c.clear()
                    if emit is not None:
                        emit.record("fetch", nseq, ti, cycle)
                    fetch_buf.append(slot)
                    nseq += 1
                    fetch_idx += 1
                    fetched += 1
                    if tisbr[ti]:
                        predicted_taken, snapshot = pred_predict(tpc[ti])
                        snap_[slot] = snapshot
                        n_bpred += 1
                        if predicted_taken != ttaken[ti]:
                            # Mispredict: fetch stalls until resolution;
                            # wrong-path loads corrupt the filters now.
                            self.blocked_branch = seq_[slot] << pbits | slot
                            if rec:
                                # The mark, not the draws: a lane draws
                                # its own (the log stays seed-free).
                                log += (EV_MISPREDICT, seq_[slot], cycle)
                            for age, wa in self.wrongpath.loads_for_mispredict(
                                    seq_[slot]):
                                hooks.on_wrongpath_load(age, wa)
                            break
                        if predicted_taken and btb_lookup(tpc[ti]) is None:
                            n_misfetches += 1
                            self.resume_cycle = cycle + 2
                            break
                        if ttaken[ti]:
                            break  # taken branch ends the fetch group
                self.fetch_idx = fetch_idx
                self.next_seq = nseq
                self.last_line = last_line
                if fetched:
                    n_fetch += fetched

            # ===== coherence traffic injection ============================
            if inv_on:
                line = inv_draw()
                if line is not None:
                    n_inv += 1
                    memory.invalidate(line)
                    oldest = seq_[rob[0]] if rob else self.next_seq
                    hooks.on_invalidation(line, self.line_bytes, cycle, oldest)

            cycle += 1
            if cycle >= halt:
                if cycle > max_cycles:
                    self._sync(cycle, committed, ff_cycles)
                    raise SimulationError(
                        f"no forward progress: {committed}/{target} committed "
                        f"after {cycle} cycles on {p.trace.name}"
                    )
                break

        # ===== write state back; fold counters once the target commits ===
        self._sync(cycle, committed, ff_cycles)
        self.counts = [
            n_replays, n_replays_commit, n_replays_exec, n_replays_coh,
            n_commit, n_commit_loads, n_commit_safe, n_commit_stores,
            n_commit_branches, n_reexec, n_regw, n_regr, n_wakeups,
            n_mispredicts, n_misfetches, n_issue, n_issue_loads,
            n_issue_stores, n_fu, n_sq_search, n_sq_filtered, n_rejections,
            n_safe_at_issue, n_forwarded, n_dreads, n_ss_delays, n_stall_rob,
            n_stall_iq, n_stall_lq, n_stall_sq, n_stall_regs, n_lq_writes,
            n_sq_writes, n_rename, n_rob_writes, n_fetch_stall, n_fetch,
            n_icache_miss, n_icache_reads, n_bpred, n_inv,
            checking_cycles]
        if committed < target:
            return
        counters = p.counters
        counters["checking.cycles_observed"] = checking_cycles
        counters["sq.searches_assoc"] = n_sq_search
        counters["sq.searches_filtered_age"] = n_sq_filtered
        # An event counter is booked only once its event happened.
        for name, value in (
                ("replays", n_replays),
                ("replays.commit_time", n_replays_commit),
                ("replays.execution_time", n_replays_exec),
                ("replays.coherence", n_replays_coh),
                ("inv.injected", n_inv),
                ("commit.instructions", n_commit),
                ("commit.loads", n_commit_loads),
                ("commit.safe_loads", n_commit_safe),
                ("commit.stores", n_commit_stores),
                ("commit.branches", n_commit_branches),
                ("dcache.reexecutions", n_reexec),
                ("regfile.writes", n_regw),
                ("regfile.reads", n_regr),
                ("iq.wakeups", n_wakeups),
                ("branch.mispredicts", n_mispredicts),
                ("branch.misfetches", n_misfetches),
                ("issue.instructions", n_issue),
                ("issue.loads", n_issue_loads),
                ("issue.stores", n_issue_stores),
                ("fu.ops", n_fu),
                ("sq.searches", n_sq_search),
                ("load.rejections", n_rejections),
                ("load.safe_at_issue", n_safe_at_issue),
                ("load.forwarded", n_forwarded),
                ("dcache.reads", n_dreads),
                ("groundtruth.violations", self.n_gt_violations),
                ("storesets.load_delays", n_ss_delays),
                ("stall.rob_full", n_stall_rob),
                ("stall.iq_full", n_stall_iq),
                ("stall.lq_full", n_stall_lq),
                ("stall.sq_full", n_stall_sq),
                ("stall.regs_full", n_stall_regs),
                ("lq.writes", n_lq_writes),
                ("sq.writes", n_sq_writes),
                ("rename.ops", n_rename),
                ("rob.writes", n_rob_writes),
                ("fetch.stall_cycles", n_fetch_stall),
                ("fetch.instructions", n_fetch),
                ("fetch.icache_miss", n_icache_miss),
                ("icache.reads", n_icache_reads),
                ("bpred.lookups", n_bpred),
                ("squash.instructions", self.n_squash),
                ("replay.guard_trips", self.n_guard_trips)):
            if value:
                counters[name] = value

    def _sync(self, cycle: int, committed: int, ff_cycles: int) -> None:
        """Write the loop's scalar cursors back onto the kernel and the
        processor."""
        p = self.p
        p.cycle = cycle
        p.committed = committed
        p.fast_forwarded_cycles += ff_cycles
        self.cycle = cycle
        self.committed = committed

    # ------------------------------------------------------------------
    # Squash / replay (cold path)
    # ------------------------------------------------------------------
    def _squash_from(self, slot: int) -> None:
        """Squash ``slot`` and everything younger; refetch from its trace
        index."""
        seq_ = self.seq
        state_ = self.state
        tidx_ = self.tidx
        tdst = self.t.dst
        boundary = seq_[slot]
        cycle = self.cycle
        if self.storesets is not None:
            if self.isld[slot] and self.tvpc[slot] >= 0:
                self.storesets.record_violation(
                    self.t.pc[tidx_[slot]], self.tvpc[slot])
            self.storesets.squash(boundary - 1)
        self.fetch_idx = tidx_[slot]
        self.last_line = -1
        free_slots = self.free
        for b in self.fetch_buf:
            state_[b] = _ST_SQUASHED
            free_slots.append(b)
        self.fetch_buf.clear()
        # Cut each age-ordered queue by popping its tail back to the first
        # survivor (the deques are seq-ascending by construction, and a
        # squash only ever removes a suffix).
        rob = self.rob
        # One small list per squash (a mispredict-rate event, not
        # per-cycle), collected youngest-first and reversed.
        victims = []  # repro: noqa[REPRO005]
        while rob and seq_[rob[-1]] >= boundary:
            victims.append(rob.pop())
        victims.reverse()  # hooks and observers see them oldest-first
        log = self.events
        if log is not None:
            # One record: the kept boundary, the cycle, the first seq
            # the refetch will use, then the squashed issued loads'
            # addresses behind a count patched in after the pass.
            log += (EV_SQUASH, boundary - 1, cycle, self.next_seq, 0)
            count_at = len(log) - 1
        regs_int = self.regs_int
        regs_fp = self.regs_fp
        isld_ = self.isld
        icyc_ = self.icyc
        addr_ = self.addr
        emit = self.emit
        for victim in victims:
            state_[victim] = _ST_SQUASHED
            if emit is not None:
                emit.record("squash", seq_[victim], tidx_[victim], cycle)
            self._free_iq_if_held(victim)
            dst = tdst[tidx_[victim]]
            if dst >= 0:
                (regs_fp if dst >= 32 else regs_int).release()
            if log is not None and isld_[victim] and icyc_[victim] >= 0:
                log.append(addr_[victim])
            self.n_squash += 1
            free_slots.append(victim)
        if log is not None:
            log[count_at] = len(log) - count_at - 1
        size_ = self.size
        lqg = self.lq_granules
        lq = self.lq
        while lq and seq_[lq[-1]] >= boundary:
            vslot = lq.pop()
            if icyc_[vslot] >= 0:
                a = addr_[vslot]
                g = a >> 3
                gend = (a + size_[vslot] - 1) >> 3
                while g <= gend:
                    n = lqg[g] - 1
                    if n:
                        lqg[g] = n
                    else:
                        del lqg[g]
                    g += 1
        rcyc_ = self.rcyc
        sqg = self.sq_granules
        sq = self.sq
        sq_by_seq = self.sq_by_seq
        while sq and seq_[sq[-1]] >= boundary:
            vslot = sq.pop()
            del sq_by_seq[seq_[vslot]]
            if rcyc_[vslot] >= 0:
                a = addr_[vslot]
                g = a >> 3
                gend = (a + size_[vslot] - 1) >> 3
                while g <= gend:
                    n = sqg[g] - 1
                    if n:
                        sqg[g] = n
                    else:
                        del sqg[g]
                    g += 1
            else:
                self.sq_unresolved -= 1
        rename = self.rename
        rename[:] = self._rename_clear
        pbits = self.pbits
        for survivor in rob:
            dst = tdst[tidx_[survivor]]
            if dst >= 0:
                rename[dst] = seq_[survivor] << pbits | survivor
        self.hooks.on_squash(boundary - 1, victims)
        blocked = self.blocked_branch
        if blocked != -1:
            bslot = blocked & self.pmask
            if seq_[bslot] != blocked >> pbits or state_[bslot] == _ST_SQUASHED:
                self.blocked_branch = -1
        self.resume_cycle = cycle + self.replay_penalty
        ti = tidx_[slot]
        streak = self.replay_streak.get(ti, 0) + 1
        self.replay_streak[ti] = streak
        if streak >= self.replay_guard:
            self.force_nonspec.add(ti)
            self.n_guard_trips += 1

    def _older_store_unresolved(self, seq: int) -> bool:
        """Whether a store older than ``seq`` has no address yet: a load
        the replay guard made non-speculative waits for none but those
        (a younger store may depend on the load itself)."""
        seq_ = self.seq
        rcyc_ = self.rcyc
        for slot in self.sq:
            if seq_[slot] >= seq:
                return False
            if rcyc_[slot] < 0:
                return True
        return False

    def _free_iq_if_held(self, slot: int) -> None:
        """Release a squash victim's IQ entry: issue released it already,
        so only un-issued victims still hold one."""
        if self.icyc[slot] < 0:
            if self.fp[slot]:
                self.iq_fp -= 1
            else:
                self.iq_int -= 1


# ----------------------------------------------------------------------
# Snapshots: copy a stopped machine
# ----------------------------------------------------------------------
#: Kernel int sequences a snapshot copies as flat ``array('q')``s (8
#: bytes an entry, no int objects): the int slot columns, the free list,
#: the age-ordered queues, the ready heap (its list order is the heap)
#: and the rename table.
_INTS = ("seq", "tidx", "state", "fcyc", "icyc", "rcyc", "addr", "size",
         "pops", "pdata", "tvs", "tvpc", "fwdseq", "wend",
         "free", "rob", "lq", "sq", "fetch_buf", "ready", "rename")
#: Flag slot columns, copied as ``bytes`` and restored as bools.
_FLAGS = ("isld", "isst", "isbr", "fp", "safe", "gbp", "unsafe", "invm")
#: Kernel maps a snapshot copies.
_MAPS = ("sq_by_seq", "sq_granules", "lq_granules", "replay_streak")
#: Kernel scalars a snapshot copies.
_SCALARS = ("cycle", "next_seq", "fetch_idx", "resume_cycle", "blocked_branch",
            "last_line", "committed", "iq_int", "iq_fp", "sq_unresolved",
            "n_squash", "n_guard_trips", "n_gt_violations")


class Snapshot:
    """A copy of a stopped machine: everything a :class:`SoaKernel` and
    its processor's components hold at a cycle boundary, without the
    scheme side.

    The kernel side is the slot columns, consumer lists, free list,
    deques, ready heap, event rings, rename table, SQ maps, granule
    filters, replay-guard state, scalar cursors and counter locals; the
    processor side is the caches' tag stores and counters, the
    predictor's tables, history, BTB and counters, the register files
    and the functional units, and a live invalidation injector, which
    draws every cycle and so changes timing.  The scheme, its adapter's
    columns (``unsafe``, ``wend``), the wrong-path model and the
    store-set predictor stay with whichever processor the snapshot is
    restored into: a diverging verdict lane restores its host's machine
    and brings its own (see :meth:`repro.sim.processor.Processor._fork`).
    Taking a snapshot and restoring it both copy, so one snapshot serves
    any number of restores, and nothing is shared with the kernel it
    came from.
    """

    __slots__ = ("cycle", "committed", "cells", "_geometry", "_ints", "_flags",
                 "_snap", "_maps", "_scalars", "_force", "_counts", "_cons",
                 "_rings", "_predictor", "_caches", "_regs", "_fus", "_ff",
                 "_injector")

    def __init__(self, kernel: SoaKernel) -> None:
        p = kernel.p
        self.cycle = kernel.cycle
        self.committed = kernel.committed
        self._geometry = (len(kernel.seq), kernel.ring_mask, len(kernel.rename))
        self._ints = tuple(array("q", getattr(kernel, name)) for name in _INTS)
        self._flags = tuple(bytes(getattr(kernel, name)) for name in _FLAGS)
        self._snap = tuple(kernel.snap)
        self._maps = tuple(dict(getattr(kernel, name)) for name in _MAPS)
        self._scalars = tuple(getattr(kernel, name) for name in _SCALARS)
        self._force = frozenset(kernel.force_nonspec)
        self._counts = tuple(kernel.counts)
        self._cons = tuple((slot, tuple(c)) for slot, c in enumerate(kernel.cons) if c)
        self._rings = tuple(
            tuple((index, tuple(due)) for index, due in enumerate(ring) if due)
            for ring in (kernel.completion_ring, kernel.retry_ring))
        predictor = p.predictor
        self._predictor = (predictor.copy_tables(), predictor.lookups,
                           predictor.mispredictions, predictor.btb.hits,
                           predictor.btb.misses)
        self._caches = tuple(
            (cache.copy_lines(), cache.hits, cache.misses, cache.evictions,
             cache.invalidations)
            for cache in (p.memory.l1i, p.memory.l1d, p.memory.l2))
        self._regs = (p.regs_int.free, p.regs_int.allocations,
                      p.regs_fp.free, p.regs_fp.allocations)
        self._fus = tuple(kernel.fu_avail)
        self._ff = p.fast_forwarded_cycles
        injector = p.invalidations
        self._injector = None if not injector.enabled else (
            injector.rng._rng.getstate(), tuple(injector._recent_lines),
            injector._span_lo, injector._span_hi, injector.injected)
        #: Machine words held, roughly: what the setup memo charges.
        self.cells = (sum(len(values) for values in self._ints)
                      + sum(len(values) for values in self._flags) // 8
                      + len(self._snap)
                      + 2 * sum(len(m) for m in self._maps)
                      + sum(len(c) + 1 for _, c in self._cons)
                      + sum(len(due) + 1 for ring in self._rings for _, due in ring)
                      + sum(len(lines) for lines, *_ in self._caches)
                      + sum(len(table) for table in self._predictor[0][:3]) // 8
                      + 3 * sum(len(ways) for ways in self._predictor[0][4].values()))

    def restore(self, kernel: SoaKernel) -> None:
        """Overwrite ``kernel``, built for the same machine and not yet
        run, and its processor's components with a copy of this
        machine."""
        if (len(kernel.seq), kernel.ring_mask, len(kernel.rename)) != self._geometry:
            raise SimulationError(
                f"snapshot of cycle {self.cycle} does not fit the kernel on "
                f"{kernel.p.trace.name}: another machine or trace")
        for name, values in zip(_INTS, self._ints):
            target = getattr(kernel, name)
            target.clear()
            target.extend(values)
        for name, values in zip(_FLAGS, self._flags):
            target = getattr(kernel, name)
            target.clear()
            target.extend(map(bool, values))
        kernel.snap[:] = self._snap
        for name, values in zip(_MAPS, self._maps):
            target = getattr(kernel, name)
            target.clear()
            target.update(values)
        for name, value in zip(_SCALARS, self._scalars):
            setattr(kernel, name, value)
        kernel.force_nonspec.clear()
        kernel.force_nonspec.update(self._force)
        kernel.counts = list(self._counts)
        for c in kernel.cons:
            c.clear()
        for slot, c in self._cons:
            kernel.cons[slot].extend(c)
        for ring, due in zip((kernel.completion_ring, kernel.retry_ring), self._rings):
            for entry in ring:
                entry.clear()
            for index, items in due:
                ring[index].extend(items)
        p = kernel.p
        tables, lookups, mispredictions, btb_hits, btb_misses = self._predictor
        predictor = p.predictor
        predictor.load_tables(tables)
        predictor.lookups = lookups
        predictor.mispredictions = mispredictions
        predictor.btb.hits = btb_hits
        predictor.btb.misses = btb_misses
        for cache, (lines, hits, misses, evictions, invalidations) in zip(
                (p.memory.l1i, p.memory.l1d, p.memory.l2), self._caches):
            cache.load_lines(lines)
            cache.hits = hits
            cache.misses = misses
            cache.evictions = evictions
            cache.invalidations = invalidations
        (p.regs_int.free, p.regs_int.allocations,
         p.regs_fp.free, p.regs_fp.allocations) = self._regs
        kernel.fu_avail[:] = self._fus
        p.cycle = self.cycle
        p.committed = self.committed
        p.fast_forwarded_cycles = self._ff
        if self._injector is not None:
            injector = p.invalidations
            (state, lines, injector._span_lo, injector._span_hi,
             injector.injected) = self._injector
            injector.rng._rng.setstate(state)
            injector._recent_lines[:] = lines


# ----------------------------------------------------------------------
# Verdict lanes: the seq-indexed view a walk drives DMDC or Garg over
# ----------------------------------------------------------------------
class _Marks:
    """A verdict lane's ``tvs`` column: each load's ground-truth mark,
    derived from the replayed records when an adapter reads it (DMDC at
    a replayed load, Garg at a flushed entry; both read only its sign),
    and checked against the marks the log carries (``logged``, load seq
    to store seq, for live loads): a disagreement sets ``disagree``, and
    the replay then rejects the log.

    The kernel marks an issued, uncommitted load at the resolve of an
    older store that overlaps it, unless the load forwarded from a store
    younger than that one; the store a load forwards from is the
    youngest older one overlapping it that had resolved when it issued.
    So, walking down from the load to the ROB head at its issue, the
    load is marked iff the first overlapping store met that has resolved
    did so after the load issued.  Squashed seqs read as no store.
    Without tracking (a replay that stops at its first verdict, so no
    load is ever marked) every load reads -1.
    """

    __slots__ = ("addr", "size", "isld", "isst", "ipos", "ihead", "rpos",
                 "logged", "disagree")

    def __init__(self, view: "LaneView") -> None:
        # The view's columns, not the view: no reference cycle, so a
        # view goes as soon as its replay does.  A squash updates them
        # in place.
        self.addr = view.addr
        self.size = view.size
        self.isld = view.isld
        self.isst = view.isst
        self.ipos = view.ipos
        self.ihead = view.ihead
        self.rpos = view.rpos
        self.logged: Dict[int, int] = {}
        self.disagree = False

    def __getitem__(self, seq: int) -> int:
        mark = self._derive(seq)
        if (mark >= 0) != (self.logged.get(seq, -1) >= 0):
            self.disagree = True
        return mark

    def _derive(self, seq: int) -> int:
        ipos = self.ipos
        if ipos is None or not self.isld[seq] or ipos[seq] < 0:
            return -1
        issued = ipos[seq]
        addr = self.addr
        size = self.size
        isst = self.isst
        rpos = self.rpos
        start = addr[seq]
        end = start + size[seq]
        older = seq - 1
        floor = self.ihead[seq]
        while older >= floor:
            if (isst[older] and rpos[older] >= 0 and addr[older] < end
                    and start < addr[older] + size[older]):
                return older if rpos[older] > issued else -1
            older -= 1
        return -1


def lane_column(n: int, fresh: int) -> array:
    """A seq-indexed int column of a lane view: a flat array, which the
    cycle collector never traverses (flag columns are bytearrays)."""
    return array("q", (fresh,)) * n


class LaneView:
    """Seq-indexed stand-in for a :class:`SoaKernel`, for verdict lanes.

    An adapter's slot is the seq itself.  Until a squash every fetched
    op commits, so seq equals trace index: ``addr``, ``size``, ``isld``
    and ``isst`` are the trace's columns and ``seq`` is the identity.
    ``safe``, ``gbp``, ``icyc`` and ``rcyc`` are filled from the log's
    load and store records (DMDC's replay taxonomy reads a marked
    store's resolve cycle), and ``unsafe``/``wend`` are the adapter's to
    write.  ``rob`` holds, at the store being replayed, the first live
    seq younger than it if the recorded ROB tail reaches that far, else
    the store's own seq: Garg flushes from that entry.

    A tail walk's view (``tail=True``, resumed from a checkpoint into a
    forked run's tail) owns copies of the trace columns, because the
    tail may squash (:meth:`squash`): the refetch gives fresh seqs,
    which map to the trace from the victim's trace index on, and the
    squashed seqs stop reading as stores.  ``gaps`` holds the squashed
    seq ranges the commit head has not passed yet, in order.  Such a
    view also tracks, per seq, the record position where each load
    issued (``ipos``) and the commit head then (``ihead``), and where
    each store resolved (``rpos``), from which ``tvs`` derives the
    ground-truth marks (:class:`_Marks`); a view without them (a host
    walk's) reads every mark as -1.

    The columns the view fills are flat (flags as ``bytearray``, ints as
    :func:`lane_column`): a walk and its checkpoints hold several at a
    time, and list columns of ints would make every young-generation
    collection walk them.  ``columns`` names columns the view adopts
    instead of fresh ones: the host-derived columns (``safe``, ``gbp``,
    ``icyc``, ``rcyc``, ``rob``) that a walk's verdict lanes share
    (:mod:`repro.sim.walk`), or a checkpoint's copies, tracking and the
    lane's own columns included, for a tail view that resumes there.
    """

    __slots__ = ("n", "seq", "addr", "size", "isld", "isst", "safe", "gbp",
                 "unsafe", "wend", "rcyc", "icyc", "tvs", "rob",
                 "ipos", "ihead", "rpos", "gaps", "_trace", "_refetches")
    emit = None  # lanes are unobserved

    def __init__(self, trace, tail: bool = False,
                 columns: Optional[Dict[str, Sequence[int]]] = None) -> None:
        t = trace_soa(trace)
        self._trace = t
        self.n = n = t.n
        self.seq = range(n)
        self.addr = list(t.addr) if tail else t.addr
        self.size = list(t.size) if tail else t.size
        self.isld = list(t.isld) if tail else t.isld
        self.isst = list(t.isst) if tail else t.isst
        given = columns or {}
        self.safe = given.get("safe") or bytearray(n)
        self.gbp = given.get("gbp") or bytearray(n)
        self.unsafe = given.get("unsafe") or bytearray(n)
        self.wend = given.get("wend") or lane_column(n, -1)
        self.rcyc = given.get("rcyc") or lane_column(n, -1)
        self.icyc = given.get("icyc") or lane_column(n, -1)
        self.ipos: Optional[array] = given.get("ipos")
        self.ihead: Optional[array] = given.get("ihead")
        self.rpos: Optional[array] = given.get("rpos")
        self.tvs = _Marks(self)
        self.rob = given.get("rob") or [-1]
        self.gaps: List[tuple] = []
        #: (first seq, its trace index) of every run of fetched seqs.
        self._refetches = [(0, 0)]

    def squash(self, boundary: int, refetch: int, head: int) -> bool:
        """Squash seq ``boundary`` and everything younger, refetching
        from its trace index under seqs from ``refetch`` on; False (and
        nothing changed) when that cannot be a squash of this replay:
        ``boundary`` is retired or already squashed, or ``refetch`` is
        not past it within the mapped seqs."""
        gaps = self.gaps
        if not head <= boundary < refetch <= len(self.addr) or any(
                start <= boundary < end for start, end in gaps):
            return False
        for first, index in reversed(self._refetches):
            if boundary >= first:
                break
        start = index + boundary - first
        t = self._trace
        # Only stores are looked up by seq range (the marks' walk).
        self.isst[boundary:refetch] = [False] * (refetch - boundary)
        for mine, trace_column in ((self.addr, t.addr), (self.size, t.size),
                                   (self.isld, t.isld), (self.isst, t.isst)):
            mine[refetch:] = trace_column[start:]
        n = refetch + t.n - start
        for column, fresh in ((self.safe, False), (self.gbp, False),
                              (self.unsafe, False), (self.wend, -1),
                              (self.rcyc, -1), (self.icyc, -1),
                              (self.ipos, -1), (self.ihead, 0), (self.rpos, -1)):
            if len(column) < n:
                column.extend([fresh] * (n - len(column)))
        self.n = n
        self.seq = range(n)
        self._refetches.append((refetch, start))
        while gaps and gaps[-1][0] >= boundary:
            gaps.pop()
        gaps.append((boundary, refetch))
        logged = self.tvs.logged
        for load in [load for load in logged if load >= boundary]:
            del logged[load]
        return True
