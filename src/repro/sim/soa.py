"""Structure-of-arrays cycle kernel (the batched fast path).

The object-path pipeline in :mod:`repro.sim.processor` spends most of its
time in CPython dispatch: ~50 function calls and attribute chains per
committed instruction.  This module re-expresses the *same* cycle-level
semantics over preallocated parallel arrays:

* every in-flight instruction occupies a **slot** in a fixed pool; all
  per-instruction state (`seq`, `state`, `addr`, timestamps, dependence
  counts) lives in parallel lists indexed by slot;
* the ROB/LQ/SQ are deques of slot numbers in age order, so retire pops
  the head and a squash pops the tail in O(victims), no object walks;
* cycle-indexed ring buffers (completions, retries) carry **encoded
  identity ints** ``(seq << PBITS) | slot`` — scheduling an event is one
  list append, draining a cycle is one indexed read, and a stale event for
  a squashed-and-reused slot is detected by one integer compare instead of
  an object state read;
* the per-stage methods of the object path are fused into one loop in
  :meth:`SoaKernel.run`, and scheme callbacks receive slot indices (see the
  ``soa_hooks`` adapters in :mod:`repro.core.schemes`).

Every unobserved run takes this kernel, coherent configurations and
injected invalidations included.  It is the only loop that skips idle
cycles: an event-horizon skipper jumps to the next cycle in which any
stage can act, and stays off while the invalidation injector is live
(the injector draws from the RNG every cycle).

**Lane recording.**  YLA and Bloom filtering changes energy, never
timing, so the kernel implements neither: a filtered point runs the plain
conventional search, and a run built with ``record=True`` logs the events
a lane reads into :attr:`SoaKernel.events`, a flat int list of records
(opcodes in :mod:`repro.core.schemes.base`):

* load issue: address and seq, the opcode saying whether every older
  store's address was known (the load is safe at issue);
* store resolve: address, seq and the ROB tail seq, the opcode saying
  whether the search found a live victim;
* wrong-path load: age and address;
* branch recovery: seq;
* squash: last kept seq, then the addresses of the squashed issued loads;
* load commit: address;
* commit stage: the cycle and how many instructions it retired.

One local ``rec`` bool guards every site.  While recording, the
wrong-path, recovery and squash sites log instead of calling the scheme
(a recording scheme is conventional, whose hooks there are no-ops, or a
filter, which replays them).  The filter schemes replay the log after the
loop (:meth:`~repro.core.schemes.conventional.ConventionalScheme.replay_lane`).
A squash-free run's log also serves *verdict lanes*: DMDC and Garg time
as the conventional machine until their first replay, so
:func:`replay_verdicts` drives their adapters through the log over a
seq-indexed :class:`LaneView` and stops at the first verdict that would
change timing.  :func:`repro.sim.runner.run_many` replays one
conventional run's log into every lane of its batch that shares trace,
seed, budget and machine.

The kernel is **bit-identical** to the object path — same counters, same
cycle counts, same RNG stream — which `tests/test_soa_equivalence.py`
enforces over the scheme × workload matrix and its coherence rows, and
`tests/test_golden_digests.py` pins for the whole suite.  The object
loop steps every cycle and is the reference: it runs only under an
observer (tracer, observability recorder, sanitizer) or with
``REPRO_NO_SOA=1``.  See ``docs/performance.md``.

Slot identity: a slot is recycled as soon as its instruction retires or is
squashed, and ``next_seq`` never rolls back on a squash, so live sequence
numbers are *not* contiguous — a slot can only be named safely together
with the seq it was bound to.  Hence the encoded ints everywhere an
instruction outlives a queue position (event schedules, the ready heap,
consumer lists, the rename map).
"""

import heapq
import os
from collections import deque
from typing import Dict, List, Optional, Set

from repro.backend.dyninst import InstrState
from repro.backend.resources import FunctionalUnits
from repro.core.schemes.base import (
    EV_COMMIT,
    EV_COMMITS,
    EV_LOAD,
    EV_LOAD_SAFE,
    EV_RECOVERY,
    EV_SQUASH,
    EV_STORE,
    EV_STORE_VICTIM,
    EV_WRONGPATH,
)
from repro.errors import OrderingViolationMissed, SimulationError
from repro.lsq.queues import (
    SOA_CACHE,
    SOA_FORWARD,
    SOA_REJECT,
    sq_forward_search_soa,
)

#: Environment escape hatch: set to any non-empty value to force the
#: object-path pipeline even when a run is otherwise SoA-eligible.
NO_SOA_ENV = "REPRO_NO_SOA"

_ST_DISPATCHED = int(InstrState.DISPATCHED)
_ST_READY = int(InstrState.READY)
_ST_ISSUED = int(InstrState.ISSUED)
_ST_COMPLETED = int(InstrState.COMPLETED)
_ST_COMMITTED = int(InstrState.COMMITTED)
_ST_SQUASHED = int(InstrState.SQUASHED)

#: Dispatch-stall cause codes the fast-forward probe reports (mirroring
#: the resource checks of the inline dispatch stage, in order).
_STALL_NONE = 0
_STALL_ROB = 1
_STALL_IQ = 2
_STALL_LQ = 3
_STALL_SQ = 4
_STALL_REGS = 5


def soa_enabled() -> bool:
    """The environment gate for the SoA kernel (re-read per processor)."""
    return not os.environ.get(NO_SOA_ENV)  # repro: noqa[REPRO011]


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


class KernelBuffers:
    """Preallocated slot-pool arrays, reusable across same-geometry runs.

    The pool bounds live instructions: at most ``rob_size`` dispatched plus
    ``fetch_buffer`` fetched-but-not-dispatched (an instruction leaves the
    fetch buffer exactly when it enters the ROB).  Buffers carry no
    cross-run state — each :class:`SoaKernel` repopulates the free list and
    every slot field is (re)initialised at fetch time — so
    :func:`repro.sim.runner.run_many` hands one instance to every batch
    element with the same geometry.
    """

    __slots__ = (
        "pool", "pbits", "pmask", "seq", "tidx", "state", "fcyc", "icyc",
        "rcyc", "addr", "size", "isld", "isst", "isbr", "fp", "pops",
        "pdata", "tvs", "tvpc", "fwdseq", "safe", "gbp", "unsafe", "wend",
        "invm", "snap", "cons",
    )

    def __init__(self, pool: int) -> None:
        self.pool = pool
        self.pbits = pool.bit_length()
        self.pmask = (1 << self.pbits) - 1
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

    @classmethod
    def for_config(cls, config) -> "KernelBuffers":
        return cls(config.rob_size + config.fetch_buffer + 8)

    def fits(self, config) -> bool:
        return self.pool >= config.rob_size + config.fetch_buffer + 8


class SoaKernel:
    """One run of one processor through the fused SoA cycle loop.

    Construction binds the processor's components (memory, predictor,
    scheme, store sets...) and array views; :meth:`run` executes the
    cycle loop and folds every counter back into the processor so
    ``Processor._build_result`` sees exactly the state the object path
    would have produced.
    """

    def __init__(self, processor, buffers: Optional[KernelBuffers] = None,
                 record: bool = False) -> None:
        p = processor
        self.p = p
        config = p.config
        if buffers is None or not buffers.fits(config):
            buffers = KernelBuffers.for_config(config)
        self.b = b = buffers
        self.t = trace_soa(p.trace)

        # Slot pool -----------------------------------------------------
        self.pbits = b.pbits
        self.pmask = b.pmask
        self.free: List[int] = list(range(b.pool - 1, -1, -1))
        # Array views (aliases so adapters read k.seq etc.).
        self.seq = b.seq
        self.tidx = b.tidx
        self.state = b.state
        self.fcyc = b.fcyc
        self.icyc = b.icyc
        self.rcyc = b.rcyc
        self.addr = b.addr
        self.size = b.size
        self.isld = b.isld
        self.isst = b.isst
        self.isbr = b.isbr
        self.fp = b.fp
        self.pops = b.pops
        self.pdata = b.pdata
        self.tvs = b.tvs
        self.tvpc = b.tvpc
        self.fwdseq = b.fwdseq
        self.safe = b.safe
        self.gbp = b.gbp
        self.unsafe = b.unsafe
        self.wend = b.wend
        self.invm = b.invm
        self.snap = b.snap
        self.cons = b.cons

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
        self.checking_cycles = 0
        self.ff_cycles = 0

        # Cold-path counters folded into HotCounters at the end.
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
        #: Slot-index adapter for the scheme, or None when the scheme has
        #: no SoA transcription (the sanitizer's wrapper) — the caller
        #: must then step the object path instead of calling :meth:`run`.
        self.hooks = p.scheme.soa_hooks(self)
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
    def run(self, target: int, max_cycles: int) -> None:
        """Simulate until ``target`` instructions commit.

        One Python frame replaces the object path's per-cycle call tree
        (`step` -> stages -> leaf helpers); every stage below is a
        transcription of its ``Processor`` counterpart over slot arrays,
        in the same order with the same gates, so counters, RNG use and
        cycle numbering are bit-identical.
        """
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
        commit_mode = hooks.commit_mode  # 0 none, 1 per-load, 2 windowed
        hook_load = hooks.on_load_issue
        hook_store = hooks.on_store_resolve
        hook_commit_load = hooks.on_commit_load
        hook_commit = hooks.on_commit
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

        cycle = 0
        committed = 0
        ff_cycles = 0
        checking_cycles = 0

        # --- hot counters as locals (folded into HotCounters below) ----
        n_replays = n_replays_commit = n_replays_exec = n_replays_coh = 0
        n_commit = n_commit_loads = n_commit_safe = n_commit_stores = 0
        n_commit_branches = n_reexec = 0
        n_regw = n_regr = n_wakeups = 0
        n_mispredicts = n_misfetches = 0
        n_issue = n_issue_loads = n_issue_stores = n_fu = 0
        n_sq_search = n_sq_filtered = 0
        n_rejections = n_safe_at_issue = n_forwarded = n_dreads = 0
        n_ss_delays = 0
        n_stall_rob = n_stall_iq = n_stall_lq = n_stall_sq = n_stall_regs = 0
        n_lq_writes = n_sq_writes = n_rename = n_rob_writes = 0
        n_fetch_stall = n_fetch = n_icache_miss = n_icache_reads = 0
        n_bpred = n_inv = 0

        limit_plus_one = max_cycles + 1

        while committed < target:
            # ===== event-horizon fast forward: jump to the next cycle in
            # which any stage can act, accounting the idle bookkeeping
            # counters of the skipped cycles in closed form.
            if not inv_on and not ready:
                head_can_commit = rob and state_[rob[0]] == _ST_COMPLETED
                if not head_can_commit:
                    ff_target = limit_plus_one
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

            squashed_this_cycle = False
            if scheme.checking_active:
                checking_cycles += 1

            # ===== commit (Processor._stage_commit + _retire) ============
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
                    if replay:
                        n_replays += 1
                        n_replays_commit += 1
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

            # ===== writeback (Processor._stage_complete) =================
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
                        # ---- resolve branch (Processor._resolve_branch) ----
                        mispredicted = pred_resolve(tpc[ti], ttaken[ti], snap_[slot])
                        if ttaken[ti]:
                            btb_install(tpc[ti], ttarget[ti])
                        if self.blocked_branch == v:
                            self.blocked_branch = -1
                            self.resume_cycle = cycle + self.branch_penalty
                            if mispredicted:
                                n_mispredicts += 1
                                if rec:
                                    log += (EV_RECOVERY, seq_[slot])
                                else:
                                    scheme.on_recovery(seq_[slot])
                            else:
                                n_misfetches += 1
                events.clear()

            # ===== issue (Processor._stage_issue) ========================
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
                    # bandwidth-deferred entries exactly like the object
                    # path's deferred list.
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
                            if nonspec and self.sq_unresolved:
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
                                    rring[(cycle + reject_delay) & rmask].append(v)
                                    issued += 1  # consumed bandwidth
                                else:
                                    state_[slot] = _ST_ISSUED
                                    icyc_[slot] = cycle
                                    g = la >> 3
                                    gend = (l_end - 1) >> 3
                                    while g <= gend:
                                        lqg[g] = lqg.get(g, 0) + 1
                                        g += 1
                                    # _free_iq_entry: un-issued => still in IQ
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
                                        log += (EV_LOAD_SAFE if all_resolved
                                                else EV_LOAD, la, lseq)
                                    if has_load_hook:
                                        victim = hook_load(slot)
                                        if victim >= 0 and state_[victim] != _ST_SQUASHED:
                                            n_replays += 1
                                            n_replays_coh += 1
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
                            self.sq_unresolved -= 1
                            if fp_[slot]:  # _free_iq_entry
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
                            if pdata_[slot] == 0:
                                cring[(cycle + 1) & rmask].append(v)
                            if has_store_hook:
                                victim = hook_store(slot)
                                if victim >= 0 and state_[victim] != _ST_SQUASHED:
                                    if rec:
                                        log += (EV_STORE_VICTIM, sa, sseq,
                                                seq_[rob[-1]])
                                    n_replays += 1
                                    n_replays_exec += 1
                                    self.cycle = cycle
                                    self._squash_from(victim)
                                    squashed_this_cycle = True
                                elif rec:
                                    log += (EV_STORE, sa, sseq, seq_[rob[-1]])
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
                            if fp_[slot]:  # _free_iq_entry
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

            # ===== dispatch (Processor._stage_dispatch) ==================
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
                    rob.append(slot)
                    sseq = seq_[slot]
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

            # ===== fetch (Processor._stage_fetch) ========================
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
                    # ---- allocate + initialise a slot (DynInstr.__init__)
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
                            for age, wa in self.wrongpath.loads_for_mispredict(
                                    seq_[slot]):
                                if rec:
                                    log += (EV_WRONGPATH, age, wa)
                                else:
                                    scheme.on_wrongpath_load(age, wa)
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

            # ===== coherence traffic (Processor._inject_invalidations) ===
            if inv_on:
                line = inv_draw()
                if line is not None:
                    n_inv += 1
                    memory.invalidate(line)
                    oldest = seq_[rob[0]] if rob else self.next_seq
                    hooks.on_invalidation(line, self.line_bytes, cycle, oldest)

            cycle += 1
            if cycle > max_cycles:
                self.cycle = cycle
                self.committed = committed
                self._sync(cycle, committed, checking_cycles, ff_cycles)
                raise SimulationError(
                    f"no forward progress: {committed}/{target} committed "
                    f"after {cycle} cycles on {p.trace.name}"
                )

        # ===== fold state and counters back into the processor ==========
        self._sync(cycle, committed, checking_cycles, ff_cycles)
        hot = p.hot
        hot.replays += n_replays
        hot.replays_commit_time += n_replays_commit
        hot.replays_execution_time += n_replays_exec
        hot.replays_coherence += n_replays_coh
        hot.inv_injected += n_inv
        hot.commit_instructions += n_commit
        hot.commit_loads += n_commit_loads
        hot.commit_safe_loads += n_commit_safe
        hot.commit_stores += n_commit_stores
        hot.commit_branches += n_commit_branches
        hot.dcache_reexecutions += n_reexec
        hot.regfile_writes += n_regw
        hot.regfile_reads += n_regr
        hot.iq_wakeups += n_wakeups
        hot.branch_mispredicts += n_mispredicts
        hot.branch_misfetches += n_misfetches
        hot.issue_instructions += n_issue
        hot.issue_loads += n_issue_loads
        hot.issue_stores += n_issue_stores
        hot.fu_ops += n_fu
        hot.sq_searches += n_sq_search
        hot.load_rejections += n_rejections
        hot.load_safe_at_issue += n_safe_at_issue
        hot.load_forwarded += n_forwarded
        hot.dcache_reads += n_dreads
        hot.groundtruth_violations += self.n_gt_violations
        hot.storesets_load_delays += n_ss_delays
        hot.stall_rob_full += n_stall_rob
        hot.stall_iq_full += n_stall_iq
        hot.stall_lq_full += n_stall_lq
        hot.stall_sq_full += n_stall_sq
        hot.stall_regs_full += n_stall_regs
        hot.lq_writes += n_lq_writes
        hot.sq_writes += n_sq_writes
        hot.rename_ops += n_rename
        hot.rob_writes += n_rob_writes
        hot.fetch_stall_cycles += n_fetch_stall
        hot.fetch_instructions += n_fetch
        hot.fetch_icache_miss += n_icache_miss
        hot.icache_reads += n_icache_reads
        hot.bpred_lookups += n_bpred
        hot.squash_instructions += self.n_squash
        hot.replay_guard_trips += self.n_guard_trips
        p.sq.searches += n_sq_search
        p.sq.searches_filtered += n_sq_filtered
        hooks.fold()

    def _sync(self, cycle: int, committed: int, checking_cycles: int,
              ff_cycles: int) -> None:
        """Write the kernel's scalar cursors back onto the processor."""
        p = self.p
        p.cycle = cycle
        p.committed = committed
        p.next_seq = self.next_seq
        p.fetch_idx = self.fetch_idx
        p.fetch_resume_cycle = self.resume_cycle
        p._last_fetch_line = self.last_line
        p._checking_cycles += checking_cycles
        p.fast_forwarded_cycles += ff_cycles
        self.cycle = cycle
        self.committed = committed

    # ------------------------------------------------------------------
    # Squash / replay (cold path)
    # ------------------------------------------------------------------
    def _squash_from(self, slot: int) -> None:
        """Transcription of ``Processor._squash_from`` over slot arrays."""
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
        # per-cycle); collecting then reversing preserves the object
        # path's oldest-first victim order.
        victims = []  # repro: noqa[REPRO005]
        while rob and seq_[rob[-1]] >= boundary:
            victims.append(rob.pop())
        victims.reverse()  # process oldest-first, like the object path
        log = self.events
        if log is not None:
            # One record: the kept boundary, then the squashed issued
            # loads' addresses behind a count patched in after the pass.
            log += (EV_SQUASH, boundary - 1, 0)
            count_at = len(log) - 1
        regs_int = self.regs_int
        regs_fp = self.regs_fp
        isld_ = self.isld
        icyc_ = self.icyc
        addr_ = self.addr
        for victim in victims:  # oldest-first, like the object path
            state_[victim] = _ST_SQUASHED
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
        if log is None:
            self.hooks.on_squash(boundary - 1)
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

    def _free_iq_if_held(self, slot: int) -> None:
        """``Processor._free_iq_entry``: issue released the entry already,
        so only un-issued victims still hold one."""
        if self.icyc[slot] < 0:
            if self.fp[slot]:
                self.iq_fp -= 1
            else:
                self.iq_int -= 1


# ----------------------------------------------------------------------
# Verdict lanes: replay a squash-free host's log through DMDC or Garg
# ----------------------------------------------------------------------
class LaneView:
    """Seq-indexed stand-in for a :class:`SoaKernel`, for verdict lanes.

    In a squash-free run every fetched op commits, so seq equals trace
    index and a scheme adapter's slot can be the seq itself.  The view
    carries the columns the DMDC and Garg adapters read: ``addr``,
    ``size``, ``isld`` and ``isst`` are the trace's, ``seq`` is the
    identity, ``safe`` is filled from the log, and ``unsafe``/``wend``
    are the adapter's to write.  With no replays there are no guard trips
    (``gbp`` all False) and no true violations (``tvs`` all -1).  Only
    the replay taxonomy and Garg's flush scan read ``icyc``/``rcyc``, and
    only once a replay is decided, when the lane stops replaying; they
    stay -1.  ``rob`` holds the ROB tail seq at the store being replayed:
    Garg flushes iff that tail is younger than the store.
    """

    __slots__ = ("n", "seq", "addr", "size", "isld", "isst", "safe", "gbp",
                 "unsafe", "wend", "rcyc", "icyc", "tvs", "rob")

    def __init__(self, trace) -> None:
        t = trace_soa(trace)
        self.n = n = t.n
        self.seq = range(n)
        self.addr = t.addr
        self.size = t.size
        self.isld = t.isld
        self.isst = t.isst
        self.safe = [False] * n
        self.gbp = [False] * n
        self.unsafe = [False] * n
        self.wend = [-1] * n
        self.rcyc = [-1] * n
        self.icyc = [-1] * n
        self.tvs = [-1] * n
        self.rob = [-1]


def replay_verdicts(hooks, view: LaneView, events: List[int], cycles: int,
                    committed: int, label: str) -> int:
    """Drive a scheme adapter bound to ``view`` through a squash-free
    host's event log.

    The hooks are called at the kernel's sites with the kernel's gates:
    load issue, store resolve (with ``view.rob`` set to the recorded ROB
    tail), every commit under ``commit_mode``, and the scheme's own
    wrong-path and recovery hooks.  Returns the lane's
    ``checking.cycles_observed``: a checking window, which only a commit
    opens or closes, covers every cycle after the commit stage that
    opened it up to the one that closes it, or to the run's last cycle
    (``cycles - 1``).  Returns -1 at the first verdict that would change
    timing (an issue or resolve hook naming a victim, a commit replay):
    the lane must then step its own loop.

    Raises :class:`SimulationError` naming ``label`` if the log has a
    squash, retires past the trace, or retires other than ``committed``
    instructions.
    """
    scheme = hooks.scheme
    has_load_hook = hooks.has_load_issue
    has_store_hook = hooks.has_store_resolve
    commit_mode = hooks.commit_mode
    hook_load = hooks.on_load_issue
    hook_store = hooks.on_store_resolve
    hook_commit = hooks.on_commit
    hook_commit_load = hooks.on_commit_load
    on_wrongpath = scheme.on_wrongpath_load
    on_recovery = scheme.on_recovery
    isld_ = view.isld
    isst_ = view.isst
    safe_ = view.safe
    unsafe_ = view.unsafe
    rob = view.rob
    limit = view.n
    head = 0       # next seq to retire
    last = 0       # cycle of the previous commit stage
    checking = 0
    i = 0
    n = len(events)
    while i < n:
        op = events[i]
        if op == EV_COMMITS:
            cycle = events[i + 1]
            if scheme.checking_active:
                checking += cycle - last
            last = cycle
            end = head + events[i + 2]
            if end > limit:
                raise SimulationError(
                    f"verdict lane {label} retired seq {end - 1} past the "
                    f"end of its {limit}-op trace")
            if commit_mode == 2:
                while head < end:
                    if scheme.checking_active or (isst_[head] and unsafe_[head]):
                        if hook_commit(head, cycle):
                            return -1
                    head += 1
            elif commit_mode == 1:
                while head < end:
                    if isld_[head] and hook_commit_load(head):
                        return -1
                    head += 1
            else:
                head = end
            i += 3
        elif op == EV_LOAD or op == EV_LOAD_SAFE:
            seq = events[i + 2]
            if op == EV_LOAD_SAFE:
                safe_[seq] = True
            if has_load_hook and hook_load(seq) >= 0:
                return -1
            i += 3
        elif op == EV_STORE:
            if has_store_hook:
                rob[0] = events[i + 3]
                if hook_store(events[i + 2]) >= 0:
                    return -1
            i += 4
        elif op == EV_COMMIT:
            i += 2
        elif op == EV_WRONGPATH:
            on_wrongpath(events[i + 1], events[i + 2])
            i += 3
        elif op == EV_RECOVERY:
            on_recovery(events[i + 1])
            i += 2
        else:  # EV_SQUASH, EV_STORE_VICTIM
            raise SimulationError(
                f"verdict lane {label} met a squash in its host's log "
                f"(opcode {op} at record offset {i})")
    if head != committed:
        raise SimulationError(
            f"verdict lane {label} retired {head} instructions, but its "
            f"host committed {committed}")
    if scheme.checking_active:
        checking += cycles - 1 - last
    return checking
