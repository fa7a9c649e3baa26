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
(``Processor.sanitizer``).  The per-cycle object pipeline the kernel was
transcribed from lives on in the test suite as its reference
(``tests/reference_loop.py``); results are bit-identical (enforced by
``tests/test_soa_equivalence.py`` and ``tests/test_golden_digests.py``);
see ``docs/performance.md``.
A point that ``run_many`` batches with a conventional host run may step
no loop at all: a YLA or Bloom point replays the host's recorded events
through its filter (a *filter lane*), and a DMDC, Garg or store-set point
replays a squash-free host's events through its scheme (a *verdict
lane*); a group's lanes walk the log together, once
(:func:`~repro.sim.walk.walk_lanes`).  If a verdict would change timing
the lane leaves the walk and forks: its own kernel resumes from a
snapshot of the host's machine at that cycle, which the host run keeps,
with its scheme from a walk's checkpoint of the lane there
(:meth:`Processor._fork`).  The forked run records its tail, and the
host run keeps it too, so a later lane of the same machine under any
seed replays that tail from its checkpoint instead of forking again
(:meth:`Processor.replay`).  A ``value`` point replays a value run
recorded under another seed.  See :class:`HostRun`.  The host shares the lane's trace, budget and
machine, not necessarily its seed: a lane draws its own wrong-path
loads (:func:`wrongpath_model`), and only the invalidation injector
lets the seed reach timing.

A kernel run and a lane build their result the same way
(:meth:`Processor._result`): the machine counters (the kernel's and
the components', or a lane's host's), then the point's scheme stats
and histograms, then the counters a lane books itself.
"""

import time
from array import array
from typing import List, Optional, Sequence

from repro.backend.resources import FunctionalUnits, PhysRegFile
from repro.coherence.injector import InvalidationInjector
from repro.core.schemes import build_scheme
from repro.core.storesets import StoreSetPredictor
from repro.core.schemes.conventional import ConventionalScheme
from repro.core.schemes.value import ValueBasedScheme
from repro.errors import SimulationError
from repro.frontend.branch_predictor import CombinedPredictor
from repro.frontend.wrongpath import WrongPathModel
from repro.isa.trace import Trace
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.config import MachineConfig
from repro.sim.result import SimulationResult
from repro.sim.setup_memo import SETUP_MEMO
from repro.sim.soa import CHECKING_COUNT, Snapshot, SoaKernel
from repro.sim.walk import Checkpoint, Lane, checkpoint_lanes, walk_lanes, walk_tail
from repro.stats.counters import CounterSet
from repro.utils.rng import DeterministicRng

class HostRun:
    """A recording kernel run (conventional-family or value, or a
    forked verdict lane), which lanes replay: just what they read, and
    what forked lanes restore.

    Its event log (:mod:`repro.sim.soa`, as a flat int array: 4 bytes an
    entry when every value fits, as with the suite's workloads, else 8;
    a list's are 8 plus the int objects, while the setup memo keeps it), its
    machine counters
    (everything but its scheme's stats), which a lane's result starts
    from, and its cycle and commit counts.  Nothing in it depends on the
    run's seed but the ``wrongpath.loads`` counter, which a lane books
    from its own draws, so while the invalidation injector is off one
    host run serves lanes of every seed (the setup memo keeps it).

    A verdict lane that diverges forks from this run's ``machine``
    (the recording run's own config: a filter host times like a
    conventional one): ``snapshots`` holds that machine's
    :class:`~repro.sim.soa.Snapshot` at each cycle where a lane forked,
    by cycle.  The forked lane's own kernel records from its fork cycle
    on, and ``forked`` keeps that run, most recently used first: a
    ``HostRun`` of the lane's machine whose ``fork_cycle`` is set and
    whose ``events`` are its tail.  A later lane of that machine, under
    any seed while the injector is off, that leaves its group's walk
    over this run's log (:mod:`repro.sim.walk`) at that fork cycle
    walks the tail, from its checkpoint there, and takes the forked
    run's machine counters when its own verdicts reproduce every
    recorded one (:func:`~repro.sim.walk.walk_tail`).  The run owns its
    snapshots and forked runs, so they live and go with it; the setup
    memo charges them while it holds the run, and every read or write
    of them takes the memo's lock (:meth:`Processor.replay`,
    :meth:`Processor._fork`).
    """

    __slots__ = ("events", "counters", "cycles", "committed", "machine",
                 "fork_cycle", "snapshots", "forked")

    def __init__(self, events: Sequence[int], counters: CounterSet,
                 cycles: int, committed: int, machine: MachineConfig,
                 fork_cycle: Optional[int] = None) -> None:
        self.events = events
        self.counters = counters
        self.cycles = cycles
        self.committed = committed
        self.machine = machine
        self.fork_cycle = fork_cycle
        self.snapshots: List[Snapshot] = []
        self.forked: List["HostRun"] = []

    def _replace(self, **changes) -> "HostRun":
        """A copy with ``changes``, keeping none of this run's snapshots
        or forked runs."""
        fields = dict(events=self.events, counters=self.counters,
                      cycles=self.cycles, committed=self.committed,
                      machine=self.machine, fork_cycle=self.fork_cycle)
        fields.update(changes)
        return HostRun(**fields)

    @property
    def squash_free(self) -> bool:
        """No replay squashed anything: every fetched op committed, in
        seq order, so verdict lanes may replay the log."""
        return self.counters["replays"] == 0


def _packed(events: List[int]) -> array:
    """An event log as a flat int array: 4 bytes an entry when every
    value fits in 32 bits (addresses included), else 8."""
    try:
        return array("i", events)
    except OverflowError:
        return array("q", events)


def wrongpath_model(config: MachineConfig, rng: DeterministicRng) -> WrongPathModel:
    """A point's wrong-path model, drawing from ``rng``'s first child
    stream: a processor's own, and a lane's, which replays a host's log
    under the lane's seed."""
    return WrongPathModel(
        rng.child("wrongpath"),
        mean_loads_per_mispredict=config.wrongpath_mean_loads,
        enabled=config.wrongpath_loads,
    )


class Processor:
    """One core running one trace under one dependence-checking scheme."""

    def __init__(self, config: MachineConfig, trace: Trace, seed: int = 1):
        self.config = config
        self.trace = trace
        self.rng = DeterministicRng(seed, f"proc:{trace.name}")

        # The branch predictor and the memory hierarchy (``predictor``,
        # ``memory``) are built on first use (``__getattr__``): a lane
        # that never forks never needs them.
        self.fus = FunctionalUnits(
            config.int_alu, config.int_muldiv, config.fp_alu, config.fp_muldiv
        )
        self.regs_int = PhysRegFile(config.regs_int)
        self.regs_fp = PhysRegFile(config.regs_fp)
        self.scheme = build_scheme(config.scheme, config)
        self.wrongpath = wrongpath_model(config, self.rng)
        self.storesets = StoreSetPredictor() if config.scheme.store_sets else None
        self.invalidations = InvalidationInjector(
            self.rng.child("invalidations"),
            config.invalidation_rate,
            config.l2_line_bytes,
        )

        # Run state the kernel writes back (see ``SoaKernel._sync``).
        self.cycle = 0
        self.committed = 0
        #: The run's machine counters: what the kernel and the components
        #: counted, without the scheme's stats (see :meth:`_result`).
        self.counters = CounterSet()
        #: Idle cycles the SoA kernel's skipper jumped over (diagnostic
        #: only: deliberately NOT a counter, so results stay bit-identical
        #: with the reference loop, which steps every cycle).
        self.fast_forwarded_cycles = 0
        #: The run's observer, or None: a
        #: :class:`~repro.sim.pipetrace.PipelineTracer` or an
        #: :class:`~repro.obs.recorder.ObservabilityRecorder`, which the
        #: kernel calls at every pipeline, replay and scheme event.
        self.tracer = None
        #: The :class:`~repro.analysis.sanitizer.MemoryOrderSanitizer`
        #: wrapping the scheme's kernel adapter, or None.
        self.sanitizer = None
        #: Which route the last :meth:`run` took: ``"soa"`` (the kernel
        #: from cycle 0), ``"lane"`` (a lane that replayed a host's log
        #: instead, and, when ``fork_cycle`` is set, a forked run's tail
        #: from there) or ``"fork"`` (a verdict lane whose kernel resumed
        #: from a conventional machine at ``fork_cycle``) — bench
        #: provenance, never part of a result.
        self.kernel_used = "soa"
        self.fork_cycle: Optional[int] = None
        #: A lane's part of its group's walk (:class:`~repro.sim.walk.Lane`),
        #: a verdict lane's divergence cycle, once the walk found it, the
        #: forked runs it tried, the seconds its replays took besides its
        #: share of the walk, and the result they gave (see :meth:`replay`).
        self.lane: Optional[Lane] = None
        self.divergence: Optional[int] = None
        self._tried: List[HostRun] = []
        self._replay_seconds = 0.0
        self._replayed: Optional[SimulationResult] = None
        #: Lanes (see ``docs/performance.md``).  A recording kernel run
        #: logs the events a lane reads and leaves its :class:`HostRun` in
        #: ``recorded``.  ``run_many`` sets ``record_events`` on a group's
        #: host and ``replay_from`` on its lanes, whose :meth:`run` replays
        #: that log and steps no cycle loop, unless a verdict lane's
        #: replay reaches a verdict that would change timing: then it
        #: forks its own kernel from a snapshot of that host's machine.
        self.record_events = False
        self.recorded: Optional[HostRun] = None
        self.replay_from: Optional[HostRun] = None

    def __getattr__(self, name: str):
        """Build the front end and memory on first use: they hold the
        large tables (predictor counters, cache tag stores) that a lane
        replaying a recorded run never reads."""
        if name not in ("predictor", "memory"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        config = self.config
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
        return getattr(self, name)

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
        host = self.replay_from
        if host is not None:
            result = self.replay()
            if result is not None:
                return result
            # Everything a fork pays counts: the failed replays, any
            # prefix steps, the restore and the loop after it.
            t0 = (time.perf_counter() - self._replay_seconds  # repro: noqa[REPRO001]
                  - self.lane.seconds)
            kernel = self._fork(host, self.divergence, target, max_cycles)
            self.kernel_used = "fork"
            return self._finish(kernel, target, max_cycles, t0)
        # Kernel construction (trace column decode, slot-pool allocation)
        # happens before the clock starts: like trace generation it is
        # setup, not cycle-loop work, and ``sim_seconds`` is defined as
        # the cost of the cycle loop alone.
        # A kernel starts from a fresh pipeline (prewarm is functional
        # only), so a processor runs once.
        if self.cycle or self.committed:
            raise SimulationError(
                f"processor on {self.trace.name} already ran "
                f"({self.committed} committed by cycle {self.cycle})")
        if self.record_events and not isinstance(
                self.scheme, (ConventionalScheme, ValueBasedScheme)):
            # Lanes replay a conventional run's log (only the conventional
            # family, search filters included, times alike) or a value
            # run's (value points of every seed).
            raise SimulationError(f"scheme {self.scheme.name} cannot host lanes")
        kernel = SoaKernel(self, self.record_events)
        self.kernel_used = "soa"
        # Wall-clock is measurement-only (sim_seconds for the perf harness);
        # it never feeds back into simulated state.
        return self._finish(kernel, target, max_cycles,
                            time.perf_counter())  # repro: noqa[REPRO001]

    def _finish(self, kernel: SoaKernel, target: int, max_cycles: int,
                t0: float) -> SimulationResult:
        """Run ``kernel`` to ``target`` and build the result; its
        ``sim_seconds`` counts from ``t0``."""
        kernel.run(target, max_cycles)
        sim_seconds = time.perf_counter() - t0  # repro: noqa[REPRO001]
        self.scheme.finalize(self.cycle)
        self._count_components()
        result = self._result()
        # The adapter refers back to the kernel: break the cycle, so the
        # kernel's columns and rings go with its last reference.
        kernel.hooks = None
        if kernel.events is not None:
            run = HostRun(_packed(kernel.events), self.counters, self.cycle,
                          self.committed, self.config, self.fork_cycle)
            if self.replay_from is None:
                self.recorded = run
            else:  # a forked lane's tail, which its host run keeps
                SETUP_MEMO.keep_forked_run(self.replay_from, run)
        result.sim_seconds = sim_seconds
        return result

    def replay(self) -> Optional[SimulationResult]:
        """This lane's result from recorded runs alone, or None when it
        must fork at :attr:`divergence` (:meth:`run` then forks).

        The lane's part of its group's walk over the host's log
        (:func:`~repro.sim.walk.walk_lanes`; ``run_many`` walks a group's
        lanes together, a lone lane walks alone) serves a
        conventional-family or value lane, and a verdict lane whose
        verdicts never change the host's timing.  A verdict lane that
        left the walk at its divergence cycle tries only the forked runs
        its host keeps for its machine that forked at that very cycle,
        most recently used first: each is a walk of the run's tail from
        the lane's checkpoint there (:func:`~repro.sim.walk.walk_tail`,
        :meth:`_checkpoint`), and a full match times the lane as that
        run.
        A later call (``run_many`` resolves a group's forks in ascending
        divergence cycle) tries only the runs kept since; one after a
        result returns it.
        """
        if self._replayed is not None:
            return self._replayed
        host = self.replay_from
        if self.lane is None:
            walk_lanes(host, [self])
        lane = self.lane
        self.divergence = lane.divergence
        t0 = time.perf_counter() - lane.seconds - self._replay_seconds  # repro: noqa[REPRO001]
        served = None
        walked: Optional[Lane] = lane
        if self.divergence is None:
            served = host
        else:
            tried = self._tried
            for run in SETUP_MEMO.forked_runs(host, self.config):
                if run.fork_cycle != self.divergence or any(run is other for other in tried):
                    continue
                tried.append(run)
                walked = walk_tail(run, self, self._checkpoint().resume(self.trace))
                if walked is not None:
                    served = run
                    SETUP_MEMO.forked_run_hit(host, run)
                    break
                SETUP_MEMO.forked_run_miss()
        if served is None:
            self._replay_seconds = time.perf_counter() - t0 - lane.seconds  # repro: noqa[REPRO001]
            return None
        lane.checkpoint = None
        # The lane timed as the run it walked: it takes that run's
        # machine counters and books its own checking window and
        # wrong-path loads.
        self.scheme = walked.scheme
        self.wrongpath = walked.wrongpath
        checking = walked.checking
        self.kernel_used = "lane"
        self.fork_cycle = served.fork_cycle
        self.cycle = served.cycles
        self.committed = served.committed
        counters = self.counters
        counters.merge(served.counters)
        counters["checking.cycles_observed"] = checking
        counters["wrongpath.loads"] = self.wrongpath.injected
        if self.storesets is not None and "storesets.merges" not in counters:
            # A verdict lane's host runs without store sets; its own
            # never train in a squash-free run.
            self._count_storesets()
        result = self._replayed = self._result()
        result.sim_seconds = time.perf_counter() - t0  # repro: noqa[REPRO001]
        return result

    def _checkpoint(self) -> Checkpoint:
        """This diverging lane at the boundary of its divergence cycle:
        the checkpoint its group's walk took there, else one from a
        walk of its own (:func:`~repro.sim.walk.checkpoint_lanes`;
        ``run_many`` takes a group's in one walk before it forks any)."""
        checkpoint_lanes(self.replay_from, [self])
        return self.lane.checkpoint

    def _fresh(self) -> None:
        """Rebuild this lane's scheme and wrong-path model as
        ``__init__`` built them."""
        self.scheme = build_scheme(self.config.scheme, self.config)
        # The stream __init__ drew its model from, afresh.
        rng = self.rng
        self.wrongpath = wrongpath_model(
            self.config, DeterministicRng(rng.seed, rng.purpose))

    def _fork(self, host: HostRun, cycle: int, target: int,
              max_cycles: int) -> SoaKernel:
        """This verdict lane's kernel, forked from ``host``'s machine at
        ``cycle``, where its walk over ``host``'s log reached a verdict
        that changes timing.

        Up to that cycle the lane timed as its host, so its scheme and
        wrong-path model are a copy of its checkpoint there
        (:meth:`_checkpoint`), which its tail attempts left untouched.
        The adapter's per-slot columns (``unsafe``, ``wend``) are then
        written for the seqs in flight, and the partial checking-cycle
        count seeds the kernel's.  A :class:`SimulationError` names the
        lane if the snapshot's committed count is not the walk's at that
        cycle.
        """
        snapshot = self._snapshot(host, cycle, target, max_cycles)
        self.scheme, self.wrongpath, view, state = self._checkpoint().resume(self.trace)
        self.lane.checkpoint = None
        _, _, retired, last, _, checking = state
        if retired != snapshot.committed:
            raise SimulationError(
                f"verdict lane {self.config.scheme.label()} retired {retired} "
                f"instructions, but its host committed {snapshot.committed} "
                f"before cycle {snapshot.cycle}")
        # A window still open covers the cycles up to the boundary, as
        # the walk would book them.
        if self.scheme.checking_active:
            checking += snapshot.cycle - 1 - last
        # The forked run records its tail for later lanes of its machine,
        # unless the injector is on: then its seed reaches timing.
        kernel = SoaKernel(self, not self.invalidations.enabled)
        snapshot.restore(kernel)
        seq_ = kernel.seq
        unsafe_ = kernel.unsafe
        wend_ = kernel.wend
        for slot in kernel.rob:
            seq = seq_[slot]
            unsafe_[slot] = bool(view.unsafe[seq])
            wend_[slot] = view.wend[seq]
        kernel.counts[CHECKING_COUNT] = checking
        self.fork_cycle = snapshot.cycle
        return kernel

    def _snapshot(self, host: HostRun, cycle: int, target: int,
                  max_cycles: int) -> Snapshot:
        """``host``'s machine at ``cycle``: the snapshot ``host`` keeps
        there, else a fresh conventional kernel stepped to ``cycle`` from
        the latest kept snapshot before it (or from a warm cycle 0),
        whose snapshot ``host`` then keeps.

        The prefix runs on this lane's seed: the group's when the
        invalidation injector is on, and otherwise a seed that changes
        no timing.
        """
        kept = SETUP_MEMO.fork_snapshot(host, cycle)
        if kept is not None and kept.cycle == cycle:
            return kept
        prefix = Processor(host.machine, self.trace, seed=self.rng.seed)
        if kept is None:
            prefix.prewarm()
        kernel = SoaKernel(prefix)
        if kept is not None:
            kept.restore(kernel)
        kernel.run(target, max_cycles, stop=cycle)
        if kernel.cycle != cycle:
            raise SimulationError(
                f"the conventional prefix on {self.trace.name} committed "
                f"{kernel.committed} instructions by cycle {kernel.cycle}, "
                f"before a lane's fork cycle {cycle}")
        snapshot = Snapshot(kernel)
        kernel.hooks = None  # no cycle outlives the prefix (see _finish)
        SETUP_MEMO.keep_snapshot(host, snapshot)
        return snapshot

    # ==================================================================
    # Results
    # ==================================================================
    def _count_components(self) -> None:
        """Book the cycle count and what the components counted into the
        machine counters, once the loop has run."""
        counters = self.counters
        scheme = self.scheme
        memory = self.memory
        counters["cycles"] = self.cycle
        counters["lq.inv_searches"] = (
            scheme.inv_searches if isinstance(scheme, ConventionalScheme) else 0)
        counters["bpred.mispredicts"] = self.predictor.mispredictions
        counters["wrongpath.loads"] = self.wrongpath.injected
        counters["dcache.accesses"] = memory.l1d.accesses
        counters["dcache.misses"] = memory.l1d.misses
        counters["icache.accesses"] = memory.l1i.accesses
        counters["icache.misses"] = memory.l1i.misses
        counters["l2.accesses"] = memory.l2.accesses
        counters["l2.misses"] = memory.l2.misses
        if self.storesets is not None:
            self._count_storesets()

    def _count_storesets(self) -> None:
        """Book what the store-set predictor counted: machine counters,
        since the predictor trains on the run's timing (its violations)."""
        self.counters["storesets.violations_recorded"] = self.storesets.violations_recorded
        self.counters["storesets.merges"] = self.storesets.merges

    def _result(self) -> SimulationResult:
        """This point's result, built alike for a kernel run and a lane:
        the machine counters (``self.counters``), then this scheme's stats
        and histograms, then the LQ searches, which a lane books itself
        instead of taking its host's.

        The conventional family books its LQ searches in its own stats:
        a resolving store either searches (``lq.searches``) or is
        filtered safe (``stores.safe``).  No other scheme searches the
        LQ; DMDC and Garg book ``stores.safe`` for their own
        classification.  The counters are a fresh set, so a host and its
        lanes share no mutable state.
        """
        scheme = self.scheme
        scheme.collect()
        stats = scheme.stats
        counters = CounterSet.from_dict(self.counters.as_dict())
        counters.merge(stats)
        counters["lq.searches_assoc"] = stats["lq.searches"]
        counters["lq.searches_filtered"] = (
            stats["stores.safe"] if isinstance(scheme, ConventionalScheme) else 0)
        return SimulationResult(
            workload=self.trace.name,
            group=self.trace.group,
            config_name=self.config.name,
            scheme_name=scheme.name,
            cycles=self.cycle,
            committed=self.committed,
            counters=counters,
            window_instrs=scheme.window_instrs,
            window_loads=scheme.window_loads,
            window_safe_loads=scheme.window_safe_loads,
            window_unsafe_stores=scheme.window_unsafe_stores,
        )
