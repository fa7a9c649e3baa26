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
lane*), and if a replay verdict would change timing it forks: its own
kernel resumes from a snapshot of the conventional machine at that
cycle (:mod:`repro.sim.fork`).  A ``value`` point replays a value run
recorded under another seed.  See :class:`HostRun`.  The host shares
the lane's trace, budget and machine, not necessarily its seed: a lane
draws its own wrong-path loads (:func:`wrongpath_model`), and only the
invalidation injector lets the seed reach timing.

A kernel run and a lane build their result the same way
(:meth:`Processor._result`): the machine counters (the kernel's and
the components', or a lane's host's), then the point's scheme stats
and histograms, then the counters a lane books itself.
"""

import time
from array import array
from typing import NamedTuple, Optional, Sequence

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
from repro.sim.soa import CHECKING_COUNT, LaneView, SoaKernel, replay_verdicts
from repro.stats.counters import CounterSet
from repro.utils.rng import DeterministicRng

class HostRun(NamedTuple):
    """A recording kernel run (conventional-family or value), which
    lanes replay: just what they read.

    Its event log (:mod:`repro.sim.soa`, as a flat ``array('q')``: 8
    bytes an entry, half a list's, while the setup memo keeps it), its
    machine counters
    (everything but its scheme's stats), which a lane's result starts
    from, and its cycle and commit counts.  Nothing in it depends on the
    run's seed but the ``wrongpath.loads`` counter, which a lane books
    from its own draws, so while the invalidation injector is off one
    host run serves lanes of every seed (the setup memo keeps it).
    """

    events: Sequence[int]
    counters: CounterSet
    cycles: int
    committed: int

    @property
    def squash_free(self) -> bool:
        """No replay squashed anything: every fetched op committed, in
        seq order, so verdict lanes may replay the log."""
        return self.counters["replays"] == 0


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
        #: instead) or ``"fork"`` (a verdict lane whose kernel resumed
        #: from a conventional machine at ``fork_cycle``) — bench
        #: provenance, never part of a result.
        self.kernel_used = "soa"
        self.fork_cycle: Optional[int] = None
        #: Lanes (see ``docs/performance.md``).  A recording kernel run
        #: logs the events a lane reads and leaves its :class:`HostRun` in
        #: ``recorded``.  ``run_many`` sets ``record_events`` on a group's
        #: host and ``replay_from`` on its lanes, whose :meth:`run` replays
        #: that log and steps no cycle loop, unless a verdict lane's
        #: replay reaches a verdict that would change timing: then it
        #: forks its own kernel from ``forks``.
        self.record_events = False
        self.recorded: Optional[HostRun] = None
        self.replay_from: Optional[HostRun] = None
        #: Where a diverging verdict lane forks from
        #: (:class:`~repro.sim.fork.LaneForks`, set by ``run_many``).
        self.forks = None

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
        host = self.replay_from
        if host is not None:
            t0 = time.perf_counter()  # repro: noqa[REPRO001]
            checking = self._replay_lane(host)
            if checking >= 0:
                # The lane timed as its host: it takes the host's machine
                # counters and books its own checking window and
                # wrong-path loads.
                self.kernel_used = "lane"
                self.cycle = host.cycles
                self.committed = host.committed
                counters = self.counters
                counters.merge(host.counters)
                counters["checking.cycles_observed"] = checking
                counters["wrongpath.loads"] = self.wrongpath.injected
                if self.storesets is not None and "storesets.merges" not in counters:
                    # A verdict lane's host runs without store sets; its
                    # own never train in a squash-free run.
                    self._count_storesets()
                result = self._result()
                result.sim_seconds = time.perf_counter() - t0  # repro: noqa[REPRO001]
                return result
            # Everything a fork pays counts: the failed replay, any
            # prefix steps, the restore and the loop after it.
            kernel = self._fork(host, -1 - checking, target, max_cycles)
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
        if kernel.events is not None:
            self.recorded = HostRun(array("q", kernel.events), self.counters,
                                    self.cycle, self.committed)
        result.sim_seconds = sim_seconds
        return result

    def _replay_lane(self, host: HostRun) -> int:
        """Run this point's scheme over the run ``host`` recorded; returns
        the lane's ``checking.cycles_observed``.

        The conventional family (search filters, store sets) replays the
        conventional search, a value point its own value run; DMDC and
        Garg drive their kernel adapters through
        :func:`~repro.sim.soa.replay_verdicts`.  Either way the lane
        draws its wrong-path loads from its own model.  ``-1 - c`` when
        the replay reaches a verdict that changes timing at cycle ``c``:
        the scheme and the wrong-path model are then rebuilt fresh, for
        this processor's own kernel.
        """
        scheme = self.scheme
        label = self.config.scheme.label()
        if isinstance(scheme, ConventionalScheme):
            scheme.replay_lane(host.events, label,
                               host.counters["replays.coherence"], self.wrongpath)
            return 0
        if isinstance(scheme, ValueBasedScheme):
            scheme.replay_lane(host.events, self.wrongpath)
            return 0
        view = LaneView(self.trace)
        checking = replay_verdicts(scheme.soa_hooks(view), view, host.events,
                                   self.wrongpath, host.cycles, host.committed,
                                   label)
        if checking < 0:
            self.scheme = build_scheme(self.config.scheme, self.config)
            # The stream __init__ drew its model from, afresh.
            rng = self.rng
            self.wrongpath = wrongpath_model(
                self.config, DeterministicRng(rng.seed, rng.purpose))
            return -1 - view.cycle
        scheme.finalize(host.cycles)
        return checking

    def _fork(self, host: HostRun, cycle: int, target: int,
              max_cycles: int) -> SoaKernel:
        """This verdict lane's kernel, forked from a conventional machine
        at or before ``cycle``, where its replay of ``host`` reached a
        verdict that changes timing.

        Up to the snapshot's cycle the lane timed as its host, so its
        scheme and wrong-path model (fresh, from :meth:`_replay_lane`)
        replay exactly the host's records of earlier cycles; the
        adapter's per-slot columns (``unsafe``, ``wend``) are then
        written for the seqs in flight, and the partial checking-cycle
        count seeds the kernel's.  The replay raises
        :class:`SimulationError` naming the lane if the snapshot's
        committed count is not the log's at that cycle.
        """
        label = self.config.scheme.label()
        if self.forks is None:
            raise SimulationError(
                f"verdict lane {label} diverged at cycle {cycle} with no "
                f"conventional machine to fork from")
        snapshot = self.forks.snapshot(cycle, target, max_cycles)
        view = LaneView(self.trace)
        checking = replay_verdicts(
            self.scheme.soa_hooks(view), view, host.events, self.wrongpath,
            snapshot.cycle, snapshot.committed, label)
        kernel = SoaKernel(self)
        snapshot.restore(kernel)
        seq_ = kernel.seq
        unsafe_ = kernel.unsafe
        wend_ = kernel.wend
        for slot in kernel.rob:
            seq = seq_[slot]
            unsafe_[slot] = view.unsafe[seq]
            wend_[slot] = view.wend[seq]
        kernel.counts[CHECKING_COUNT] = checking
        self.fork_cycle = snapshot.cycle
        return kernel

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
