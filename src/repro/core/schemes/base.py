"""Interface between the pipeline and a dependence-checking scheme.

The pipeline owns the machinery every design shares (speculative load
issue, SQ forwarding/rejection, squash, commit order); a scheme only
decides *how premature loads are detected*.  It does so in its
:class:`SoaHooks` adapter, which the SoA kernel calls with slot indices
at the micro-architectural events of the paper:

=====================  ====================================================
adapter hook           corresponds to
=====================  ====================================================
``on_load_issue``      load executes: YLA update / BF insert / age-table
                       write; conventional coherence load-load check
``on_store_resolve``   store address resolves: conventional LQ search, or
                       filtering, or DMDC safe/unsafe classification
``on_commit``          in-order retirement: DMDC marking, checking mode,
                       window termination; value-based re-execution
``on_recovery``        branch misprediction recovery (YLA reset remedy)
``on_squash``          replay squash (same repair plus BF bookkeeping)
``on_invalidation``    external coherence invalidation
=====================  ====================================================

``on_store_resolve``/``on_load_issue`` may return a load to replay *now*
(execution-time detection); ``on_commit`` may decide the committing load
itself must replay (DMDC's commit-time detection).  The scheme itself
keeps the address-level hooks (wrong-path loads, recovery) and the
end-of-run ones (``finalize``, ``collect``).
"""

from repro.stats.counters import CounterSet, Histogram

#: The scheme protocol, by name -> number of arguments after ``self``.
#: This is the single source of truth the ``repro check`` lint pass
#: (rule REPRO007) validates scheme classes against: a subclass defining a
#: hook-shaped method that is *not* listed here (e.g. ``on_comit``) would
#: silently never be called by the pipeline.
PROTOCOL_HOOKS = {
    "on_wrongpath_load": 2,
    "on_recovery": 1,
    "finalize": 1,
    "collect": 0,
}

#: The adapter protocol (:class:`SoaHooks`), checked like the above: a
#: misspelled adapter hook would be a silent no-op in the kernel.
SOA_HOOKS = {
    "on_load_issue": 1,
    "on_store_resolve": 1,
    "on_commit_load": 1,
    "on_commit": 2,
    "on_squash": 2,
    "on_invalidation": 4,
    "on_wrongpath_load": 2,
    "on_recovery": 1,
}

#: Opcodes of the lane event log (:mod:`repro.sim.soa`).  A recording
#: kernel run appends one flat record per event a lane reads, opcode
#: first.  The log is seed-free: it marks each mispredicted fetch but
#: leaves out the run's own wrong-path draws, the one use of the seed
#: while the invalidation injector is off.  A group's lanes walk it
#: together (:mod:`repro.sim.walk`): through a search filter, a value
#: count, or a DMDC or Garg adapter, which
#: :func:`repro.sim.soa.replay_verdicts` also drives through a forked
#: run's tail.
#: Every record but a load commit carries the cycle it happened in (last,
#: or, for ``EV_COMMITS`` and ``EV_SQUASH``, first after the opcode or
#: the kept seq); a load commit belongs to the ``EV_COMMITS`` record that
#: follows it, so a log splits at any cycle boundary (a walk
#: checkpoints a lane there, :class:`repro.sim.walk.Checkpoint`).  A
#: commit-time replay logs
#: the cycle's ``EV_COMMITS`` before its squash; a squash a load-issue or
#: store-resolve hook called for follows that hook's record.
EV_LOAD = 0          # load issued: addr, seq, cycle
EV_STORE = 1         # store resolved, the LQ search found no victim:
                     # addr, seq, ROB tail seq, cycle
EV_STORE_VICTIM = 2  # store resolved, the hook named a live victim:
                     # addr, seq, ROB tail seq, cycle
EV_MISPREDICT = 3    # mispredicted fetch: branch seq, cycle (a lane draws
                     # its own wrong-path loads here)
EV_RECOVERY = 4      # branch recovery: seq, cycle
EV_SQUASH = 5        # squash: last kept seq, cycle, first refetched seq, n,
                     # then n squashed issued-load addrs
EV_COMMIT = 6        # load commit: addr
EV_LOAD_SAFE = 7     # load issued with every older store address known:
                     # addr, seq, cycle
EV_COMMITS = 8       # a cycle's commit stage retired instructions: cycle, count
EV_LOAD_GUARDED = 9  # a safe load the replay guard made non-speculative:
                     # addr, seq, cycle
EV_MARK = 10         # ground truth marked an issued load premature: load
                     # seq, store seq (before the marking store's record)


class CheckScheme:
    """Base scheme: shared stats plumbing and no-op hooks."""

    #: Whether the LQ must be a fully associative CAM (energy model input).
    uses_associative_lq = True
    #: Whether the pipeline must re-execute every load at commit (the
    #: value-based scheme's bandwidth cost).
    reexecutes_loads = False
    name = "base"

    def __init__(self):
        self.stats = CounterSet()
        self.window_instrs = Histogram()
        self.window_loads = Histogram()
        self.window_safe_loads = Histogram()
        self.window_unsafe_stores = Histogram()

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        """A wrong-path load issued (phantom; will be undone by recovery)."""

    def on_recovery(self, last_kept_seq: int) -> None:
        """Branch misprediction recovery completed."""

    # -- observability ------------------------------------------------------
    #: True while a DMDC checking window is open (cycle accounting).  A
    #: plain attribute, not a property: the kernel reads it every cycle,
    #: and descriptor dispatch is measurable there.  DMDC shadows
    #: it with an instance attribute it flips on activate/terminate.
    checking_active = False

    # -- SoA kernel adapter ------------------------------------------------
    def soa_hooks(self, kernel) -> "SoaHooks":
        """This scheme's adapter bound to ``kernel``: a
        :class:`~repro.sim.soa.SoaKernel` or a
        :class:`~repro.sim.soa.LaneView`.  The base answers a no-op
        adapter, so a scheme without one does nothing in the kernel.
        """
        return SoaHooks(self, kernel)

    def finalize(self, cycle: int) -> None:
        """End-of-run hook (close any open checking window for stats)."""

    def collect(self) -> None:
        """Export component-internal counters into ``self.stats``.

        Called once by the processor when building the result, so the
        energy model can price YLA/bloom/table activity uniformly.
        """


class SoaHooks:
    """A scheme's one implementation of load-issue, store-resolve,
    commit, squash and invalidation checking.

    The adapter reads a *view* ``k``: the SoA kernel's slot arrays or a
    verdict lane's seq-indexed :class:`~repro.sim.soa.LaneView`.  Every
    view has the columns ``seq``, ``addr``, ``size``, ``isld``, ``isst``,
    ``safe``, ``gbp``, ``unsafe``, ``wend``, ``rcyc``, ``icyc``, ``tvs``
    and the age-ordered ``rob``; the kernel also ``invm`` and ``lq``.
    Adapters only index columns and iterate queues, so any object that
    answers those serves (the test suite's reference loop binds them
    over its instruction objects).  No victim is -1, tested with
    ``!= -1``.  ``k.emit`` is the run's observer, or None;
    only the kernel has one, so scheme events read the kernel's
    ``tidx`` column and ``cycle`` behind an ``emit is not None`` test.

    The class-level flags let a caller skip events a scheme ignores.
    Commit dispatch is ``commit_mode``: 0 = never acts at commit; 1 =
    only loads matter (:meth:`on_commit_load`); 2 = windowed checking —
    :meth:`on_commit` runs whenever ``scheme.checking_active`` or the
    committing instruction is a store flagged unsafe; 3 = :meth:`on_commit`
    runs at every retire (the sanitizer, which applies its wrapped
    adapter's mode itself).
    """

    has_load_issue = False
    has_store_resolve = False
    commit_mode = 0

    def __init__(self, scheme: "CheckScheme", kernel) -> None:
        self.scheme = scheme
        self.k = kernel

    def on_load_issue(self, slot: int) -> int:
        """A load issued; return a younger load slot to replay from, or -1
        (conventional load-load coherence ordering; called only when
        ``has_load_issue``)."""
        return -1

    def on_store_resolve(self, slot: int) -> int:
        """A store's address resolved; return a victim load slot or -1
        (called only when ``has_store_resolve``)."""
        return -1

    def on_commit_load(self, slot: int) -> bool:
        """Commit-time check for a load; True = replay (``commit_mode`` 1)."""
        return False

    def on_commit(self, slot: int, cycle: int) -> bool:
        """Commit-time check for any instruction; True = replay the head
        (``commit_mode`` 2 and 3)."""
        return False

    def gated_commit(self, slot: int, cycle: int) -> bool:
        """The commit decision behind the kernel's gate for
        ``commit_mode`` 0-2 (the sanitizer asks it; the kernel and the
        verdict-lane replay inline it)."""
        k = self.k
        if self.commit_mode == 2:
            return ((self.scheme.checking_active or (k.isst[slot] and k.unsafe[slot]))
                    and self.on_commit(slot, cycle))
        if self.commit_mode == 1:
            return k.isld[slot] and self.on_commit_load(slot)
        return False

    def on_squash(self, last_kept_seq: int, victims) -> None:
        """A replay squashed everything younger than ``last_kept_seq``:
        the ROB slots in ``victims``, oldest first.

        The default repairs the scheme like a branch recovery, which is
        all every scheme but the Bloom filter does; the filter adapter
        overrides it to read the squashed loads.
        """
        self.scheme.on_recovery(last_kept_seq)

    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        """An injected invalidation arrived (conventional and DMDC
        coherence act on it)."""

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        """A wrong-path load issued: the scheme's address-level hook."""
        self.scheme.on_wrongpath_load(age, addr)

    def on_recovery(self, last_kept_seq: int) -> None:
        """Branch misprediction recovery: the scheme's own hook."""
        self.scheme.on_recovery(last_kept_seq)

