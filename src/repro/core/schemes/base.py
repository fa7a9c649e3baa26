"""Interface between the pipeline and a dependence-checking scheme.

The pipeline owns the machinery every design shares (speculative load
issue, SQ forwarding/rejection, squash, commit order); a scheme only
decides *how premature loads are detected*.  The hooks mirror the
micro-architectural events of the paper:

=====================  ====================================================
hook                   corresponds to
=====================  ====================================================
``on_load_issue``      load executes: YLA update / BF insert / hash-key
                       record; conventional coherence load-load check
``on_store_resolve``   store address resolves: conventional LQ search, or
                       filtering, or DMDC safe/unsafe classification
``on_commit``          in-order retirement: DMDC marking, checking mode,
                       window termination
``on_recovery``        branch misprediction recovery (YLA reset remedy)
``on_squash``          replay squash (same repair plus BF bookkeeping)
``on_invalidation``    external coherence invalidation
=====================  ====================================================

``on_store_resolve``/``on_load_issue`` may return a load to replay *now*
(execution-time detection); ``on_commit`` may decide the committing load
itself must replay (DMDC's commit-time detection).
"""

import enum
from typing import List, Optional

from repro.backend.dyninst import DynInstr
from repro.stats.counters import CounterSet, Histogram

#: The scheme protocol, by name -> number of arguments after ``self``.
#: This is the single source of truth the ``repro check`` lint pass
#: (rule REPRO007) validates scheme classes against: a subclass defining a
#: hook-shaped method that is *not* listed here (e.g. ``on_comit``) would
#: silently never be called by the pipeline.
PROTOCOL_HOOKS = {
    "on_load_issue": 2,
    "on_wrongpath_load": 2,
    "on_store_resolve": 2,
    "on_commit": 2,
    "on_recovery": 1,
    "on_squash": 2,
    "on_invalidation": 4,
    "finalize": 1,
    "collect": 0,
}

#: Opcodes of the lane event log (:mod:`repro.sim.soa`).  A recording
#: kernel run appends one flat record per event a lane reads, opcode
#: first.  ``ConventionalScheme.replay_lane``
#: (:mod:`repro.core.schemes.conventional`) replays it through a search
#: filter, :func:`repro.sim.soa.replay_verdicts` through a DMDC or Garg
#: adapter.
EV_LOAD = 0          # load issued: addr, seq
EV_STORE = 1         # store resolved, the LQ search found no victim:
                     # addr, seq, ROB tail seq
EV_STORE_VICTIM = 2  # store resolved, the search found a live victim:
                     # addr, seq, ROB tail seq
EV_WRONGPATH = 3     # wrong-path load: age, addr
EV_RECOVERY = 4      # branch recovery: seq
EV_SQUASH = 5        # squash: last kept seq, n, then n squashed issued-load addrs
EV_COMMIT = 6        # load commit: addr
EV_LOAD_SAFE = 7     # load issued with every older store address known: addr, seq
EV_COMMITS = 8       # a cycle's commit stage retired instructions: cycle, count


class CommitDecision(enum.Enum):
    """What ``on_commit`` wants the pipeline to do with a committing load."""

    OK = "ok"
    REPLAY = "replay"


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
        #: Optional scheme-event observer (an
        #: :class:`~repro.obs.recorder.ObservabilityRecorder`).  Emit
        #: sites guard with ``is None`` so observability is zero-cost
        #: when off; the recorder receives filter classifications and
        #: checking-window/table activity as typed events.
        self.obs = None

    # -- execution-time hooks -------------------------------------------
    def on_load_issue(self, load: DynInstr, cycle: int) -> Optional[DynInstr]:
        """A load issued.  May return a younger load to replay from
        (conventional load-load coherence ordering only)."""
        return None

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        """A wrong-path load issued (phantom; will be undone by recovery)."""

    def on_store_resolve(self, store: DynInstr, cycle: int) -> Optional[DynInstr]:
        """A store's address resolved.  May return a premature load to
        replay from (conventional execution-time detection)."""
        return None

    # -- commit-time hooks ------------------------------------------------
    def on_commit(self, instr: DynInstr, cycle: int) -> CommitDecision:
        """An instruction is about to retire (in order)."""
        return CommitDecision.OK

    # -- control-flow repair ----------------------------------------------
    def on_recovery(self, last_kept_seq: int) -> None:
        """Branch misprediction recovery completed."""

    def on_squash(self, last_kept_seq: int, squashed_loads: List[DynInstr]) -> None:
        """A replay squashed everything younger than ``last_kept_seq``."""

    # -- coherence ---------------------------------------------------------
    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        """An external invalidation for ``line_addr`` arrived."""

    # -- observability ------------------------------------------------------
    #: True while a DMDC checking window is open (cycle accounting).  A
    #: plain attribute, not a property: both cycle loops read it every
    #: cycle, and descriptor dispatch is measurable there.  DMDC shadows
    #: it with an instance attribute it flips on activate/terminate.
    checking_active = False

    # -- SoA kernel adapter ------------------------------------------------
    def soa_hooks(self, kernel) -> Optional["SoaHooks"]:
        """Slot-index adapter binding this scheme to a SoA kernel run.

        Returns a fresh :class:`SoaHooks` for ``kernel``, or None when
        this scheme has no slot-array transcription — the processor then
        steps the object path.  The base scheme answers None so unknown
        subclasses stay correct by default; see ``docs/performance.md``.
        """
        return None

    def finalize(self, cycle: int) -> None:
        """End-of-run hook (close any open checking window for stats)."""

    def collect(self) -> None:
        """Export component-internal counters into ``self.stats``.

        Called once by the processor when building the result, so the
        energy model can price YLA/bloom/table activity uniformly.
        """


class SoaHooks:
    """Scheme adapter for the SoA cycle kernel (:mod:`repro.sim.soa`).

    The object-path hooks above receive :class:`DynInstr`; the kernel
    instead hands adapters **slot indices** into its parallel arrays, and
    the class-level flags below let it skip the call entirely for events a
    scheme ignores.  Each adapter is a per-run transcription of its
    scheme's hooks: it calls the same component methods (YLA, checking
    table/queue, store sets) and bumps the same
    ``scheme.stats`` names, so a run is bit-identical either way — only
    pure queue-attribute tallies may be batched in locals and folded once
    via :meth:`fold`.

    Commit dispatch is ``commit_mode``: 0 = the scheme never acts at
    commit (the kernel makes no call per retiring instruction); 1 = only
    loads matter (:meth:`on_commit_load`); 2 = windowed checking — the
    kernel calls :meth:`on_commit` whenever ``scheme.checking_active`` or
    the committing instruction is a store flagged unsafe.
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
        (``commit_mode`` 2)."""
        return False

    def on_squash(self, last_kept_seq: int) -> None:
        """A replay squashed everything younger than ``last_kept_seq``.

        Delegates to the scheme's object-path hook with no load list: no
        kernel-side scheme reads the squashed loads themselves (the Bloom
        filter, which does, replays them from the event log).
        """
        self.scheme.on_squash(last_kept_seq, ())

    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        """An injected invalidation arrived.

        The default delegates to the scheme's object-path hook — correct
        for every scheme whose invalidation handling reads no per-load
        state (DMDC's line-YLA and table); the conventional adapter
        overrides it to mark its slot-array LQ.
        """
        self.scheme.on_invalidation(line_addr, line_bytes, cycle,
                                    oldest_inflight_seq)

    def fold(self) -> None:
        """Flush locally batched tallies back onto scheme/queue objects
        (called once, after the kernel's cycle loop finishes)."""
