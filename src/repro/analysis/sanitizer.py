"""Shadow-oracle memory-ordering sanitizer.

:class:`MemoryOrderSanitizer` is a kernel adapter
(:class:`repro.core.schemes.base.SoaHooks`) that wraps the scheme's own,
so attaching it changes *nothing* about the simulated machine: every
hook delegates to the wrapped adapter and the simulation result stays
bit-identical (pinned by ``tests/test_sanitizer_matrix.py``).  The run
takes the SoA kernel as usual, cycle skipper included.  Around each
delegation the sanitizer maintains an independent shadow associative
LQ/SQ (:mod:`repro.analysis.shadow`), fed from the kernel's slot
columns, and cross-checks the scheme's decisions against that oracle:

* at **store resolution** it flags every load that truly issued
  prematurely past the store, and classifies any execution-time replay the
  scheme ordered as true or false;
* at **every retire** (``commit_mode`` 3; the wrapped adapter's own mode
  gates the scheme's decision) it verifies that a flagged load does not
  retire un-replayed (a *missed violation* — the unsoundness DMDC's age
  filter must never exhibit) and classifies commit-time replays.  It
  runs before the kernel's built-in ``OrderingViolationMissed`` check,
  so a strict sanitizer raises first;
* invariant probes (:mod:`repro.analysis.probes`) check the scheme's
  live YLA files for soundness / monotonicity / rollback exactness,
  ``end_check`` window consistency, and ROB/LSQ age ordering;
* at every retire it also runs the kernel's structural invariants
  (:func:`repro.sim.validate.check_invariants`: queue age order and
  membership, IQ and register accounting, the rename table), which
  raise :class:`~repro.errors.SimulationError` on the first violation.

Attach with :func:`attach_sanitizer`.
"""

from typing import List, Optional

from repro.analysis.probes import AgeOrderProbe, ProbeSet, WindowProbe, YlaProbe
from repro.analysis.shadow import ShadowLSQ
from repro.core.schemes.base import SoaHooks
from repro.errors import SanitizerError
from repro.sim.config import SchemeConfig, scheme_matrix
from repro.sim.validate import check_invariants

#: The canonical scheme matrix the correctness suites sweep: one label per
#: scheme family the simulator implements (the fast-path equivalence
#: matrix and the sanitizer matrix must cover the same nine points).
#: Built through the one label codec (:meth:`SchemeConfig.from_label`),
#: so labels here, in ``repro bench``, and on the CLI cannot diverge.
SCHEME_MATRIX = scheme_matrix()

#: Cap on stored per-finding detail strings (counts are never capped).
MAX_DETAILS = 16


class SanitizerReport:
    """Aggregated findings of one sanitized run."""

    def __init__(self, scheme: str, probes: Optional[ProbeSet] = None):
        self.scheme = scheme
        self._probes = probes
        #: true premature loads the shadow oracle flagged at store resolve
        self.oracle_violations = 0
        #: flagged loads that retired with no replay — unsoundness
        self.missed_violations = 0
        #: replays covering at least one flagged load
        self.true_replays = 0
        #: replays covering no flagged load (the cost of approximation)
        self.false_replays = 0
        #: replays triggered by the load-issue hook (coherence ordering)
        self.coherence_replays = 0
        #: shadow oracle vs. built-in ground-truth flag disagreements
        self.oracle_divergence = 0
        #: invariant-probe failures (messages bounded by MAX_DETAILS)
        self.probe_failures: List[str] = []
        self.probe_failure_count = 0
        self.missed_details: List[str] = []
        self.events_checked = 0

    @property
    def probe_checks(self) -> int:
        """Invariant checks the probes ran so far."""
        return self._probes.checks if self._probes is not None else 0

    @property
    def clean(self) -> bool:
        return self.missed_violations == 0 and self.probe_failure_count == 0

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "oracle_violations": self.oracle_violations,
            "missed_violations": self.missed_violations,
            "true_replays": self.true_replays,
            "false_replays": self.false_replays,
            "coherence_replays": self.coherence_replays,
            "oracle_divergence": self.oracle_divergence,
            "probe_failures": self.probe_failure_count,
            "probe_checks": self.probe_checks,
            "events_checked": self.events_checked,
            "clean": self.clean,
            "details": self.missed_details + self.probe_failures,
        }

    def format(self) -> str:
        return format_report(self.as_dict())


def format_report(entry: dict) -> str:
    """The human-readable form of one report's :meth:`SanitizerReport.as_dict`
    (``repro check`` prints the entries :func:`repro.api.check` returns)."""
    verdict = "CLEAN" if entry["clean"] else "DEFECTIVE"
    lines = [
        f"sanitizer[{entry['scheme']}]: {verdict} — "
        f"{entry['oracle_violations']} true violations, "
        f"{entry['missed_violations']} missed, "
        f"{entry['true_replays']} true / {entry['false_replays']} false replays, "
        f"{entry['probe_failures']} probe failures "
        f"({entry['probe_checks']} probe checks, "
        f"{entry['events_checked']} events)"
    ]
    # ``details`` lists the missed-violation messages first, each capped
    # at MAX_DETAILS, so the split point follows from the count.
    missed = min(entry["missed_violations"], MAX_DETAILS)
    lines.extend(f"  missed: {d}" for d in entry["details"][:missed])
    lines.extend(f"  probe:  {d}" for d in entry["details"][missed:])
    return "\n".join(lines)


class MemoryOrderSanitizer(SoaHooks):
    """Adapter wrapper: delegate every hook, cross-check every decision.

    Built before the run around the processor's ``scheme`` (its probes
    read the scheme's live YLA files); the kernel hands it the scheme's
    own adapter through :meth:`wrap`.
    """

    has_load_issue = True
    has_store_resolve = True
    commit_mode = 3

    def __init__(self, scheme, strict: bool = False):
        super().__init__(scheme, None)
        #: The wrapped adapter (bound by :meth:`wrap`).
        self.inner: Optional[SoaHooks] = None
        self.strict = strict
        self.shadow = ShadowLSQ()
        ylas = []
        for label in ("yla", "yla_line"):
            yla = getattr(scheme, label, None)
            if yla is not None:
                ylas.append(YlaProbe(yla, label))
        window = WindowProbe(scheme) if hasattr(scheme, "end_check") else None
        self.probes = ProbeSet(AgeOrderProbe(), ylas, window)
        self.report = SanitizerReport(scheme.name, self.probes)

    def wrap(self, inner: SoaHooks) -> "MemoryOrderSanitizer":
        """Wrap the scheme's adapter ``inner`` and read its view."""
        self.inner = inner
        self.k = inner.k
        return self

    # -- defect recording -------------------------------------------------
    def _missed(self, message: str) -> None:
        self.report.missed_violations += 1
        if len(self.report.missed_details) < MAX_DETAILS:
            self.report.missed_details.append(message)
        if self.strict:
            raise SanitizerError(f"[{self.scheme.name}] {message}")

    def _probe_failed(self, message: Optional[str]) -> None:
        if message is None:
            return
        self.report.probe_failure_count += 1
        if len(self.report.probe_failures) < MAX_DETAILS:
            self.report.probe_failures.append(message)
        if self.strict:
            raise SanitizerError(f"[{self.scheme.name}] {message}")

    # -- execution-time hooks ---------------------------------------------
    def on_load_issue(self, slot: int) -> int:
        k = self.k
        inner = self.inner
        self.report.events_checked += 1
        seq = k.seq[slot]
        addr = k.addr[slot]
        self.shadow.load_issued(seq, addr, k.size[slot], k.fwdseq[slot])
        victim = inner.on_load_issue(slot) if inner.has_load_issue else -1
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_load_issue(addr, seq))
        if victim != -1:
            # Load-load coherence ordering replay; the kernel squashes
            # from the victim, which on_squash mirrors into the shadow.
            self.report.coherence_replays += 1
        return victim

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        self.inner.on_wrongpath_load(age, addr)
        # Wrong-path loads only push YLA registers forward (conservative);
        # monotonicity must still hold.
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_load_issue(addr, age))

    def on_store_resolve(self, slot: int) -> int:
        k = self.k
        inner = self.inner
        self.report.events_checked += 1
        flagged = self.shadow.store_resolved(k.seq[slot], k.addr[slot],
                                             k.size[slot])
        self.report.oracle_violations += len(flagged)
        victim = inner.on_store_resolve(slot) if inner.has_store_resolve else -1
        if victim != -1:
            # Execution-time replay: the kernel squashes from the victim,
            # covering every younger in-flight load.
            if self.shadow.pending_violation_at_or_after(k.seq[victim]):
                self.report.true_replays += 1
            else:
                self.report.false_replays += 1
        return victim

    # -- commit-time hook --------------------------------------------------
    def on_commit(self, slot: int, cycle: int) -> bool:
        k = self.k
        check_invariants(k)
        report = self.report
        report.events_checked += 1
        seq = k.seq[slot]
        is_load = k.isld[slot]
        is_store = k.isst[slot]
        self._probe_failed(self.probes.age.on_commit(seq, is_load, is_store))
        window = self.probes.window
        if window is not None:
            window.before_commit()
        replayed = self.inner.gated_commit(slot, cycle)
        if window is not None:
            self._probe_failed(window.after_commit(seq, replayed))
        if is_load:
            rec = self.shadow.loads.get(seq)
            shadow_violated = rec is not None and rec.violated_by >= 0
            builtin_violated = k.tvs[slot] >= 0
            if shadow_violated != builtin_violated:
                report.oracle_divergence += 1
            if replayed:
                if shadow_violated:
                    report.true_replays += 1
                else:
                    report.false_replays += 1
                # The squash removes the load from the shadow via on_squash.
            else:
                if shadow_violated:
                    self._missed(
                        f"load seq={seq} addr={k.addr[slot]:#x} retired "
                        f"despite premature issue past store "
                        f"seq={rec.violated_by} under {self.scheme.name}"
                    )
                self.shadow.load_committed(seq)
        elif is_store and not replayed:
            self.shadow.store_committed(seq)
        return replayed

    # -- control-flow repair -----------------------------------------------
    def on_recovery(self, last_kept_seq: int) -> None:
        self.inner.on_recovery(last_kept_seq)
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_rollback(last_kept_seq))

    def on_squash(self, last_kept_seq: int, victims) -> None:
        self.inner.on_squash(last_kept_seq, victims)
        self.shadow.squash_younger(last_kept_seq)
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_rollback(last_kept_seq))

    # -- coherence ----------------------------------------------------------
    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        self.inner.on_invalidation(line_addr, line_bytes, cycle,
                                   oldest_inflight_seq)


def run_sanitized(config, trace, max_instructions=None, seed: int = 1,
                  strict: bool = False, prewarm: bool = True):
    """Run ``trace`` on ``config`` with a sanitizer attached.

    Mirrors :func:`repro.sim.runner.run_trace` and returns
    ``(SimulationResult, SanitizerReport)``.  The result is bit-identical
    to an unsanitized run of the same configuration (the sanitizer keeps
    its findings out of the scheme's stats), so the pair can be compared
    directly against a plain run.
    """
    from repro.sim.processor import Processor

    processor = Processor(config, trace, seed=seed)
    sanitizer = attach_sanitizer(processor, strict=strict)
    if prewarm:
        processor.prewarm()
    budget = max_instructions if max_instructions is not None else len(trace)
    result = processor.run(budget)
    return result, sanitizer.report


def attach_sanitizer(processor, strict: bool = False) -> MemoryOrderSanitizer:
    """Attach a sanitizer to ``processor`` before the run starts: its
    kernel then wraps the scheme's adapter in it."""
    if processor.cycle != 0:
        raise SanitizerError("attach the sanitizer before the first cycle")
    if processor.sanitizer is not None:
        raise SanitizerError("processor already has a sanitizer")
    sanitizer = MemoryOrderSanitizer(processor.scheme, strict=strict)
    processor.sanitizer = sanitizer
    return sanitizer
