"""Shadow-oracle memory-ordering sanitizer.

:class:`MemoryOrderSanitizer` wraps any dependence-checking scheme behind
the same hook protocol the pipeline already speaks
(:class:`repro.core.schemes.base.CheckScheme`), so attaching it changes
*nothing* about the simulated machine: every hook delegates to the wrapped
scheme and the simulation result stays bit-identical (pinned by
``tests/test_sanitizer_matrix.py``).  Around each delegation it maintains
an independent shadow associative LQ/SQ (:mod:`repro.analysis.shadow`) and
cross-checks the scheme's decisions against that oracle:

* at **store resolution** it flags every load that truly issued
  prematurely past the store, and classifies any execution-time replay the
  scheme ordered as true or false;
* at **load commit** it verifies that a flagged load does not retire
  un-replayed (a *missed violation* — the unsoundness DMDC's age filter
  must never exhibit) and classifies commit-time replays;
* invariant probes (:mod:`repro.analysis.probes`) check YLA soundness /
  monotonicity / rollback exactness, ``end_check`` window consistency, and
  ROB/LSQ age ordering on every event.

Attach with :func:`attach_sanitizer`.  The sanitizer checks object-path
events, so it has no slot-array adapter (:meth:`MemoryOrderSanitizer.soa_hooks`
answers None): a sanitized run takes the object loop, which steps every
cycle.
"""

from typing import List, Optional

from repro.analysis.probes import AgeOrderProbe, ProbeSet, WindowProbe, YlaProbe
from repro.analysis.shadow import ShadowLSQ
from repro.backend.dyninst import DynInstr
from repro.core.schemes.base import CommitDecision
from repro.errors import SanitizerError
from repro.sim.config import SchemeConfig, scheme_matrix

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

    def __init__(self, scheme: str):
        self.scheme = scheme
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
        self.probe_checks = 0
        self.events_checked = 0

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
        verdict = "CLEAN" if self.clean else "DEFECTIVE"
        lines = [
            f"sanitizer[{self.scheme}]: {verdict} — "
            f"{self.oracle_violations} true violations, "
            f"{self.missed_violations} missed, "
            f"{self.true_replays} true / {self.false_replays} false replays, "
            f"{self.probe_failure_count} probe failures "
            f"({self.probe_checks} probe checks, "
            f"{self.events_checked} events)"
        ]
        lines.extend(f"  missed: {d}" for d in self.missed_details)
        lines.extend(f"  probe:  {d}" for d in self.probe_failures)
        return "\n".join(lines)


class MemoryOrderSanitizer:
    """Scheme wrapper: delegate every hook, cross-check every decision."""

    def __init__(self, inner, strict: bool = False):
        self.inner = inner
        self.strict = strict
        self.shadow = ShadowLSQ()
        self.report = SanitizerReport(inner.name)
        ylas = []
        for label in ("yla", "yla_line"):
            yla = getattr(inner, label, None)
            if yla is not None:
                ylas.append(YlaProbe(yla, label))
        window = WindowProbe(inner) if hasattr(inner, "end_check") else None
        self.probes = ProbeSet(AgeOrderProbe(), ylas, window)

    # -- defect recording -------------------------------------------------
    def _missed(self, message: str) -> None:
        self.report.missed_violations += 1
        if len(self.report.missed_details) < MAX_DETAILS:
            self.report.missed_details.append(message)
        if self.strict:
            raise SanitizerError(f"[{self.inner.name}] {message}")

    def _probe_failed(self, message: Optional[str]) -> None:
        if message is None:
            return
        self.report.probe_failure_count += 1
        if len(self.report.probe_failures) < MAX_DETAILS:
            self.report.probe_failures.append(message)
        if self.strict:
            raise SanitizerError(f"[{self.inner.name}] {message}")

    # -- execution-time hooks ---------------------------------------------
    def on_load_issue(self, load: DynInstr, cycle: int) -> Optional[DynInstr]:
        self.report.events_checked += 1
        self.shadow.load_issued(load, cycle)
        victim = self.inner.on_load_issue(load, cycle)
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_load_issue(load.addr, load.seq))
        if victim is not None:
            # Load-load coherence ordering replay; the pipeline squashes
            # from the victim, which on_squash mirrors into the shadow.
            self.report.coherence_replays += 1
        return victim

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        self.inner.on_wrongpath_load(age, addr)
        # Wrong-path loads only push YLA registers forward (conservative);
        # monotonicity must still hold.
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_load_issue(addr, age))

    def on_store_resolve(self, store: DynInstr, cycle: int) -> Optional[DynInstr]:
        self.report.events_checked += 1
        flagged = self.shadow.store_resolved(store, cycle)
        self.report.oracle_violations += len(flagged)
        victim = self.inner.on_store_resolve(store, cycle)
        if victim is not None:
            # Execution-time replay: the pipeline squashes from the victim,
            # covering every younger in-flight load.
            if self.shadow.pending_violation_at_or_after(victim.seq):
                self.report.true_replays += 1
            else:
                self.report.false_replays += 1
        return victim

    # -- commit-time hook --------------------------------------------------
    def on_commit(self, instr: DynInstr, cycle: int) -> CommitDecision:
        self.report.events_checked += 1
        self._probe_failed(self.probes.age.on_commit(instr))
        window = self.probes.window
        if window is not None:
            window.before_commit()
        decision = self.inner.on_commit(instr, cycle)
        replayed = decision == CommitDecision.REPLAY
        if window is not None:
            self._probe_failed(window.after_commit(instr, replayed))
        if instr.is_load:
            rec = self.shadow.loads.get(instr.seq)
            shadow_violated = rec is not None and rec.violated_by >= 0
            builtin_violated = instr.true_violation_store >= 0
            if shadow_violated != builtin_violated:
                self.report.oracle_divergence += 1
            if replayed:
                if shadow_violated:
                    self.report.true_replays += 1
                else:
                    self.report.false_replays += 1
                # The squash removes the load from the shadow via on_squash.
            else:
                if shadow_violated:
                    self._missed(
                        f"load seq={instr.seq} addr={instr.addr:#x} retired "
                        f"despite premature issue past store "
                        f"seq={rec.violated_by} under {self.inner.name}"
                    )
                self.shadow.load_committed(instr.seq)
        elif instr.is_store and not replayed:
            self.shadow.store_committed(instr.seq)
        return decision

    # -- control-flow repair -----------------------------------------------
    def on_recovery(self, last_kept_seq: int) -> None:
        self.inner.on_recovery(last_kept_seq)
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_rollback(last_kept_seq))

    def on_squash(self, last_kept_seq: int, squashed_loads: List[DynInstr]) -> None:
        self.inner.on_squash(last_kept_seq, squashed_loads)
        self.shadow.squash_younger(last_kept_seq)
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_rollback(last_kept_seq))

    # -- coherence ----------------------------------------------------------
    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        self.inner.on_invalidation(line_addr, line_bytes, cycle,
                                   oldest_inflight_seq)

    # -- pass-through observability -----------------------------------------
    @property
    def checking_active(self) -> bool:
        return self.inner.checking_active

    def soa_hooks(self, kernel):
        """No slot-array adapter: the shadow LQ/SQ checks object-path
        events, so a sanitized run must take the object loop.  Explicit
        because ``__getattr__`` would otherwise hand the kernel the inner
        scheme's adapter and the run would check nothing."""
        return None

    def finalize(self, cycle: int) -> None:
        self.inner.finalize(cycle)

    def collect(self) -> None:
        self.inner.collect()
        self.report.probe_checks = self.probes.checks

    def __getattr__(self, attr):
        # Everything else (stats, window histograms, name, energy-model
        # class attributes) reads through to the wrapped scheme, so results
        # built from a sanitized run are indistinguishable from plain runs.
        if attr == "inner":
            raise AttributeError(attr)
        return getattr(self.inner, attr)


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
    """Wrap ``processor``'s scheme in a sanitizer before the run starts.

    The wrapper has no slot-array adapter, so the run takes the object
    loop and the sanitizer sees every event.
    """
    if processor.cycle != 0:
        raise SanitizerError("attach the sanitizer before the first cycle")
    sanitizer = MemoryOrderSanitizer(processor.scheme, strict=strict)
    processor.scheme = sanitizer
    return sanitizer
