"""Invariant probes for the memory-ordering sanitizer.

Each probe pins one machine-checkable property of the age-based filtering
machinery (in the spirit of property-driven ordering verification):

* :class:`AgeOrderProbe` — ROB/LSQ age ordering: instructions retire with
  strictly increasing dynamic ages, loads and stores each in queue order.
* :class:`YlaProbe` — YLA soundness and monotonicity: after a load issues,
  its bank's register is at least as young as the load (the property that
  makes a "safe" store verdict trustworthy); between rollbacks a register
  only moves forward; a rollback clamps every register to exactly
  ``min(previous age, kept age)`` — clamping less leaks squashed loads
  into the filter, clamping more forgets live ones (unsound).
* :class:`WindowProbe` — ``end_check`` window consistency for DMDC: while
  a checking window is open its boundary never moves backwards, and the
  window may only terminate once commit has actually passed the boundary.

Probes report failures as strings; the sanitizer aggregates them into its
report (bounded) and optionally raises in strict mode.
"""

from typing import List, Optional

from repro.core.yla import YlaFile


class AgeOrderProbe:
    """Commit order must follow dynamic age order, per kind and overall."""

    name = "age-order"

    def __init__(self):
        self.checks = 0
        self._last_seq = -1
        self._last_load_seq = -1
        self._last_store_seq = -1

    def on_commit(self, seq: int, is_load: bool, is_store: bool) -> Optional[str]:
        self.checks += 1
        if seq <= self._last_seq:
            return (f"age-order: seq {seq} committed after "
                    f"seq {self._last_seq}")
        self._last_seq = seq
        if is_load:
            if seq <= self._last_load_seq:
                return (f"age-order: load seq {seq} retired out of LQ "
                        f"order (after {self._last_load_seq})")
            self._last_load_seq = seq
        elif is_store:
            if seq <= self._last_store_seq:
                return (f"age-order: store seq {seq} retired out of SQ "
                        f"order (after {self._last_store_seq})")
            self._last_store_seq = seq
        return None


class YlaProbe:
    """Soundness and monotonicity of one :class:`YlaFile`."""

    def __init__(self, yla: YlaFile, label: str):
        self.yla = yla
        self.label = label
        self.checks = 0
        self._ages = yla.snapshot()

    def after_load_issue(self, addr: int, age: int) -> Optional[str]:
        """The bank covering ``addr`` must now record an age >= ``age``."""
        self.checks += 1
        recorded = self.yla.youngest_for(addr)
        if recorded < age:
            return (f"yla[{self.label}]: bank {self.yla.bank(addr)} records "
                    f"age {recorded} after load age {age} issued — the "
                    f"filter would wrongly call an older store safe")
        return self._monotonic()

    def _monotonic(self) -> Optional[str]:
        snap = self.yla.snapshot()
        for bank, (old, new) in enumerate(zip(self._ages, snap)):
            if new < old:
                self._ages = snap
                return (f"yla[{self.label}]: bank {bank} moved backwards "
                        f"({old} -> {new}) without a rollback")
        self._ages = snap
        return None

    def after_rollback(self, last_kept_age: int) -> Optional[str]:
        """Rollback must clamp each bank to exactly min(old, kept)."""
        self.checks += 1
        snap = self.yla.snapshot()
        for bank, (old, new) in enumerate(zip(self._ages, snap)):
            expected = old if old < last_kept_age else last_kept_age
            if new != expected:
                self._ages = snap
                return (f"yla[{self.label}]: rollback to {last_kept_age} left "
                        f"bank {bank} at {new}, expected {expected}")
        self._ages = snap
        return None


class WindowProbe:
    """``end_check`` consistency of a DMDC-style checking window.

    Drive with :meth:`before_commit` / :meth:`after_commit` around each
    delegated ``on_commit``; the scheme must expose ``checking_active`` and
    an ``end_check()`` accessor.
    """

    name = "end-check-window"

    def __init__(self, scheme):
        self.scheme = scheme
        self.checks = 0
        self._was_active = False
        self._end_before = -1

    def before_commit(self) -> None:
        self._was_active = self.scheme.checking_active
        if self._was_active:
            self._end_before = self.scheme.end_check()

    def after_commit(self, seq: int, replayed: bool) -> Optional[str]:
        if not self._was_active:
            return None
        self.checks += 1
        if self.scheme.checking_active:
            end_now = self.scheme.end_check()
            if end_now < self._end_before:
                return (f"end-check: boundary shrank {self._end_before} -> "
                        f"{end_now} inside an open window")
            return None
        if replayed:
            # The squash path leaves the window open; it terminates at the
            # next commit.  Nothing to check here.
            return None
        if seq < self._end_before:
            return (f"end-check: window terminated at commit of seq "
                    f"{seq}, before the boundary {self._end_before}")
        return None


class ProbeSet:
    """The probes applicable to one scheme, built by the sanitizer."""

    def __init__(self, age: AgeOrderProbe, ylas: List[YlaProbe],
                 window: Optional[WindowProbe]):
        self.age = age
        self.ylas = ylas
        self.window = window

    @property
    def checks(self) -> int:
        total = self.age.checks + sum(p.checks for p in self.ylas)
        if self.window is not None:
            total += self.window.checks
        return total
