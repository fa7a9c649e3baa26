"""YLA: Youngest-issued-Load-Age registers (paper Section 3).

A YLA register records the age (dynamic sequence number) of the youngest
load that has *issued*.  A resolving store older than that age may have a
premature younger load and must be checked; a store younger than it
provably has none and can skip the LQ search (a *YLA hit*).

With multiple registers, addresses are interleaved across banks at a
configurable granularity — quad-word (8 B) for store-load checking, cache
line (128 B) for the invalidation-window registers of Section 4.3 — and
each register tracks only the loads of its bank, sharpening the filter.

Wrong-path loads may push a register too far forward; correctness is
unaffected (the filter only becomes more conservative) but effectiveness
drops, so recovery resets each register to the branch's age when that is
older (the paper's remedy).
"""

from typing import List

from repro.errors import ConfigError
from repro.utils.bitops import is_power_of_two, log2_exact

#: Age value meaning "no load has issued yet" — older than every real age.
NO_LOAD = -1


class YlaFile:
    """A bank of YLA registers with power-of-two address interleaving."""

    def __init__(self, num_registers: int = 8, granularity_bytes: int = 8):
        if not is_power_of_two(num_registers):
            raise ConfigError("YLA register count must be a power of two")
        if not is_power_of_two(granularity_bytes):
            raise ConfigError("YLA interleaving granularity must be a power of two")
        self.num_registers = num_registers
        self.granularity_bytes = granularity_bytes
        self._shift = log2_exact(granularity_bytes)
        self._mask = num_registers - 1
        self._ages: List[int] = [NO_LOAD] * num_registers
        self.updates = 0
        self.compares = 0
        self.hits = 0

    def bank(self, addr: int) -> int:
        """Bank index for ``addr`` under this file's interleaving."""
        return (addr >> self._shift) & self._mask

    def observe_load_issue(self, addr: int, age: int) -> None:
        """A load issued: push its bank's register forward if younger."""
        self.updates += 1
        b = (addr >> self._shift) & self._mask  # bank(), inline: a hot path
        if age > self._ages[b]:
            self._ages[b] = age

    def youngest_for(self, addr: int) -> int:
        """Age recorded for ``addr``'s bank (``NO_LOAD`` when none)."""
        return self._ages[(addr >> self._shift) & self._mask]

    def store_is_safe(self, addr: int, store_age: int) -> bool:
        """YLA check at store resolution (counts a compare).

        The store is safe — no younger load to a possibly-overlapping
        address has issued — when its bank's register holds an age older
        than the store's own.
        """
        self.compares += 1
        safe = self._ages[(addr >> self._shift) & self._mask] < store_age
        if safe:
            self.hits += 1
        return safe

    def rollback(self, last_kept_age: int) -> None:
        """Recovery/squash repair: clamp every register to the kept age.

        All loads younger than ``last_kept_age`` were squashed, so each
        register may legally be pulled back to that age.  Pulling further
        back would be unsound; not pulling back at all would only cost
        filter effectiveness.
        """
        ages = self._ages
        for i in range(self.num_registers):
            if ages[i] > last_kept_age:
                ages[i] = last_kept_age

    @property
    def hit_rate(self) -> float:
        """Fraction of store checks that were filtered (YLA hits)."""
        return self.hits / self.compares if self.compares else 0.0

    def snapshot(self) -> List[int]:
        """Copy of the register contents (diagnostics/tests)."""
        return list(self._ages)
