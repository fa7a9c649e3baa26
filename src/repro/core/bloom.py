"""Counting Bloom filter over issued-load addresses (Figure 3 baseline).

Models the address-only search filtering of Sethumadhavan et al. [18]: the
addresses of all in-flight *issued* loads are hashed (H0 — XOR folding)
into a table of small counters.  A resolving store probes the filter; a
zero counter proves no issued load to any aliasing address exists and the
LQ search is skipped.  Counters are decremented when loads commit or are
squashed, which is why they must count rather than be single bits.

Unlike YLA, the filter carries no age information: an *older* issued load
to the same bank defeats it, which is exactly the weakness Figure 3
quantifies.
"""

from typing import List

from repro.errors import ConfigError
from repro.utils.bitops import ADDRESS_MASK, fold_shifts, is_power_of_two, log2_exact


class CountingBloomFilter:
    """Single-hash (H0) counting Bloom filter keyed by quad-word address."""

    def __init__(self, entries: int, granularity_bytes: int = 8, counter_bits: int = 8):
        if not is_power_of_two(entries):
            raise ConfigError("bloom filter entries must be a power of two")
        if not is_power_of_two(granularity_bytes):
            raise ConfigError("bloom granularity must be a power of two")
        self.entries = entries
        self.granularity_bytes = granularity_bytes
        self.counter_max = (1 << counter_bits) - 1
        self._shift = log2_exact(granularity_bytes)
        self._mask = entries - 1
        self._folds = fold_shifts(log2_exact(entries))
        self._counters: List[int] = [0] * entries
        self.inserts = 0
        self.removes = 0
        self.probes = 0
        self.hits = 0  # probe found counter == 0 -> search filtered
        self.saturations = 0

    def index(self, addr: int) -> int:
        """H0 hash: XOR-fold the quad-word address to the table width
        (:func:`~repro.utils.bitops.fold_xor`, inline)."""
        word = (addr >> self._shift) & ADDRESS_MASK
        folded = word
        for shift in self._folds:
            folded ^= word >> shift
        return folded & self._mask

    def insert(self, addr: int) -> None:
        """A load issued: count its address in."""
        self.inserts += 1
        i = self.index(addr)
        if self._counters[i] < self.counter_max:
            self._counters[i] += 1
        else:
            # Saturated counters stick (conservative: never filtered again
            # until the run ends).  With 8-bit counters and bounded queue
            # occupancy this never fires in practice; counted for evidence.
            self.saturations += 1

    def remove(self, addr: int) -> None:
        """A counted load left the window (commit or squash)."""
        self.removes += 1
        i = self.index(addr)
        if self._counters[i] > 0 and self._counters[i] < self.counter_max:
            self._counters[i] -= 1

    def may_contain(self, addr: int) -> bool:
        """Probe at store resolution; False proves no aliasing issued load."""
        self.probes += 1
        present = self._counters[self.index(addr)] > 0
        if not present:
            self.hits += 1
        return present

    @property
    def filter_rate(self) -> float:
        """Fraction of probes that filtered the LQ search."""
        return self.hits / self.probes if self.probes else 0.0
