"""A set-associative, LRU, write-allocate cache timing model.

Only hit/miss timing is modelled (no data).  The model is deliberately
blocking-free: concurrent misses are assumed to overlap (the enclosing
pipeline already limits memory-level parallelism through issue bandwidth
and cache ports, which is the first-order effect for this paper's
mechanisms).
"""

from array import array
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigError
from repro.utils.bitops import is_power_of_two, log2_exact


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int

    def __post_init__(self):
        if self.size_bytes <= 0 or self.assoc <= 0:
            raise ConfigError(f"{self.name}: size and associativity must be positive")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ConfigError(f"{self.name}: size not divisible by assoc*line")
        if not is_power_of_two(self.size_bytes // (self.assoc * self.line_bytes)):
            raise ConfigError(f"{self.name}: number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


class Cache:
    """LRU set-associative cache with hit/miss accounting."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = log2_exact(config.line_bytes)
        self._set_mask = config.num_sets - 1
        self._assoc = config.assoc
        # Each set is a list of tags ordered MRU-first.
        self._sets: Dict[int, List[int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _split(self, addr: int):
        line = addr >> self._line_shift
        return line & self._set_mask, line

    def lookup(self, addr: int) -> bool:
        """Probe without modifying state (no LRU update, no fill)."""
        index, tag = self._split(addr)
        return tag in self._sets.get(index, ())

    def access(self, addr: int) -> bool:
        """Access one address; fill on miss; return hit flag."""
        tag = addr >> self._line_shift
        index = tag & self._set_mask
        ways = self._sets.get(index)
        if ways is None:
            ways = []
            self._sets[index] = ways
        if tag in ways:
            self.hits += 1
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self._assoc:
            ways.pop()
            self.evictions += 1
        return False

    def copy_lines(self) -> "array[int]":
        """A flat copy of the tag store: per set, its index, its number of
        ways, then its tags MRU-first (an ``array('q')``, 8 bytes a word,
        since warm front ends and machine snapshots keep copies)."""
        flat = array("q")
        for index, ways in self._sets.items():
            flat.append(index)
            flat.append(len(ways))
            flat.extend(ways)
        return flat

    def load_lines(self, lines: Sequence[int]) -> None:
        """Replace the tag store with a private copy of ``lines`` (a
        :meth:`copy_lines` result).

        Hit/miss/eviction counters are left alone: a restored warm state
        must read like a fresh prewarm, whose counters are reset.
        """
        sets = self._sets
        sets.clear()
        i = 0
        n = len(lines)
        while i < n:
            end = i + 2 + lines[i + 1]
            sets[lines[i]] = lines[i + 2:end].tolist()
            i = end

    def invalidate_line(self, addr: int) -> bool:
        """Drop the line containing ``addr``; return True when present."""
        index, tag = self._split(addr)
        ways = self._sets.get(index)
        if ways and tag in ways:
            ways.remove(tag)
            self.invalidations += 1
            return True
        return False

    def line_addr(self, addr: int) -> int:
        """Align ``addr`` to its cache line."""
        return (addr >> self._line_shift) << self._line_shift

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0
