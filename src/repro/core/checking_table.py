"""DMDC's checking table (paper Sections 4.2-4.4).

A direct-indexed hash table communicating address information from unsafe
stores (marked at commit) to later-committing loads (which merely index
it).  Entries are keyed by quad-word (8 B) address via the H0 XOR fold;
each entry carries:

* a 4-bit **WRT** bitmap — one bit per 2-byte granule of the quad word, so
  accesses narrower than a quad word don't falsely collide ("handling
  multiple data sizes", Section 4.4);
* one **INV** bit — set by external invalidations (Section 4.3).  A load
  hitting only INV is not replayed but *promotes* the granule bits to WRT,
  so a second in-window load to the location does replay, which is exactly
  the write-serialization condition.

The table is flash-cleared when a checking window terminates; clearing is
O(marked entries) here, mirroring a hardware flash-clear.
"""

from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.utils.bitops import fold_xor, is_power_of_two, log2_exact

QUAD_WORD = 8
GRANULE = 2  # bytes per WRT bitmap bit
FULL_BITMAP = 0xF


def granule_bitmap(addr: int, size: int) -> int:
    """Bitmap of 2-byte granules within the quad word touched by an access."""
    start = (addr & (QUAD_WORD - 1)) // GRANULE
    count = max(1, size // GRANULE)
    bits = 0
    for g in range(start, min(start + count, QUAD_WORD // GRANULE)):
        bits |= 1 << g
    return bits


class CheckingTable:
    """WRT/INV hash table indexed by folded quad-word address."""

    def __init__(self, entries: int):
        if not is_power_of_two(entries):
            raise ConfigError("checking table entries must be a power of two")
        self.entries = entries
        self._bits = log2_exact(entries)
        # index -> (wrt_bitmap, inv_bit); absent index means all-clear.
        self._marked: Dict[int, Tuple[int, int]] = {}
        self.writes = 0
        self.reads = 0
        self.clears = 0

    def index(self, addr: int) -> int:
        return fold_xor(addr >> 3, self._bits)

    # Store side -----------------------------------------------------------
    def mark_store(self, addr: int, size: int) -> int:
        """An unsafe store committed: set its WRT granule bits; return index."""
        self.writes += 1
        i = self.index(addr)
        wrt, inv = self._marked.get(i, (0, 0))
        self._marked[i] = (wrt | granule_bitmap(addr, size), inv)
        return i

    # Invalidation side ------------------------------------------------------
    def mark_invalidation(self, line_addr: int, line_bytes: int) -> List[int]:
        """Set the INV bit of every quad-word entry the line maps to."""
        indices = []
        for qw in range(line_addr, line_addr + line_bytes, QUAD_WORD):
            self.writes += 1
            i = self.index(qw)
            wrt, _ = self._marked.get(i, (0, 0))
            self._marked[i] = (wrt, 1)
            indices.append(i)
        return indices

    #: check_load outcomes
    CLEAR = 0
    WRT_HIT = 1
    PROMOTED = 2

    # Load side --------------------------------------------------------------
    def check_load(self, addr: int, size: int) -> int:
        """Index the table at load commit.

        Returns ``WRT_HIT`` (replay), ``PROMOTED`` (INV-only entry: the
        touched granules were promoted to WRT per Section 4.3, no replay),
        or ``CLEAR``.
        """
        self.reads += 1
        i = self.index(addr)
        entry = self._marked.get(i)
        if entry is None:
            return self.CLEAR
        wrt, inv = entry
        bits = granule_bitmap(addr, size)
        if wrt & bits:
            return self.WRT_HIT
        if inv:
            self._marked[i] = (wrt | bits, inv)
            return self.PROMOTED
        return self.CLEAR

    def clear(self) -> None:
        """Flash-clear at checking-window termination."""
        self.clears += 1
        self._marked.clear()

    @property
    def marked_count(self) -> int:
        return len(self._marked)
