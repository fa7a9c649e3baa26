"""Age-hash LQ replacement of Garg et al. [11] (ISLPED 2006).

The design DMDC directly improves upon: the associative LQ is replaced by
a single hash table in which **each entry records the age of the youngest
issued load whose address hashes to it**.  A resolving store indexes the
table; a recorded age younger than the store means a possible premature
load, and the machine conservatively replays everything younger than the
store (the offending load cannot be identified without an LQ).

Contrasts with DMDC, per the paper's related-work discussion:

* every load writes an *age* (more bits) into the table, and every store
  reads it — no filtering, so far more table traffic;
* detection is at execution time, so squashed-path loads pollute the
  table (stale young ages cause false replays until commit age passes
  them); DMDC's commit-time marking avoids pollution by construction;
* a replay must flush from the store (no victim load is known), which is
  costlier than DMDC's replay-from-the-load.
"""

from typing import Dict

from repro.core.schemes.base import CheckScheme, SoaHooks
from repro.errors import ConfigError
from repro.utils.bitops import fold_xor, is_power_of_two, log2_exact


class AgeHashTable:
    """Hash table of youngest-issued-load ages, keyed by quad-word address."""

    def __init__(self, entries: int):
        if not is_power_of_two(entries):
            raise ConfigError("age-hash table entries must be a power of two")
        self.entries = entries
        self._bits = log2_exact(entries)
        self._ages: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def index(self, addr: int) -> int:
        return fold_xor(addr >> 3, self._bits)

    def observe_load(self, addr: int, age: int) -> None:
        self.writes += 1
        i = self.index(addr)
        if age > self._ages.get(i, -1):
            self._ages[i] = age

    def youngest_for(self, addr: int) -> int:
        self.reads += 1
        return self._ages.get(self.index(addr), -1)

    def rollback(self, last_kept_age: int) -> None:
        """Optional squash repair (the hardware version cannot afford it;
        modelled for the ablation of pollution effects)."""
        for i, age in list(self._ages.items()):
            if age > last_kept_age:
                self._ages[i] = last_kept_age


class GargAgeHashScheme(CheckScheme):
    """Replace the associative LQ with an age hash table [11]."""

    uses_associative_lq = False
    name = "garg"

    def __init__(self, table_entries: int = 2048, repair_on_squash: bool = False):
        super().__init__()
        self.table = AgeHashTable(table_entries)
        #: When True, squashes clamp table ages (an idealised variant the
        #: real hardware cannot implement cheaply); False models the
        #: pollution the paper says DMDC "naturally avoids".
        self.repair_on_squash = repair_on_squash

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        self.table.observe_load(addr, age)
        self.stats.bump("garg.wrongpath_updates")

    def on_recovery(self, last_kept_seq: int) -> None:
        # A replay squash repairs the same way (the base adapter).
        if self.repair_on_squash:
            self.table.rollback(last_kept_seq)

    def soa_hooks(self, kernel):
        return _GargSoaHooks(self, kernel)

    def collect(self) -> None:
        self.stats["garg.table.reads"] = self.table.reads
        self.stats["garg.table.writes"] = self.table.writes
        self.stats["garg.table.entries"] = self.table.entries


class _GargSoaHooks(SoaHooks):
    """Garg's load-issue and store-resolve checking.

    A load writes its age into the table.  A resolving store reads it;
    an age younger than the store flushes from the first ROB entry
    younger than the store (the table cannot name the load).
    """

    has_load_issue = True
    has_store_resolve = True

    def on_load_issue(self, slot: int) -> int:
        k = self.k
        self.scheme.table.observe_load(k.addr[slot], k.seq[slot])
        return -1

    def on_store_resolve(self, slot: int) -> int:
        s = self.scheme
        k = self.k
        s.stats.bump("stores.resolved")
        addr = k.addr[slot]
        sseq = k.seq[slot]
        if s.table.youngest_for(addr) <= sseq:
            s.stats.bump("stores.safe")
            if k.emit is not None:
                k.emit.store_classified(sseq, k.tidx[slot], True, k.cycle)
            return -1
        if k.emit is not None:
            k.emit.store_classified(sseq, k.tidx[slot], False, k.cycle)
        seq_ = k.seq
        line = addr >> 3
        for entry in k.rob:
            if seq_[entry] > sseq:
                s.stats.bump("replay.execution_time")
                if k.tvs[entry] < 0 and not (
                    k.isld[entry] and k.icyc[entry] >= 0
                    and k.addr[entry] >> 3 == line
                ):
                    s.stats.bump("replay.false")
                return entry
        # Stale table entry (e.g. from a squashed load) with nothing
        # younger in flight: nothing to do.
        s.stats.bump("garg.stale_hits")
        return -1
