"""Branch direction and target prediction.

Reproduces the paper's Table 1 front end: a combined predictor choosing
between a 4K-entry bimodal table and an 8K-entry gshare with 13 bits of
global history, selected by an 8K-entry meta table, plus a 4K-entry 4-way
BTB.  All tables use 2-bit saturating counters.
"""

from repro.utils.bitops import is_power_of_two, log2_exact
from repro.errors import ConfigError


def _saturate_up(counter: int) -> int:
    return counter + 1 if counter < 3 else 3


def _saturate_down(counter: int) -> int:
    return counter - 1 if counter > 0 else 0


class Bimodal:
    """PC-indexed table of 2-bit counters."""

    def __init__(self, entries: int):
        if not is_power_of_two(entries):
            raise ConfigError("bimodal entries must be a power of two")
        self._mask = entries - 1
        self._table = [2] * entries  # weakly taken, SimpleScalar default

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        self._table[i] = _saturate_up(self._table[i]) if taken else _saturate_down(self._table[i])


class Gshare:
    """Global-history XOR PC indexed table of 2-bit counters.

    The history register is speculatively updated at predict time and
    repaired on mispredictions by the caller via :meth:`set_history`.
    """

    def __init__(self, entries: int, history_bits: int):
        if not is_power_of_two(entries):
            raise ConfigError("gshare entries must be a power of two")
        self._mask = entries - 1
        self._table = [2] * entries
        self.history_bits = history_bits
        self._hist_mask = (1 << history_bits) - 1
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool, history_at_predict: int) -> None:
        i = ((pc >> 2) ^ history_at_predict) & self._mask
        self._table[i] = _saturate_up(self._table[i]) if taken else _saturate_down(self._table[i])

    def push_history(self, taken: bool) -> None:
        self.history = ((self.history << 1) | int(taken)) & self._hist_mask

    def set_history(self, history: int) -> None:
        self.history = history & self._hist_mask


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement, tracking taken-branch targets."""

    def __init__(self, entries: int, assoc: int):
        if entries % assoc != 0 or not is_power_of_two(entries // assoc):
            raise ConfigError("BTB sets must be a power of two")
        self._sets = entries // assoc
        self._assoc = assoc
        self._mask = self._sets - 1
        self._tag_shift = log2_exact(self._sets)
        self._table = {}  # set index -> list of (tag, target) MRU first
        self.hits = 0
        self.misses = 0

    def _split(self, pc: int):
        word = pc >> 2
        return word & self._mask, word >> self._tag_shift

    def lookup(self, pc: int):
        """Return the predicted target or None on a BTB miss."""
        index, tag = self._split(pc)
        ways = self._table.get(index, ())
        for i, (t, target) in enumerate(ways):
            if t == tag:
                self.hits += 1
                if i:
                    ways.insert(0, ways.pop(i))
                return target
        self.misses += 1
        return None

    def install(self, pc: int, target: int) -> None:
        index, tag = self._split(pc)
        ways = self._table.setdefault(index, [])
        for i, (t, _) in enumerate(ways):
            if t == tag:
                ways.pop(i)
                break
        ways.insert(0, (tag, target))
        if len(ways) > self._assoc:
            ways.pop()

    def copy_entries(self):
        """A copy of every set (set index -> MRU-first ways)."""
        return {index: tuple(ways) for index, ways in self._table.items()}

    def load_entries(self, entries) -> None:
        """Replace every set with a private copy of ``entries``."""
        self._table.clear()
        for index, ways in entries.items():
            self._table[index] = list(ways)


class CombinedPredictor:
    """Bimodal + gshare with a meta chooser (McFarling-style).

    :meth:`predict` returns ``(taken, snapshot)``; the snapshot is an opaque
    ``(history, bim, gsh, pred)`` tuple carrying the global-history value
    needed for an exact update and for history repair after a
    misprediction.  Treat it as opaque and pass it back to :meth:`resolve`.
    """

    def __init__(
        self,
        bimodal_entries: int = 4096,
        gshare_entries: int = 8192,
        history_bits: int = 13,
        meta_entries: int = 8192,
        btb_entries: int = 4096,
        btb_assoc: int = 4,
    ):
        self.bimodal = Bimodal(bimodal_entries)
        self.gshare = Gshare(gshare_entries, history_bits)
        if not is_power_of_two(meta_entries):
            raise ConfigError("meta entries must be a power of two")
        self._meta = [2] * meta_entries
        self._meta_mask = meta_entries - 1
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc)
        self.lookups = 0
        self.mispredictions = 0

    def predict(self, pc: int):
        """Predict direction; speculatively push it into global history."""
        self.lookups += 1
        gshare = self.gshare
        word = pc >> 2
        history = gshare.history
        bim = self.bimodal._table[word & self.bimodal._mask] >= 2
        gsh = gshare._table[(word ^ history) & gshare._mask] >= 2
        taken = gsh if self._meta[word & self._meta_mask] >= 2 else bim
        gshare.history = ((history << 1) | taken) & gshare._hist_mask
        return taken, (history, bim, gsh, taken)

    def resolve(self, pc: int, taken: bool, snapshot) -> bool:
        """Update all tables with the true outcome; return mispredicted flag."""
        history, bim, gsh, pred = snapshot
        mispredicted = pred != taken
        word = pc >> 2
        bim_ok = bim == taken
        gsh_ok = gsh == taken
        if gsh_ok != bim_ok:
            meta = self._meta
            i = word & self._meta_mask
            meta[i] = _saturate_up(meta[i]) if gsh_ok else _saturate_down(meta[i])
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken, history)
        if mispredicted:
            self.mispredictions += 1
            # Repair speculative history: correct outcome appended to the
            # history that existed at prediction time.
            self.gshare.set_history(((history << 1) | int(taken)))
        return mispredicted

    def copy_tables(self):
        """A private copy of the learned state: the bimodal, gshare and
        meta counters (2-bit values, so stored as ``bytes``), the global
        history and the BTB.  Lookup and misprediction counters are not
        part of it."""
        return (bytes(self.bimodal._table), bytes(self.gshare._table),
                bytes(self._meta), self.gshare.history, self.btb.copy_entries())

    def load_tables(self, tables) -> None:
        """Install a copy of :meth:`copy_tables` output (same geometry)."""
        bimodal, gshare, meta, history, btb = tables
        self.bimodal._table[:] = bimodal
        self.gshare._table[:] = gshare
        self._meta[:] = meta
        self.gshare.history = history
        self.btb.load_entries(btb)

    @property
    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredictions / self.lookups
