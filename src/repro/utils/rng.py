"""Deterministic random number generation.

Every stochastic element of the reproduction (workload generation,
invalidation injection, wrong-path address synthesis) draws from a
:class:`DeterministicRng` seeded from an experiment-level seed plus a
purpose string, so results are bit-reproducible across runs and immune to
iteration-order changes elsewhere in the code.
"""

import random
import zlib


class DeterministicRng:
    """A seeded PRNG namespaced by purpose.

    Two instances created with the same ``(seed, purpose)`` produce the same
    stream; different purposes decorrelate streams even under equal seeds.
    """

    def __init__(self, seed: int, purpose: str = ""):
        self.seed = seed
        self.purpose = purpose
        mixed = (seed & 0xFFFFFFFF) ^ zlib.crc32(purpose.encode("utf-8"))
        self._rng = random.Random(mixed)

    def copy(self) -> "DeterministicRng":
        """An independent stream at this one's position."""
        other = DeterministicRng(self.seed, self.purpose)
        other._rng.setstate(self._rng.getstate())
        return other

    def child(self, purpose: str) -> "DeterministicRng":
        """Derive an independent stream for a sub-component."""
        return DeterministicRng(self._rng.randrange(1 << 30) ^ self.seed, purpose)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def choice(self, seq):
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(seq)

    def choices(self, seq, weights, k=1):
        """Weighted choice with replacement."""
        return self._rng.choices(seq, weights=weights, k=k)

    def geometric(self, p: float) -> int:
        """Number of failures before the first success (support ``0, 1, ...``)."""
        count = 0
        while self._rng.random() >= p:
            count += 1
            if count > 10_000:  # guard against p ~ 0
                break
        return count

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(seq)

    def expovariate(self, lambd: float) -> float:
        """Exponential variate with rate ``lambd``."""
        return self._rng.expovariate(lambd)
