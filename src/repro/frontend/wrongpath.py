"""Wrong-path load injection.

A real out-of-order core keeps executing down the mispredicted path until
the branch resolves, and wrong-path loads update the YLA registers (the
paper, Section 3: "loads from wrong paths can corrupt YLA ... a simple and
effective remedy is to reset the YLA register to the branch's age during
recovery").  Full wrong-path simulation is out of scope for a trace-driven
model, so this component synthesises the *effect*: on every misprediction
it produces a burst of phantom load issues with ages younger than the
branch and addresses near the program's recent working set, which are fed
to the active dependence-checking scheme before recovery is signalled.
"""

from collections import deque
from typing import List, Tuple

from repro.utils.rng import DeterministicRng


class WrongPathModel:
    """Synthesises wrong-path load issues on branch mispredictions."""

    def __init__(
        self,
        rng: DeterministicRng,
        mean_loads_per_mispredict: float = 2.0,
        address_spread: int = 4096,
        enabled: bool = True,
    ):
        self.rng = rng
        self.enabled = enabled
        self.mean_loads = mean_loads_per_mispredict
        self.address_spread = address_spread
        self._recent_cap = 32
        # A bounded deque: append evicts the oldest entry in O(1), and it
        # sits directly on the load-issue hot path of both pipelines.
        self._recent_addrs: deque = deque(maxlen=self._recent_cap)
        self.injected = 0

    def copy(self) -> "WrongPathModel":
        """An independent model in this one's state: the same stream
        position, recent addresses and draw count."""
        other = WrongPathModel(self.rng.copy(), self.mean_loads,
                               self.address_spread, self.enabled)
        other._recent_addrs.extend(self._recent_addrs)
        other.injected = self.injected
        return other

    def observe_address(self, addr: int) -> None:
        """Track committed-path data addresses to anchor wrong-path ones."""
        self._recent_addrs.append(addr)

    def loads_for_mispredict(self, branch_seq: int) -> List[Tuple[int, int]]:
        """Return ``(age, address)`` pairs of phantom wrong-path loads.

        Ages are strictly younger (greater) than ``branch_seq`` so the YLA
        corruption and reset-to-branch-age recovery are exercised exactly
        as in hardware.
        """
        if not self.enabled or not self._recent_addrs:
            return []
        # Geometric burst: most mispredictions shadow only a couple of loads.
        p = 1.0 / (1.0 + self.mean_loads)
        count = self.rng.geometric(p)
        loads = []
        for i in range(count):
            base = self.rng.choice(self._recent_addrs)
            offset = self.rng.randint(-self.address_spread, self.address_spread) & ~0x7
            addr = max(0, base + offset)
            loads.append((branch_seq + 1 + i, addr))
        self.injected += len(loads)
        return loads
