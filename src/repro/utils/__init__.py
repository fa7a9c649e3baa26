"""Small generic helpers shared across the simulator."""

from repro.utils.bitops import (
    align_down,
    bit_select,
    fold_xor,
    is_power_of_two,
    log2_exact,
    overlap,
)
from repro.utils.rng import DeterministicRng

__all__ = [
    "align_down",
    "bit_select",
    "fold_xor",
    "is_power_of_two",
    "log2_exact",
    "overlap",
    "DeterministicRng",
]
