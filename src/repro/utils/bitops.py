"""Bit-level helpers used by hashing, banking, and address arithmetic.

The paper's hardware structures are all indexed by low-order address bits or
by XOR-folded addresses (the H0 hash family of Sethumadhavan et al.).  These
helpers centralise that arithmetic so every structure hashes identically.
"""

from typing import Tuple

from repro.errors import ConfigError


def is_power_of_two(n: int) -> bool:
    """Return True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_exact(n: int) -> int:
    """Return ``log2(n)`` for a power of two, else raise :class:`ConfigError`.

    Hardware structures in this model (YLA banks, checking tables, bloom
    filters, caches) must have power-of-two sizes so they can be indexed by
    bit selection.
    """
    if not is_power_of_two(n):
        raise ConfigError(f"size must be a power of two, got {n}")
    return n.bit_length() - 1


def align_down(addr: int, granularity: int) -> int:
    """Align ``addr`` down to a power-of-two ``granularity`` in bytes."""
    return addr & ~(granularity - 1)


def bit_select(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``."""
    return (value >> low) & ((1 << width) - 1)


#: Width of the modelled machine's physical addresses: what an XOR fold
#: (:func:`fold_xor`) hashes.
ADDRESS_BITS = 40
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1


def fold_shifts(width: int, total_bits: int = ADDRESS_BITS) -> Tuple[int, ...]:
    """The shifts of every ``width``-bit chunk but the first, for a table
    to fold inline: with ``u = value & ((1 << total_bits) - 1)``,
    ``fold_xor(value, width, total_bits)`` is ``u ^ (u >> s)`` over each
    shift ``s``, masked to ``width`` bits (a masked XOR of the chunks is
    the XOR of the masked chunks).  Empty when ``width`` is 0: the mask
    is then 0 and every value folds to index 0."""
    if width <= 0:
        return ()
    return tuple(range(width, total_bits, width))


def fold_xor(value: int, width: int, total_bits: int = ADDRESS_BITS) -> int:
    """XOR-fold ``value`` down to ``width`` bits (the H0 hash of [18]).

    The H0 hashing function partitions the address into ``width``-bit
    chunks and XORs them together.  ``total_bits`` bounds how much of the
    address participates (physical addresses in the modelled machine are
    40 bits wide).
    """
    if width <= 0:
        return 0  # a single-entry table: everything folds to index 0
    value &= (1 << total_bits) - 1
    mask = (1 << width) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= width
    return folded


def overlap(addr_a: int, size_a: int, addr_b: int, size_b: int) -> bool:
    """Return True when byte ranges ``[a, a+size_a)`` and ``[b, b+size_b)`` overlap."""
    return addr_a < addr_b + size_b and addr_b < addr_a + size_a


def contains(addr_outer: int, size_outer: int, addr_inner: int, size_inner: int) -> bool:
    """Return True when the outer byte range fully covers the inner one.

    Store-to-load forwarding is only legal when the store's bytes fully
    cover the load's bytes; partial overlaps force a rejection instead.
    """
    return addr_outer <= addr_inner and addr_inner + size_inner <= addr_outer + size_outer
