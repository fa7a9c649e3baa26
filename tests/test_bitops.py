"""Unit tests for bit-manipulation helpers."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bloom import CountingBloomFilter
from repro.core.checking_table import CheckingTable
from repro.core.schemes.garg import AgeHashTable
from repro.errors import ConfigError
from repro.utils.bitops import (
    align_down,
    bit_select,
    contains,
    fold_shifts,
    fold_xor,
    is_power_of_two,
    log2_exact,
    overlap,
)


class TestPowerOfTwo:
    def test_powers(self):
        for k in range(20):
            assert is_power_of_two(1 << k)

    def test_non_powers(self):
        for n in (0, -1, -4, 3, 6, 12, 100):
            assert not is_power_of_two(n)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(2048) == 11

    def test_log2_rejects_non_power(self):
        with pytest.raises(ConfigError):
            log2_exact(12)


class TestAlignSelect:
    def test_align_down(self):
        assert align_down(0x1237, 8) == 0x1230
        assert align_down(0x1238, 8) == 0x1238
        assert align_down(5, 1) == 5

    def test_bit_select(self):
        assert bit_select(0b1011_0110, 1, 3) == 0b011
        assert bit_select(0xFF00, 8, 8) == 0xFF

    @given(st.integers(min_value=0, max_value=1 << 48), st.sampled_from([1, 2, 4, 8, 64]))
    def test_align_idempotent(self, addr, gran):
        aligned = align_down(addr, gran)
        assert aligned % gran == 0
        assert align_down(aligned, gran) == aligned
        assert 0 <= addr - aligned < gran


class TestFoldXor:
    def test_within_range(self):
        for addr in (0, 1, 0xDEADBEEF, (1 << 40) - 1):
            assert 0 <= fold_xor(addr, 10) < 1024

    def test_distinguishes_low_bits(self):
        assert fold_xor(0x10, 8) != fold_xor(0x11, 8)

    @given(st.integers(min_value=0, max_value=(1 << 40) - 1), st.integers(min_value=1, max_value=16))
    def test_deterministic_and_bounded(self, value, width):
        a = fold_xor(value, width)
        assert a == fold_xor(value, width)
        assert 0 <= a < (1 << width)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_identity_for_narrow_values(self, value):
        # A value narrower than the fold width folds to itself.
        assert fold_xor(value, 16) == value

    def test_tables_fold_inline_as_the_chunk_loop_does(self):
        """The Bloom filter, Garg's age table and DMDC's checking table
        fold by precomputed shifts: equal to :func:`fold_xor` for every
        width 0-16, over random addresses, some wider than 40 bits."""
        rng = random.Random(20061209)
        values = [rng.getrandbits(rng.choice((12, 32, 40, 43, 64)))
                  for _ in range(400)] + [0, (1 << 40) - 1, (1 << 43) - 1]
        for width in range(17):
            shifts = fold_shifts(width)
            assert all(shift % width == 0 for shift in shifts)
            for table in (CountingBloomFilter(1 << width),
                          AgeHashTable(1 << width), CheckingTable(1 << width)):
                for value in values:
                    assert table.index(value) == fold_xor(value >> 3, width), (
                        type(table).__name__, width, value)


class TestOverlap:
    def test_basic_overlap(self):
        assert overlap(0, 8, 4, 8)
        assert overlap(4, 8, 0, 8)
        assert overlap(0, 8, 0, 1)

    def test_adjacent_ranges_do_not_overlap(self):
        assert not overlap(0, 8, 8, 8)
        assert not overlap(8, 8, 0, 8)

    @given(st.integers(0, 1000), st.sampled_from([1, 2, 4, 8]),
           st.integers(0, 1000), st.sampled_from([1, 2, 4, 8]))
    def test_symmetry(self, a, sa, b, sb):
        assert overlap(a, sa, b, sb) == overlap(b, sb, a, sa)

    @given(st.integers(0, 1000), st.sampled_from([1, 2, 4, 8]),
           st.integers(0, 1000), st.sampled_from([1, 2, 4, 8]))
    def test_contains_implies_overlap(self, a, sa, b, sb):
        if contains(a, sa, b, sb):
            assert overlap(a, sa, b, sb)

    def test_contains_exact(self):
        assert contains(0, 8, 0, 8)
        assert contains(0, 8, 4, 4)
        assert not contains(0, 8, 4, 8)
        assert not contains(4, 4, 0, 8)
