"""Unit and property tests for the reference loop's RingBuffer (its ROB/LQ/SQ)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.reference_loop import RingBuffer


class TestBasics:
    def test_fifo_order(self):
        ring = RingBuffer(4)
        for i in range(4):
            ring.push(i)
        assert [ring.pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_head_tail(self):
        ring = RingBuffer(4)
        assert ring.head() is None and ring.tail() is None
        ring.push("a")
        ring.push("b")
        assert ring.head() == "a" and ring.tail() == "b"

    def test_overflow_raises(self):
        ring = RingBuffer(2)
        ring.push(1)
        ring.push(2)
        assert ring.full
        with pytest.raises(OverflowError):
            ring.push(3)

    def test_underflow_raises(self):
        with pytest.raises(IndexError):
            RingBuffer(2).pop()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_free_counts(self):
        ring = RingBuffer(3)
        assert ring.free == 3
        ring.push(1)
        assert ring.free == 2 and len(ring) == 1


class TestSquash:
    def test_squash_younger_by_predicate(self):
        ring = RingBuffer(8)
        for i in range(6):
            ring.push(i)
        squashed = ring.squash_younger(lambda x: x <= 2)
        assert squashed == [3, 4, 5]
        assert list(ring) == [0, 1, 2]

    def test_squash_nothing(self):
        ring = RingBuffer(4)
        ring.push(1)
        assert ring.squash_younger(lambda x: True) == []
        assert len(ring) == 1

    def test_squash_everything(self):
        ring = RingBuffer(4)
        for i in range(3):
            ring.push(i)
        assert ring.squash_younger(lambda x: False) == [0, 1, 2]
        assert len(ring) == 0

    def test_clear(self):
        ring = RingBuffer(4)
        ring.push(1)
        ring.clear()
        assert len(ring) == 0 and not ring.full


@st.composite
def ring_ops(draw):
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.integers(0, 100)),
            st.tuples(st.just("pop"), st.none()),
            st.tuples(st.just("squash_ge"), st.integers(0, 100)),
        ),
        max_size=60,
    ))


class TestModelBased:
    @given(ring_ops())
    def test_matches_list_model(self, ops):
        """A RingBuffer behaves exactly like a capacity-limited list."""
        ring = RingBuffer(8)
        model = []
        seq = 0
        for op, arg in ops:
            if op == "push":
                item = (seq, arg)
                seq += 1
                if len(model) < 8:
                    ring.push(item)
                    model.append(item)
                else:
                    with pytest.raises(OverflowError):
                        ring.push(item)
            elif op == "pop":
                if model:
                    assert ring.pop() == model.pop(0)
                else:
                    with pytest.raises(IndexError):
                        ring.pop()
            else:  # squash everything with payload >= arg from the tail
                expected = []
                while model and model[-1][1] >= arg:
                    expected.append(model.pop())
                expected.reverse()
                assert ring.squash_younger(lambda it: it[1] < arg) == expected
            assert list(ring) == model
            assert ring.full == (len(model) == 8)
