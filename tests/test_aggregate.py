"""Unit tests for group aggregation and table rendering."""

import pytest

from repro.stats.aggregate import geometric_mean
from repro.stats.report import format_table


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # all rows equal width
        assert len({len(l) for l in lines[1:]}) <= 2

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text
