"""Statistics collection and reporting for simulation runs."""

from repro.stats.counters import CounterSet, Histogram
from repro.stats.report import format_table

__all__ = [
    "CounterSet",
    "Histogram",
    "format_table",
]
