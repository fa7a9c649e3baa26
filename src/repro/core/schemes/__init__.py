"""Pluggable memory-dependence-checking schemes."""

from repro.core.schemes.base import CheckScheme
from repro.core.schemes.conventional import (
    ConventionalScheme,
    YlaFilteredScheme,
    BloomFilteredScheme,
)
from repro.core.schemes.dmdc import DmdcScheme
from repro.core.schemes.garg import GargAgeHashScheme
from repro.core.schemes.value import ValueBasedScheme
from repro.core.schemes.factory import build_scheme

__all__ = [
    "CheckScheme",
    "ConventionalScheme",
    "YlaFilteredScheme",
    "BloomFilteredScheme",
    "DmdcScheme",
    "GargAgeHashScheme",
    "ValueBasedScheme",
    "build_scheme",
]
