"""Construction of dependence-checking schemes from a scheme config."""

from repro.core.schemes.base import CheckScheme
from repro.core.schemes.conventional import (
    BloomFilteredScheme,
    ConventionalScheme,
    YlaFilteredScheme,
)
from repro.core.schemes.dmdc import DmdcScheme
from repro.core.schemes.garg import GargAgeHashScheme
from repro.core.schemes.value import ValueBasedScheme
from repro.errors import ConfigError


def build_scheme(scheme_config, machine_config) -> CheckScheme:
    """Instantiate the scheme named by ``scheme_config.kind``.

    ``machine_config`` supplies structure sizes (checking table, cache line)
    so one scheme config can be reused across the paper's three machine
    configurations.
    """
    kind = scheme_config.kind
    line_bytes = machine_config.l2_line_bytes
    if kind == "conventional":
        return ConventionalScheme(coherence=scheme_config.coherence,
                                  line_bytes=line_bytes)
    if kind == "yla":
        return YlaFilteredScheme(
            num_registers=scheme_config.yla_registers,
            granularity_bytes=scheme_config.yla_granularity,
            coherence=scheme_config.coherence,
            line_bytes=line_bytes,
        )
    if kind == "bloom":
        return BloomFilteredScheme(
            entries=scheme_config.bloom_entries,
            coherence=scheme_config.coherence,
            line_bytes=line_bytes,
        )
    if kind == "garg":
        table_entries = scheme_config.table_entries or machine_config.checking_table
        return GargAgeHashScheme(table_entries=table_entries)
    if kind == "value":
        return ValueBasedScheme()
    if kind == "dmdc":
        table_entries = scheme_config.table_entries or machine_config.checking_table
        return DmdcScheme(
            table_entries=table_entries,
            yla_registers=scheme_config.yla_registers,
            local=scheme_config.local,
            coherence=scheme_config.coherence,
            safe_loads=scheme_config.safe_loads,
            checking_queue_entries=scheme_config.checking_queue_entries,
            line_bytes=line_bytes,
        )
    raise ConfigError(f"unknown scheme kind {kind!r}")
