"""Machine and scheme configurations (paper Table 1)."""

import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.mem.cache import CacheConfig

#: ``storesets`` is a label alias: the store-set predictor rides on the
#: conventional LQ, so its canonical config is conventional + store_sets.
_STORESETS_ALIAS = "storesets"

#: Boolean label suffixes, in canonical emission order: token -> (field,
#: labelled value).  A token appears in a label iff the field differs
#: from the dataclass default.
_FLAG_TOKENS: Tuple[Tuple[str, str, bool], ...] = (
    ("local", "local", True),
    ("coherent", "coherence", True),
    ("storesets", "store_sets", True),
    ("nosafe", "safe_loads", False),
    ("sqfilter", "sq_filter", True),
)

#: Integer-valued label suffixes (``<token><N>``), canonical order.
_INT_TOKENS: Tuple[Tuple[str, str], ...] = (
    ("queue", "checking_queue_entries"),
    ("table", "table_entries"),
    ("regs", "yla_registers"),
    ("gran", "yla_granularity"),
    ("entries", "bloom_entries"),
)


@dataclass(frozen=True)
class SchemeConfig:
    """Which dependence-checking scheme runs and with what parameters."""

    kind: str = "conventional"  # conventional | yla | bloom | dmdc | garg | value
    yla_registers: int = 8
    yla_granularity: int = 8          # bytes; 8 = quad-word interleaving
    bloom_entries: int = 1024
    table_entries: Optional[int] = None  # None -> machine config's size
    local: bool = False                  # local vs global DMDC
    safe_loads: bool = True              # safe-load detection optimisation
    checking_queue_entries: Optional[int] = None  # not None -> queue variant
    coherence: bool = False
    sq_filter: bool = False              # Section 3 SQ-search filtering
    #: Optional store-set dependence predictor (Chrysos-Emer; the paper's
    #: related work [7]).  Off by default, as in the paper.
    store_sets: bool = False

    def __post_init__(self):
        if self.kind not in ("conventional", "yla", "bloom", "dmdc", "garg", "value"):
            raise ConfigError(f"unknown scheme kind {self.kind!r}")

    def cache_key(self) -> str:
        """Deterministic canonical form: same fields, same key, any process."""
        return json.dumps(self._key_fields(), separators=(",", ":"))

    def _key_fields(self) -> Dict[str, object]:
        """Every field by name, in sorted order: what ``asdict`` gives
        with sorted keys, without its deep copy (every field is a
        scalar)."""
        return {name: getattr(self, name) for name in _SCHEME_FIELDS}

    # -- the canonical label codec ----------------------------------------
    #
    # One grammar shared by the CLI, the correctness matrix, the bench
    # harness, and the HTTP service: ``<kind>[-<suffix>...]`` where each
    # suffix names one non-default field (``local``, ``coherent``,
    # ``storesets``, ``nosafe``, ``sqfilter``, ``queue<N>``, ``table<N>``,
    # ``regs<N>``, ``gran<N>``, ``entries<N>``).  ``storesets`` alone
    # abbreviates ``conventional-storesets``.  ``label()`` and
    # ``from_label()`` round-trip exactly: every field is covered.

    def label(self) -> str:
        """The canonical label for this scheme configuration."""
        defaults = SchemeConfig()
        parts = [self.kind]
        skip_storesets = False
        if self.kind == "conventional" and self.store_sets:
            parts = [_STORESETS_ALIAS]
            skip_storesets = True
        for token, field_name, labelled in _FLAG_TOKENS:
            if token == "storesets" and skip_storesets:
                continue
            if getattr(self, field_name) == labelled \
                    and getattr(defaults, field_name) != labelled:
                parts.append(token)
        for token, field_name in _INT_TOKENS:
            value = getattr(self, field_name)
            if value != getattr(defaults, field_name):
                parts.append(f"{token}{value}")
        return "-".join(parts)

    @classmethod
    def from_label(cls, label: str) -> "SchemeConfig":
        """Parse a canonical scheme label back into a configuration.

        Inverse of :meth:`label`; unknown kinds or suffixes raise
        :class:`~repro.errors.ConfigError` naming the offending token.
        """
        tokens = label.strip().split("-")
        head, rest = tokens[0], tokens[1:]
        fields: Dict[str, object] = {}
        if head == _STORESETS_ALIAS:
            fields["kind"] = "conventional"
            fields["store_sets"] = True
        elif head in ("conventional", "yla", "bloom", "dmdc", "garg", "value"):
            fields["kind"] = head
        else:
            raise ConfigError(
                f"unknown scheme label {label!r}: bad kind {head!r}")
        flag_fields = {token: (field_name, labelled)
                       for token, field_name, labelled in _FLAG_TOKENS}
        for token in rest:
            if token in flag_fields:
                field_name, labelled = flag_fields[token]
                fields[field_name] = labelled
                continue
            for prefix, field_name in _INT_TOKENS:
                if token.startswith(prefix) and token[len(prefix):].isdigit():
                    fields[field_name] = int(token[len(prefix):])
                    break
            else:
                raise ConfigError(
                    f"unknown scheme label {label!r}: bad suffix {token!r}")
        return cls(**fields)  # type: ignore[arg-type]


#: Canonical labels of the nine-point scheme matrix every correctness and
#: performance suite sweeps (one per implemented scheme family).
SCHEME_LABELS: Tuple[str, ...] = (
    "conventional",
    "storesets",
    "yla",
    "bloom",
    "dmdc",
    "dmdc-local",
    "dmdc-queue8",
    "garg",
    "value",
)


def scheme_matrix() -> Dict[str, SchemeConfig]:
    """The canonical matrix, label -> config, built through the codec."""
    return {label: SchemeConfig.from_label(label) for label in SCHEME_LABELS}


@dataclass(frozen=True)
class MachineConfig:
    """One machine configuration: core widths, queue sizes, memory system."""

    name: str = "config2"
    # Core
    width: int = 8                  # issue/decode/commit width
    rob_size: int = 256
    iq_int: int = 48
    iq_fp: int = 48
    lq_size: int = 96
    sq_size: int = 48
    regs_int: int = 200
    regs_fp: int = 200
    checking_table: int = 2048
    int_alu: int = 8
    int_muldiv: int = 2
    fp_alu: int = 8
    fp_muldiv: int = 2
    dcache_ports: int = 2
    # Front end
    fetch_buffer: int = 16
    decode_latency: int = 2
    branch_penalty: int = 7
    bimodal_entries: int = 4096
    gshare_entries: int = 8192
    gshare_history: int = 13
    meta_entries: int = 8192
    btb_entries: int = 4096
    btb_assoc: int = 4
    # Memory hierarchy
    l1i_size: int = 64 * 1024
    l1i_assoc: int = 1
    l1i_latency: int = 2
    l1d_size: int = 32 * 1024
    l1d_assoc: int = 2
    l1d_latency: int = 2
    l2_size: int = 1024 * 1024
    l2_assoc: int = 8
    l2_line_bytes: int = 128
    l2_latency: int = 15
    memory_latency: int = 120
    l1_line_bytes: int = 64
    # Replay / retry behaviour
    replay_penalty: int = 7
    reject_retry_delay: int = 3
    #: consecutive replays of the same trace index before the load is forced
    #: to issue non-speculatively (livelock guard; never fires in practice)
    replay_guard: int = 4
    # Wrong-path modelling
    wrongpath_loads: bool = True
    wrongpath_mean_loads: float = 1.0
    # Coherence traffic injection (invalidations per 1000 cycles; 0 = off)
    invalidation_rate: float = 0.0
    # Scheme
    scheme: SchemeConfig = field(default_factory=SchemeConfig)

    def __post_init__(self):
        if self.width <= 0 or self.rob_size <= 0:
            raise ConfigError("width and ROB size must be positive")
        if self.lq_size <= 0 or self.sq_size <= 0:
            raise ConfigError("LQ/SQ sizes must be positive")
        if self.rob_size < self.lq_size or self.rob_size < self.sq_size:
            raise ConfigError("ROB must be at least as large as LQ and SQ")

    # Cache config helpers -------------------------------------------------
    def l1i_config(self) -> CacheConfig:
        return CacheConfig("l1i", self.l1i_size, self.l1i_assoc, self.l1_line_bytes, self.l1i_latency)

    def l1d_config(self) -> CacheConfig:
        return CacheConfig("l1d", self.l1d_size, self.l1d_assoc, self.l1_line_bytes, self.l1d_latency)

    def l2_config(self) -> CacheConfig:
        return CacheConfig("l2", self.l2_size, self.l2_assoc, self.l2_line_bytes, self.l2_latency)

    def with_scheme(self, scheme: SchemeConfig) -> "MachineConfig":
        """A copy of this machine running a different checking scheme."""
        return replace(self, scheme=scheme)

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """A copy with arbitrary field overrides."""
        return replace(self, **kwargs)

    def cache_key(self) -> str:
        """Deterministic canonical form covering every field (scheme nested).

        Any field change — machine or scheme — yields a different key, so
        content-addressed result caching can never conflate design points.
        Byte-equal to ``json.dumps(asdict(self), sort_keys=True, ...)``,
        built from the sorted field names instead of a deep copy (every
        field but the scheme is a scalar).
        """
        key = {name: getattr(self, name) for name in _MACHINE_FIELDS}
        key["scheme"] = self.scheme._key_fields()
        return json.dumps(key, separators=(",", ":"))


#: Field names in sorted order: the keys of the canonical cache keys.
_SCHEME_FIELDS = tuple(sorted(f.name for f in fields(SchemeConfig)))
_MACHINE_FIELDS = tuple(sorted(f.name for f in fields(MachineConfig)))


#: The paper's three simulated configurations (Table 1).
CONFIG1 = MachineConfig(
    name="config1",
    iq_int=32, iq_fp=32, rob_size=128, lq_size=48, sq_size=32,
    regs_int=100, regs_fp=100, checking_table=1024,
)
CONFIG2 = MachineConfig(name="config2")
CONFIG3 = MachineConfig(
    name="config3",
    iq_int=64, iq_fp=64, rob_size=512, lq_size=192, sq_size=64,
    regs_int=400, regs_fp=400, checking_table=4096,
)

CONFIGS: Tuple[MachineConfig, ...] = (CONFIG1, CONFIG2, CONFIG3)


def small_config(**kwargs) -> MachineConfig:
    """A deliberately tiny machine for fast unit tests."""
    defaults = dict(
        name="small",
        width=4,
        rob_size=32,
        iq_int=16,
        iq_fp=16,
        lq_size=16,
        sq_size=8,
        regs_int=64,
        regs_fp=64,
        checking_table=256,
        fetch_buffer=8,
        l1i_size=4096,
        l1d_size=4096,
        l2_size=64 * 1024,
    )
    defaults.update(kwargs)
    return MachineConfig(**defaults)
