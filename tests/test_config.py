"""Unit tests for machine/scheme configuration (paper Table 1)."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.sim.config import (
    CONFIG1,
    CONFIG2,
    CONFIG3,
    CONFIGS,
    SCHEME_LABELS,
    MachineConfig,
    SchemeConfig,
    small_config,
)


class TestTable1Presets:
    def test_config2_matches_paper(self):
        assert CONFIG2.width == 8
        assert CONFIG2.rob_size == 256
        assert CONFIG2.iq_int == 48 and CONFIG2.iq_fp == 48
        assert CONFIG2.lq_size == 96 and CONFIG2.sq_size == 48
        assert CONFIG2.regs_int == 200 and CONFIG2.regs_fp == 200
        assert CONFIG2.checking_table == 2048

    def test_config1_and_3_scale(self):
        assert CONFIG1.rob_size == 128 and CONFIG3.rob_size == 512
        assert CONFIG1.lq_size == 48 and CONFIG3.lq_size == 192
        assert CONFIG1.checking_table == 1024 and CONFIG3.checking_table == 4096

    def test_memory_hierarchy_matches_paper(self):
        assert CONFIG2.l1d_size == 32 * 1024 and CONFIG2.l1d_assoc == 2
        assert CONFIG2.l1i_size == 64 * 1024 and CONFIG2.l1i_assoc == 1
        assert CONFIG2.l2_size == 1024 * 1024 and CONFIG2.l2_line_bytes == 128
        assert CONFIG2.l2_latency == 15 and CONFIG2.memory_latency == 120

    def test_predictor_matches_paper(self):
        assert CONFIG2.bimodal_entries == 4096
        assert CONFIG2.gshare_entries == 8192 and CONFIG2.gshare_history == 13
        assert CONFIG2.meta_entries == 8192
        assert CONFIG2.btb_entries == 4096 and CONFIG2.btb_assoc == 4
        assert CONFIG2.branch_penalty == 7

    def test_all_configs_share_core_width(self):
        assert all(c.width == 8 for c in CONFIGS)


class TestValidation:
    def test_rejects_rob_smaller_than_lq(self):
        with pytest.raises(ConfigError):
            MachineConfig(rob_size=32, lq_size=96)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            MachineConfig(width=0)

    def test_scheme_kind_validated(self):
        with pytest.raises(ConfigError):
            SchemeConfig(kind="magic")


class TestHelpers:
    def test_with_scheme_replaces_only_scheme(self):
        dmdc = CONFIG2.with_scheme(SchemeConfig(kind="dmdc"))
        assert dmdc.scheme.kind == "dmdc"
        assert dmdc.rob_size == CONFIG2.rob_size
        assert CONFIG2.scheme.kind == "conventional"  # original untouched

    def test_with_overrides(self):
        c = CONFIG2.with_overrides(invalidation_rate=10.0)
        assert c.invalidation_rate == 10.0

    def test_cache_configs_consistent(self):
        for cfg in CONFIGS:
            assert cfg.l1d_config().num_sets > 0
            assert cfg.l2_config().line_bytes == cfg.l2_line_bytes

    def test_small_config_valid_and_overridable(self):
        c = small_config(width=2)
        assert c.width == 2 and c.rob_size >= c.lq_size

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CONFIG2.rob_size = 1


def _asdict_key(config) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True,
                      separators=(",", ":"))


class TestCacheKey:
    """The keys are built from the sorted field names, byte-equal to the
    canonical JSON of ``asdict`` that every cached result was keyed by."""

    @pytest.mark.parametrize("label", SCHEME_LABELS + ("dmdc-local-queue4",
                                                      "yla-gran16",
                                                      "bloom-entries256-sqfilter"))
    def test_named_configs_times_the_scheme_matrix(self, label):
        scheme = SchemeConfig.from_label(label)
        assert scheme.cache_key() == _asdict_key(scheme)
        for config in CONFIGS:
            machine = config.with_scheme(scheme)
            assert machine.cache_key() == _asdict_key(machine)

    def test_small_and_overridden_configs(self):
        for machine in (small_config(), small_config(rob_size=64),
                        CONFIG2.with_overrides(lq_size=7, wrongpath_mean_loads=2.5,
                                               invalidation_rate=0.25),
                        CONFIG3.with_scheme(SchemeConfig(kind="dmdc", table_entries=512))):
            assert machine.cache_key() == _asdict_key(machine)

    def test_every_field_reaches_the_key(self):
        assert CONFIG2.cache_key() != CONFIG2.with_overrides(lq_size=95).cache_key()
        assert (CONFIG2.with_scheme(SchemeConfig(local=True)).cache_key()
                != CONFIG2.cache_key())
