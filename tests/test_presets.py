"""Systematic coverage of make_system_config and SystemConfig validation."""

from __future__ import annotations

import pytest

from repro.backends import available_backends, get_backend
from repro.common.errors import ConfigurationError
from repro.sim.config import (
    DramTimingConfig,
    PomTLBConfig,
    SystemConfig,
)
from repro.sim.presets import (
    EVALUATED_NATIVE_SYSTEMS,
    EVALUATED_VIRTUAL_SYSTEMS,
    make_system_config,
)
from repro.analysis.cacti import tlb_access_latency

#: Every name the presets module documents, with the backend it builds.
DOCUMENTED_PRESETS = {
    "radix": "radix",
    "opt_l2tlb_64k": "large_l2_tlb",
    "opt_l2tlb_128k": "large_l2_tlb",
    "real_l2tlb_64k": "large_l2_tlb",
    "real_l2tlb_128k": "large_l2_tlb",
    "opt_l3tlb_64k": "l3_tlb",
    "l3_tlb": "l3_tlb",
    "pom_tlb": "pom_tlb",
    "victima": "victima",
    "victima_srrip": "victima",
    "victima_no_predictor": "victima",
    "victima_miss_only": "victima",
    "victima_eviction_only": "victima",
    "nested_paging": "nested_paging",
    "virt_pom_tlb": "virt_pom_tlb",
    "ideal_shadow": "ideal_shadow_paging",
    "ideal_shadow_paging": "ideal_shadow_paging",
    "virt_victima": "virt_victima",
}


class TestEveryDocumentedPreset:
    @pytest.mark.parametrize("name,kind", sorted(DOCUMENTED_PRESETS.items()))
    def test_builds_and_validates(self, name, kind):
        config = make_system_config(name)
        assert config.kind == kind
        assert config.label
        config.validate()

    def test_evaluated_lists_are_covered(self):
        for name in EVALUATED_NATIVE_SYSTEMS + EVALUATED_VIRTUAL_SYSTEMS:
            assert name in DOCUMENTED_PRESETS

    def test_names_are_case_insensitive(self):
        assert make_system_config("VICTIMA").kind == "victima"


#: Presets with a branch of their own in ``make_system_config``: aliases of a
#: registry name (``opt_l3tlb_64k``, ``ideal_shadow``) and registry names.
ALIAS_PRESETS = ("pom_tlb", "opt_l3tlb_64k", "ideal_shadow", "virt_pom_tlb", "virt_victima")


class TestLabels:
    @pytest.mark.parametrize("name", sorted({spec.name for spec in available_backends()}
                                            | set(ALIAS_PRESETS)))
    def test_label_is_the_backends(self, name):
        config = make_system_config(name)
        assert config.label == get_backend(config.kind).label


class TestL2TlbRegex:
    @pytest.mark.parametrize("size_k", [16, 32, 64, 128, 256])
    def test_opt_sizes_use_fixed_latency(self, size_k):
        config = make_system_config(f"opt_l2tlb_{size_k}k")
        assert config.mmu.l2_tlb.entries == size_k * 1024
        assert config.mmu.l2_tlb.latency == 12
        assert config.label == f"Opt. L2 TLB {size_k}K"

    @pytest.mark.parametrize("size_k", [64, 128])
    def test_real_sizes_use_cacti_latency(self, size_k):
        config = make_system_config(f"real_l2tlb_{size_k}k")
        assert config.mmu.l2_tlb.entries == size_k * 1024
        assert config.mmu.l2_tlb.latency == tlb_access_latency(size_k * 1024)
        assert config.mmu.l2_tlb.latency > 12

    @pytest.mark.parametrize("bogus", [
        "opt_l2tlb_64", "opt_l2tlb_k", "med_l2tlb_64k", "opt_l2tlb_64kb",
    ])
    def test_malformed_size_names_rejected(self, bogus):
        # Unrecognised names fall through to the backend registry, whose
        # error lists every registered backend name.
        with pytest.raises(ConfigurationError,
                           match="unknown translation backend"):
            make_system_config(bogus)


class TestRejection:
    def test_unknown_name(self):
        with pytest.raises(ConfigurationError,
                           match="unknown translation backend") as excinfo:
            make_system_config("warp_drive")
        # The registry error is self-documenting: it lists valid names.
        assert "victima" in str(excinfo.value)
        assert "hash_pt" in str(excinfo.value)

    def test_unknown_victima_variant(self):
        with pytest.raises(ConfigurationError, match="unknown Victima variant"):
            make_system_config("victima_turbo")


class TestHardwareScale:
    @pytest.mark.parametrize("scale", [2, 4, 8, 16])
    def test_capacities_divided_latencies_kept(self, scale):
        base = make_system_config("victima")
        scaled = make_system_config("victima", hardware_scale=scale)
        assert scaled.mmu.l2_tlb.entries == base.mmu.l2_tlb.entries // scale
        assert scaled.mmu.l2_tlb.latency == base.mmu.l2_tlb.latency
        assert scaled.l2_cache.size_bytes == base.l2_cache.size_bytes // scale
        assert scaled.l2_cache.latency == base.l2_cache.latency
        assert scaled.l3_cache.size_bytes == base.l3_cache.size_bytes // scale
        assert scaled.pom_tlb.entries == base.pom_tlb.entries // scale
        scaled.validate()

    def test_non_power_of_two_scale_keeps_valid_geometry(self):
        config = make_system_config("pom_tlb", hardware_scale=3)
        assert config.pom_tlb.entries % config.pom_tlb.associativity == 0
        config.validate()

    def test_extreme_scale_clamps_to_minimum_geometry(self):
        config = make_system_config("victima", hardware_scale=1 << 20)
        assert config.mmu.l2_tlb.entries >= config.mmu.l2_tlb.associativity
        assert config.l2_cache.size_bytes >= (
            config.l2_cache.associativity * config.l2_cache.block_size)
        assert config.pom_tlb.entries >= config.pom_tlb.associativity * 64
        config.validate()


class TestDramValidation:
    def test_defaults_pass(self):
        DramTimingConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"row_hit_latency": 0}, {"row_miss_latency": -1}, {"num_banks": 0},
        {"row_hit_latency": 200, "row_miss_latency": 100},
    ])
    def test_bad_timings_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DramTimingConfig(**kwargs).validate()

    def test_system_validate_reaches_dram(self):
        config = SystemConfig()
        config.dram.num_banks = 0
        with pytest.raises(ConfigurationError, match="bank"):
            config.validate()


class TestPomTlbValidation:
    def test_defaults_pass(self):
        PomTLBConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"entries": 0}, {"associativity": 0}, {"entry_size_bytes": 0},
        {"entries": 100, "associativity": 16},  # not a multiple
    ])
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PomTLBConfig(**kwargs).validate()

    def test_system_validate_reaches_pom_tlb(self):
        config = SystemConfig()
        config.pom_tlb.entries = 100  # not a multiple of 16-way associativity
        with pytest.raises(ConfigurationError, match="POM-TLB"):
            config.validate()
