"""Ready-made configurations for every system the paper evaluates.

``make_system_config(name)`` accepts the following names:

Native execution (Figure 20):
    * ``radix`` — the baseline four-level radix system.
    * ``opt_l2tlb_<N>`` — enlarged L2 TLB at an optimistic fixed 12-cycle
      latency, e.g. ``opt_l2tlb_64k``, ``opt_l2tlb_128k`` (Figure 6).
    * ``real_l2tlb_<N>`` — enlarged L2 TLB at the CACTI-derived latency
      (Figure 7).
    * ``opt_l3tlb_64k`` — baseline L2 TLB plus a 64K-entry L3 TLB (Figure 8);
      the latency can be overridden with ``l3_latency=<cycles>``.
    * ``pom_tlb`` — the 64K-entry software-managed part-of-memory TLB.
    * ``victima`` — Victima with the TLB-aware SRRIP policy.
    * ``victima_srrip`` — Victima with the TLB-agnostic SRRIP policy (Fig. 26).
    * ``victima_no_predictor`` — Victima inserting every TLB block (ablation).
    * ``victima_miss_only`` / ``victima_eviction_only`` — insertion-trigger
      ablations.

Virtualized execution (Figure 27):
    * ``nested_paging`` — the NP baseline.
    * ``virt_pom_tlb`` — NP plus the POM-TLB.
    * ``ideal_shadow`` — ideal shadow paging.
    * ``virt_victima`` — Victima caching both TLB and nested TLB blocks.

``radix``, ``nested_paging`` and any name not listed fall through to the
translation-backend registry (:mod:`repro.backends`): every registered
backend name — e.g. ``hash_pt``, the hashed-page-table baseline — is a valid
system name here, in scenarios and on the ``repro run`` command line.  See
``docs/backends.md``.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.analysis.cacti import tlb_access_latency
from repro.backends import get_backend
from repro.common.errors import ConfigurationError
from repro.sim.config import (
    BOTH_PAGE_SIZES,
    CacheConfig,
    SystemConfig,
    TLBConfig,
    VictimaConfig,
)

#: System names used for the paper's native-execution comparison (Figure 20).
EVALUATED_NATIVE_SYSTEMS = (
    "radix", "pom_tlb", "opt_l3tlb_64k", "opt_l2tlb_64k", "opt_l2tlb_128k", "victima",
)
#: System names used for the virtualized comparison (Figure 27).
EVALUATED_VIRTUAL_SYSTEMS = (
    "nested_paging", "virt_pom_tlb", "ideal_shadow", "virt_victima",
)

#: The keywords of :func:`make_system_config` a scenario's
#: ``system_overrides`` may set; ``hardware_scale`` and ``num_cores`` are
#: the scenario's own top-level fields.
SYSTEM_OVERRIDES = ("l2_cache_bytes", "l3_latency")

_SIZE_RE = re.compile(r"^(opt|real)_l2tlb_(\d+)k$")


def _parse_entries(token: str) -> int:
    return int(token) * 1024


def make_system_config(name: str, l3_latency: Optional[int] = None,
                       l2_cache_bytes: Optional[int] = None,
                       hardware_scale: int = 1,
                       num_cores: int = 1) -> SystemConfig:
    """Build the :class:`SystemConfig` for a named evaluated system.

    ``num_cores`` selects the machine width: 1 (the default) is the classic
    single-core machine every paper figure uses; larger values replicate the
    private structures per core around the shared LLC/DRAM/page-table (see
    :mod:`repro.sim.system`).  The per-core geometry is identical either
    way, so ``hardware_scale`` keeps its meaning.

    ``hardware_scale`` divides every capacity (TLB entries, cache sizes,
    POM-TLB entries) by the given factor while keeping latencies unchanged.
    The experiment runners use this to scale the machine down together with
    the workload footprints so that the paper's capacity *ratios* — TLB reach
    vs. footprint, L2-cache TLB-block capacity vs. footprint, page-table
    working set vs. cache capacity — are preserved within simulation windows
    that a pure-Python simulator can execute (see ARCHITECTURE.md, "Scaled
    simulation").  ``hardware_scale=1`` reproduces Table 3 verbatim.
    """
    name = name.lower()
    config = SystemConfig()
    # Only the size presets and the Victima ablations name themselves; every
    # other system carries its backend's registry label.
    label = None

    match = _SIZE_RE.match(name)
    if match is not None:
        flavour, size_token = match.groups()
        entries = _parse_entries(size_token)
        latency = 12 if flavour == "opt" else tlb_access_latency(entries)
        config.kind = "large_l2_tlb"
        label = f"{'Opt.' if flavour == 'opt' else 'Real.'} L2 TLB {size_token}K"
        config.mmu.l2_tlb = TLBConfig(entries, 16, latency, BOTH_PAGE_SIZES)
    elif name in ("opt_l3tlb_64k", "l3_tlb"):
        config.kind = "l3_tlb"
        config.mmu.l3_tlb = TLBConfig(64 * 1024, 16, l3_latency or 15, BOTH_PAGE_SIZES)
    elif name.startswith("victima"):
        config.kind = "victima"
        config.l2_cache.replacement_policy = "tlb_aware_srrip"
        if name == "victima_srrip":
            label = "Victima (TLB-agnostic SRRIP)"
            config.l2_cache.replacement_policy = "srrip"
        elif name == "victima_no_predictor":
            label = "Victima (no PTW-CP)"
            config.victima = VictimaConfig(use_predictor=False)
        elif name == "victima_miss_only":
            label = "Victima (miss-triggered only)"
            config.victima = VictimaConfig(insert_on_eviction=False)
        elif name == "victima_eviction_only":
            label = "Victima (eviction-triggered only)"
            config.victima = VictimaConfig(insert_on_miss=False)
        elif name != "victima":
            raise ConfigurationError(f"unknown Victima variant: {name!r}")
    elif name in ("pom_tlb", "virt_pom_tlb", "virt_victima"):
        config.kind = name
        config.l2_cache.replacement_policy = "tlb_aware_srrip"
    elif name == "ideal_shadow":
        config.kind = "ideal_shadow_paging"
    else:
        # Fall through to the backend registry: any registered backend name
        # (``radix``, ``nested_paging``, ``hash_pt``, or one registered by
        # downstream code) is a valid preset.  ``get_backend`` raises a
        # ConfigurationError listing every registered name when the lookup
        # fails.
        config.kind = name
    config.label = label or get_backend(config.kind).label
    if l3_latency is not None and config.mmu.l3_tlb is None:
        raise ConfigurationError(
            f"l3_latency applies only to a system with an L3 TLB; {name!r} has none")

    if l2_cache_bytes is not None:
        config.l2_cache = CacheConfig(
            l2_cache_bytes, config.l2_cache.associativity, config.l2_cache.latency,
            config.l2_cache.replacement_policy, config.l2_cache.prefetcher)
    config.num_cores = num_cores
    if hardware_scale > 1:
        _apply_hardware_scale(config, hardware_scale)
    config.validate()
    return config


def _scale_tlb(tlb: TLBConfig, scale: int) -> TLBConfig:
    entries = max(tlb.associativity, (tlb.entries // scale // tlb.associativity)
                  * tlb.associativity)
    return TLBConfig(entries, tlb.associativity, tlb.latency, tlb.page_sizes)


def _scale_cache(cache: CacheConfig, scale: int) -> CacheConfig:
    minimum = cache.associativity * cache.block_size
    size = max(minimum, cache.size_bytes // scale)
    # Keep the set count a power of two.
    sets = max(1, size // minimum)
    sets = 1 << (sets.bit_length() - 1)
    return CacheConfig(sets * minimum, cache.associativity, cache.latency,
                       cache.replacement_policy, cache.prefetcher, cache.block_size)


def _apply_hardware_scale(config: SystemConfig, scale: int) -> None:
    mmu = config.mmu
    mmu.l1_dtlb_4k = _scale_tlb(mmu.l1_dtlb_4k, scale)
    mmu.l1_dtlb_2m = _scale_tlb(mmu.l1_dtlb_2m, scale)
    mmu.l2_tlb = _scale_tlb(mmu.l2_tlb, scale)
    if mmu.l3_tlb is not None:
        mmu.l3_tlb = _scale_tlb(mmu.l3_tlb, scale)
    mmu.nested_tlb = _scale_tlb(mmu.nested_tlb, scale)
    config.l1d_cache = _scale_cache(config.l1d_cache, scale)
    config.l2_cache = _scale_cache(config.l2_cache, scale)
    if config.l3_cache is not None:
        config.l3_cache = _scale_cache(config.l3_cache, scale)
    # The POM-TLB is a software structure in DRAM, but its *capacity relative to
    # the workload footprint* is what determines its hit rate, so it is scaled
    # together with the rest of the machine to preserve that ratio (rounded to
    # a whole number of sets so the geometry stays valid).
    assoc = config.pom_tlb.associativity
    scaled = (config.pom_tlb.entries // scale // assoc) * assoc
    config.pom_tlb.entries = max(assoc * 64, scaled)
    # Same reasoning for the hashed page table; its bucket count must stay a
    # power of two, so scale by the next power of two below the factor.
    slots = config.hash_pt.bucket_slots
    bucket_scale = 1 << max(0, scale.bit_length() - 1)
    scaled_buckets = max(64, (config.hash_pt.entries // slots) // bucket_scale)
    config.hash_pt.entries = scaled_buckets * slots
