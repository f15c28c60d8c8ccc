"""Cache replacement policies: LRU, SRRIP and the paper's TLB-aware SRRIP.

The TLB-aware policy is a direct implementation of Listing 1 in the paper:

* **Insertion** — a TLB block inserted while translation pressure is high
  (L2 TLB MPKI > 5) gets re-reference prediction value (RRPV) 0, i.e. it is
  predicted to be reused in the near future; all other blocks are inserted
  with the distant value (``RRIP_MAX``), like baseline SRRIP.
* **Victim selection** — if the chosen victim is a TLB block and translation
  pressure is high, the policy makes *one* more attempt to find a non-TLB
  victim before giving up and evicting the TLB block.
* **Hit promotion** — a hit on a TLB block under pressure decreases its RRPV
  by three instead of one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.pressure import PressureMonitor
from repro.cache.block import CacheBlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.cache import CacheSet


class ReplacementPolicy:
    """Interface every replacement policy implements (per-set operations)."""

    name = "base"

    def on_insert(self, cache_set: "CacheSet", block: CacheBlock) -> None:
        raise NotImplementedError

    def on_hit(self, cache_set: "CacheSet", block: CacheBlock) -> None:
        raise NotImplementedError

    def select_victim(self, cache_set: "CacheSet") -> int:
        """Return the way index to evict.  The set is guaranteed to be full."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement (used by the L1 caches in Table 3)."""

    name = "lru"

    def on_insert(self, cache_set: "CacheSet", block: CacheBlock) -> None:
        cache_set.access_counter += 1
        block.last_touch = cache_set.access_counter

    def on_hit(self, cache_set: "CacheSet", block: CacheBlock) -> None:
        cache_set.access_counter += 1
        block.last_touch = cache_set.access_counter

    def select_victim(self, cache_set: "CacheSet") -> int:
        victim_way = 0
        oldest = None
        for way, block in enumerate(cache_set.ways):
            if block is None:  # pragma: no cover - callers fill invalid ways first
                return way
            if oldest is None or block.last_touch < oldest:
                oldest = block.last_touch
                victim_way = way
        return victim_way


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (Jaleel et al., ISCA 2010).

    ``rrpv_bits`` of 2 gives RRPV values 0..3; blocks are inserted with the
    maximum (distant) value and promoted towards 0 on hits.
    """

    name = "srrip"

    def __init__(self, rrpv_bits: int = 2, hit_promotion: int = 1):
        if rrpv_bits < 1:
            raise ConfigurationError("SRRIP needs at least one RRPV bit")
        self.rrpv_max = (1 << rrpv_bits) - 1
        self.hit_promotion = hit_promotion

    def on_insert(self, cache_set: "CacheSet", block: CacheBlock) -> None:
        block.rrpv = self.rrpv_max

    def on_hit(self, cache_set: "CacheSet", block: CacheBlock) -> None:
        block.rrpv = max(block.rrpv - self.hit_promotion, 0)

    def select_victim(self, cache_set: "CacheSet") -> int:
        # Listing 1 ages every block by one and rescans until some block is
        # distant.  One scan finds the first distant block or, failing that,
        # the first block with the highest RRPV; aging the whole set by the
        # missing amount at once then makes exactly that block the first
        # distant one, with the same final RRPVs as the loop.
        rrpv_max = self.rrpv_max
        ways = cache_set.ways
        victim = 0
        highest = -1
        for way, block in enumerate(ways):
            rrpv = block.rrpv
            if rrpv >= rrpv_max:
                victim = way
                break
            if rrpv > highest:
                highest = rrpv
                victim = way
        else:
            age = rrpv_max - highest
            for block in ways:
                block.rrpv += age
        return victim


class TLBAwareSRRIPPolicy(SRRIPPolicy):
    """SRRIP extended with the TLB-block-aware rules of Listing 1."""

    name = "tlb_aware_srrip"

    def __init__(self, pressure: PressureMonitor, rrpv_bits: int = 2,
                 hit_promotion: int = 1, tlb_hit_promotion: int = 3):
        super().__init__(rrpv_bits=rrpv_bits, hit_promotion=hit_promotion)
        self.pressure = pressure
        self.tlb_hit_promotion = tlb_hit_promotion

    def on_insert(self, cache_set: "CacheSet", block: CacheBlock) -> None:
        if block.is_tlb_block and self.pressure.translation_pressure_high:
            block.rrpv = 0
        else:
            block.rrpv = self.rrpv_max

    def on_hit(self, cache_set: "CacheSet", block: CacheBlock) -> None:
        if block.is_tlb_block and self.pressure.translation_pressure_high:
            promotion = self.tlb_hit_promotion
        else:
            promotion = self.hit_promotion
        block.rrpv = max(block.rrpv - promotion, 0)

    def select_victim(self, cache_set: "CacheSet") -> int:
        way = SRRIPPolicy.select_victim(self, cache_set)
        if cache_set.ways[way].is_tlb_block and self.pressure.translation_pressure_high:
            # Make exactly one more attempt to keep the TLB block: the
            # non-TLB block with the highest RRPV, if there is one.
            best_rrpv = -1
            for candidate, block in enumerate(cache_set.ways):
                if not block.is_tlb_block and block.rrpv > best_rrpv:
                    best_rrpv = block.rrpv
                    way = candidate
        return way


def make_policy(name: str, pressure: PressureMonitor | None = None) -> ReplacementPolicy:
    """Factory for replacement policies by name.

    ``tlb_aware_srrip`` requires a :class:`PressureMonitor`; the other
    policies ignore it.
    """
    if name == "lru":
        return LRUPolicy()
    if name == "srrip":
        return SRRIPPolicy()
    if name == "tlb_aware_srrip":
        if pressure is None:
            raise ConfigurationError("tlb_aware_srrip requires a PressureMonitor")
        return TLBAwareSRRIPPolicy(pressure)
    raise ConfigurationError(f"unknown replacement policy: {name!r}")
