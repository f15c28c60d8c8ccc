"""Hardware prefetchers used by the baseline configuration (Table 3).

* The L1 data cache uses an **IP-stride** prefetcher: per-instruction-pointer
  stride detection with a small confidence counter.
* The L2 cache uses a **stream** prefetcher: detects ascending or descending
  block streams and prefetches a configurable degree ahead.

Both produce *physical block addresses* to prefetch; the cache hierarchy fills
them without charging latency to the demand access (they only affect hit rates
and pollution, which is what matters for the translation study).
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.addresses import CACHE_BLOCK_SIZE


class Prefetcher:
    """Interface: observe a demand access, return block addresses to prefetch."""

    name = "none"

    def observe(self, ip: int, paddr: int) -> List[int]:
        raise NotImplementedError


class IPStridePrefetcher(Prefetcher):
    """Classic per-IP stride prefetcher (Fu et al., MICRO 1992)."""

    name = "ip_stride"

    def __init__(self, table_entries: int = 256, degree: int = 2,
                 confidence_threshold: int = 2):
        self.table_entries = table_entries
        self.degree = degree
        self.confidence_threshold = confidence_threshold
        # ip -> (last_addr, stride, confidence)
        self._table: Dict[int, tuple[int, int, int]] = {}

    def observe(self, ip: int, paddr: int) -> List[int]:
        slot = ip % (self.table_entries * 4)  # tolerate sparse synthetic IPs
        entry = self._table.get(slot)
        prefetches: List[int] = []
        if entry is None:
            self._table[slot] = (paddr, 0, 0)
            self._evict_if_needed()
            return prefetches
        last_addr, stride, confidence = entry
        new_stride = paddr - last_addr
        if new_stride == stride and stride != 0:
            confidence = min(confidence + 1, 3)
        else:
            confidence = max(confidence - 1, 0)
            stride = new_stride
        self._table[slot] = (paddr, stride, confidence)
        if confidence >= self.confidence_threshold and stride != 0:
            for i in range(1, self.degree + 1):
                prefetches.append(paddr + i * stride)
        return prefetches

    def _evict_if_needed(self) -> None:
        if len(self._table) > self.table_entries:
            # Drop an arbitrary (oldest-inserted) entry; dict preserves order.
            self._table.pop(next(iter(self._table)))


class StreamPrefetcher(Prefetcher):
    """Next-line stream prefetcher (Chen & Baer style) used at the L2."""

    name = "stream"

    def __init__(self, num_streams: int = 16, degree: int = 4,
                 train_length: int = 2):
        self.num_streams = num_streams
        self.degree = degree
        self.train_length = train_length
        # stream id -> (last_block, direction, run_length)
        self._streams: Dict[int, tuple[int, int, int]] = {}

    def observe(self, ip: int, paddr: int) -> List[int]:
        block = paddr // CACHE_BLOCK_SIZE
        region = block >> 6  # 4 KB region groups accesses into streams
        stream_id = region % (self.num_streams * 8)
        entry = self._streams.get(stream_id)
        prefetches: List[int] = []
        if entry is None:
            self._streams[stream_id] = (block, 0, 0)
            self._trim()
            return prefetches
        last_block, direction, run = entry
        delta = block - last_block
        if delta in (1, -1) and (direction == 0 or direction == delta):
            direction = delta
            run += 1
        elif delta == 0:
            pass  # same block, keep state
        else:
            direction, run = 0, 0
        self._streams[stream_id] = (block, direction, run)
        if run >= self.train_length and direction != 0:
            for i in range(1, self.degree + 1):
                prefetches.append((block + i * direction) * CACHE_BLOCK_SIZE)
        return prefetches

    def _trim(self) -> None:
        if len(self._streams) > self.num_streams * 8:
            self._streams.pop(next(iter(self._streams)))
