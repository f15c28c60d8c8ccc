"""Physical memory frame allocator.

The simulator does not store memory *contents* (the workloads are synthetic
address traces), but it does need a consistent physical address space so that

* page-table nodes live at real physical addresses and their walk accesses go
  through the simulated cache hierarchy,
* the software-managed POM-TLB occupies a real contiguous physical region, and
* data pages map to physical frames whose addresses index the caches.

Frames are handed out by a simple bump allocator with a free list, which is a
reasonable stand-in for a lightly fragmented OS allocator.  Huge (2 MB) frames
are carved from a naturally aligned region, mirroring how the buddy allocator
provides them.
"""

from __future__ import annotations

from typing import List

from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K, PageSize, align_up
from repro.common.errors import OutOfPhysicalMemory


class PhysicalMemory:
    """A flat physical address space carved into 4 KB and 2 MB frames."""

    def __init__(self, size_bytes: int = 64 * 1024 * 1024 * 1024):
        if size_bytes % PAGE_SIZE_2M != 0:
            raise ValueError("physical memory size must be a multiple of 2MB")
        self.size_bytes = size_bytes
        self._next_free = 0
        self._free_4k: List[int] = []
        self._free_2m: List[int] = []
        self.allocated_4k_frames = 0
        self.allocated_2m_frames = 0
        self.reserved_regions: List[tuple[int, int, str]] = []

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def allocate_frame(self, page_size: PageSize = PageSize.SIZE_4K) -> int:
        """Allocate one frame of ``page_size`` bytes and return its base address."""
        if page_size is PageSize.SIZE_4K:
            return self._allocate_4k()
        return self._allocate_2m()

    def _allocate_4k(self) -> int:
        if self._free_4k:
            addr = self._free_4k.pop()
        else:
            addr = self._bump(PAGE_SIZE_4K, alignment=PAGE_SIZE_4K)
        self.allocated_4k_frames += 1
        return addr

    def allocate_4k_frames(self, count: int) -> List[int]:
        """Allocate ``count`` 4 KB frames; returns their base addresses in order.

        Equivalent to ``count`` successive ``allocate_frame(SIZE_4K)`` calls:
        freed frames are reused first, last freed first, and the rest are
        bumped.  Raises :class:`OutOfPhysicalMemory` before changing any
        state when the frames do not all fit.
        """
        free = self._free_4k
        reused = min(count, len(free))
        fresh = count - reused
        first_fresh = self._bump(fresh * PAGE_SIZE_4K, alignment=PAGE_SIZE_4K) if fresh else 0
        frames = free[len(free) - reused:]
        del free[len(free) - reused:]
        frames.reverse()
        frames.extend(range(first_fresh, first_fresh + fresh * PAGE_SIZE_4K, PAGE_SIZE_4K))
        self.allocated_4k_frames += count
        return frames

    def _allocate_2m(self) -> int:
        if self._free_2m:
            addr = self._free_2m.pop()
        else:
            addr = self._bump(PAGE_SIZE_2M, alignment=PAGE_SIZE_2M)
        self.allocated_2m_frames += 1
        return addr

    def _bump(self, size: int, alignment: int) -> int:
        addr = align_up(self._next_free, alignment)
        if addr + size > self.size_bytes:
            raise OutOfPhysicalMemory(
                f"cannot allocate {size} bytes: {self.allocated_bytes} of "
                f"{self.size_bytes} bytes already in use"
            )
        self._next_free = addr + size
        return addr

    def free_frame(self, addr: int, page_size: PageSize = PageSize.SIZE_4K) -> None:
        """Return a frame to the allocator (used by unmap / shootdown tests)."""
        if page_size is PageSize.SIZE_4K:
            self._free_4k.append(addr)
            self.allocated_4k_frames -= 1
        else:
            self._free_2m.append(addr)
            self.allocated_2m_frames -= 1

    def reserve_contiguous(self, size_bytes: int, label: str = "reserved") -> int:
        """Reserve a physically contiguous region (e.g. for the POM-TLB).

        The paper points out that software-managed TLBs need tens of megabytes
        of contiguous physical memory; this models that requirement explicitly.
        """
        addr = self._bump(align_up(size_bytes, PAGE_SIZE_4K), alignment=PAGE_SIZE_2M)
        self.reserved_regions.append((addr, size_bytes, label))
        return addr

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def allocated_bytes(self) -> int:
        reserved = sum(size for _, size, _ in self.reserved_regions)
        return (
            self.allocated_4k_frames * PAGE_SIZE_4K
            + self.allocated_2m_frames * PAGE_SIZE_2M
            + reserved
        )

    @property
    def utilisation(self) -> float:
        return self.allocated_bytes / self.size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhysicalMemory(size={self.size_bytes >> 30}GB, "
            f"4k_frames={self.allocated_4k_frames}, 2m_frames={self.allocated_2m_frames})"
        )
