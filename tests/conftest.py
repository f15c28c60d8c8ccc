"""Shared fixtures for the test suite."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.cache.cache import Cache
from repro.cache.replacement import LRUPolicy, SRRIPPolicy
from repro.common.pressure import PressureMonitor
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.page_table import RadixPageTable
from repro.memory.physical import PhysicalMemory
from repro import api
from repro.sim.simulator import Simulator


@pytest.fixture
def physical() -> PhysicalMemory:
    return PhysicalMemory(size_bytes=4 * 1024 * 1024 * 1024)


@pytest.fixture
def page_table(physical) -> RadixPageTable:
    return RadixPageTable(physical, asid=0)


@pytest.fixture
def vmm(physical) -> VirtualMemoryManager:
    return VirtualMemoryManager(physical, asid=0, huge_page_fraction=0.0)


@pytest.fixture
def vmm_huge(physical) -> VirtualMemoryManager:
    return VirtualMemoryManager(physical, asid=0, huge_page_fraction=1.0)


@pytest.fixture
def small_cache() -> Cache:
    """A tiny 4-set, 4-way cache with LRU replacement."""
    return Cache("test", size_bytes=4 * 4 * 64, associativity=4, latency=10,
                 replacement_policy=LRUPolicy())


@pytest.fixture
def srrip_cache() -> Cache:
    return Cache("test-srrip", size_bytes=4 * 4 * 64, associativity=4, latency=10,
                 replacement_policy=SRRIPPolicy())


@pytest.fixture
def high_pressure() -> PressureMonitor:
    """A pressure monitor reporting high translation pressure and low data locality."""
    monitor = PressureMonitor(window_instructions=100)
    monitor.record_instructions(100)
    for _ in range(50):
        monitor.record_l2_tlb_miss()
        monitor.record_l2_cache_miss()
    monitor.record_instructions(100)
    return monitor


@pytest.fixture
def low_pressure() -> PressureMonitor:
    monitor = PressureMonitor(window_instructions=100)
    monitor.record_instructions(200)
    return monitor


def page_table_state(table: RadixPageTable) -> tuple:
    """Everything a page table holds, in its dictionaries' order.

    Every node's level, frame and child slots, and every leaf's slot, VPN,
    PFN, page size, entry address and valid bit, plus the node and leaf
    counts.  Leaves are read through the table's entry builder, so a packed
    leaf reads as the entry a lookup would return.  Two tables built by
    equivalent operation sequences compare equal.
    """
    nodes = []
    stack = [table._root]
    while stack:
        node = stack.pop()
        leaves = []
        for index in list(node.leaves):
            pte = table._entry(node, index)
            leaves.append((index, pte.vpn, pte.pfn, pte.page_size, pte.entry_paddr, pte.valid))
        nodes.append((node.level, node.frame_paddr, list(node.children), leaves))
        stack.extend(node.children.values())
    return nodes, table.num_nodes, table.num_leaf_entries


def built_entries(table: RadixPageTable) -> int:
    """How many leaf slots hold a built entry rather than a packed PFN.

    Count before any :func:`page_table_state` call, which builds every
    entry itself.
    """
    built, stack = 0, [table._root]
    while stack:
        node = stack.pop()
        built += sum(leaf.__class__ is not int for leaf in node.leaves.values())
        stack.extend(node.children.values())
    return built


def allocator_state(physical: PhysicalMemory) -> tuple:
    """The frame allocator's whole state: bump pointer, free lists and counts."""
    return (physical._next_free, list(physical._free_4k), list(physical._free_2m),
            physical.allocated_4k_frames, physical.allocated_2m_frames)


def translate_counted(mmu, vaddr: int) -> tuple:
    """``mmu.translate_data(vaddr)`` plus the change it made to ``mmu.stats``.

    Returns ``(paddr, latency, delta)``: ``delta`` maps every stats field to
    its increase, and every dict field to the keys that grew and by how much.
    """
    before = copy.deepcopy(mmu.stats)
    paddr, latency = mmu.translate_data(vaddr)
    delta = {}
    for stat in dataclasses.fields(mmu.stats):
        old, new = getattr(before, stat.name), getattr(mmu.stats, stat.name)
        if isinstance(new, dict):
            delta[stat.name] = {key: value - old.get(key, 0)
                                for key, value in new.items()
                                if value != old.get(key, 0)}
        else:
            delta[stat.name] = new - old
    return paddr, latency, delta


def build_tiny_simulator(system_name: str = "radix", workload: str = "rnd",
                         max_refs: int = 600, hardware_scale: int = 16,
                         warmup_fraction: float = 0.0) -> Simulator:
    """A very small end-to-end simulation used by integration tests."""
    return api.build_simulator({"system": system_name, "workload": workload,
                                "max_refs": max_refs, "seed": 7,
                                "hardware_scale": hardware_scale,
                                "warmup_fraction": warmup_fraction})


@pytest.fixture
def tiny_simulator_factory():
    return build_tiny_simulator
