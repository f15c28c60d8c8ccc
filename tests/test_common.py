"""Unit tests for repro.common: addresses, pressure, errors."""

import pytest

from repro.common.addresses import (
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    PageSize,
    align_up,
    is_power_of_two,
    page_number,
    radix_indices,
)
from repro.common.errors import ConfigurationError, ReproError, TranslationFault
from repro.common.pressure import PressureMonitor


class TestPageSize:
    def test_values_are_byte_sizes(self):
        assert int(PageSize.SIZE_4K) == PAGE_SIZE_4K
        assert int(PageSize.SIZE_2M) == PAGE_SIZE_2M

    def test_offset_bits(self):
        assert PageSize.SIZE_4K.offset_bits == 12
        assert PageSize.SIZE_2M.offset_bits == 21

    def test_labels(self):
        assert PageSize.SIZE_4K.label == "4KB"
        assert PageSize.SIZE_2M.label == "2MB"


class TestAddressArithmetic:
    def test_page_number_4k(self):
        assert page_number(0x1234_5678, PageSize.SIZE_4K) == 0x1234_5678 >> 12

    def test_page_number_2m(self):
        assert page_number(0x1234_5678, PageSize.SIZE_2M) == 0x1234_5678 >> 21

    def test_radix_indices_width(self):
        indices = radix_indices((1 << 48) - 1)
        assert all(0 <= i < 512 for i in indices)

    def test_radix_indices_reconstruct(self):
        vaddr = 0x0000_7ABC_DEF1_2000
        pml4, pdpt, pd, pt = radix_indices(vaddr)
        rebuilt = (pml4 << 39) | (pdpt << 30) | (pd << 21) | (pt << 12)
        assert rebuilt == vaddr & ~0xFFF

    def test_align_up_down(self):
        assert align_up(0x1001, 0x1000) == 0x2000
        assert align_up(0x2000, 0x1000) == 0x2000

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)


class TestPressureMonitor:
    """The four rate cases run on each signal: ``l2_tlb`` and ``l2_cache``."""

    @pytest.mark.parametrize("signal", ["l2_tlb", "l2_cache"])
    def test_rate_before_window_uses_running_average(self, signal):
        monitor = PressureMonitor(window_instructions=1000)
        monitor.record_instructions(100)
        getattr(monitor, f"record_{signal}_miss")(5)
        assert getattr(monitor, f"{signal}_mpki") == pytest.approx(50.0)

    @pytest.mark.parametrize("signal", ["l2_tlb", "l2_cache"])
    def test_rate_after_window(self, signal):
        monitor = PressureMonitor(window_instructions=100)
        for _ in range(10):
            getattr(monitor, f"record_{signal}_miss")()
        monitor.record_instructions(100)
        assert getattr(monitor, f"{signal}_mpki") == pytest.approx(100.0)

    @pytest.mark.parametrize("signal", ["l2_tlb", "l2_cache"])
    def test_totals(self, signal):
        monitor = PressureMonitor(window_instructions=100)
        getattr(monitor, f"record_{signal}_miss")(3)
        monitor.record_instructions(50)
        assert getattr(monitor, f"total_{signal}_misses") == 3
        assert monitor.total_instructions == 50

    @pytest.mark.parametrize("signal", ["l2_tlb", "l2_cache"])
    def test_zero_instructions_rate_is_zero(self, signal):
        monitor = PressureMonitor()
        assert getattr(monitor, f"{signal}_mpki") == 0.0

    def test_translation_pressure_threshold(self):
        monitor = PressureMonitor(window_instructions=100, tlb_pressure_threshold=5.0)
        monitor.record_instructions(100)
        assert not monitor.translation_pressure_high
        for _ in range(10):
            monitor.record_l2_tlb_miss()
        monitor.record_instructions(100)
        assert monitor.translation_pressure_high

    def test_data_locality_signal(self):
        monitor = PressureMonitor(window_instructions=100, cache_pressure_threshold=5.0)
        for _ in range(10):
            monitor.record_l2_cache_miss()
        monitor.record_instructions(100)
        assert monitor.data_locality_low

    def test_signals_independent(self):
        monitor = PressureMonitor(window_instructions=100)
        for _ in range(10):
            monitor.record_l2_tlb_miss()
        monitor.record_instructions(100)
        assert monitor.translation_pressure_high
        assert not monitor.data_locality_low


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(TranslationFault, ReproError)

    def test_translation_fault_message(self):
        fault = TranslationFault(0xDEAD000, asid=3)
        assert "0xdead000" in str(fault)
        assert fault.asid == 3
