"""Shared constants, address arithmetic and small utilities.

Everything in this package is deliberately dependency-free so that every other
subsystem (memory, caches, MMU, Victima) can import it without cycles.
"""

from repro.common.addresses import (
    BLOCK_OFFSET_BITS,
    CACHE_BLOCK_SIZE,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    PHYSICAL_ADDRESS_BITS,
    VIRTUAL_ADDRESS_BITS,
    PageSize,
    page_number,
    radix_indices,
)
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    TranslationFault,
)

__all__ = [
    "BLOCK_OFFSET_BITS",
    "CACHE_BLOCK_SIZE",
    "PAGE_SIZE_2M",
    "PAGE_SIZE_4K",
    "PHYSICAL_ADDRESS_BITS",
    "VIRTUAL_ADDRESS_BITS",
    "PageSize",
    "page_number",
    "radix_indices",
    "ConfigurationError",
    "ReproError",
    "TranslationFault",
]
