"""Pluggable translation backends.

Importing this package registers every built-in backend with the registry
(:mod:`repro.backends.registry`); the system factory, preset layer and CLI
resolve backends through it.  ``docs/backends.md`` is the tutorial for
writing and registering a new one.
"""

from repro.backends.base import BuildContext, MissResolution, TranslationBackend
from repro.backends.registry import (
    BackendSpec,
    available_backends,
    get_backend,
    register_backend,
)

# Importing the implementation modules is what registers the built-ins.
from repro.backends import native as _native  # noqa: F401  (registration)
from repro.backends import virt as _virt  # noqa: F401  (registration)
from repro.backends import hash_pt as _hash_pt  # noqa: F401  (registration)

from repro.backends.hash_pt import HashedPageTable, HashedPageTableBackend
from repro.backends.native import (
    L3TLBBackend,
    POMTLBBackend,
    RadixBackend,
    VictimaBackend,
)
from repro.backends.virt import ShadowPagingBackend

__all__ = [
    "BackendSpec",
    "BuildContext",
    "MissResolution",
    "TranslationBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "RadixBackend",
    "L3TLBBackend",
    "POMTLBBackend",
    "VictimaBackend",
    "ShadowPagingBackend",
    "HashedPageTable",
    "HashedPageTableBackend",
]
