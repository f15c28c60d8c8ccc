"""The translation-backend registry.

Every evaluated translation mechanism registers a :class:`BackendSpec` here,
and its name is the system's only identity: the system factory
(:mod:`repro.sim.system`) builds the spec named by ``SystemConfig.kind``,
and the preset layer (:mod:`repro.sim.presets`) falls back to the registry
for system names it does not hard-code — so a new backend registered by a
single module is immediately reachable from scenarios, the CLI and the
experiment runner without touching any of them.

>>> spec = get_backend("radix")
>>> spec.name, spec.virtualized
('radix', False)
>>> [s.name for s in available_backends()][:3]
['hash_pt', 'ideal_shadow_paging', 'l3_tlb']
>>> get_backend("no_such_backend")
Traceback (most recent call last):
    ...
repro.common.errors.ConfigurationError: unknown translation backend 'no_such_backend'; registered backends: hash_pt, ideal_shadow_paging, l3_tlb, large_l2_tlb, nested_paging, pom_tlb, radix, victima, virt_pom_tlb, virt_victima
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigurationError

__all__ = [
    "BackendSpec",
    "register_backend",
    "get_backend",
    "available_backends",
]


@dataclass(frozen=True)
class BackendSpec:
    """Everything the rest of the stack needs to know about one backend.

    ``build(context)`` assembles the backend for one core of a machine;
    ``build_shared(context)`` — optional — builds the structure a machine,
    native or virtualized, instantiates *once* and shares across its cores
    (e.g. the in-memory POM-TLB), which every core's ``build`` then receives
    via ``context.shared``.  Both take a
    :class:`~repro.backends.base.BuildContext`.  On a virtualized machine its
    miss walker is the nested walker, so a virtualized spec can reuse a
    native spec's hooks.
    """

    #: Registry key: the preset/scenario name that selects the backend and
    #: the ``SystemConfig.kind`` the system factory builds.
    name: str
    #: Human-readable system label (results carry it).
    label: str
    #: One-line summary shown by ``repro backends list``.
    summary: str
    #: Build the backend for one core.
    build: Callable[["object"], "object"]
    #: Build the once-per-machine shared structure, if any.
    build_shared: Optional[Callable[["object"], "object"]] = None
    #: Whether the backend serves a virtualized machine (guest and host page
    #: tables, combined guest-virtual → host-physical TLB entries).
    virtualized: bool = False


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register ``spec`` under its name; returns it unchanged.

    Re-registering a name is an error — backends are process-global and a
    silent overwrite would make results depend on import order.  So is a
    name with capitals: the preset layer lower-cases every system name, so
    it could never select that backend.
    """
    if spec.name != spec.name.lower():
        raise ConfigurationError(
            f"translation backend name {spec.name!r} must be lower-case")
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"translation backend {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_backend(name: str) -> BackendSpec:
    """Look a backend up by registry name.

    Unknown names raise a :class:`~repro.common.errors.ConfigurationError`
    that lists every registered backend — the debugging-friendly behaviour
    the scenario layer and CLI inherit.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown translation backend {name!r}; registered backends: "
            + ", ".join(sorted(_REGISTRY))) from None


def available_backends() -> List[BackendSpec]:
    """All registered specs, sorted by name (the ``repro backends list`` order)."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
