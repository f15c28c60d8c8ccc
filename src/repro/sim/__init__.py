"""Simulation: configuration, the system factory, the simulator loop and results."""

from repro.sim.config import (
    CacheConfig,
    DramTimingConfig,
    MMUConfig,
    SystemConfig,
    TLBConfig,
    VictimaConfig,
)
from repro.sim.presets import (
    EVALUATED_NATIVE_SYSTEMS,
    EVALUATED_VIRTUAL_SYSTEMS,
    make_system_config,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.system import System, build_system

__all__ = [
    "CacheConfig",
    "DramTimingConfig",
    "MMUConfig",
    "SystemConfig",
    "TLBConfig",
    "VictimaConfig",
    "EVALUATED_NATIVE_SYSTEMS",
    "EVALUATED_VIRTUAL_SYSTEMS",
    "make_system_config",
    "SimulationResult",
    "Simulator",
    "System",
    "build_system",
]
