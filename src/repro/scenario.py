"""Declarative simulation scenarios.

A :class:`ScenarioSpec` is a frozen, hashable description of one simulation
run: a named system preset (plus overrides), a *workload composition tree*
(single workloads, multi-tenant mixes, sequential phases, dilation, sharding
and trace replay — see :mod:`repro.traces`) and the run knobs (``max_refs``,
``seed``, warm-up, hardware scale).  Specs load from TOML or JSON files, or
from the built-in registry (``repro scenarios list``), and build real
:class:`~repro.workloads.base.Workload` / :class:`~repro.sim.config.SystemConfig`
objects on demand.

Every spec has a stable :meth:`~ScenarioSpec.content_hash` over its *physical*
fields (the name and description are documentation, not identity), which is
the key of the experiment run cache: two routes to the same run — a TOML file
and an experiment cell — share one cache entry.

A minimal TOML scenario::

    name = "two-tenant-mix"
    system = "victima"
    max_refs = 20000

    [workload]
    kind = "mix"

    [[workload.tenants]]
    workload = "bfs"
    weight = 2.0

    [[workload.tenants]]
    workload = "rnd"
    weight = 1.0

Adding ``num_cores = 2`` at the top level turns the same spec into a
multi-core run: each tenant may pin itself with ``core = N`` (unpinned
tenants spread across the least-loaded cores), and the result carries
per-core statistics (see ARCHITECTURE.md, "Multi-core scheduling").
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.toml_compat import load_toml
from repro.sim.config import SystemConfig
from repro.sim.presets import SYSTEM_OVERRIDES, make_system_config
from repro.sim.sampling import SamplingConfig
from repro.traces import combinators, tracefile
from repro.workloads.base import Workload, WorkloadConfig
from repro.workloads.registry import WORKLOAD_NAMES, make_workload

#: Composition operators understood by the workload tree.
WORKLOAD_KINDS = ("workload", "mix", "phased", "dilate", "shard", "replay")

#: Keys accepted in a workload-tree mapping (aliases included).
_NODE_KEYS = {
    "kind", "workload", "weight", "max_refs", "seed", "footprint_scale",
    "huge_page_fraction", "params", "children", "tenants", "phases",
    "gap_scale", "shard_index", "shard_count", "path", "core",
}
_CHILD_ALIASES = ("children", "tenants", "phases")

_SCENARIO_KEYS = {
    "name", "description", "system", "system_overrides", "workload",
    "max_refs", "epoch_instructions", "seed", "warmup_fraction",
    "hardware_scale", "label", "num_cores", "sampling",
}


def _sorted_items(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not mapping:
        return ()
    return tuple(sorted((str(k), v) for k, v in mapping.items()))


@dataclass(frozen=True)
class WorkloadSpec:
    """One node of a scenario's workload composition tree."""

    kind: str = "workload"
    #: Leaf generator name (``kind="workload"``), from the workload registry.
    workload: Optional[str] = None
    #: Scheduling weight when this node is a tenant of a ``mix``.
    weight: float = 1.0
    #: Reference budget for this subtree (defaults derived from the parent).
    max_refs: Optional[int] = None
    seed: Optional[int] = None
    footprint_scale: Optional[float] = None
    huge_page_fraction: Optional[float] = None
    #: Leaf generator parameters, canonically sorted.
    params: Tuple[Tuple[str, Any], ...] = ()
    children: Tuple["WorkloadSpec", ...] = ()
    #: ``dilate`` factor over the child's instruction gaps.
    gap_scale: float = 1.0
    #: ``shard`` slice selection.
    shard_index: int = 0
    shard_count: int = 1
    #: ``replay`` trace file path.
    path: Optional[str] = None
    #: Core placement when this node is a tenant of a ``mix`` on a
    #: multi-core scenario (``num_cores > 1``); ``None`` = least-loaded core.
    core: Optional[int] = None

    def __post_init__(self) -> None:
        if self.core is not None and (not isinstance(self.core, int) or self.core < 0):
            raise ConfigurationError(
                f"'core' must be a non-negative integer, got {self.core!r}")
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload node kind {self.kind!r}; "
                f"expected one of {', '.join(WORKLOAD_KINDS)}")
        if self.kind == "workload":
            if not self.workload:
                raise ConfigurationError("a 'workload' node needs a workload name")
            if self.workload not in WORKLOAD_NAMES:
                raise ConfigurationError(
                    f"unknown workload {self.workload!r}; "
                    f"available: {', '.join(WORKLOAD_NAMES)}")
        elif self.kind in ("mix", "phased"):
            if not self.children:
                raise ConfigurationError(f"a '{self.kind}' node needs children")
        elif self.kind in ("dilate", "shard"):
            if len(self.children) != 1:
                raise ConfigurationError(
                    f"a '{self.kind}' node needs exactly one child")
        elif self.kind == "replay" and not self.path:
            raise ConfigurationError("a 'replay' node needs a trace file path")
        if self.kind in ("workload", "replay") and self.children:
            raise ConfigurationError(
                f"a '{self.kind}' node cannot have children/tenants/phases — "
                "did you mean kind = 'mix' or kind = 'phased'?")

    # ------------------------------------------------------------------ #
    # (De)serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Any) -> "WorkloadSpec":
        """Parse a workload-tree node from its TOML/JSON shape.

        >>> WorkloadSpec.from_dict("bfs").kind
        'workload'
        >>> node = WorkloadSpec.from_dict({"tenants": [
        ...     {"workload": "bfs", "core": 0}, {"workload": "rnd"}]})
        >>> node.kind, node.children[0].core, node.children[1].core
        ('mix', 0, None)
        """
        if isinstance(data, str):
            return cls(kind="workload", workload=data)
        if isinstance(data, WorkloadSpec):
            return data
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"workload node must be a name or a mapping, got {type(data).__name__}")
        unknown = set(data) - _NODE_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown workload node key(s): {', '.join(sorted(unknown))}")
        present_aliases = [alias for alias in _CHILD_ALIASES if alias in data]
        if len(present_aliases) > 1:
            raise ConfigurationError(
                f"workload node mixes child aliases: {', '.join(present_aliases)}")
        children = tuple(cls.from_dict(child)
                         for child in (data.get(present_aliases[0], ())
                                       if present_aliases else ()))
        kind = data.get("kind")
        if kind is None:
            if "workload" in data:
                kind = "workload"
            elif present_aliases:
                # The alias itself is unambiguous: tenants interleave,
                # phases run sequentially; bare 'children' needs a 'kind'.
                kind = {"tenants": "mix", "phases": "phased",
                        "children": None}[present_aliases[0]]
        if kind is None:
            raise ConfigurationError(
                "workload node needs a 'kind' or a 'workload' (or use the "
                "'tenants'/'phases' aliases, which imply mix/phased)")
        return cls(
            kind=str(kind),
            workload=data.get("workload"),
            weight=float(data.get("weight", 1.0)),
            max_refs=data.get("max_refs"),
            seed=data.get("seed"),
            footprint_scale=data.get("footprint_scale"),
            huge_page_fraction=data.get("huge_page_fraction"),
            params=_sorted_items(data.get("params")),
            children=children,
            gap_scale=float(data.get("gap_scale", 1.0)),
            shard_index=int(data.get("shard_index", 0)),
            shard_count=int(data.get("shard_count", 1)),
            path=data.get("path"),
            core=(int(data["core"]) if data.get("core") is not None else None),
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.workload is not None:
            data["workload"] = self.workload
        if self.weight != 1.0:
            data["weight"] = self.weight
        for key in ("max_refs", "seed", "footprint_scale", "huge_page_fraction",
                    "path", "core"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.params:
            data["params"] = dict(self.params)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        if self.gap_scale != 1.0:
            data["gap_scale"] = self.gap_scale
        if self.shard_count != 1:
            data["shard_index"] = self.shard_index
            data["shard_count"] = self.shard_count
        return data

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def build(self, default_max_refs: int, default_seed: int) -> Workload:
        """Materialise this subtree as a runnable workload."""
        max_refs = self.max_refs if self.max_refs is not None else default_max_refs
        seed = self.seed if self.seed is not None else default_seed
        if self.kind == "workload":
            config = WorkloadConfig(
                name=self.workload, max_refs=max_refs, seed=seed,
                footprint_scale=(self.footprint_scale
                                 if self.footprint_scale is not None else 1.0),
                huge_page_fraction=self.huge_page_fraction,
                params=dict(self.params))
            return make_workload(config)
        if self.kind == "mix":
            weights = [child.weight for child in self.children]
            budgets = _distribute(max_refs, weights)
            tenants = [child.build(budget, seed)
                       for child, budget in zip(self.children, budgets)]
            pins = [child.core for child in self.children]
            return combinators.mix(tenants, weights=weights, seed=seed,
                                   max_refs=max_refs,
                                   huge_page_fraction=self.huge_page_fraction,
                                   cores=pins if any(p is not None for p in pins)
                                   else None)
        if self.kind == "phased":
            budgets = _distribute(max_refs, [1.0] * len(self.children))
            phases = [child.build(budget, seed)
                      for child, budget in zip(self.children, budgets)]
            return combinators.phased(phases, max_refs=max_refs,
                                      huge_page_fraction=self.huge_page_fraction)
        if self.kind == "dilate":
            return combinators.dilate(self.children[0].build(max_refs, seed),
                                      self.gap_scale)
        if self.kind == "shard":
            inner = self.children[0].build(max_refs * self.shard_count, seed)
            return combinators.shard(inner, self.shard_index, self.shard_count)
        assert self.kind == "replay"
        return tracefile.replay(self.path, max_refs=max_refs)

    def describe(self) -> str:
        """A compact human-readable signature of the subtree."""
        if self.kind == "workload":
            return self.workload or "?"
        if self.kind == "mix":
            parts = [f"{child.describe()}x{child.weight:g}"
                     + (f"@c{child.core}" if child.core is not None else "")
                     for child in self.children]
            return "mix(" + "+".join(parts) + ")"
        if self.kind == "phased":
            return "phased(" + "->".join(c.describe() for c in self.children) + ")"
        if self.kind == "dilate":
            return f"dilate({self.children[0].describe()},x{self.gap_scale:g})"
        if self.kind == "shard":
            return (f"shard({self.children[0].describe()},"
                    f"{self.shard_index}/{self.shard_count})")
        return f"replay({os.path.basename(self.path or '?')})"


def _pinned_nodes(node: WorkloadSpec) -> List[WorkloadSpec]:
    """Every node in the tree with an explicit ``core`` placement."""
    pinned = [node] if node.core is not None else []
    for child in node.children:
        pinned.extend(_pinned_nodes(child))
    return pinned


def _distribute(total: int, weights: List[float]) -> List[int]:
    """Split ``total`` proportionally to ``weights`` (floors + remainder)."""
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ConfigurationError("composition weights must sum to a positive value")
    budgets = [max(1, int(total * weight / weight_sum)) for weight in weights]
    shortfall = total - sum(budgets)
    index = 0
    while shortfall > 0:
        budgets[index % len(budgets)] += 1
        shortfall -= 1
        index += 1
    return budgets


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative description of one simulation run."""

    name: str = "scenario"
    description: str = ""
    #: Named system preset (see :func:`repro.sim.presets.make_system_config`).
    system: str = "radix"
    #: Preset overrides, e.g. ``(("l3_latency", 25),)``; canonically sorted.
    system_overrides: Tuple[Tuple[str, Any], ...] = ()
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(kind="workload", workload="rnd"))
    max_refs: int = 20_000
    epoch_instructions: int = 10_000
    seed: int = 42
    warmup_fraction: float = 0.25
    hardware_scale: int = 1
    #: Overrides the preset's display label (reported in results).
    label: Optional[str] = None
    #: Number of simulated cores.  1 runs the whole workload on one core;
    #: > 1 requires a ``mix`` workload tree whose tenants are placed on cores
    #: (``core = N`` per tenant, least-loaded placement for unpinned ones),
    #: one stream per core (see :func:`repro.api.build_simulator`).
    num_cores: int = 1
    #: Opt-in SMARTS-style sampled simulation (see :mod:`repro.sim.sampling`).
    #: ``None`` (the default) simulates every reference; a
    #: :class:`~repro.sim.sampling.SamplingConfig` details one window out of
    #: every ``stride`` after warm-up and fast-forwards through the rest.
    #: Physical: participates in :meth:`content_hash` when set (the default
    #: leaves existing hashes untouched).
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        if self.max_refs < 1:
            raise ConfigurationError(
                f"max_refs must be >= 1, got {self.max_refs}")
        if self.epoch_instructions < 1:
            raise ConfigurationError(
                f"epoch_instructions must be >= 1, got {self.epoch_instructions}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")
        if self.hardware_scale < 1:
            raise ConfigurationError(
                f"hardware_scale must be >= 1, got {self.hardware_scale}")
        if self.num_cores < 1:
            raise ConfigurationError(
                f"num_cores must be >= 1, got {self.num_cores}")
        for key, _ in self.system_overrides:
            if key in ("hardware_scale", "num_cores"):
                raise ConfigurationError(
                    f"set {key} at the scenario top level, not in system_overrides")
            if key not in SYSTEM_OVERRIDES:
                raise ConfigurationError(
                    f"unknown system override {key!r}; expected one of: "
                    + ", ".join(SYSTEM_OVERRIDES))
        pinned = _pinned_nodes(self.workload)
        if self.num_cores == 1:
            if pinned:
                raise ConfigurationError(
                    "tenant core placement requires num_cores > 1")
            return
        if self.workload.kind != "mix":
            raise ConfigurationError(
                "num_cores > 1 requires a 'mix' workload tree whose tenants "
                "are placed on cores")
        tenants = {id(child) for child in self.workload.children}
        for node in pinned:
            if id(node) not in tenants:
                raise ConfigurationError(
                    "'core' may only be set on direct tenants of the top-level mix")
            if node.core >= self.num_cores:
                raise ConfigurationError(
                    f"tenant core {node.core} is out of range for "
                    f"num_cores={self.num_cores}")
        # A mix whose own budget truncates its tenants has no faithful
        # per-core split (combinators would reject it at build time); catch
        # the spec shape here so the error is a ConfigurationError at load
        # time like every other one.
        mix_budget = (self.workload.max_refs if self.workload.max_refs is not None
                      else self.max_refs)
        weights = [child.weight for child in self.workload.children]
        derived = _distribute(mix_budget, weights)
        effective = [child.max_refs if child.max_refs is not None else budget
                     for child, budget in zip(self.workload.children, derived)]
        if sum(effective) > mix_budget:
            raise ConfigurationError(
                f"multi-core mix is truncating: tenant max_refs sum to "
                f"{sum(effective)} but the mix budget is {mix_budget}; "
                "raise the scenario's max_refs or lower the tenants'")

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"scenario must be a mapping, got {type(data).__name__}")
        unknown = set(data) - _SCENARIO_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown scenario key(s): {', '.join(sorted(unknown))}")
        kwargs: Dict[str, Any] = {}
        for key in ("name", "description", "system", "label"):
            if data.get(key) is not None:
                kwargs[key] = str(data[key])
        for key, caster in (("max_refs", int), ("epoch_instructions", int),
                            ("seed", int), ("warmup_fraction", float),
                            ("hardware_scale", int), ("num_cores", int)):
            if data.get(key) is not None:
                kwargs[key] = caster(data[key])
        if "workload" in data:
            kwargs["workload"] = WorkloadSpec.from_dict(data["workload"])
        if data.get("sampling") is not None:
            sampling = data["sampling"]
            kwargs["sampling"] = (sampling if isinstance(sampling, SamplingConfig)
                                  else SamplingConfig.from_dict(sampling))
        kwargs["system_overrides"] = _sorted_items(data.get("system_overrides"))
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioSpec":
        """Load a scenario from a ``.toml`` or ``.json`` file."""
        lowered = path.lower()
        if lowered.endswith(".toml"):
            data = load_toml(path)
        elif lowered.endswith(".json"):
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            raise ConfigurationError(
                f"scenario files must end in .toml or .json: {path!r}")
        spec = cls.from_dict(data)
        if spec.name == "scenario":
            base = os.path.splitext(os.path.basename(path))[0]
            spec = replace(spec, name=base)
        return spec

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "system": self.system,
            "workload": self.workload.to_dict(),
            "max_refs": self.max_refs,
            "epoch_instructions": self.epoch_instructions,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "hardware_scale": self.hardware_scale,
            "num_cores": self.num_cores,
        }
        if self.description:
            data["description"] = self.description
        if self.system_overrides:
            data["system_overrides"] = dict(self.system_overrides)
        if self.label is not None:
            data["label"] = self.label
        if self.sampling is not None:
            data["sampling"] = self.sampling.to_dict()
        return data

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def content_hash(self) -> str:
        """Stable digest of the physical run description.

        ``name`` and ``description`` are documentation and excluded, so the
        same run reached through different spellings (a TOML file, a built-in
        scenario, an experiment cell) shares one cache entry.  Values
        are encoded with their type, so ``1`` / ``1.0`` / ``True`` never
        collide.  ``num_cores`` and tenant ``core`` pins are physical and
        participate.

        >>> a = ScenarioSpec(name="a", system="radix")
        >>> b = ScenarioSpec(name="b", system="radix")       # name is docs
        >>> a.content_hash() == b.content_hash()
        True
        >>> a.content_hash() == ScenarioSpec(system="victima").content_hash()
        False
        """
        physical = self.to_dict()
        physical.pop("name", None)
        physical.pop("description", None)
        digests = _replay_digests(self.workload)
        if digests:
            # A replay node's identity is the trace *contents*, not its path:
            # re-recording a file must not resurrect stale cached results.
            physical["replay_traces"] = digests
        canonical = json.dumps(_typed(physical), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def build_workload(self) -> Workload:
        """Materialise the workload composition tree.

        >>> spec = ScenarioSpec.from_dict({
        ...     "system": "radix", "max_refs": 100,
        ...     "workload": {"tenants": [{"workload": "bfs"},
        ...                              {"workload": "rnd"}]}})
        >>> spec.build_workload().name
        'mix(bfs+rnd@1)'
        """
        return self.workload.build(self.max_refs, self.seed)

    def build_system_config(self) -> SystemConfig:
        """Build (and validate) the system configuration for this scenario.

        >>> ScenarioSpec(system="victima").build_system_config().label
        'Victima'
        """
        config = make_system_config(self.system,
                                    hardware_scale=self.hardware_scale,
                                    num_cores=self.num_cores,
                                    **dict(self.system_overrides))
        if self.label:
            config.label = self.label
        return config

    def describe(self) -> str:
        cores = f", cores={self.num_cores}" if self.num_cores > 1 else ""
        return (f"{self.name}: {self.workload.describe()} on {self.system} "
                f"(refs={self.max_refs}, seed={self.seed}, "
                f"scale={self.hardware_scale}{cores})")


def _replay_digests(node: WorkloadSpec) -> List[str]:
    """Content digests of every replay trace in the tree (in tree order)."""
    digests: List[str] = []
    if node.kind == "replay" and node.path:
        sha = hashlib.sha256()
        try:
            with open(node.path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    sha.update(chunk)
            digests.append(sha.hexdigest())
        except OSError:
            # Missing/unreadable trace: fall back to path identity; building
            # the workload will raise a clear error if it stays unreadable.
            digests.append(f"path:{node.path}")
    for child in node.children:
        digests.extend(_replay_digests(child))
    return digests


def _typed(value: Any) -> Any:
    """Encode every scalar with its type for collision-free canonical JSON."""
    if isinstance(value, Mapping):
        return {str(k): _typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return f"{type(value).__name__}:{value!r}"


# --------------------------------------------------------------------------- #
# Built-in scenarios
# --------------------------------------------------------------------------- #
BUILTIN_SCENARIOS: Dict[str, Dict[str, Any]] = {
    "two_tenant_mix": {
        "name": "two_tenant_mix",
        "description": "Two tenants (bfs 2:1 gups) sharing one Victima machine",
        "system": "victima",
        "max_refs": 16_000,
        "hardware_scale": 8,
        "workload": {
            "kind": "mix",
            "tenants": [
                {"workload": "bfs", "weight": 2.0},
                {"workload": "rnd", "weight": 1.0},
            ],
        },
    },
    "four_tenant_storm": {
        "name": "four_tenant_storm",
        "description": "Four heterogeneous tenants hammering the shared "
                       "L2/L3 and Victima's TLB-block capacity",
        "system": "victima",
        "max_refs": 24_000,
        "hardware_scale": 8,
        "workload": {
            "kind": "mix",
            "tenants": [
                {"workload": "bfs"},
                {"workload": "rnd"},
                {"workload": "xs"},
                {"workload": "dlrm"},
            ],
        },
    },
    "two_core_pinned": {
        "name": "two_core_pinned",
        "description": "Two tenants pinned to two cores contending in the "
                       "shared LLC and page table",
        "system": "victima",
        "max_refs": 16_000,
        "hardware_scale": 8,
        "num_cores": 2,
        "workload": {
            "kind": "mix",
            "tenants": [
                {"workload": "bfs", "core": 0},
                {"workload": "rnd", "core": 1},
            ],
        },
    },
    "phase_change": {
        "name": "phase_change",
        "description": "One process switching phases: PageRank sweep, then "
                       "frontier BFS over the same address space",
        "system": "victima",
        "max_refs": 16_000,
        "hardware_scale": 8,
        "workload": {
            "kind": "phased",
            "phases": [
                {"workload": "pr"},
                {"workload": "bfs"},
            ],
        },
    },
}


def list_scenarios() -> Dict[str, str]:
    """Name → description of every built-in scenario.

    >>> "two_tenant_mix" in list_scenarios()
    True
    >>> "two_core_pinned" in list_scenarios()
    True
    """
    return {name: data.get("description", "")
            for name, data in BUILTIN_SCENARIOS.items()}


def load_scenario(ref) -> ScenarioSpec:
    """Resolve a scenario reference: a spec, a dict, a file path or a name.

    >>> load_scenario("two_tenant_mix").system
    'victima'
    >>> load_scenario({"system": "radix", "workload": "rnd"}).describe()
    'scenario: rnd on radix (refs=20000, seed=42, scale=1)'
    """
    if isinstance(ref, ScenarioSpec):
        return ref
    if isinstance(ref, Mapping):
        return ScenarioSpec.from_dict(ref)
    if not isinstance(ref, str):
        raise ConfigurationError(
            f"cannot interpret {type(ref).__name__} as a scenario")
    if ref in BUILTIN_SCENARIOS:
        return ScenarioSpec.from_dict(BUILTIN_SCENARIOS[ref])
    if os.path.exists(ref):
        return ScenarioSpec.from_file(ref)
    raise ConfigurationError(
        f"unknown scenario {ref!r}: not a file, and not one of the built-ins "
        f"({', '.join(BUILTIN_SCENARIOS)})")
