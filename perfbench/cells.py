"""The benchmark's workloads: which simulations each one runs.

A workload is a list of :class:`~repro.scenario.ScenarioSpec` cells.  One
*pass* simulates every cell once, in list order.  The seed given on the
command line reaches the simulator only through ``ScenarioSpec.seed``.

Single-core cells use the paper-default knobs, the defaults of
``repro.experiments.runner.ExperimentSettings`` with no ``REPRO_*``
environment overrides: 20k references, ``hardware_scale=8`` and a 0.3
warm-up fraction.  They are spelled out here so that environment knobs
cannot change what the benchmark measures.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.scenario import BUILTIN_SCENARIOS, ScenarioSpec

PAPER_REFS = 20_000
PAPER_HARDWARE_SCALE = 8
PAPER_WARMUP_FRACTION = 0.3

#: The seed the benchmark is tuned and reported on.
DEFAULT_SEED = 42
#: A seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 1009

#: The self-test's budget: this share of every reference budget, on data
#: structures shrunk to this share of their default footprint.
TINY_REFS_SHARE = 0.03
TINY_FOOTPRINT_SCALE = 0.05

#: Figure 20 cells, trimmed from the full 6 systems x 3 workloads so that a
#: run holds two passes.  ``radix`` and ``victima`` keep all three workloads
#: (the speed-up GMEAN needs both); ``pom_tlb`` and ``opt_l3tlb_64k`` keep
#: one each.  Together they cover every distinct L2-TLB-miss backend of the
#: figure: the ``opt_l2tlb_*`` systems run the radix backend behind a larger
#: L2 TLB.
NATIVE_CELLS: Tuple[Tuple[str, str], ...] = (
    ("radix", "bfs"), ("radix", "xs"), ("radix", "rnd"),
    ("victima", "bfs"), ("victima", "xs"), ("victima", "rnd"),
    ("pom_tlb", "bfs"), ("opt_l3tlb_64k", "xs"),
)

#: Figure 27 cells: the baseline and Victima on both workloads, the other
#: two systems on ``bfs``, whose prefault (shadow maps) is the heavier one.
VIRT_CELLS: Tuple[Tuple[str, str], ...] = (
    ("nested_paging", "bfs"), ("nested_paging", "rnd"),
    ("virt_victima", "bfs"), ("virt_victima", "rnd"),
    ("virt_pom_tlb", "bfs"), ("ideal_shadow", "bfs"),
)

#: ``two_core_pinned`` with a budget long enough to amortise set-up.
TWO_CORE_REFS = 80_000

#: SMARTS sampling of victima x bfs: 20x the default budget, one detailed
#: 1024-ref window in 32, each re-warmed by 256 refs, after a global warm-up
#: of 1% of the run (4000 refs).
SAMPLED_REFS = 20 * PAPER_REFS
SAMPLED_WARMUP_FRACTION = 0.01
SAMPLING = {"stride": 32, "warmup_refs": 256, "window_refs": 1024}


class SpeedupRef(NamedTuple):
    """Which cells give the simulated Victima speed-up, and the paper's value."""

    baseline: str
    victima: str
    paper: float


#: The paper's GMEAN Victima speed-ups (Figures 20 and 27).
SPEEDUPS: Dict[str, SpeedupRef] = {
    "native_fig": SpeedupRef("radix", "victima", 1.074),
    "virt_fig": SpeedupRef("nested_paging", "virt_victima", 1.287),
}


def _refs(refs: int, tiny: bool) -> int:
    return max(100, int(refs * TINY_REFS_SHARE)) if tiny else refs


def _single(system: str, workload: str, seed: int, tiny: bool,
            refs: int = PAPER_REFS,
            warmup_fraction: float = PAPER_WARMUP_FRACTION,
            sampling: Optional[dict] = None) -> ScenarioSpec:
    node: Dict[str, object] = {"workload": workload}
    if tiny:
        node["footprint_scale"] = TINY_FOOTPRINT_SCALE
    return ScenarioSpec.from_dict({
        "name": f"{system}/{workload}", "system": system, "workload": node,
        "max_refs": _refs(refs, tiny), "hardware_scale": PAPER_HARDWARE_SCALE,
        "warmup_fraction": warmup_fraction, "seed": seed, "sampling": sampling,
    })


def native_fig(seed: int, tiny: bool = False) -> List[ScenarioSpec]:
    return [_single(system, workload, seed, tiny) for system, workload in NATIVE_CELLS]


def virt_fig(seed: int, tiny: bool = False) -> List[ScenarioSpec]:
    return [_single(system, workload, seed, tiny) for system, workload in VIRT_CELLS]


def two_core_long(seed: int, tiny: bool = False) -> List[ScenarioSpec]:
    data = copy.deepcopy(BUILTIN_SCENARIOS["two_core_pinned"])
    data.update(max_refs=_refs(TWO_CORE_REFS, tiny), seed=seed)
    if tiny:
        for tenant in data["workload"]["tenants"]:
            tenant["footprint_scale"] = TINY_FOOTPRINT_SCALE
    return [ScenarioSpec.from_dict(data)]


def sampled_bfs(seed: int, tiny: bool = False) -> List[ScenarioSpec]:
    return [_single("victima", "bfs", seed, tiny, refs=SAMPLED_REFS,
                    warmup_fraction=SAMPLED_WARMUP_FRACTION, sampling=SAMPLING)]


#: Workload name -> ``(seed, tiny) -> [ScenarioSpec]``.
WORKLOADS: Dict[str, Callable[..., List[ScenarioSpec]]] = {
    "native_fig": native_fig,
    "virt_fig": virt_fig,
    "two_core_long": two_core_long,
    "sampled_bfs": sampled_bfs,
}
