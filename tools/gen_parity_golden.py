#!/usr/bin/env python3
"""Regenerate the golden data in tests/data (backend parity and hot path).

Runs every evaluated system preset (plus multi-core, SMARTS-sampled,
L1-resident, idle-core, no-warm-up and virtualized ``bfs`` variants) on a
small deterministic window and records the full ``SimulationResult`` as
canonical JSON.  ``tests/test_backends.py`` re-runs
the same scenarios (built by :func:`scenario_for_key` below) and asserts
bit-identical equality, which pins every simulated outcome across refactors
of the engines, the structures and the backend registry.

Golden keys read ``<preset>/<N>core`` or ``<preset>/<N>core/<variant>``:

``sampled``
    SMARTS sampling, one 256-ref window in every 4 with a 128-ref re-warm.
``sampled_resume``
    The ``sampled`` settings at 6,000 refs.  Each core then simulates
    windows after a skipped one, so a skip moves the core's clock and the
    two-core scheduler carries on from there; at 2,500 refs each core's
    skips run to the end of its stream.
``sampled_bfs``, ``sampled_tc``
    The ``sampled`` settings on ``bfs`` and ``tc`` instead of ``rnd``, so the
    skipped windows go through a graph kernel's ``fast_forward``.  ``bfs``
    picks frontier vertices with RNG draws; ``tc`` adds the second-hop
    neighbour reads and the shuffled traversal, which draws no RNG to pick a
    vertex.
``l1_resident``
    ``rnd`` shrunk to an L1-resident working set at ``hardware_scale=1``
    and 12,000 refs: the regime with L1 D-TLB and L1-D hit ratios above 0.7.
``idle``
    The two tenants pinned to the first and the last core, so every core in
    between idles and reports an empty per-core slice.
``no_warmup``
    ``warmup_fraction = 0``: no warm-up boundary, so no statistics reset
    fires and the Victima reach series covers the whole run.
``bfs``
    The ``bfs`` workload instead of ``rnd``.  Its data regions end mid-page
    and mid-2 MB region (the vertex array is 24,000,000 B), which ``rnd``'s
    whole-2 MB regions never do; on the virtualized presets
    (``nested_paging/1core/bfs``, ``ideal_shadow/1core/bfs``,
    ``virt_victima/1core/bfs`` and ``virt_pom_tlb/1core/bfs``) this covers
    the unaligned ends of the guest, host and shadow prefault.

The same run also rewrites ``tests/data/hotpath_golden.json``, which
``tests/test_hotpath.py`` pins: the runs (built from :func:`hotpath_scenario`)
on which the batched loop was checked against the straight-line reference
loop while that loop existed.  Its single-core runs hold the reference
loop's own results, recorded just before it was deleted; the batched loop
matched every one of them bit for bit.  Its ``<preset>/2core`` runs were
re-recorded when the single-core and multi-core loops became one engine:
that engine adds a reference's gap, translation and access cycles to the
clock one at a time, which moved each run's ``cycles`` by one ULP and no
count.

Usage (from the repo root)::

    PYTHONPATH=src python tools/gen_parity_golden.py
    PYTHONPATH=src python tools/gen_parity_golden.py --check

Only regenerate after an *intentional* behaviour change — and record why in
the commit message; the whole point of the file is that it does not move.
To check a refactor against the goldens, use ``--check``: it replays every
backend and hot-path golden and writes nothing.  For each diverging run it
prints one ``MOVED`` line per moved leaf field: its path (``cycles``,
``per_core[1].cycles``, ``served_by.l2_tlb``), the golden and the fresh
value and, when both are floats, the relative change.  A last line says
whether any non-float field moved, and the exit code is 1 on any
divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.api import build_simulator  # noqa: E402
from repro.sim.presets import EVALUATED_NATIVE_SYSTEMS  # noqa: E402

#: Small but non-trivial windows: large enough that every back-end path
#: (probe hit/miss, walks, warm-up boundary reset) is exercised.
MAX_REFS = 2500
HARDWARE_SCALE = 16

SINGLE_CORE_PRESETS = (
    "radix",
    "opt_l2tlb_64k",
    "opt_l2tlb_128k",
    "real_l2tlb_64k",
    "opt_l3tlb_64k",
    "pom_tlb",
    "victima",
    "victima_srrip",
    "victima_no_predictor",
    "victima_miss_only",
    "victima_eviction_only",
    "hash_pt",
    "nested_paging",
    "virt_pom_tlb",
    "ideal_shadow",
    "virt_victima",
)

MULTI_CORE_PRESETS = ("victima", "pom_tlb", "radix", "hash_pt",
                      "opt_l2tlb_64k", "opt_l2tlb_128k", "opt_l3tlb_64k")

SAMPLED_KEYS = ("victima/1core/sampled", "victima/2core/sampled",
                "virt_victima/1core/sampled", "pom_tlb/2core/sampled",
                "victima/1core/sampled_bfs", "victima/1core/sampled_tc",
                "victima/2core/sampled_resume", "pom_tlb/2core/sampled_resume")
SAMPLING = {"stride": 4, "warmup_refs": 128, "window_refs": 256}
SAMPLED_RESUME_REFS = 6000

L1_RESIDENT_KEYS = ("radix/1core/l1_resident", "victima/1core/l1_resident")
L1_RESIDENT_REFS = 12_000
L1_RESIDENT_PARAMS = {"table_bytes": 16384, "index_bytes": 8192,
                      "index_fraction": 0.5}

ENGINE_KEYS = ("radix/3core/idle", "victima/1core/no_warmup",
               "victima/2core/no_warmup")

VIRT_BFS_KEYS = ("nested_paging/1core/bfs", "ideal_shadow/1core/bfs",
                 "virt_victima/1core/bfs", "virt_pom_tlb/1core/bfs")


#: Every native preset the paper evaluates, plus the hashed page table.
HOTPATH_NATIVE_PRESETS = EVALUATED_NATIVE_SYSTEMS + ("hash_pt",)

#: Single-core hot-path runs: key -> (preset, workload, max_refs,
#: hardware_scale, seed), at the default 0.25 warm-up.
HOTPATH_SINGLE_CORE = {
    "victima/1core/rnd": ("victima", "rnd", 6000, 1, 42),
    "radix/1core/bfs": ("radix", "bfs", 6000, 1, 42),
    "nested_paging/1core/rnd": ("nested_paging", "rnd", 3000, 1, 42),
    **{f"{preset}/1core/seed7": (preset, "rnd", 4000, HARDWARE_SCALE, 7)
       for preset in HOTPATH_NATIVE_PRESETS},
}

#: The two-core hot-path scenario; its key ``<preset>/2core`` swaps in
#: ``system``.
HOTPATH_TWO_CORE = {
    "name": "hotpath-two-core",
    "system": "victima",
    "max_refs": 4000,
    "seed": 11,
    "hardware_scale": HARDWARE_SCALE,
    "warmup_fraction": 0.25,
    "num_cores": 2,
    "workload": {"kind": "mix", "tenants": [
        {"workload": "bfs", "core": 0},
        {"workload": "rnd", "core": 1},
    ]},
}


def golden_keys() -> list:
    return ([f"{preset}/1core" for preset in SINGLE_CORE_PRESETS]
            + [f"{preset}/2core" for preset in MULTI_CORE_PRESETS]
            + list(SAMPLED_KEYS) + list(L1_RESIDENT_KEYS) + list(ENGINE_KEYS)
            + list(VIRT_BFS_KEYS))


def scenario_for_key(key: str) -> dict:
    """The scenario mapping whose result is stored under golden ``key``."""
    preset, cores, *variant = key.split("/")
    num_cores = int(cores[:-len("core")])
    spec = {
        "name": "-".join(["parity", preset, f"{num_cores}c", *variant]),
        "system": preset,
        "max_refs": MAX_REFS,
        "seed": 42,
        "hardware_scale": HARDWARE_SCALE,
        "warmup_fraction": 0.25,
        "workload": "rnd",
    }
    if num_cores > 1:
        spec["num_cores"] = num_cores
        spec["workload"] = {"kind": "mix", "tenants": [
            {"workload": "bfs", "core": 0},
            {"workload": "rnd", "core": 1},
        ]}
    if variant == ["sampled"]:
        spec["sampling"] = dict(SAMPLING)
    elif variant == ["sampled_resume"]:
        spec.update(sampling=dict(SAMPLING), max_refs=SAMPLED_RESUME_REFS)
    elif variant in (["sampled_bfs"], ["sampled_tc"]):
        spec.update(sampling=dict(SAMPLING), workload=variant[0][len("sampled_"):])
    elif variant == ["l1_resident"]:
        spec.update(hardware_scale=1, max_refs=L1_RESIDENT_REFS,
                    workload={"workload": "rnd", "params": L1_RESIDENT_PARAMS})
    elif variant == ["idle"]:
        spec["workload"]["tenants"][1]["core"] = num_cores - 1
    elif variant == ["no_warmup"]:
        spec["warmup_fraction"] = 0.0
    elif variant == ["bfs"]:
        spec["workload"] = "bfs"
    elif variant:
        raise ValueError(f"unknown golden variant in {key!r}")
    return spec


def hotpath_keys() -> list:
    return (list(HOTPATH_SINGLE_CORE)
            + [f"{preset}/2core" for preset in HOTPATH_NATIVE_PRESETS])


def hotpath_scenario(key: str) -> dict:
    """The scenario mapping whose result ``hotpath_golden.json`` stores under ``key``."""
    if key in HOTPATH_SINGLE_CORE:
        preset, workload, max_refs, hardware_scale, seed = HOTPATH_SINGLE_CORE[key]
        return {"system": preset, "workload": workload, "max_refs": max_refs,
                "hardware_scale": hardware_scale, "seed": seed,
                "warmup_fraction": 0.25}
    preset, cores = key.split("/")
    if cores != "2core":
        raise ValueError(f"unknown hot-path key {key!r}")
    return dict(HOTPATH_TWO_CORE, system=preset)


def run_all() -> dict:
    golden = {}
    for key in golden_keys():
        print(f"  {key} ...", flush=True)
        result = build_simulator(scenario_for_key(key)).run()
        golden[key] = result.to_json_dict()
    return golden


def run_hotpath() -> dict:
    golden = {}
    for key in hotpath_keys():
        print(f"  {key} ...", flush=True)
        golden[key] = build_simulator(hotpath_scenario(key)).run().to_json_dict()
    return golden


def _golden_path(name: str) -> str:
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tests", "data", name)


def _write(name: str, golden: dict) -> None:
    out = _golden_path(name)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"wrote {out} ({len(golden)} runs)")


#: Stands in for a key that one side of a comparison lacks.
_ABSENT = "<absent>"


def _moved_leaves(expected, actual, path: str = ""):
    """Yield ``(path, golden, fresh)`` for every leaf where the two differ.

    Dicts and equal-length lists are walked; anything else is a leaf.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            yield from _moved_leaves(expected.get(key, _ABSENT),
                                     actual.get(key, _ABSENT),
                                     f"{path}.{key}" if path else key)
    elif (isinstance(expected, list) and isinstance(actual, list)
          and len(expected) == len(actual)):
        for index, (old, new) in enumerate(zip(expected, actual)):
            yield from _moved_leaves(old, new, f"{path}[{index}]")
    elif expected != actual:
        yield path, expected, actual


def _divergences(name: str, fresh: dict) -> list:
    """``(key, moved leaves)`` for each run of ``fresh`` that differs from
    the committed golden file ``name``; a run on one side only has the
    whole run as its one leaf."""
    with open(_golden_path(name), encoding="utf-8") as handle:
        golden = json.load(handle)
    # Round-trip through JSON: histogram keys are strings in the file.
    fresh = json.loads(json.dumps(fresh))
    found = []
    for key in sorted(set(golden) | set(fresh)):
        leaves = list(_moved_leaves(golden.get(key, _ABSENT),
                                    fresh.get(key, _ABSENT)))
        if leaves:
            found.append((key, leaves))
    return found


def _describe(path: str, golden, fresh) -> str:
    if path == "":
        return ("missing from the golden file" if golden is _ABSENT
                else "no longer generated")
    line = f"{path}: {golden!r} -> {fresh!r}"
    if isinstance(golden, float) and isinstance(fresh, float) and golden:
        line += f" (relative {(fresh - golden) / golden:+.3g})"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="replay every golden and report every moved "
                             "field; write nothing")
    args = parser.parse_args(argv)
    if not args.check:
        _write("backend_parity_golden.json", run_all())
        _write("hotpath_golden.json", run_hotpath())
        return 0
    diverged = 0
    non_float = False
    for name, runs in (("backend_parity_golden.json", run_all),
                       ("hotpath_golden.json", run_hotpath)):
        found = _divergences(name, runs())
        for key, leaves in found:
            for path, golden, fresh in leaves:
                print(f"MOVED {name} {key} {_describe(path, golden, fresh)}")
                non_float |= not (isinstance(golden, float)
                                  and isinstance(fresh, float))
        diverged += len(found)
    if not diverged:
        print("every golden replays")
        return 0
    print(f"{diverged} diverging run(s); "
          + ("non-float fields moved" if non_float else "only float fields moved"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
