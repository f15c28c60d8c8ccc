"""Shared experiment infrastructure: settings, run cache and the run matrix.

All experiment functions accept an optional :class:`ExperimentSettings`.  The
defaults can be tuned through environment variables so the benchmark harness
can be made faster or more thorough without code changes:

* ``REPRO_EXPERIMENT_REFS`` — memory references per simulation (default 20000).
* ``REPRO_HARDWARE_SCALE`` — machine scale-down factor (default 8, see
  ARCHITECTURE.md, "Scaled simulation").
* ``REPRO_WORKLOADS`` — comma-separated subset of workloads (default: all 11).
* ``REPRO_WARMUP_FRACTION`` — warm-up fraction of each run (default 0.3).
* ``REPRO_CACHE_DIR`` — if set, completed runs are pickled there and re-used
  across processes (the in-process cache is always active).
* ``REPRO_JOBS`` — number of parallel simulation workers (``1`` = serial,
  ``auto`` = one per CPU); see :mod:`repro.experiments.engine`.
* ``REPRO_PROGRESS`` — if set, print per-run progress/timing to stderr.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.report import format_markdown_table, format_table
from repro.experiments.engine import ProgressCallback, run_many
from repro.scenario import ScenarioSpec, WorkloadSpec
from repro.sim.simulator import SimulationResult
from repro.workloads.registry import WORKLOAD_NAMES


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    return float(value) if value else default


def _env_workloads() -> Tuple[str, ...]:
    value = os.environ.get("REPRO_WORKLOADS")
    if not value:
        return tuple(WORKLOAD_NAMES)
    return tuple(w.strip() for w in value.split(",") if w.strip())


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every experiment run."""

    max_refs: int = field(default_factory=lambda: _env_int("REPRO_EXPERIMENT_REFS", 20_000))
    hardware_scale: int = field(default_factory=lambda: _env_int("REPRO_HARDWARE_SCALE", 8))
    warmup_fraction: float = field(default_factory=lambda: _env_float("REPRO_WARMUP_FRACTION", 0.3))
    seed: int = 42
    workloads: Tuple[str, ...] = field(default_factory=_env_workloads)


@dataclass
class FigureResult:
    """Structured output of one experiment (one paper table/figure)."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    #: The headline number(s) the paper reports, for EXPERIMENTS.md.
    paper_expectation: Dict[str, object] = field(default_factory=dict)
    #: The corresponding measured values.
    measured: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def to_table(self) -> str:
        return format_table(self.headers, self.rows,
                            title=f"{self.experiment_id}: {self.title}")

    def to_markdown(self) -> str:
        return format_markdown_table(self.headers, self.rows)

    def comparison_rows(self) -> List[List[object]]:
        """Paper-vs-measured rows for EXPERIMENTS.md."""
        rows = []
        for key, paper_value in self.paper_expectation.items():
            rows.append([key, paper_value, self.measured.get(key, "n/a")])
        return rows


# --------------------------------------------------------------------------- #
# Run cache
# --------------------------------------------------------------------------- #
_RESULT_CACHE: Dict[tuple, SimulationResult] = {}

#: Bump whenever the pickled payload's semantics — or the key's semantics —
#: change (e.g. new :class:`SimulationResult` fields that old cache entries
#: would lack).  The version is part of the on-disk digest *and* of the file
#: name (``run_v<N>_<digest>.pkl``), so stale entries are simply ignored —
#: with a one-line warning — instead of deserialising into inconsistent
#: results.  The full v1→v4 history lives in ARCHITECTURE.md.
#: v3: keys are canonical :meth:`ScenarioSpec.content_hash` digests (typed,
#: sorted, label-aware) instead of ad-hoc argument tuples.
#: v4: multi-core engine — scenario hashes include ``num_cores`` (and tenant
#: ``core`` pins), results gain ``num_cores``/``per_core`` fields, and file
#: names carry the format version so stale generations are detectable.
#: v5: warm-up statistics bugfixes (pressure monitors and translation-reach
#: samples reset at the measurement boundary) change measured results, so
#: pre-fix cache entries must not be reused.
_CACHE_FORMAT_VERSION = 5

_log = logging.getLogger("repro.cache")

#: Cache directories already scanned for stale-generation entries (warn once).
_STALE_SCANNED: set = set()

#: Exceptions that mean "this cache file's *payload* is unusable — delete it
#: and recompute".  Truncated pickles raise ``EOFError``/``UnpicklingError``/
#: ``IndexError``; pickles written by an incompatible source tree raise
#: ``AttributeError``/``ImportError``.  Transient I/O errors (``OSError``)
#: are deliberately NOT here: they say nothing about the payload, so the
#: entry is kept and only this read falls back to recomputing.
_CACHE_CORRUPTION_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                            ImportError, IndexError)


def clear_cache() -> None:
    """Drop every memoised simulation result (mainly for tests)."""
    _RESULT_CACHE.clear()
    _STALE_SCANNED.clear()


def scenario_for_run(system_name: str, workload: str,
                     settings: ExperimentSettings,
                     system_label: Optional[str] = None,
                     **system_overrides) -> ScenarioSpec:
    """The :class:`ScenarioSpec` of one experiment cell.

    ``system_overrides`` go to :func:`repro.sim.presets.make_system_config`
    (e.g. ``l3_latency=25``) and ``system_label`` renames the system.  The
    spec's content hash is the cell's cache identity — canonical (sorted,
    typed) regardless of how the overrides were spelled.
    """
    return ScenarioSpec(
        name=f"{system_name}/{workload}",
        system=system_name,
        system_overrides=tuple(sorted(system_overrides.items())),
        workload=WorkloadSpec(kind="workload", workload=workload),
        max_refs=settings.max_refs,
        seed=settings.seed,
        warmup_fraction=settings.warmup_fraction,
        hardware_scale=settings.hardware_scale,
        label=system_label,
    )


def peek_cached(content_hash: str) -> Optional[SimulationResult]:
    """Return the in-process cached result of the scenario whose
    :meth:`ScenarioSpec.content_hash` is ``content_hash``, if any (no disk I/O)."""
    return _RESULT_CACHE.get(("scenario", content_hash))


def seed_cache(content_hash: str, result: SimulationResult) -> None:
    """Memoise, under its scenario's content hash, a result computed
    elsewhere (e.g. by a pool worker)."""
    _RESULT_CACHE[("scenario", content_hash)] = result


def _warn_stale_entries(cache_dir: str) -> None:
    """Log (once per directory) when the cache holds other-generation entries.

    Entries written by a different ``_CACHE_FORMAT_VERSION`` — including the
    pre-v4 unversioned ``run_<digest>.pkl`` names — are never read or
    deleted; they are skipped by construction because the version is part of
    the digest.  This warning makes that silence visible so users know why a
    warm-looking cache recomputes, and that the stale files can be deleted.
    """
    if cache_dir in _STALE_SCANNED:
        return
    _STALE_SCANNED.add(cache_dir)
    prefix = f"run_v{_CACHE_FORMAT_VERSION}_"
    try:
        stale = [name for name in os.listdir(cache_dir)
                 if name.startswith("run_") and name.endswith(".pkl")
                 and not name.startswith(prefix)]
    except OSError:
        return
    if stale:
        _log.warning(
            "skipping %d stale run-cache entr%s in %s (format != v%d); "
            "these runs will be recomputed — delete the old files to "
            "reclaim space", len(stale), "y" if len(stale) == 1 else "ies",
            cache_dir, _CACHE_FORMAT_VERSION)


def _disk_cache_path(key: tuple) -> Optional[str]:
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    _warn_stale_entries(cache_dir)
    versioned = (_CACHE_FORMAT_VERSION,) + key
    digest = hashlib.sha256(repr(versioned).encode()).hexdigest()[:24]
    return os.path.join(cache_dir, f"run_v{_CACHE_FORMAT_VERSION}_{digest}.pkl")


def _load_cached_result(disk_path: str) -> Optional[SimulationResult]:
    """Load a pickled result, tolerating truncated/corrupt/stale files.

    A parallel writer that died mid-write (or a cache produced by an older
    source tree) must never poison the run: unusable files are deleted and the
    run is recomputed.
    """
    try:
        with open(disk_path, "rb") as handle:
            result = pickle.load(handle)
    except OSError:
        # Missing file, or a transient I/O failure (EMFILE, NFS hiccup):
        # recompute this once but leave the entry alone.
        return None
    except _CACHE_CORRUPTION_ERRORS:
        try:
            os.unlink(disk_path)
        except OSError:
            pass
        return None
    if not isinstance(result, SimulationResult):
        return None
    return result


def _store_cached_result(disk_path: str, result: SimulationResult) -> None:
    """Atomically publish a result so concurrent readers never see a torn file.

    The payload is written to a unique temporary file in the same directory
    and moved into place with :func:`os.replace`; readers either see the old
    state (missing file) or the complete new pickle, never a prefix.
    """
    directory = os.path.dirname(disk_path) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=os.path.basename(disk_path) + ".",
                                    suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(result, handle)
        os.replace(tmp_path, disk_path)
    except Exception:
        # The cache is an optimisation: a failure to persist (disk full,
        # unpicklable payload, ...) must neither kill the run that already
        # computed the result nor leave a stray temp file behind.
        pass
    finally:
        if os.path.exists(tmp_path):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


def cached_simulation(content_hash: str, compute) -> SimulationResult:
    """Run ``compute()`` through the in-process and on-disk result caches.

    ``content_hash`` is a :meth:`ScenarioSpec.content_hash` digest; it is the
    single cache identity shared by every route into a run (experiment
    cells, scenario files, :func:`repro.api.simulate`).
    """
    key = ("scenario", content_hash)
    if key in _RESULT_CACHE:
        return _RESULT_CACHE[key]
    disk_path = _disk_cache_path(key)
    if disk_path:
        result = _load_cached_result(disk_path)
        if result is not None:
            _RESULT_CACHE[key] = result
            return result
    result = compute()
    _RESULT_CACHE[key] = result
    if disk_path:
        _store_cached_result(disk_path, result)
    return result


def run_matrix(system_names: Sequence[str],
               settings: Optional[ExperimentSettings] = None,
               workloads: Optional[Iterable[str]] = None,
               jobs: Optional[int] = None,
               progress: Optional[ProgressCallback] = None,
               **system_overrides) -> Dict[str, Dict[str, SimulationResult]]:
    """Run every (workload, system) pair; returns ``{workload: {system: result}}``.

    The whole run list is one :func:`~repro.experiments.engine.run_many`
    batch: ``jobs`` (default: ``REPRO_JOBS``) above 1 fans it out across a
    process pool, and the returned matrix is identical to the in-process one.
    """
    settings = settings or ExperimentSettings()
    workloads = tuple(workloads) if workloads is not None else settings.workloads
    cells = [(workload, system_name)
             for workload in workloads for system_name in system_names]
    results = run_many([scenario_for_run(system_name, workload, settings,
                                         **system_overrides)
                        for workload, system_name in cells],
                       jobs=jobs, progress=progress)
    matrix: Dict[str, Dict[str, SimulationResult]] = {}
    for (workload, system_name), result in zip(cells, results):
        matrix.setdefault(workload, {})[system_name] = result
    return matrix
