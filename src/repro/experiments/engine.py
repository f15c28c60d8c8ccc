"""Batch execution of simulation runs.

Every experiment in this repository ultimately reduces to a list of
:class:`~repro.scenario.ScenarioSpec` runs (see
:func:`repro.experiments.runner.scenario_for_run`).  :func:`run_many` is the
one way such a batch runs:

* **run deduplication** — specs are grouped by
  :meth:`~repro.scenario.ScenarioSpec.content_hash`, so a run submitted
  twice in one batch is simulated once and its repeats report ``cache``;
* **cache integration** — runs already memoised in-process are never
  re-simulated, and results computed by pool workers are seeded back into
  the parent's in-process cache (workers additionally share the on-disk
  cache when ``REPRO_CACHE_DIR`` is set, see :mod:`repro.experiments.runner`);
* **deterministic result ordering** — results come back in the order the
  specs were submitted, regardless of which worker finished first;
* **per-run progress/timing reporting** via a callback (enabled on stderr by
  setting ``REPRO_PROGRESS=1``).

The unique pending runs go through :func:`repro.api.simulate`: on a shared
:class:`concurrent.futures.ProcessPoolExecutor` when more than one worker is
asked for and more than one run is pending, and otherwise in-process — which
is also the fallback when the platform cannot start worker processes.  The
worker count comes from the ``jobs`` argument, defaulting to the
``REPRO_JOBS`` environment variable (``1`` = in-process, ``N`` = pool of *N*
workers, ``auto``/``0`` = one worker per CPU).
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.scenario import ScenarioSpec

__all__ = [
    "RunProgress",
    "resolve_jobs",
    "run_many",
    "shutdown_pools",
]


@dataclass(frozen=True)
class RunProgress:
    """Passed to the progress callback after every completed run."""

    completed: int
    total: int
    spec: ScenarioSpec
    seconds: float
    backend: str
    from_cache: bool = False

    def format(self) -> str:
        origin = "cache" if self.from_cache else self.backend
        overrides = ",".join(f"{k}={v}" for k, v in self.spec.system_overrides)
        run = f"{self.spec.name} {overrides}" if overrides else self.spec.name
        return (f"[{self.completed}/{self.total}] {run} "
                f"({self.seconds:.2f}s, {origin})")


ProgressCallback = Callable[[RunProgress], None]


def _stderr_progress(progress: RunProgress) -> None:
    print(progress.format(), file=sys.stderr, flush=True)


def _default_progress() -> Optional[ProgressCallback]:
    return _stderr_progress if os.environ.get("REPRO_PROGRESS") else None


def resolve_jobs(jobs: Union[int, str, None] = None) -> int:
    """Resolve the worker count from an explicit argument or ``REPRO_JOBS``.

    ``None`` falls back to the environment variable; an unset/empty variable
    means in-process execution.  ``jobs`` may also be a string (as typed on a
    command line or in the environment): ``"auto"`` — like the integer ``0``
    — selects one worker per CPU, anything else must parse as an integer.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        jobs = raw
    if isinstance(jobs, str):
        raw = jobs.strip()
        if raw.lower() == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"jobs must be an integer or 'auto', got {raw!r}")
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _timed_simulate(spec: ScenarioSpec,
                    cache_dir: Optional[str]) -> Tuple[object, float]:
    """Worker entry point: simulate one spec and report its wall-clock cost.

    ``cache_dir`` is the parent's ``REPRO_CACHE_DIR`` at submit time.  It is
    re-applied here because shared pools outlive individual batches: a
    worker spawned before the parent changed its cache configuration would
    otherwise keep using the environment it inherited at fork/spawn time.
    """
    from repro import api

    if cache_dir is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
    start = time.perf_counter()
    result = api.simulate(spec)
    return result, time.perf_counter() - start


# Worker pools are expensive to spin up (one interpreter + import per worker
# under the spawn start method), so they are shared across batches: a full
# `repro run` reuses one pool for all ~20 experiments instead of creating and
# tearing one down per figure.  Keyed by worker count; shut down at
# interpreter exit (or discarded on breakage/interrupt).
_SHARED_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _shared_pool(max_workers: int) -> ProcessPoolExecutor:
    pool = _SHARED_POOLS.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=max_workers)
        if not _SHARED_POOLS:
            atexit.register(shutdown_pools)
        _SHARED_POOLS[max_workers] = pool
    return pool


def _discard_pool(max_workers: int, terminate: bool = False) -> None:
    pool = _SHARED_POOLS.pop(max_workers, None)
    if pool is None:
        return
    if terminate:
        # An in-flight simulation can run for minutes; on abort the worker
        # must die now, not at its next bytecode boundary.  The executor has
        # no public kill switch, so reach for its process table (stable on
        # CPython 3.9-3.13) and fall back to a plain cancel elsewhere.
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except (OSError, AttributeError, ValueError):
                pass
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every shared worker pool (registered via atexit)."""
    for jobs in list(_SHARED_POOLS):
        _discard_pool(jobs)


def _submit(workers: int, specs: Sequence[ScenarioSpec]) -> Optional[list]:
    """Submit ``specs`` to the shared pool; ``None`` if no worker can spawn."""
    try:
        executor = _shared_pool(workers)
    except (OSError, ValueError, NotImplementedError):
        # Sandboxed / exotic platforms without working multiprocessing.
        return None
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    try:
        return [executor.submit(_timed_simulate, spec, cache_dir)
                for spec in specs]
    except OSError:
        # Workers are spawned lazily at the first submit(), so a platform
        # that forbids process creation surfaces its OSError here rather
        # than at pool construction.  (Only spawn failures land here; an
        # OSError *inside* a worker's simulation comes out of
        # future.result() and propagates like it would in-process.)
        _discard_pool(workers)
        return None


def run_many(specs: Sequence[ScenarioSpec],
             jobs: Union[int, str, None] = None,
             progress: Optional[ProgressCallback] = None) -> List[object]:
    """Run every spec once per content hash; results keep spec order.

    Runs the in-process cache holds are served from it.  The remaining
    unique specs go through :func:`repro.api.simulate` on the shared worker
    pool when ``resolve_jobs(jobs) > 1`` and more than one is pending, and
    in-process otherwise.  ``progress`` (default: stderr when
    ``REPRO_PROGRESS`` is set) gets one :class:`RunProgress` per spec.
    """
    from repro import api
    from repro.experiments import runner

    specs = list(specs)
    workers = resolve_jobs(jobs)
    path = "process-pool" if workers > 1 else "serial"
    progress = progress or _default_progress()
    results: List[Optional[object]] = [None] * len(specs)
    completed = 0

    def finish(indices: List[int], result, seconds: float, backend: str,
               from_cache: bool = False) -> None:
        # One progress event per submitted occurrence (not per unique run)
        # so ``completed`` reaches ``total``; repeats report ``cache``.
        nonlocal completed
        for position, index in enumerate(indices):
            results[index] = result
            completed += 1
            if progress is not None:
                progress(RunProgress(
                    completed=completed, total=len(specs), spec=specs[index],
                    seconds=seconds if position == 0 else 0.0,
                    backend=backend, from_cache=from_cache or position > 0))

    pending: Dict[str, List[int]] = {}
    for index, spec in enumerate(specs):
        digest = spec.content_hash()
        cached = runner.peek_cached(digest)
        if cached is not None:
            finish([index], cached, 0.0, path, from_cache=True)
        else:
            pending.setdefault(digest, []).append(index)

    futures = None
    if workers > 1 and len(pending) > 1:
        futures = _submit(workers, [specs[indices[0]]
                                    for indices in pending.values()])
    if futures is None:
        for indices in pending.values():
            start = time.perf_counter()
            result = api.simulate(specs[indices[0]])
            finish(indices, result, time.perf_counter() - start, "serial")
        return results

    by_future = dict(zip(futures, pending.items()))
    try:
        for future in as_completed(by_future):
            digest, indices = by_future[future]
            result, seconds = future.result()
            runner.seed_cache(digest, result)
            finish(indices, result, seconds, "process-pool")
    except BrokenProcessPool as exc:  # pragma: no cover - rare
        _discard_pool(workers)
        raise RuntimeError(
            f"parallel experiment execution failed ({exc}); "
            "re-run with REPRO_JOBS=1 to execute serially") from exc
    except BaseException:
        # Ctrl-C or a worker exception must not leave queued or in-flight
        # simulations running for minutes in the background: kill the
        # workers and tear the pool down before propagating.
        _discard_pool(workers, terminate=True)
        raise
    return results
