"""The ``repro`` command-line interface.

This is the entry point both humans and CI use to reproduce the paper::

    repro list                         # what can be run
    repro run                          # run every figure, write EXPERIMENTS.md
    repro run --figures fig20,fig21 --jobs 4
    repro run --refs 2000 --workloads rnd,bfs --no-report
    repro scenarios list               # built-in declarative scenarios
    repro run --scenario examples/scenarios/two_tenant_mix.toml
    repro backends list                # registered translation backends

``repro run`` runs each selected experiment's simulations as one batch
through :func:`repro.experiments.engine.run_many`: ``--jobs N`` runs them on
a shared pool of *N* worker processes, ``--jobs auto`` uses one per CPU, and
``--jobs 1`` (the default when ``REPRO_JOBS`` is unset) runs them in-process.
Results are cached in ``REPRO_CACHE_DIR`` (``--cache-dir``) so repeated and
concurrent invocations share completed runs.

``repro run --scenario REF`` instead runs one (or several, with repeated
flags) declarative scenarios through :func:`repro.api.simulate` — ``REF`` is
a TOML/JSON file or a built-in name from ``repro scenarios list`` — sharing
the same disk cache as the figure experiments.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.report import render_experiments_markdown
from repro.common.errors import ConfigurationError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.engine import resolve_jobs
from repro.experiments.runner import ExperimentSettings, FigureResult

__all__ = ["main", "build_parser", "run_experiments", "select_experiments"]


def _experiment_title(function: Callable) -> str:
    doc = inspect.getdoc(function) or ""
    first = doc.splitlines()[0] if doc else ""
    return first.rstrip(".")


def select_experiments(figures: Optional[str]) -> List[Tuple[str, Callable]]:
    """Resolve a ``--figures`` value to ``(name, function)`` pairs, in order.

    ``None``, ``""`` and ``"all"`` select every experiment.  Unknown names
    raise :class:`~repro.common.errors.ConfigurationError` listing the valid
    choices.
    """
    if not figures or figures.strip().lower() == "all":
        return list(ALL_EXPERIMENTS.items())
    selected = []
    for token in figures.split(","):
        name = token.strip().lower()
        if not name:
            continue
        if name not in ALL_EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {name!r}; valid names: "
                + ", ".join(ALL_EXPERIMENTS))
        selected.append((name, ALL_EXPERIMENTS[name]))
    if not selected:
        raise ConfigurationError("no experiments selected")
    return selected


def _build_settings(args: argparse.Namespace) -> ExperimentSettings:
    """Experiment settings from env defaults, overridden by CLI flags."""
    defaults = ExperimentSettings()
    workloads = defaults.workloads
    if args.workloads:
        workloads = tuple(w.strip() for w in args.workloads.split(",") if w.strip())
    return ExperimentSettings(
        max_refs=args.refs if args.refs is not None else defaults.max_refs,
        hardware_scale=(args.hardware_scale if args.hardware_scale is not None
                        else defaults.hardware_scale),
        warmup_fraction=defaults.warmup_fraction,
        seed=args.seed if args.seed is not None else defaults.seed,
        workloads=workloads,
    )


def run_experiments(selected: Sequence[Tuple[str, Callable]],
                    settings: ExperimentSettings,
                    jobs=None,
                    quiet: bool = False,
                    stream=None) -> List[FigureResult]:
    """Run experiments, printing each table as it lands."""
    stream = stream or sys.stdout
    results: List[FigureResult] = []
    total = len(selected)
    for index, (name, function) in enumerate(selected, start=1):
        start = time.perf_counter()
        if not quiet:
            print(f"=== {name} ({index}/{total}) ===", file=stream, flush=True)
        kwargs = {}
        if "jobs" in inspect.signature(function).parameters:
            kwargs["jobs"] = jobs
        result = function(settings, **kwargs)
        results.append(result)
        if not quiet:
            print(result.to_table(), file=stream)
            print(f"({time.perf_counter() - start:.1f}s)\n", file=stream, flush=True)
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's figures and tables "
                    "(Victima, MICRO 2023).")
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list the available experiments")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = sub.add_parser(
        "run", help="run experiments and write the markdown report")
    run_parser.add_argument(
        "--figures", "-f", default="all",
        help="comma-separated experiment names (default: all); see 'repro list'")
    run_parser.add_argument(
        "--scenario", "-s", action="append", default=None, metavar="REF",
        help="run a declarative scenario instead of figure experiments: a "
             ".toml/.json file or a built-in name (repeatable; see "
             "'repro scenarios list')")
    run_parser.add_argument(
        "--jobs", "-j", default=None,
        help="parallel simulation workers: N, or 'auto' for one per CPU "
             "(default: $REPRO_JOBS, serial when unset)")
    run_parser.add_argument(
        "--refs", type=int, default=None,
        help="memory references per run (default: $REPRO_EXPERIMENT_REFS or 20000)")
    run_parser.add_argument(
        "--workloads", default=None,
        help="comma-separated workload subset (default: $REPRO_WORKLOADS or all)")
    run_parser.add_argument(
        "--hardware-scale", type=int, default=None,
        help="machine scale-down factor (default: $REPRO_HARDWARE_SCALE or 8)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="workload generator seed (default: 42)")
    run_parser.add_argument(
        "--sample-stride", type=int, default=None, metavar="N",
        help="SMARTS sampled simulation for --scenario runs: simulate one "
             "detailed window out of every N after warm-up, fast-forwarding "
             "the rest (1 = full detail; results gain error bars)")
    run_parser.add_argument(
        "--sample-warmup", type=int, default=None, metavar="REFS",
        help="detailed-but-unmeasured references re-warming state at the "
             "head of each detailed window (requires --sample-stride)")
    run_parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the shared on-disk run cache "
             "(default: $REPRO_CACHE_DIR, disabled when unset)")
    run_parser.add_argument(
        "--output", "-o", default="EXPERIMENTS.md",
        help="path of the markdown report (default: EXPERIMENTS.md)")
    run_parser.add_argument("--no-report", action="store_true",
                            help="skip writing the markdown report")
    run_parser.add_argument("--progress", action="store_true",
                            help="print per-run progress/timing to stderr")
    run_parser.add_argument("--quiet", "-q", action="store_true",
                            help="suppress per-experiment tables")
    run_parser.set_defaults(handler=_cmd_run)

    scenarios_parser = sub.add_parser(
        "scenarios", help="inspect the declarative scenario registry")
    scenarios_sub = scenarios_parser.add_subparsers(dest="scenarios_command",
                                                    required=True)
    scenarios_list = scenarios_sub.add_parser(
        "list", help="list built-in scenarios and example scenario files")
    scenarios_list.set_defaults(handler=_cmd_scenarios_list)

    backends_parser = sub.add_parser(
        "backends", help="inspect the translation-backend registry")
    backends_sub = backends_parser.add_subparsers(dest="backends_command",
                                                  required=True)
    backends_list = backends_sub.add_parser(
        "list", help="list every registered translation backend")
    backends_list.set_defaults(handler=_cmd_backends_list)
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    width = max(len(name) for name in ALL_EXPERIMENTS)
    for name, function in ALL_EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {_experiment_title(function)}")
    return 0


class _scoped_environ:
    """Set environment variables for the duration of one command.

    The cache dir and progress flag are communicated to the runner (and its
    pool workers) through the environment; restoring the previous values
    keeps repeated in-process ``main()`` calls (tests, scripting) hermetic.
    """

    def __init__(self, **values: Optional[str]):
        self.values = {k: v for k, v in values.items() if v is not None}
        self.saved: dict = {}

    def __enter__(self):
        for key, value in self.values.items():
            self.saved[key] = os.environ.get(key)
            os.environ[key] = value
        return self

    def __exit__(self, *exc_info):
        for key, previous in self.saved.items():
            if previous is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = previous
        return False


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.scenario import list_scenarios

    builtin = list_scenarios()
    width = max(len(name) for name in builtin)
    print("built-in scenarios (run with: repro run --scenario NAME):")
    for name, description in builtin.items():
        print(f"  {name.ljust(width)}  {description}")
    # Example files live in the repository, not the installed package: look
    # both in the current directory and next to this source checkout.
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    candidates = [os.path.join("examples", "scenarios"),
                  os.path.join(repo_root, "examples", "scenarios")]
    for example_dir in candidates:
        if not os.path.isdir(example_dir):
            continue
        files = sorted(f for f in os.listdir(example_dir)
                       if f.endswith((".toml", ".json")))
        if files:
            print(f"example scenario files ({example_dir}/):")
            for filename in files:
                print(f"  {os.path.join(example_dir, filename)}")
        break
    return 0


def _cmd_backends_list(args: argparse.Namespace) -> int:
    from repro.backends import available_backends

    specs = available_backends()
    name_width = max(len(spec.name) for spec in specs)
    label_width = max(len(spec.label) for spec in specs)
    print("registered translation backends "
          "(use as a system name in scenarios and presets):")
    for spec in specs:
        mode = "virtualized" if spec.virtualized else "native"
        print(f"  {spec.name.ljust(name_width)}  "
              f"{spec.label.ljust(label_width)}  [{mode}]  {spec.summary}")
    return 0


def _run_scenarios(args: argparse.Namespace) -> int:
    """Handle ``repro run --scenario REF [--scenario REF ...]``."""
    from dataclasses import replace

    from repro import api
    from repro.analysis.report import format_table

    specs = [api.load_scenario(ref) for ref in args.scenario]
    overrides = {}
    if args.refs is not None:
        overrides["max_refs"] = args.refs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.hardware_scale is not None:
        overrides["hardware_scale"] = args.hardware_scale
    if args.sample_stride is not None:
        from repro.sim.sampling import SamplingConfig

        overrides["sampling"] = SamplingConfig(
            stride=args.sample_stride,
            warmup_refs=(args.sample_warmup
                         if args.sample_warmup is not None else 0))
    elif args.sample_warmup is not None:
        raise ConfigurationError("--sample-warmup requires --sample-stride")
    if overrides:
        specs = [replace(spec, **overrides) for spec in specs]
    for spec in specs:
        start = time.perf_counter()
        if not args.quiet:
            print(f"=== {spec.describe()} ===", flush=True)
        result = api.simulate(spec)
        elapsed = time.perf_counter() - start
        if not args.quiet:
            rows = [[key, value] for key, value in result.summary().items()]
            print(format_table(["metric", "value"], rows,
                               title=f"{spec.name} [{result.system_label}]"))
            if result.per_core:
                core_rows = [[core.core, core.workload, core.memory_refs,
                              round(core.cycles, 1), round(core.ipc, 4),
                              round(core.l2_tlb_mpki, 2), core.page_walks]
                             for core in result.per_core]
                print(format_table(
                    ["core", "workload", "refs", "cycles", "ipc",
                     "l2_tlb_mpki", "page_walks"],
                    core_rows, title=f"{spec.name} per-core"))
            if result.sampling is not None:
                meta = result.sampling
                sample_rows = [
                    ["stride", meta["stride"]],
                    ["windows", meta["windows"]],
                    ["coverage", round(meta["coverage"], 4)],
                    ["cycles_per_ref", "{:.2f} ± {:.2f} (95% CI)".format(
                        meta["cycles_per_ref_mean"],
                        meta["cycles_per_ref_ci95"])],
                ]
                print(format_table(["sampling", "value"], sample_rows,
                                   title=f"{spec.name} sampled estimate"))
            print(f"({elapsed:.1f}s, hash {spec.content_hash()[:12]})\n",
                  flush=True)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario:
        # Scenario mode runs single simulations through repro.api; the
        # figure-experiment flags have no effect there, so reject them
        # loudly instead of silently ignoring them.
        conflicting = [flag for flag, value in (
            ("--figures", args.figures != "all"),
            ("--workloads", args.workloads is not None),
            ("--jobs", args.jobs is not None),
            ("--output", args.output != "EXPERIMENTS.md"),
        ) if value]
        if conflicting:
            raise ConfigurationError(
                "--scenario cannot be combined with "
                + "/".join(conflicting)
                + " (scenario files carry their own run description)")
        with _scoped_environ(REPRO_CACHE_DIR=args.cache_dir,
                             REPRO_PROGRESS="1" if args.progress else None):
            return _run_scenarios(args)
    if args.sample_stride is not None or args.sample_warmup is not None:
        raise ConfigurationError(
            "--sample-stride/--sample-warmup apply to --scenario runs only "
            "(figure experiments always simulate in full detail)")
    selected = select_experiments(args.figures)
    # jobs stays a raw string/None here; resolve_jobs (via run_many)
    # understands both, so there is exactly one parser for N / 'auto'.
    jobs = args.jobs
    resolved = resolve_jobs(jobs)
    with _scoped_environ(REPRO_CACHE_DIR=args.cache_dir,
                         REPRO_PROGRESS="1" if args.progress else None):
        settings = _build_settings(args)
        if not args.quiet:
            backend = ("serial" if resolved <= 1
                       else f"process pool ({resolved} workers)")
            print(f"running {len(selected)} experiment(s) "
                  f"[{backend}, refs={settings.max_refs}, "
                  f"workloads={','.join(settings.workloads)}]", flush=True)
        start = time.perf_counter()
        results = run_experiments(selected, settings, jobs=jobs, quiet=args.quiet)
        if not args.no_report:
            with open(args.output, "w") as handle:
                handle.write(render_experiments_markdown(results, settings))
            if not args.quiet:
                print(f"wrote {args.output}")
        if not args.quiet:
            print(f"done: {len(results)} experiment(s) in "
                  f"{time.perf_counter() - start:.1f}s")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
