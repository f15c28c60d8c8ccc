#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload native_fig --seed 42 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced pass and prints the per-layer metrics, writing the spans to
``perfbench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name and unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="see perfbench/README.md")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, passed only through ScenarioSpec.seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes while another one fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "api.py")):
        print(f"perfbench: no simulator source under {SOURCE}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    # Every simulation must run: no disk cache, whatever the environment says.
    os.environ.pop("REPRO_CACHE_DIR", None)
    import harness

    if args.workload not in harness.cells.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(harness.cells.WORKLOADS))
    if args.trace:
        report = harness.per_layer(args.workload, args.seed, args.seconds,
                                   out_dir=os.path.join(HERE, "out"))
    else:
        report = harness.end_to_end(args.workload, args.seed, args.seconds)
    for line in report.lines:
        print(line)
    print(json.dumps(report.summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
