"""Plain-text rendering of experiment results as paper-style tables.

Every experiment runner returns structured data (dicts / dataclasses); this
module renders them as aligned text tables so that the benchmark harness can
print the same rows/series the paper reports, and ``examples/reproduce_paper.py``
can assemble EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render a simple aligned text table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table (used for EXPERIMENTS.md)."""
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


_EXPERIMENTS_MD_HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's motivation and evaluation sections is
regenerated by the benchmark harness (`benchmarks/`) and by the `repro` CLI.
The simulator is a scaled trace-driven model (see ARCHITECTURE.md, "Scaled simulation"): absolute numbers
are not expected to match the paper's Sniper-based testbed, but the *shape* of
each result — who wins, by roughly what factor, and in which direction each
sweep moves — should hold.  The tables below record the paper's headline
numbers next to what this reproduction measures.

| Settings | value |
|---|---|
| memory references per run | {refs} |
| hardware scale factor | {scale} |
| warm-up fraction | {warmup} |
| workloads | {workloads} |
"""


def render_experiments_markdown(results: Iterable, settings) -> str:
    """Assemble the EXPERIMENTS.md report from a list of figure results.

    ``results`` is an iterable of :class:`repro.experiments.runner.FigureResult`
    (duck-typed here to keep the analysis layer free of experiment imports);
    ``settings`` is the :class:`~repro.experiments.runner.ExperimentSettings`
    the results were produced with.
    """
    sections = [_EXPERIMENTS_MD_HEADER.format(
        refs=settings.max_refs, scale=settings.hardware_scale,
        warmup=settings.warmup_fraction, workloads=", ".join(settings.workloads))]
    for result in results:
        sections.append(f"\n## {result.experiment_id}: {result.title}\n")
        if result.paper_expectation:
            sections.append("| metric | paper | measured |\n|---|---|---|")
            for key, paper, measured in result.comparison_rows():
                sections.append(f"| {key} | {paper} | {measured} |")
            sections.append("")
        if result.notes:
            sections.append(f"*{result.notes}*\n")
        sections.append("<details><summary>full table</summary>\n")
        sections.append(result.to_markdown())
        sections.append("\n</details>\n")
    return "\n".join(sections) + "\n"
