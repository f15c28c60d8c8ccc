#!/usr/bin/env python3
"""Check that the markdown files a document links or names exist.

Usage::

    python tools/check_md_links.py README.md ARCHITECTURE.md src/repro/api.py [...]

Two checks, network-free on purpose (CI runs this on every push and
external URLs would make the job flaky):

* In a ``.md`` file, every relative ``[text](target)`` link must resolve
  next to the file.  Absolute URLs and in-page anchors are skipped.
* In any file, ``.md`` or ``.py``, every plain-text mention of a ``*.md``
  path (``see ARCHITECTURE.md``, ``docs/backends.md``) must resolve next
  to the mentioning file or at the repository root.  ``EXPERIMENTS.md``,
  the report ``repro run`` writes, is excepted.

Exits 1 listing every broken link and unresolved mention.
"""

from __future__ import annotations

import os
import re
import sys

#: ``[text](target)`` — good enough for the repo's hand-written markdown
#: (no nested brackets, no reference-style links in use).
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
#: A ``*.md`` path that does not continue a URL, a longer path or a glob.
_MENTION_RE = re.compile(r"(?<![\w./:*-])((?:\.\./)*\w[\w./-]*\.md)\b")
#: Generated, so never in the repository.
_GENERATED = {"EXPERIMENTS.md"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_file(path: str) -> list:
    """Return ``(line, problem)`` for every broken link or unresolved mention."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    base = os.path.dirname(os.path.abspath(path))
    problems = []
    if path.endswith(".md"):
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES):
                continue
            resolved = os.path.normpath(os.path.join(base, target.split("#", 1)[0]))
            if not os.path.exists(resolved):
                problems.append((text.count("\n", 0, match.start()) + 1,
                                 f"broken link '{target}' -> {resolved}"))
    for match in _MENTION_RE.finditer(text):
        mention = match.group(1)
        if os.path.basename(mention) in _GENERATED:
            continue
        if not any(os.path.exists(os.path.normpath(os.path.join(directory, mention)))
                   for directory in (base, ROOT)):
            problems.append((text.count("\n", 0, match.start()) + 1,
                             f"'{mention}' is neither next to the file nor at the "
                             "repository root"))
    return problems


def main(argv: list) -> int:
    if not argv:
        print("usage: check_md_links.py FILE.md|FILE.py [...]", file=sys.stderr)
        return 2
    failures = 0
    for path in argv:
        if not os.path.exists(path):
            print(f"{path}: file not found", file=sys.stderr)
            failures += 1
            continue
        problems = check_file(path)
        for line, problem in problems:
            print(f"{path}:{line}: {problem}", file=sys.stderr)
        failures += len(problems)
        if not problems:
            print(f"{path}: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
