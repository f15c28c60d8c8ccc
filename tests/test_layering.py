"""The engine and the model packages import nothing above them.

Every module under ``src/repro`` is parsed with :mod:`ast`; imports inside
functions count too, so a lazy import cannot hide an upward dependency.
"""

from __future__ import annotations

import ast
import os

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src", "repro")

#: The layers above the engine: the façade, the scenario descriptions, the
#: experiments and the command line.
ABOVE_ENGINE = ("repro.api", "repro.scenario", "repro.experiments", "repro.cli")

#: The packages that model the machine and its workloads.
MODEL_PACKAGES = ("common", "memory", "cache", "mmu", "core", "virt", "baselines",
                  "backends", "workloads", "traces", "analysis")


def _imports(path: str, package: str):
    """Yield ``(line, modules)`` for every import statement in ``path``.

    ``from repro import api`` names ``repro`` and ``repro.api``; a relative
    import is resolved against ``package``, the importing module's package.
    """
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[:len(package.split(".")) + 1 - node.level]
                base = ".".join(parts + ([base] if base else []))
            yield node.lineno, [base] + [f"{base}.{alias.name}" for alias in node.names]


def _violations(packages, forbidden) -> list:
    """``path:line imports module`` for each import, in ``repro.<package>``
    for a package of ``packages``, of a module in or under ``forbidden``."""
    found = []
    for package in packages:
        root = os.path.join(SOURCE, package)
        assert os.path.isdir(root), root
        for directory, _, files in os.walk(root):
            dotted = "repro." + os.path.relpath(directory, SOURCE).replace(os.sep, ".")
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                for line, modules in _imports(path, dotted):
                    bad = [module for module in modules
                           if any(module == top or module.startswith(top + ".")
                                  for top in forbidden)]
                    if bad:
                        found.append(f"{os.path.relpath(path, SOURCE)}:{line} "
                                     f"imports {bad[0]}")
    return sorted(found)


def test_engine_imports_nothing_above_it():
    assert _violations(["sim"], ABOVE_ENGINE) == []


def test_model_packages_import_neither_the_engine_nor_above_it():
    assert _violations(MODEL_PACKAGES, ABOVE_ENGINE + ("repro.sim",)) == []
