"""The names perfbench imports from hlsdse, or rebinds to trace, must exist.

A missing one would only show as a failed benchmark run; this catches it in
the test suite instead.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (module, attribute) pairs that perfbench's traced replay rebinds.
REBOUND = [
    ("hlsdse.agent", "brute_force_optimum"),
    ("hlsdse.agent", "evaluate"),
    ("hlsdse.agent", "build_model"),
    ("hlsdse.agent", "solve"),
    ("hlsdse.latency", "evaluate"),
    ("hlsdse.variantgen", "evaluate"),
]


def _used_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every ``from hlsdse... import name`` and every
    ``module.name`` read on a module imported with ``from hlsdse import``."""
    tree = ast.parse(path.read_text())
    used, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hlsdse"):
            for alias in node.names:
                if node.module == "hlsdse":
                    modules[alias.asname or alias.name] = f"hlsdse.{alias.name}"
                else:
                    used.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.append((modules[node.value.id], node.attr))
    return used


def _cases() -> list[tuple[str, str]]:
    cases = set(REBOUND)
    for path in sorted(PERFBENCH.glob("*.py")):
        cases.update(_used_names(path))
    return sorted(cases)


def test_the_contract_covers_the_workloads_import_block():
    used = _used_names(PERFBENCH / "workloads.py")
    assert ("hlsdse.latency", "brute_force_optimum") in used
    assert ("hlsdse.variantgen", "optimize_bottom_up") in used


@pytest.mark.parametrize("module, name", _cases())
def test_perfbench_names_exist(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
