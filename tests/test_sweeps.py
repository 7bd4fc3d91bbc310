"""The sweep scripts in tests/sweeps only use invspan names that exist.

pytest does not collect the sweeps, so a renamed or merged helper would
break them silently.  They are parsed, not imported: dcov_timing.py sets
thread variables when it is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

SWEEPS = sorted((Path(__file__).resolve().parent / "sweeps").glob("*.py"))


def _invspan_references(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for every invspan name a script imports or reads through a module alias."""
    aliases = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "invspan":
            for alias in node.names:
                if node.module == "invspan":
                    aliases[alias.asname or alias.name] = f"invspan.{alias.name}"
                else:
                    refs.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            refs.add((aliases[node.value.id], node.attr))
    return refs


def test_every_sweep_is_checked():
    assert [p.name for p in SWEEPS] == [
        "algebra_peaks.py",
        "curtail_sweep.py",
        "dcov_timing.py",
        "paired_sweep.py",
        "span_sweep.py",
        "split_sweep.py",
        "walk_sweep.py",
    ]


@pytest.mark.parametrize("path", SWEEPS, ids=lambda p: p.name)
def test_sweep_references_exist(path):
    refs = _invspan_references(ast.parse(path.read_text(encoding="utf-8")))
    assert refs, "no invspan name found"
    missing = [f"{module}.{name}" for module, name in sorted(refs) if not hasattr(importlib.import_module(module), name)]
    assert not missing
