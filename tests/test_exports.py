"""Every name the package and its modules export resolves, and every name the
package exports is either used by another library module or a public entry point."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mrforest

MODULES = [
    "mrforest",
    *(f"mrforest.{info.name}" for info in pkgutil.iter_modules(mrforest.__path__)),
]
LIBRARY = Path(mrforest.__file__).resolve().parent

# Exported names that no other library module uses, and why each is public
ENTRY_POINTS = {
    "predict": "one-row prediction for callers serving single rows; perfbench times it",
    "PrivacyBudget": "the type allocate_budget returns",
    "AuditReport": "the type every audit returns",
    "compose_budget": "totals a budget back, the check perfbench and criterion 6 make",
    "CvReport": "the type run_cv returns",
    "SweepReport": "the type sweep returns",
    "wilcoxon_signed_rank": "paired test of two methods' CV accuracies (Demšar, JMLR 2006)",
    "average_ranks": "ranks of methods over datasets (Demšar, JMLR 2006)",
    "TreeNode": "the node graph of Trees.root, which perfbench walks",
    "MrfError": "the base class of every error the library raises, for callers to catch",
}


def referenced_names(path: Path) -> set[str]:
    """The names a module reads, the attributes it takes and the names it imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


REFERENCES = {
    f"mrforest.{path.stem}": referenced_names(path)
    for path in LIBRARY.glob("*.py")
    if path.stem != "__init__"
}


def users(name: str) -> list[str]:
    """The library modules, other than the one that defines ``name``, that use it."""
    home = getattr(mrforest, name).__module__
    return sorted(module for module, names in REFERENCES.items() if module != home and name in names)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


def test_a_use_in_another_module_is_seen():
    assert "mrforest.forest" in users("build_tree")
    assert users("compose_budget") == []


@pytest.mark.parametrize("name", mrforest.__all__)
def test_every_exported_name_is_used_or_an_entry_point(name):
    assert users(name) or name in ENTRY_POINTS, (
        f"{name} is exported, but no other module of the library uses it: "
        "move it to its callers, or list it in ENTRY_POINTS with why it is public"
    )


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_are_exported_and_used_nowhere_else(name):
    assert name in mrforest.__all__
    assert users(name) == [], f"{name} is used by {users(name)}: it needs no entry in ENTRY_POINTS"
