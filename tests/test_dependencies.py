"""The library imports only numpy and the standard library: numpy is the one
dependency pyproject.toml declares, while the test extras bring more."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "mrforest"
MODULES = sorted(LIBRARY.rglob("*.py"))
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def imported_packages(source: str) -> set[str]:
    """The top-level names of a module's absolute imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_modules_are_found():
    assert LIBRARY / "forest.py" in MODULES


def test_a_third_party_import_is_seen():
    assert imported_packages("import scipy.stats\nfrom numpy import sort\nfrom . import tree") == {
        "scipy",
        "numpy",
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    outside = imported_packages(path.read_text(encoding="utf-8")) - ALLOWED
    assert not outside, f"{path.name} imports {sorted(outside)}, which the package does not declare"
