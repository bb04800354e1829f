"""Every name the package and its modules export resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import mrforest

MODULES = [
    "mrforest",
    *(f"mrforest.{info.name}" for info in pkgutil.iter_modules(mrforest.__path__)),
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
