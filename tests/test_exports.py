"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import riemann_syzygy

MODULES = ["riemann_syzygy"] + [
    f"riemann_syzygy.{m.name}"
    for m in pkgutil.iter_modules(riemann_syzygy.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
