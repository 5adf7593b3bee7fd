"""Every name a module exports in ``__all__`` exists in that module, and every
public function or class a module defines is exported."""

import importlib
import inspect
import pkgutil

import pytest

import esrsim

MODULES = [
    "cli",
    "correlations",
    "hidden_variables",
    "linalg",
    "measurement",
    "mixtures",
    "selftest",
    "simplex",
]


def test_every_module_is_checked():
    found = {info.name for info in pkgutil.iter_modules(esrsim.__path__)} - {"__main__"}
    assert found == set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"esrsim.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"esrsim.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(f"esrsim.{name}")
    unlisted = [
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
        and attr not in module.__all__
    ]
    assert not unlisted, f"esrsim.{name} defines public names outside __all__: {unlisted}"
