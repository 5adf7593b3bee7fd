"""Every name a module exports in ``__all__`` exists in that module."""

import importlib

import pytest

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


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"esrsim.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"esrsim.{name}.__all__ names missing attributes: {missing}"
