import importlib
import inspect

import pytest

import graphonsp

MODULES = ("kernels", "sampling", "steps", "chebyshev", "galerkin",
           "filtering", "homdensity", "experiments", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"graphonsp.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_exports_are_public_module_names():
    # every name graphonsp re-exports is listed in its home module's __all__
    for attr, obj in vars(graphonsp).items():
        if attr.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        assert attr in home.__all__, f"{attr} is not in {obj.__module__}.__all__"
