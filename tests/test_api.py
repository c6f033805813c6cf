"""Every name a layer exports in ``__all__`` resolves on its module."""

import importlib

import pytest

LAYERS = ("families", "measures", "selection", "czmax", "threshold", "weyl", "dynsys")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"ergodecay.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
