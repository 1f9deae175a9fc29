"""The package namespace re-exports every layer's public names, and only
names that exist."""

import importlib

import pytest

import recrange

LAYERS = ("specfun", "records", "model", "estimators", "intervals", "risk", "sim")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_reach_the_package(layer):
    module = importlib.import_module(f"recrange.{layer}")
    assert set(module.__all__) <= set(recrange.__all__)
    for name in module.__all__:
        assert getattr(recrange, name) is getattr(module, name)


def test_every_package_export_resolves():
    missing = [name for name in recrange.__all__ if not hasattr(recrange, name)]
    assert missing == []
