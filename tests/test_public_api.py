"""The package namespace re-exports every layer's public names, each
declared in exactly one layer's __all__, and only names that exist."""

import importlib

import pytest

import recrange

LAYERS = (
    "errors", "specfun", "records", "model", "estimators", "intervals", "risk", "sim"
)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_reach_the_package(layer):
    module = importlib.import_module(f"recrange.{layer}")
    assert set(module.__all__) <= set(recrange.__all__)
    for name in module.__all__:
        assert getattr(recrange, name) is getattr(module, name)


def test_every_package_export_resolves():
    missing = [name for name in recrange.__all__ if not hasattr(recrange, name)]
    assert missing == []


def test_package_exports_are_the_layers_exports():
    layer_names = [
        name
        for layer in LAYERS
        for name in importlib.import_module(f"recrange.{layer}").__all__
    ]
    assert len(recrange.__all__) == len(set(recrange.__all__))
    assert len(layer_names) == len(set(layer_names))  # each name has one home
    assert set(recrange.__all__) == {"__version__", "datasets", *layer_names}
